"""Persistent match store: similarity matrices and SQL-aggregated counts.

PR 8's :class:`~repro.store.logstore.LogStore` made *ingestion* skip
parse and count on a hit; the matching stage still rebuilt both graphs
and re-ran the EMS fixpoint every invocation.  The :class:`MatchStore`
extends the same SQLite file with two more structures so a repeated (or
grown) log pair skips the fixpoint too:

* a ``matrices`` table — one digest-verified, LRU-bounded row per
  (counts key pair, graph threshold, ``EMSConfig`` knobs, label scorer)
  under :func:`matrix_content_key`, holding the per-direction similarity
  arrays at the dtype the fixpoint ran at (``EMSConfig.np_dtype``; a
  float32 run stores float32 — half the bytes, exact round-trip).  The
  combined matrix is *not* stored: it is recomputed on load with the
  same reduction the live engine uses
  (:func:`repro.core.ems.combine_directional`), so a served result is
  bit-identical to the stored run.
* an ``events`` table — the normalized trace rows
  ``(counts key, trace index, position, activity)`` of stored logs, so
  Definition-1 counting can be pushed down into SQL window functions
  (:meth:`MatchStore.sql_statistics`) instead of materializing per-trace
  Python counters: ``COUNT(DISTINCT trace_id)`` per activity, and
  ``LEAD() OVER (PARTITION BY trace_id ORDER BY pos)`` for the directly-
  follows pairs — exactly the traces-containing semantics of
  :meth:`~repro.logs.streaming.OnlineStatistics.add_sequence`.

Durability mirrors the log store: matrix rows are sha256-verified on
load, a torn row is deleted and answered as a miss
(``match_store_corrupt_total``), and SQL-served counts are cross-checked
against the expected trace count when one is known — corruption always
degrades to a logged cold computation, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from collections import Counter
from typing import Any, Iterable

import numpy as np

from repro.core.config import EMSConfig
from repro.core.ems import EMSResult
from repro.logs.streaming import OnlineStatistics
from repro.obs import get_logger
from repro.store.logstore import LogStore

_logger = get_logger(__name__)

#: Trace rows are written in batches of this many event rows.
_ROW_BATCH = 4096

#: Record fields every stored matrix row must carry.
_MATRIX_FIELDS = frozenset(
    {"rows", "cols", "directional", "iterations", "pair_updates",
     "converged", "estimated", "log_names"}
)


def matrix_content_key(
    counts_key_first: str,
    counts_key_second: str,
    min_frequency: float,
    config: EMSConfig,
    label_key: str = "opaque",
) -> str:
    """Content key of one similarity-matrix computation.

    Keys on everything that determines the matrix values: the two counts
    keys (which already encode file content, format and parse mode), the
    graph threshold, the label scorer, and every ``EMSConfig`` knob the
    fixpoint reads — including ``kernel`` and ``dtype``: results are
    bitwise reproducible only within one kernel and dtype.
    ``vectorized`` is bitwise equal to ``reference``, but ``sparse``
    agrees only within the ``ATOL`` of
    ``tests/core/test_sparse_kernel_equivalence.py``, so a row per kernel
    keeps a stored matrix bit-identical to a fresh computation.
    ``threshold`` is *not* part of the key; it filters pairs after the
    assignment and never touches matrix values.  Floats go through
    ``repr`` so equal values — and only equal values — share a row.
    """
    payload = [
        counts_key_first,
        counts_key_second,
        repr(min_frequency),
        label_key,
        repr(config.alpha),
        repr(config.c),
        repr(config.epsilon),
        config.max_iterations,
        config.direction,
        config.use_pruning,
        config.estimation_iterations,
        config.use_edge_weights,
        config.kernel,
        config.dtype,
    ]
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def matrix_record(
    result: EMSResult,
    config: EMSConfig,
    log_names: tuple[str, str],
) -> dict[str, Any]:
    """The storable form of a finished :class:`EMSResult`.

    Only the directional arrays are kept, narrowed to the dtype the
    fixpoint ran at (float32 runs store float32 — lossless, half the
    bytes); the combined matrix is recomputed on restore with the same
    reduction the engine uses, so nothing redundant is persisted.
    """
    assert result.directional is not None
    dtype = config.np_dtype
    return {
        "rows": result.matrix.rows,
        "cols": result.matrix.cols,
        "directional": {
            name: matrix.to_record(dtype)
            for name, matrix in result.directional.items()
        },
        "iterations": result.iterations,
        "pair_updates": result.pair_updates,
        "converged": result.converged,
        "estimated": result.estimated,
        "log_names": tuple(log_names),
    }


def restore_result(record: dict[str, Any]) -> EMSResult:
    """Rebuild the :class:`EMSResult` a :func:`matrix_record` captured."""
    directional_values = {
        name: sub["values"] for name, sub in record["directional"].items()
    }
    return EMSResult.from_directional(
        tuple(record["rows"]),
        tuple(record["cols"]),
        directional_values,
        iterations=int(record["iterations"]),
        pair_updates=int(record["pair_updates"]),
        converged=bool(record["converged"]),
        estimated=bool(record["estimated"]),
    )


class MatchStore(LogStore):
    """A :class:`LogStore` that also persists matrices and trace rows.

    Backward- and forward-compatible with plain log stores: the extra
    tables are additive (``CREATE TABLE IF NOT EXISTS``), so a database
    written by either class opens under the other.
    """

    generic_tables = LogStore.generic_tables + ("matrices",)

    def _create_extra_tables(self, connection: sqlite3.Connection) -> None:
        connection.execute(
            "CREATE TABLE IF NOT EXISTS events ("
            "  key TEXT NOT NULL,"
            "  trace_id INTEGER NOT NULL,"
            "  pos INTEGER NOT NULL,"
            "  activity TEXT NOT NULL"
            ")"
        )
        connection.execute(
            "CREATE INDEX IF NOT EXISTS events_by_key "
            "ON events (key, trace_id, pos)"
        )

    # ------------------------------------------------------------------
    # Similarity matrices
    # ------------------------------------------------------------------
    def _match_hit(self) -> None:
        self.observer.count(
            "match_store_hits_total",
            help="match lookups served from a persisted similarity matrix",
        )

    def _match_miss(self) -> None:
        self.observer.count(
            "match_store_misses_total",
            help="match lookups that fell through to the EMS fixpoint",
        )

    def _row_rejected(self, table: str) -> None:
        # A digest-rejected matrices row belongs in the matrix quartet
        # too, so `match_store_corrupt_total` covers every rejection
        # reason — torn bytes and malformed records alike.
        if table == "matrices":
            self.observer.count(
                "match_store_corrupt_total",
                help="stored similarity matrices rejected at load time (cold path)",
            )

    def get_matrix(self, key: str) -> dict[str, Any] | None:
        """The stored matrix record for *key*, or ``None``.

        The record is the dict :meth:`put_matrix` stored; a malformed
        record (missing fields, directional arrays not matching the
        label grid) is treated exactly like a corrupt row: deleted,
        counted, answered as a miss.
        """
        with self._lock:
            return self._get_matrix_locked(key)

    def _get_matrix_locked(self, key: str) -> dict[str, Any] | None:
        value = self._get("matrices", key)
        if value is None:
            self._match_miss()
            return None
        if not self._matrix_record_ok(value):
            _logger.warning(
                "store matrix row %s... has an unexpected shape; computing cold",
                key[:12],
            )
            self.observer.count("store_corrupt_total")
            self.observer.count(
                "match_store_corrupt_total",
                help="stored similarity matrices rejected at load time (cold path)",
            )
            self._execute("DELETE FROM matrices WHERE key = ?", (key,))
            self._commit()
            self._match_miss()
            return None
        self._match_hit()
        return value

    @staticmethod
    def _matrix_record_ok(value: Any) -> bool:
        if not isinstance(value, dict) or not _MATRIX_FIELDS.issubset(value):
            return False
        rows, cols = value["rows"], value["cols"]
        directional = value["directional"]
        if not isinstance(directional, dict) or not directional:
            return False
        for record in directional.values():
            if not isinstance(record, dict) or "values" not in record:
                return False
            values = record["values"]
            if not isinstance(values, np.ndarray):
                return False
            if values.shape != (len(rows), len(cols)):
                return False
        return True

    def put_matrix(self, key: str, record: dict[str, Any]) -> None:
        self._put("matrices", key, record)

    def delete_matrix(self, key: str) -> None:
        self._execute("DELETE FROM matrices WHERE key = ?", (key,))
        self._commit()

    # ------------------------------------------------------------------
    # Trace rows (SQL push-down)
    # ------------------------------------------------------------------
    def insert_event_rows(
        self, rows: Iterable[tuple[str, int, int, str]]
    ) -> None:
        """Stage a batch of ``(key, trace_id, pos, activity)`` rows.

        Deliberately does *not* commit: the ingestion pipeline stages
        rows while streaming traces and commits them atomically with the
        counts row (``put_counts``), so a crash mid-stream never leaves
        partial rows behind a completed-looking key.
        """
        with self._lock:
            if self._connection is None:
                self._connect()
            try:
                assert self._connection is not None
                self._connection.executemany(
                    "INSERT INTO events (key, trace_id, pos, activity) "
                    "VALUES (?, ?, ?, ?)",
                    rows,
                )
            except sqlite3.DatabaseError as error:
                _logger.warning(
                    "could not stage trace rows (%s); SQL push-down disabled "
                    "for this ingest", error,
                )

    def delete_trace_rows(self, key: str) -> None:
        self._execute("DELETE FROM events WHERE key = ?", (key,))

    def rekey_trace_rows(self, old_key: str, new_key: str) -> None:
        """Move stored trace rows to a new counts key (append fast path)."""
        with self._lock:
            self._execute("DELETE FROM events WHERE key = ?", (new_key,))
            self._execute(
                "UPDATE events SET key = ? WHERE key = ?", (new_key, old_key)
            )

    def rollback(self) -> None:
        """Discard staged-but-uncommitted work (failed ingest cleanup)."""
        with self._lock:
            if self._connection is not None:
                try:
                    self._connection.rollback()
                except sqlite3.Error:
                    pass

    def stored_trace_count(self, key: str) -> int:
        with self._lock:
            cursor = self._execute(
                "SELECT COUNT(DISTINCT trace_id) FROM events WHERE key = ?",
                (key,),
            )
            row = cursor.fetchone() if cursor is not None else None
            return int(row[0]) if row else 0

    def sql_statistics(
        self, key: str, expected_traces: int | None = None
    ) -> OnlineStatistics | None:
        """Definition-1 counts of a stored log, aggregated inside SQLite.

        Activity counts are traces-containing counts
        (``COUNT(DISTINCT trace_id)`` per activity) and pair counts use
        the ``LEAD`` window function over ``(trace_id, pos)`` — the exact
        distinct-per-trace semantics of
        :meth:`~repro.logs.streaming.OnlineStatistics.add_sequence`, so
        the returned accumulator is bit-identical to Python counting.
        No per-trace Python structure is ever materialized.

        When *expected_traces* is given (from a digest-verified counts
        row) and the stored rows disagree, the rows are treated as
        corrupt: deleted, counted, answered ``None`` — a cold parse,
        never a wrong answer.
        """
        with self._lock, self.observer.span("store.sql", table="events"):
            trace_count = self.stored_trace_count(key)
            if trace_count == 0:
                return None
            if expected_traces is not None and trace_count != expected_traces:
                _logger.warning(
                    "stored trace rows for %s... count %d traces but the "
                    "counts row has %d; dropping rows and computing cold",
                    key[:12], trace_count, expected_traces,
                )
                self.observer.count("store_corrupt_total")
                self.observer.count(
                    "match_store_corrupt_total",
                    help="stored similarity matrices rejected at load time "
                         "(cold path)",
                )
                self.delete_trace_rows(key)
                self._commit()
                return None
            cursor = self._execute(
                "SELECT activity, COUNT(DISTINCT trace_id) FROM events "
                "WHERE key = ? GROUP BY activity",
                (key,),
            )
            if cursor is None:
                return None
            activity_counts: Counter[str] = Counter(dict(cursor.fetchall()))
            cursor = self._execute(
                "WITH seq AS ("
                "  SELECT trace_id, activity,"
                "         LEAD(activity) OVER ("
                "           PARTITION BY trace_id ORDER BY pos"
                "         ) AS next"
                "  FROM events WHERE key = ?"
                ") "
                "SELECT activity, next, COUNT(DISTINCT trace_id) FROM seq "
                "WHERE next IS NOT NULL GROUP BY activity, next",
                (key,),
            )
            if cursor is None:
                return None
            pair_counts: Counter[tuple[str, str]] = Counter(
                {(source, target): count for source, target, count in cursor}
            )
            stats = OnlineStatistics()
            stats.seed_counts(trace_count, activity_counts, pair_counts)
            return stats

    # ------------------------------------------------------------------
    def _on_evicted(self, table: str, keys: list[str]) -> None:
        if table == "counts":
            # Trace rows are reachable only through their counts key;
            # evicting the row orphans them, so cascade the delete.
            marks = ",".join("?" for _ in keys)
            self._execute(f"DELETE FROM events WHERE key IN ({marks})", keys)
        elif table == "matrices":
            self.observer.count(
                "match_store_evictions_total",
                amount=float(len(keys)),
                help="stored similarity matrices dropped by the LRU bound",
            )
