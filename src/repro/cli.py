"""Command line interface: match two serialized event logs.

Usage::

    python -m repro match LOG1 LOG2 [--format xes|csv] [--composite]
                                    [--alpha A] [--labels] [--threshold T]
                                    [--estimate I] [--json] [--workers N]
                                    [--kernel K] [--dtype D]
                                    [--timeout S] [--pair-budget N]
                                    [--no-degrade] [--on-error MODE]
                                    [--dead-letter-dir DIR]
                                    [--checkpoint-dir DIR] [--resume]
                                    [--checkpoint-every N]
                                    [--max-retries N] [--task-timeout S]
                                    [--shard-traces N] [--parallel-ingest N]
                                    [--store PATH]
                                    [--trace-out PATH] [--metrics-out PATH]
                                    [--manifest-out PATH] [--log-level LEVEL]
    python -m repro stats LOG [--format xes|csv] [--on-error MODE]
                              [--shard-traces N] [--parallel-ingest N]
                              [--store PATH] [--from-store] [--top N]
                              [--json] [--metrics-out PATH]
                              [--log-level LEVEL]
    python -m repro serve --store-dir DIR [--host H] [--port N]
                          [--workers N] [--watch-dir DIR]
                          [--max-attempts N] [--poll-interval S]
                          [--log-level LEVEL]

Reads the two logs (XES or CSV, auto-detected from the extension by
default), runs EMS matching, and prints the found correspondences with
their similarity — or a JSON document with ``--json`` for scripting.

Failure behaviour (see ``docs/robustness.md``):

* exit 0 — a result was produced, possibly degraded within the budget;
* exit 2 — the inputs could not be read (bad format, missing file, ...);
* exit 3 — the budget was exhausted and degradation was disabled;
* exit 4 — the worker pool could not be kept alive (unrecoverable
  environment failure; retrying the invocation may help, fixing the
  machine will).

``--timeout``/``--pair-budget`` bound the matching work;
``--on-error skip|repair`` makes ingestion fault-tolerant, with the
dropped/repaired rows accounted in the ``--json`` output and the
Markdown report, and ``--dead-letter-dir`` preserves every rejected
record (original bytes + error context, content-addressed) for offline
triage and idempotent re-submission.

Durable execution (composite mode): ``--checkpoint-dir`` snapshots the
greedy search after accepted rounds (atomically, keyed by a content
hash of the inputs and configuration), ``--resume`` continues from the
latest matching snapshot bit-identically, and SIGINT/SIGTERM flush a
final checkpoint and return the best-so-far result as a ``partial``
stage instead of dying mid-round.  ``--max-retries``/``--task-timeout``
tune the worker supervision (retry with backoff, pool respawn, poison-
candidate quarantine).

Observability (see ``docs/observability.md``): ``--trace-out`` writes a
Chrome-trace JSON of the run's spans, ``--metrics-out`` a Prometheus
text exposition, ``--manifest-out`` a run-manifest JSON (config +
environment + per-stage timings), and ``--log-level`` enables library
logging to stderr.

Scale (see ``docs/scale.md``): ``--shard-traces N`` ingests each log
out-of-core in blocks of N traces (peak memory O(shard), not O(log)),
``--parallel-ingest N`` counts the blocks in N supervised worker
processes, and ``--store PATH`` opens a persistent SQLite match store:
counts, dependency graphs, per-trace rows (aggregated by SQL window
functions) and finished similarity matrices are all memoized, so a
repeated log pair skips parse, graph build *and* the EMS fixpoint
(``"match_mode": "store"`` in the JSON output), and a pair with one
appended-to side warm-starts the fixpoint from the stored matrix
(``"store-partial"``).  These flags select a statistics-backed
singleton matching that never materializes the logs, so they are
incompatible with ``--composite`` and ``--report``; results are
bit-identical to the in-memory path.  ``stats`` runs the same ingestion
pipeline without matching and prints the log's Definition-1 statistics;
``stats --from-store`` answers from the store's trace rows alone,
without reading the file.

Serving (see ``docs/service.md``): ``serve`` runs the long-lived
matching daemon — a persistent job queue with content-hash dedup, a
thread scheduler with checkpoint-backed crash recovery, a watch-folder
ingester, and a JSON/REST API with Prometheus ``/metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import EMSConfig
from repro.exceptions import (
    BudgetExhausted,
    LogFormatError,
    ReproError,
    WorkerPoolError,
)
from repro.logs.csvio import read_csv
from repro.logs.log import EventLog
from repro.logs.xes import read_xes
from repro.matchers import EMSCompositeMatcher, EMSMatcher
from repro.obs import (
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    RunManifest,
    Tracer,
    configure_logging,
)
from repro.runtime import (
    CheckpointManager,
    DeadLetterArchive,
    DegradationPolicy,
    EvaluationCache,
    FaultPlan,
    IngestionReport,
    InterruptGuard,
    MatchBudget,
    RetryPolicy,
)
from repro.similarity.labels import QGramCosineSimilarity
from repro.store import (
    DEFAULT_BLOCK_TRACES,
    IngestResult,
    MatchStore,
    ingest_graph,
    ingest_key,
    ingest_statistics,
    match_stored,
    resolve_format,
)

#: Exit code for unreadable/invalid inputs.
EXIT_INPUT_ERROR = 2
#: Exit code for budget exhaustion with the degradation ladder disabled.
EXIT_BUDGET_EXHAUSTED = 3
#: Exit code for an unrecoverable worker-pool failure (the pool died
#: repeatedly before completing any work; see docs/robustness.md).
EXIT_WORKER_FAILURE = 4


def load_log(
    path: str,
    fmt: str = "auto",
    on_error: str = "raise",
    report: IngestionReport | None = None,
) -> EventLog:
    """Load an event log from *path* (XES or CSV).

    Raises :class:`LogFormatError` for unrecognized or unparseable
    inputs — callers decide how to present that (the CLI maps it to exit
    code 2 in :func:`main`).
    """
    resolved = Path(path)
    if fmt == "auto":
        suffix = resolved.suffix.lower()
        if suffix == ".xes":
            fmt = "xes"
        elif suffix == ".csv":
            fmt = "csv"
        else:
            raise LogFormatError(
                f"cannot infer the format of {path!r}; pass --format xes|csv"
            )
    if fmt == "xes":
        return read_xes(resolved, on_error=on_error, report=report)
    if fmt == "csv":
        return read_csv(resolved, name=resolved.stem, on_error=on_error, report=report)
    raise LogFormatError(f"unknown format {fmt!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Match events across two heterogeneous event logs (EMS, SIGMOD 2014).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    match = commands.add_parser("match", help="match two event logs")
    match.add_argument("log_first", help="first event log (.xes or .csv)")
    match.add_argument("log_second", help="second event log (.xes or .csv)")
    match.add_argument("--format", choices=("auto", "xes", "csv"), default="auto")
    match.add_argument(
        "--composite", action="store_true",
        help="enable m:n composite event matching (Algorithm 2)",
    )
    match.add_argument(
        "--labels", action="store_true",
        help="blend in q-gram cosine label similarity (alpha = 0.5 unless set)",
    )
    match.add_argument("--alpha", type=float, default=None,
                       help="structural weight in [0, 1]")
    match.add_argument("--threshold", type=float, default=0.0,
                       help="minimum similarity for a reported pair")
    match.add_argument("--estimate", type=int, default=None, metavar="I",
                       help="use the EMS+es estimation with I exact iterations")
    match.add_argument("--delta", type=float, default=0.01,
                       help="composite-merge improvement threshold")
    match.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; on exhaustion the result degrades "
             "(exact -> estimated -> partial) instead of failing",
    )
    match.add_argument(
        "--pair-budget", type=int, default=None, metavar="N",
        help="cap on formula-(1) pair updates across the whole job",
    )
    match.add_argument(
        "--no-degrade", action="store_true",
        help="disable the degradation ladder: budget exhaustion exits 3",
    )
    match.add_argument(
        "--on-error", choices=("raise", "skip", "repair"), default="raise",
        help="ingestion fault mode: abort on the first bad row (raise), "
             "drop bad rows (skip), or fix what is fixable (repair)",
    )
    match.add_argument(
        "--dead-letter-dir", metavar="DIR", default=None,
        help="archive every record rejected by --on-error skip|repair "
             "(and whole files that fail to parse) under DIR, content-"
             "addressed with a JSON error context",
    )
    match.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="composite mode: snapshot the greedy search to DIR after "
             "accepted rounds, keyed by a content hash of inputs + config",
    )
    match.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="write a snapshot every N accepted rounds (default: 1)",
    )
    match.add_argument(
        "--resume", action="store_true",
        help="resume from the latest matching snapshot in --checkpoint-dir "
             "(cold start with a warning if it is missing or corrupt)",
    )
    match.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="evaluation attempts per composite candidate before it is "
             "quarantined (default: 3); also enables supervision of "
             "serial runs",
    )
    match.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-candidate evaluation timeout in worker-pool runs; a "
             "timed-out worker is killed and the candidate retried",
    )
    match.add_argument(
        "--fault-plan", metavar="PATH", default=None,
        help="inject deterministic faults from a JSON plan (testing aid; "
             "see docs/robustness.md)",
    )
    match.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="evaluate composite candidates in N worker processes "
             "(composite mode only; budgeted and --no-incremental runs "
             "stay serial)",
    )
    match.add_argument(
        "--kernel", choices=("vectorized", "reference", "sparse", "compiled"),
        default="vectorized",
        help="fixpoint kernel: vectorized (fast, default), sparse "
             "(memory-lean CSR gather-scatter for large vocabularies), "
             "compiled (numba-jitted loops; falls back to vectorized with "
             "a warning when numba is absent), or reference (the per-pair "
             "spec loop)",
    )
    match.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="floating-point width of the similarity computation; float32 "
             "halves buffer memory at ~1e-5 accuracy cost",
    )
    match.add_argument(
        "--no-incremental", action="store_true",
        help="disable the incremental composite engine (delta merges, "
             "warm-started fixpoints, estimation screening) and evaluate "
             "every candidate from a cold start, in-process (--workers "
             "is ignored)",
    )
    match.add_argument(
        "--no-best-first", action="store_true",
        help="composite mode: evaluate each round's candidates in static "
             "discovery order instead of best-bound-first with an early "
             "cutoff (results are identical either way)",
    )
    match.add_argument(
        "--eval-cache-dir", metavar="DIR", default=None,
        help="composite mode: memoize candidate evaluations in DIR, "
             "content-keyed, and reuse them on identical reruns "
             "(digest-verified; corrupt entries degrade to cold "
             "evaluation)",
    )
    match.add_argument(
        "--shard-traces", type=int, default=None, metavar="N",
        help="ingest out-of-core in blocks of N traces (peak memory "
             "O(shard)); selects the statistics-backed singleton matching",
    )
    match.add_argument(
        "--parallel-ingest", type=int, default=None, metavar="N",
        help="count ingestion shards in N supervised worker processes "
             "(implies --shard-traces' pipeline; default block size when "
             "--shard-traces is not given)",
    )
    match.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent SQLite log store: memoize content-addressed "
             "counts and dependency graphs so repeated or appended-to "
             "logs skip parsing and counting (digest-verified; corruption "
             "degrades to a cold parse)",
    )
    match.add_argument("--json", action="store_true", help="machine-readable output")
    match.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write a Markdown matching report to PATH",
    )
    match.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome-trace JSON of the run (open in chrome://tracing "
             "or Perfetto)",
    )
    match.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics in Prometheus text exposition format",
    )
    match.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write a run manifest JSON (config, environment, per-stage "
             "timings, stats)",
    )
    match.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable library logging to stderr at this level",
    )

    stats = commands.add_parser(
        "stats", help="compute a log's Definition-1 statistics (no matching)"
    )
    stats.add_argument("log", help="event log (.xes or .csv)")
    stats.add_argument("--format", choices=("auto", "xes", "csv"), default="auto")
    stats.add_argument(
        "--on-error", choices=("raise", "skip", "repair"), default="raise",
        help="ingestion fault mode (same semantics as match)",
    )
    stats.add_argument(
        "--shard-traces", type=int, default=None, metavar="N",
        help="ingest out-of-core in blocks of N traces",
    )
    stats.add_argument(
        "--parallel-ingest", type=int, default=None, metavar="N",
        help="count ingestion shards in N supervised worker processes",
    )
    stats.add_argument(
        "--store", metavar="PATH", default=None,
        help="persistent SQLite log store (see match --store)",
    )
    stats.add_argument(
        "--from-store", action="store_true",
        help="aggregate statistics from the store's trace rows with SQL "
             "window functions, without reading the log file (requires "
             "--store and a prior ingest of the same path)",
    )
    stats.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="activities/pairs shown in the text output (default: 10)",
    )
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    stats.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics in Prometheus text exposition format",
    )
    stats.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable library logging to stderr at this level",
    )
    stats.set_defaults(trace_out=None, manifest_out=None)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived matching daemon (HTTP + watch folder)",
    )
    serve.add_argument(
        "--store-dir", required=True, metavar="DIR",
        help="the daemon's durable root: job queue, match store, "
             "checkpoints, dead letters and the service.json ready file",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="address to bind the HTTP API to (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port for the HTTP API; 0 (the default) picks an "
             "ephemeral port, recorded in DIR/service.json",
    )
    serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="scheduler threads executing jobs concurrently (default: 1)",
    )
    serve.add_argument(
        "--watch-dir", metavar="DIR", default=None,
        help="also ingest job-spec JSON files dropped into DIR",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts before a transiently failing job is declared "
             "dead and dead-lettered (default: 3)",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.1, metavar="SECONDS",
        help="idle scheduler/watcher polling interval (default: 0.1)",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error", "critical"),
        default=None,
        help="enable library logging to stderr at this level",
    )
    return parser


def _build_observer(arguments: argparse.Namespace) -> Observer:
    """The run's observer, shaped by the observability flags.

    A tracer is attached when a trace or manifest is requested, a metrics
    registry when metrics or a manifest are; with none of the flags the
    null observer keeps the run on the uninstrumented path.
    """
    if arguments.log_level is not None:
        configure_logging(arguments.log_level)
    wants_trace = arguments.trace_out or arguments.manifest_out
    wants_metrics = arguments.metrics_out or arguments.manifest_out
    if not wants_trace and not wants_metrics:
        return NULL_OBSERVER
    return Observer(
        tracer=Tracer() if wants_trace else None,
        metrics=MetricsRegistry() if wants_metrics else None,
    )


def _archive_rejected_file(archive, path: str, error: Exception) -> None:
    """Dead-letter a whole input file that failed to parse, if readable."""
    if archive is None:
        return
    try:
        payload = Path(path).read_bytes()
    except OSError:
        return
    archive.put(
        payload, {"source": path, "problem": str(error), "mode": "file"}
    )


def _wants_scale_pipeline(arguments: argparse.Namespace) -> bool:
    return (
        arguments.shard_traces is not None
        or arguments.parallel_ingest is not None
        or arguments.store is not None
    )


def run_match(arguments: argparse.Namespace) -> int:
    observer = _build_observer(arguments)
    if _wants_scale_pipeline(arguments):
        return _run_match_scaled(arguments, observer)
    ingestion_first = IngestionReport(
        source=arguments.log_first, mode=arguments.on_error
    )
    ingestion_second = IngestionReport(
        source=arguments.log_second, mode=arguments.on_error
    )
    archive = None
    if arguments.dead_letter_dir:
        archive = DeadLetterArchive(arguments.dead_letter_dir, observer=observer)
        ingestion_first.archive = archive
        ingestion_second.archive = archive
    with observer.span("match") as root_span:
        with observer.span("ingest.parse", source=arguments.log_first):
            try:
                log_first = load_log(
                    arguments.log_first, arguments.format, arguments.on_error,
                    ingestion_first,
                )
            except LogFormatError as error:
                _archive_rejected_file(archive, arguments.log_first, error)
                raise
        with observer.span("ingest.parse", source=arguments.log_second):
            try:
                log_second = load_log(
                    arguments.log_second, arguments.format, arguments.on_error,
                    ingestion_second,
                )
            except LogFormatError as error:
                _archive_rejected_file(archive, arguments.log_second, error)
                raise
        observer.info(
            "loaded %s (%d traces) and %s (%d traces)",
            arguments.log_first, len(log_first),
            arguments.log_second, len(log_second),
        )
        outcome, matcher, config = _execute_match(
            arguments, observer, log_first, log_second
        )
        root_span.attributes["objective"] = outcome.objective
        root_span.attributes["correspondences"] = len(outcome.correspondences)
        observer.info(
            "matched: %d correspondences, objective %.4f",
            len(outcome.correspondences), outcome.objective,
        )
    _write_observability_outputs(arguments, observer, config, outcome)
    return _render_match_output(
        arguments, outcome, matcher,
        log_first, log_second, ingestion_first, ingestion_second,
    )


def _scale_options(
    arguments: argparse.Namespace, observer: Observer
) -> tuple[int | None, int, MatchStore | None]:
    """Validated (shard_traces, workers, store) of the scale flags."""
    shard_traces = arguments.shard_traces
    if shard_traces is not None and shard_traces < 1:
        raise ReproError(f"--shard-traces must be >= 1, got {shard_traces}")
    workers = (
        arguments.parallel_ingest if arguments.parallel_ingest is not None else 0
    )
    if workers < 0:
        raise ReproError(f"--parallel-ingest must be >= 0, got {workers}")
    if workers > 1 and shard_traces is None:
        shard_traces = DEFAULT_BLOCK_TRACES  # parallel counting needs blocks
    store = (
        MatchStore(arguments.store, observer=observer) if arguments.store else None
    )
    return shard_traces, workers, store


def _run_match_scaled(arguments: argparse.Namespace, observer: Observer) -> int:
    """Statistics-backed matching: ingest out-of-core, match the graphs.

    The logs are never materialized — each input is reduced to
    Definition-1 statistics by the :mod:`repro.store` pipeline (sharded,
    parallel, and/or store-served per the flags) and the singleton
    matching runs on the derived dependency graphs, bit-identical to the
    in-memory path.
    """
    if arguments.composite:
        raise ReproError(
            "--shard-traces/--parallel-ingest/--store select the "
            "statistics-backed pipeline, which is singleton-only; "
            "composite matching needs the full traces"
        )
    if arguments.report:
        raise ReproError(
            "--report renders the parsed logs; it cannot be combined with "
            "the out-of-core --shard-traces/--parallel-ingest/--store path"
        )
    shard_traces, workers, store = _scale_options(arguments, observer)
    retry = None
    if arguments.max_retries is not None:
        if arguments.max_retries < 1:
            raise ReproError(
                f"--max-retries must be >= 1, got {arguments.max_retries}"
            )
        retry = RetryPolicy(max_attempts=arguments.max_retries)
    config, label_similarity, budget, degradation = _match_setup(arguments)

    ingestion_first = IngestionReport(
        source=arguments.log_first, mode=arguments.on_error
    )
    ingestion_second = IngestionReport(
        source=arguments.log_second, mode=arguments.on_error
    )
    archive = None
    if arguments.dead_letter_dir:
        archive = DeadLetterArchive(arguments.dead_letter_dir, observer=observer)
        ingestion_first.archive = archive
        ingestion_second.archive = archive

    scale: dict | None = None
    with observer.span("match") as root_span:
        matcher = EMSMatcher(
            config, label_similarity, threshold=arguments.threshold,
            budget=budget, degradation=degradation, observer=observer,
        )
        if store is not None:
            # The warm end-to-end path: full hit serves the stored
            # matrix, a grown side warm-starts the fixpoint, a miss
            # computes and persists for next time.
            try:
                outcome, provenance = match_stored(
                    arguments.log_first, arguments.log_second,
                    arguments.format, arguments.on_error,
                    matcher=matcher, store=store,
                    reports=(ingestion_first, ingestion_second),
                    shard_traces=shard_traces, workers=workers,
                    policy=retry, task_timeout=arguments.task_timeout,
                    observer=observer,
                )
            except LogFormatError as error:
                _archive_rejected_file(
                    archive,
                    getattr(error, "source", arguments.log_first),
                    error,
                )
                raise
            names = provenance["log_names"]
            scale = {
                "match_mode": provenance["match_mode"],
                "matrix_key": provenance["matrix_key"],
                "ingest_modes": list(provenance["ingest_modes"]),
                "pairs_warm": provenance["pairs_warm"],
            }
            observer.info(
                "match via %s (ingest: %s)",
                provenance["match_mode"], "/".join(provenance["ingest_modes"]),
            )
        else:
            graphs = []
            results = []
            for path, report in (
                (arguments.log_first, ingestion_first),
                (arguments.log_second, ingestion_second),
            ):
                with observer.span("ingest.pipeline", source=path):
                    try:
                        graph, result = ingest_graph(
                            path, arguments.format, arguments.on_error, report,
                            shard_traces=shard_traces, workers=workers,
                            store=store, policy=retry,
                            task_timeout=arguments.task_timeout,
                            observer=observer,
                        )
                    except LogFormatError as error:
                        _archive_rejected_file(archive, path, error)
                        raise
                graphs.append(graph)
                results.append(result)
                observer.info(
                    "ingested %s via %s (%d traces, %d shards)",
                    path, result.mode, result.statistics.trace_count,
                    result.shards,
                )
            outcome = matcher.match_graphs(graphs[0], graphs[1])
            names = (results[0].log_name, results[1].log_name)
        root_span.attributes["objective"] = outcome.objective
        root_span.attributes["correspondences"] = len(outcome.correspondences)
    if store is not None:
        store.close()
    _write_observability_outputs(arguments, observer, config, outcome)
    return _render_match_output(
        arguments, outcome, matcher,
        _NamedInput(names[0]), _NamedInput(names[1]),
        ingestion_first, ingestion_second,
        scale=scale,
    )


class _NamedInput:
    """Stand-in for an :class:`EventLog` in output rendering.

    The scaled path never builds logs; rendering only needs a name.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


def _stats_from_store(
    arguments: argparse.Namespace, store: MatchStore
) -> IngestResult:
    """``stats --from-store``: SQL aggregation only, the file untouched.

    The path is resolved to its stored counts through the ingests table
    (path-keyed, so no content digest — the file need not even exist any
    more), and the Definition-1 counts are aggregated by SQLite window
    functions over the stored trace rows.
    """
    fmt = resolve_format(arguments.log, arguments.format)
    prior = store.get_ingest(ingest_key(arguments.log, fmt, arguments.on_error))
    counts_key = prior["counts_key"] if prior is not None else None
    statistics = (
        store.sql_statistics(counts_key) if counts_key is not None else None
    )
    if statistics is None:
        raise ReproError(
            f"no stored trace rows for {arguments.log!r} in "
            f"{arguments.store!r}; ingest it first (stats --store without "
            f"--from-store)"
        )
    record = store.get_counts(counts_key)
    log_name = (
        record["log_name"] if record is not None else Path(arguments.log).stem
    )
    return IngestResult(
        statistics=statistics.snapshot(),
        log_name=log_name,
        mode="store-sql",
        counts_key=counts_key,
    )


def run_stats(arguments: argparse.Namespace) -> int:
    """The ``stats`` subcommand: ingest one log, print its statistics."""
    observer = _build_observer(arguments)
    if arguments.top < 0:
        raise ReproError(f"--top must be >= 0, got {arguments.top}")
    shard_traces, workers, store = _scale_options(arguments, observer)
    report = IngestionReport(source=arguments.log, mode=arguments.on_error)
    if arguments.from_store:
        if store is None:
            raise ReproError("--from-store requires --store PATH")
        try:
            with observer.span("stats", source=arguments.log):
                result = _stats_from_store(arguments, store)
        finally:
            store.close()
    else:
        with observer.span("stats", source=arguments.log):
            result = ingest_statistics(
                arguments.log, arguments.format, arguments.on_error, report,
                shard_traces=shard_traces, workers=workers, store=store,
                observer=observer,
            )
        if store is not None:
            store.close()
    if arguments.metrics_out:
        Path(arguments.metrics_out).write_text(
            observer.metrics.to_prometheus_text()
        )
    statistics = result.statistics
    if arguments.json:
        payload = {
            "log": result.log_name,
            "mode": result.mode,
            "shards": result.shards,
            "trace_count": statistics.trace_count,
            "activities": len(statistics.activity_frequencies),
            "pairs": len(statistics.pair_frequencies),
            "activity_frequencies": dict(
                sorted(statistics.activity_frequencies.items())
            ),
            "pair_frequencies": {
                f"{source}->{target}": freq
                for (source, target), freq in sorted(
                    statistics.pair_frequencies.items()
                )
            },
            "ingestion": report.to_dict(),
        }
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        print()
        return 0
    print(
        f"{result.log_name}: {statistics.trace_count} traces, "
        f"{len(statistics.activity_frequencies)} activities, "
        f"{len(statistics.pair_frequencies)} dependency pairs "
        f"[{result.mode}"
        + (f", {result.shards} shards]" if result.shards else "]")
    )
    ranked = sorted(
        statistics.activity_frequencies.items(), key=lambda item: (-item[1], item[0])
    )
    for activity, freq in ranked[: arguments.top]:
        print(f"  {activity}: {freq:.3f}")
    if len(ranked) > arguments.top:
        print(f"  ... and {len(ranked) - arguments.top} more")
    if not report.clean or report.fallback_cases:
        print(f"  note: {report.describe()}", file=sys.stderr)
    return 0


def run_serve(arguments: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the matching daemon until a signal."""
    from repro.service import MatchingService

    if arguments.log_level is not None:
        configure_logging(arguments.log_level)
    if arguments.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {arguments.workers}")
    if arguments.max_attempts < 1:
        raise ReproError(
            f"--max-attempts must be >= 1, got {arguments.max_attempts}"
        )
    service = MatchingService(
        arguments.store_dir,
        host=arguments.host,
        port=arguments.port,
        workers=arguments.workers,
        watch_dir=arguments.watch_dir,
        max_attempts=arguments.max_attempts,
        poll_interval=arguments.poll_interval,
    )
    print(
        f"repro service listening on {service.host}:{service.port} "
        f"(store: {arguments.store_dir})",
        flush=True,
    )
    service.run_until_signal()
    return 0


def _match_setup(arguments: argparse.Namespace):
    """The config, label similarity, budget and degradation of a run."""
    label_similarity = QGramCosineSimilarity() if arguments.labels else None
    alpha = arguments.alpha
    if alpha is None:
        alpha = 0.5 if arguments.labels else 1.0
    config = EMSConfig(
        alpha=alpha,
        estimation_iterations=arguments.estimate,
        kernel=arguments.kernel,
        dtype=arguments.dtype,
        incremental=not arguments.no_incremental,
        screening=not arguments.no_incremental,
        best_first=not arguments.no_best_first,
    )

    budget = None
    if arguments.timeout is not None or arguments.pair_budget is not None:
        try:
            budget = MatchBudget(
                deadline=arguments.timeout, max_pair_updates=arguments.pair_budget
            )
        except ValueError as error:
            raise ReproError(str(error)) from None
    degradation = (
        DegradationPolicy.none() if arguments.no_degrade else DegradationPolicy()
    )
    return config, label_similarity, budget, degradation


def _execute_match(
    arguments: argparse.Namespace,
    observer: Observer,
    log_first: EventLog,
    log_second: EventLog,
):
    config, label_similarity, budget, degradation = _match_setup(arguments)

    if arguments.workers < 0:
        raise ReproError(f"--workers must be >= 0, got {arguments.workers}")
    if arguments.composite:
        retry = None
        if arguments.max_retries is not None:
            if arguments.max_retries < 1:
                raise ReproError(
                    f"--max-retries must be >= 1, got {arguments.max_retries}"
                )
            retry = RetryPolicy(max_attempts=arguments.max_retries)
        faults = None
        if arguments.fault_plan is not None:
            try:
                faults = FaultPlan.from_json(
                    Path(arguments.fault_plan).read_text(encoding="utf-8")
                )
            except (OSError, ValueError, KeyError) as error:
                raise ReproError(
                    f"cannot load fault plan {arguments.fault_plan!r}: {error}"
                ) from None
        checkpoints = None
        if arguments.checkpoint_dir is not None:
            if arguments.checkpoint_every < 1:
                raise ReproError(
                    f"--checkpoint-every must be >= 1, got "
                    f"{arguments.checkpoint_every}"
                )
            checkpoints = CheckpointManager(
                arguments.checkpoint_dir,
                every=arguments.checkpoint_every,
                observer=observer,
                faults=faults,
            )
        elif arguments.resume:
            raise ReproError("--resume requires --checkpoint-dir")
        eval_cache = None
        if arguments.eval_cache_dir is not None:
            eval_cache = EvaluationCache(
                arguments.eval_cache_dir, observer=observer
            )
        interrupt = InterruptGuard()
        matcher = EMSCompositeMatcher(
            config, label_similarity,
            threshold=arguments.threshold, delta=arguments.delta,
            budget=budget, degradation=degradation,
            workers=arguments.workers,
            observer=observer,
            retry=retry,
            task_timeout=arguments.task_timeout,
            faults=faults,
            checkpoints=checkpoints,
            resume=arguments.resume,
            interrupt=interrupt,
            eval_cache=eval_cache,
        )
        with interrupt:
            outcome = matcher.match(log_first, log_second)
    else:
        matcher = EMSMatcher(
            config, label_similarity, threshold=arguments.threshold,
            budget=budget, degradation=degradation,
            observer=observer,
        )
        outcome = matcher.match(log_first, log_second)
    return outcome, matcher, config


def _write_observability_outputs(
    arguments: argparse.Namespace,
    observer: Observer,
    config: EMSConfig,
    outcome,
) -> None:
    """Write the trace / metrics / manifest files requested by flags."""
    if arguments.trace_out:
        Path(arguments.trace_out).write_text(
            json.dumps(observer.tracer.to_chrome_trace(), indent=2)
        )
    if arguments.metrics_out:
        Path(arguments.metrics_out).write_text(observer.metrics.to_prometheus_text())
    if arguments.manifest_out:
        runtime = outcome.runtime.to_dict() if outcome.runtime else {}
        manifest = RunManifest.from_observer(
            observer,
            config={
                "alpha": config.alpha,
                "c": config.c,
                "epsilon": config.epsilon,
                "max_iterations": config.max_iterations,
                "direction": config.direction,
                "estimation_iterations": config.estimation_iterations,
                "kernel": config.kernel,
                "dtype": config.dtype,
                "incremental": config.incremental,
                "best_first": config.best_first,
                "composite": arguments.composite,
                "workers": arguments.workers,
            },
            stats={
                "objective": outcome.objective,
                "correspondences": len(outcome.correspondences),
                "diagnostics": dict(outcome.diagnostics),
                "runtime": runtime,
            },
        )
        manifest.write(arguments.manifest_out)


def _render_match_output(
    arguments: argparse.Namespace,
    outcome,
    matcher,
    log_first: EventLog,
    log_second: EventLog,
    ingestion_first: IngestionReport,
    ingestion_second: IngestionReport,
    scale: dict | None = None,
) -> int:
    ingestion = (ingestion_first, ingestion_second)
    if arguments.report:
        from repro.reporting import render_match_report

        report = render_match_report(
            log_first, log_second, outcome, matcher.name, ingestion=ingestion
        )
        Path(arguments.report).write_text(report, encoding="utf-8")

    if arguments.json:
        payload = {
            "log_first": log_first.name,
            "log_second": log_second.name,
            "matcher": matcher.name,
            "objective": outcome.objective,
            "correspondences": [
                {"left": sorted(c.left), "right": sorted(c.right)}
                for c in outcome.correspondences
            ],
            "diagnostics": dict(outcome.diagnostics),
            "runtime": outcome.runtime.to_dict() if outcome.runtime else None,
            "quarantined": [
                record.to_dict() for record in getattr(outcome, "quarantined", ())
            ],
            "ingestion": {
                "first": ingestion_first.to_dict(),
                "second": ingestion_second.to_dict(),
            },
        }
        if scale is not None:
            payload["scale"] = scale
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        print()
        return 0

    print(f"{matcher.name}: {log_first.name} <-> {log_second.name} "
          f"(average similarity {outcome.objective:.3f})")
    if scale is not None and scale["match_mode"] != "computed":
        print(f"  [match store: {scale['match_mode']}]")
    for correspondence in sorted(outcome.correspondences, key=lambda c: min(c.left)):
        marker = "  [m:n]" if correspondence.is_composite() else ""
        print(f"  {' + '.join(sorted(correspondence.left))} <-> "
              f"{' + '.join(sorted(correspondence.right))}{marker}")
    if not outcome.correspondences:
        print("  (no correspondences above the threshold)")
    if outcome.runtime is not None and outcome.runtime.degraded:
        print(f"  note: {outcome.runtime.describe()}", file=sys.stderr)
    quarantined = getattr(outcome, "quarantined", ())
    if quarantined:
        print(
            f"  note: {len(quarantined)} candidate(s) quarantined after "
            f"repeated evaluation failures (see --json for details)",
            file=sys.stderr,
        )
    for report in ingestion:
        if not report.clean or report.fallback_cases:
            print(f"  note: {report.describe()}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        if arguments.command == "match":
            return run_match(arguments)
        if arguments.command == "stats":
            return run_stats(arguments)
        if arguments.command == "serve":
            return run_serve(arguments)
        raise SystemExit(f"unknown command {arguments.command!r}")
    except BudgetExhausted as error:
        print(f"error: {error} (degradation disabled)", file=sys.stderr)
        return EXIT_BUDGET_EXHAUSTED
    except WorkerPoolError as error:
        # Must precede the ReproError clause: an unrecoverable pool is an
        # environment failure, not an input problem.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_WORKER_FAILURE
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
