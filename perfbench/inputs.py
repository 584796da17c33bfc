"""Seeded inputs of the three workloads, written as CSV files.

Every pair comes from :mod:`repro.synthesis`.  The process *models* of
each rotation slot are fixed (built from :data:`MODEL_SEED`), so every
benchmark seed runs the same cost class; the benchmark seed draws which
traces each log holds, from a played-out pool twice the log size.  That
keeps operations of one slot alike in cost from seed to seed, while the
program still sees different files on every seed.

The program receives only the CSV files.  The ground truth stays with
the benchmark.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

from repro.logs.log import EventLog
from repro.synthesis.corpus import (
    TESTBED_COMPOSITE,
    TESTBED_DSB,
    TESTBED_DSF,
    TESTBED_DSFB,
    LogPair,
    build_scalability_pair,
    make_log_pair,
)
from repro.synthesis.names import FUNCTIONAL_AREAS, area_pool

#: Seed of the fixed process models; the benchmark seed never changes it.
MODEL_SEED = 2014

#: cli_singleton: two pairs per dislocation testbed, 100 traces a log.
SINGLETON_TESTBEDS = (TESTBED_DSF, TESTBED_DSB, TESTBED_DSFB) * 2
SINGLETON_TRACES = 100

#: cli_composite: five composite-testbed pairs, 2000 traces a log.
COMPOSITE_SLOTS = 5
COMPOSITE_TRACES = 2000

#: service_mixed: structural-only pairs of about 100 activities (writes
#: and reads), and a smaller pair whose first log grows (appends).
WRITE_ACTIVITIES = 100
WRITE_SLOTS = 2
SERVICE_TRACES = 80
APPEND_ACTIVITIES = 40
#: Traces added to the append chain's first log per append.
APPEND_TRACES = 8
#: Appends the chain can take before its trace pool runs dry.
APPEND_DEPTH = 40
#: The append chain's model and trace draw are fixed, not drawn from the
#: benchmark seed.  The warm-started partial path answers every append of
#: this chain about 1e-6 away from a cold match (see CHANGES.md), so its
#: appends fail the append oracle on every run.  On seed-drawn files the
#: same fault shows on some seeds and depths only, which would make the
#: failed share of a run depend on its seed.
APPEND_MODEL_SEED = 1274312108
APPEND_DRAW = "fixed-append-1"

CSV_HEADER = ("case_id", "activity", "timestamp")


@dataclass(frozen=True)
class Pair:
    """Two log files and the generator's ground truth for them."""

    name: str
    first: Path
    second: Path
    #: ``(left activities, right activities)`` of each true correspondence.
    truth: tuple[tuple[frozenset[str], frozenset[str]], ...]

    def activities(self) -> tuple[frozenset[str], frozenset[str]]:
        """The activity names that occur in each file."""
        return _file_activities(self.first), _file_activities(self.second)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "first": str(self.first),
            "second": str(self.second),
            "truth": [[sorted(left), sorted(right)] for left, right in self.truth],
        }


@dataclass
class AppendChain:
    """A pair whose first log grows in place, :data:`APPEND_TRACES` at a time."""

    pair: Pair
    #: Traces not yet in the first file, in the order they are appended.
    pending: list
    #: Ground truth of the pool; restricted to present activities per use.
    pool_truth: tuple[tuple[frozenset[str], frozenset[str]], ...]
    appended: int = 0

    def grow(self) -> Pair:
        """Append the next traces to the first file; the grown pair."""
        start = self.appended * APPEND_TRACES
        batch = self.pending[start:start + APPEND_TRACES]
        if len(batch) < APPEND_TRACES:
            raise RuntimeError(f"append chain {self.pair.name} ran out of traces")
        with open(self.pair.first, "a", newline="", encoding="utf-8") as handle:
            _write_traces(csv.writer(handle), batch)
        self.appended += 1
        first, second = self.pair.activities()
        return Pair(
            f"{self.pair.name}+{self.appended}",
            self.pair.first,
            self.pair.second,
            _restrict(self.pool_truth, first, second),
        )


@dataclass
class ServiceInputs:
    """The files of one ``service_mixed`` run."""

    #: Pairs computed before timing; every read re-submits one of them.
    #: Fixed draws from the write pools (see :func:`service_inputs`).
    read_pairs: list[Pair]
    #: One fixed-model pair pool per write slot.
    write_pools: list[LogPair]
    chain: AppendChain
    directory: Path
    seed: int
    writes_made: int = 0

    def next_write(self) -> Pair:
        """A pair the daemon has not seen: a fresh draw from a write pool."""
        index = self.writes_made
        self.writes_made += 1
        pool = self.write_pools[index % len(self.write_pools)]
        rng = random.Random(f"{self.seed}-write-{index}")
        return _write_pair(
            self.directory, f"write-{index:03d}", pool, SERVICE_TRACES, rng
        )


# ----------------------------------------------------------------------
def singleton_pairs(seed: int, directory: Path) -> list[Pair]:
    """The ``cli_singleton`` rotation: DS-F/DS-B/DS-FB pairs, 6-11 activities."""
    models = random.Random(MODEL_SEED)
    pairs = []
    for index, testbed in enumerate(SINGLETON_TESTBEDS):
        area = FUNCTIONAL_AREAS[index % len(FUNCTIONAL_AREAS)]
        dislocation = models.choice((1, 2, 2, 3))
        extras = dislocation * (2 if testbed == TESTBED_DSFB else 1)
        size = models.randint(6, max(6, min(11, len(area_pool(area)) - extras)))
        pool = make_log_pair(
            area=area, size=size, testbed=testbed,
            seed=models.randrange(2**31),
            traces_per_log=2 * SINGLETON_TRACES,
            dislocation=dislocation,
        )
        rng = random.Random(f"{seed}-singleton-{index}")
        pairs.append(_write_pair(
            directory, f"singleton-{index}-{testbed}", pool, SINGLETON_TRACES, rng
        ))
    return pairs


def composite_pairs(seed: int, directory: Path) -> list[Pair]:
    """The ``cli_composite`` rotation: composite-testbed pairs with m:n truth."""
    models = random.Random(MODEL_SEED + 1)
    pairs = []
    for index in range(COMPOSITE_SLOTS):
        area = FUNCTIONAL_AREAS[index % len(FUNCTIONAL_AREAS)]
        dislocation = models.choice((1, 2, 2, 3))
        size = models.randint(6, max(6, min(11, len(area_pool(area)) - dislocation)))
        pool = make_log_pair(
            area=area, size=size, testbed=TESTBED_COMPOSITE,
            seed=models.randrange(2**31),
            traces_per_log=2 * COMPOSITE_TRACES,
            dislocation=dislocation,
            composite_splits=models.randint(1, 2),
        )
        rng = random.Random(f"{seed}-composite-{index}")
        pairs.append(_write_pair(
            directory, f"composite-{index}", pool, COMPOSITE_TRACES, rng
        ))
    return pairs


def service_inputs(seed: int, directory: Path) -> ServiceInputs:
    """Read pairs, write pools and the append chain of ``service_mixed``."""
    models = random.Random(MODEL_SEED + 2)
    write_pools = [
        build_scalability_pair(
            WRITE_ACTIVITIES, models.randrange(2**31),
            traces_per_log=2 * SERVICE_TRACES,
        )
        for _ in range(WRITE_SLOTS)
    ]
    # The read pairs are fixed draws, not drawn from the benchmark seed:
    # a store hit's cost is mostly the assignment, whose run time varies
    # by a third between draws of one model, and reads are most of the
    # operations.  Fixed draws give every seed the same read work.
    read_pairs = [
        _write_pair(directory, f"read-{index}", pool, SERVICE_TRACES,
                    random.Random(f"fixed-read-{index}"))
        for index, pool in enumerate(write_pools)
    ]
    pool = build_scalability_pair(
        APPEND_ACTIVITIES, APPEND_MODEL_SEED,
        traces_per_log=SERVICE_TRACES + APPEND_TRACES * APPEND_DEPTH,
    )
    rng = random.Random(APPEND_DRAW)
    traces = list(pool.log_first)
    rng.shuffle(traces)
    start = EventLog(traces[:SERVICE_TRACES], name=pool.log_first.name)
    second = _sample(pool.log_second, SERVICE_TRACES, rng)
    pair = _write_logs(directory, "append", start, second, pool.truth)
    chain = AppendChain(pair, traces[SERVICE_TRACES:], _truth_pairs(pool.truth))
    return ServiceInputs(read_pairs, write_pools, chain, directory, seed)


def write_truth(pairs: list[Pair], path: Path) -> None:
    """Record *pairs* and their ground truth as JSON (for inspection)."""
    path.write_text(
        json.dumps([pair.to_dict() for pair in pairs], indent=2) + "\n",
        encoding="utf-8",
    )


# ----------------------------------------------------------------------
def _write_pair(
    directory: Path, name: str, pool: LogPair, traces: int, rng: random.Random
) -> Pair:
    first = _sample(pool.log_first, traces, rng)
    second = _sample(pool.log_second, traces, rng)
    return _write_logs(directory, name, first, second, pool.truth)


def _write_logs(directory: Path, name: str, first: EventLog, second: EventLog,
                truth) -> Pair:
    paths = []
    for suffix, log in (("a", first), ("b", second)):
        path = directory / f"{name}-{suffix}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            _write_traces(writer, log)
        paths.append(path)
    return Pair(
        name, paths[0], paths[1],
        _restrict(_truth_pairs(truth), first.activities(), second.activities()),
    )


def _write_traces(writer, traces) -> None:
    for trace in traces:
        for event in trace:
            stamp = "" if event.timestamp is None else repr(event.timestamp)
            writer.writerow([trace.case_id, event.activity, stamp])


def _sample(log: EventLog, count: int, rng: random.Random) -> EventLog:
    """*count* traces of *log*, drawn by *rng*, kept in pool order."""
    chosen = sorted(rng.sample(range(len(log)), count))
    traces = log.traces
    return EventLog([traces[index] for index in chosen], name=log.name)


def _truth_pairs(truth) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
    return tuple(
        (frozenset(correspondence.left), frozenset(correspondence.right))
        for correspondence in truth
    )


def _restrict(truth, first: frozenset[str], second: frozenset[str]):
    """The truth over the activities present in both files.

    A composite side keeps the parts that are present, as
    :mod:`repro.synthesis.corpus` does for dislocated parts.
    """
    kept = []
    for left, right in truth:
        left, right = left & first, right & second
        if left and right:
            kept.append((frozenset(left), frozenset(right)))
    return tuple(kept)


def _file_activities(path: Path) -> frozenset[str]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        return frozenset(row[1] for row in rows if len(row) > 1)
