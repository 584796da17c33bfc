"""The three workloads: ``cli_singleton``, ``cli_composite``, ``service_mixed``.

Each workload function takes ``(seed, seconds, trace, workdir)`` and
returns an :class:`Outcome`: the operations attempted and failed, and
the metrics — the end-to-end ones when *trace* is false, the per-layer
ones when it is true.

All load comes from this one process, with at most two children or
connections at a time.  Warm-ups run before timing and are discarded.
Checks run after timing, on the answers the timed operations returned.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import layers
import procs
import stats

#: Discarded ``repro --help`` processes before the timed ones.
SETUP_WARMUPS = 1
#: Timed ``repro --help`` processes (CLI) or daemon launches (service).
SETUP_SAMPLES = 5
SERVICE_SETUP_SAMPLES = 3

#: service_mixed: scheduler threads of the daemon, and the job mix of one
#: round.  Every round holds the same operations, so every run does.
SERVICE_WORKERS = 2
#: Reads are most of a round, so the open loop's median is a store hit;
#: at the open-loop rate only a round's first two reads can meet its
#: write or append still running in the daemon.
MIX = ("write", "append") + ("read",) * 14
#: Open-loop arrival rate (operations per second), below capacity.
OPEN_RATE = 2.0
#: Share of a run spent in the open-loop phase; the rest saturates.
OPEN_SHARE = 0.65
#: Saturation rounds planned before timing starts.
SATURATION_PLANNED = 4
#: A job's state is polled after a pause of POLL_SHARE of its age so
#: far, and at least POLL_MIN: the latency error stays a small share of
#: the latency while a long job does not flood the daemon with requests.
POLL_MIN = 0.004
POLL_SHARE = 0.04
#: Seconds a job may still take after the open loop's last submission.
DRAIN_SECONDS = 60.0
HTTP_ERRORS = (OSError, http.client.HTTPException, ValueError)


def poll_delay(age: float) -> float:
    return max(POLL_MIN, POLL_SHARE * age)


@dataclass
class Operation:
    """One timed operation and what it returned."""

    kind: str
    pair: inputs.Pair
    latency_s: float = 0.0
    answer: dict | None = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spans: Path | None = None
    #: service_mixed only.
    due: float = 0.0
    sent: float = 0.0
    submit_s: float = 0.0
    polls: int = 0
    in_daemon_s: float = 0.0
    oracle: inputs.Pair | None = None


@dataclass
class Outcome:
    """One run's result.  Answers that fail a check count in *failed*,
    so the answers of the other operations are correct by construction."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    #: Human-readable lines for standard error (never part of the result).
    notes: list[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def settle(operations: list[Operation]) -> tuple[int, int, float]:
    """Check every answer; ``(attempted, failed, F-measure)``, the
    F-measure being the mean over the distinct input pairs answered.

    An operation fails on an error (exit code, HTTP status, job state)
    or on any check problem, so every answer that is not counted as
    failed has passed every check.
    """
    activities: dict[str, tuple[frozenset, frozenset]] = {}
    scores: dict[str, float] = {}
    for operation in operations:
        if operation.error is not None:
            continue
        pair = operation.oracle or operation.pair
        if pair.name not in activities:
            activities[pair.name] = pair.activities()
            # Each distinct input pair counts once: the oracles already
            # hold repeated answers for one pair to the first.
            scores[pair.name] = checks.f_measure(pair.truth, operation.answer)
        operation.problems += checks.structure_problems(
            operation.answer, *activities[pair.name]
        )
    failed = sum(1 for op in operations if op.error is not None or op.problems)
    f_score = statistics.fmean(scores.values()) if scores else 0.0
    return len(operations), failed, f_score


def failure_notes(operations: list[Operation]) -> list[str]:
    notes = []
    for operation in operations:
        for problem in ([operation.error] if operation.error else []) + operation.problems:
            notes.append(f"FAILED {operation.kind} {operation.pair.name}: {problem}")
    return notes


def in_process_answer(args: list[str]) -> dict:
    """``repro ARGS --json`` run in this process (the oracles' route)."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([*args, "--json"])
    if code != 0:
        raise RuntimeError(f"oracle run {args!r} exited {code}")
    return json.loads(buffer.getvalue())


def setup_seconds(workdir: Path) -> float:
    """Median wall time of ``repro --help`` processes, after a warm-up."""
    times = []
    for index in range(SETUP_WARMUPS + SETUP_SAMPLES):
        finished = procs.run(procs.repro_argv(["--help"]), workdir / "setup.err")
        if finished.returncode != 0:
            raise RuntimeError("repro --help failed")
        if index >= SETUP_WARMUPS:
            times.append(finished.wall_s)
    return statistics.median(times)


def import_seconds(workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing ``repro.cli``."""
    argv = [sys.executable, "-c", "import repro.cli"]
    times = [procs.run(argv, workdir / "import.err").wall_s
             for _ in range(SETUP_WARMUPS + SETUP_SAMPLES)]
    return statistics.median(times[SETUP_WARMUPS:])


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
def run_cli(pair: inputs.Pair, flags: list[str], workdir: Path,
            spans: Path | None = None) -> Operation:
    argv = procs.repro_argv(
        ["match", str(pair.first), str(pair.second), *flags, "--json"], spans
    )
    finished = procs.run(argv, workdir / "child.err")
    operation = Operation("match", pair, latency_s=finished.wall_s,
                          peak_rss_mb=finished.peak_rss_mb, spans=spans)
    if finished.returncode != 0:
        operation.error = f"exit code {finished.returncode}"
        return operation
    try:
        operation.answer = json.loads(finished.stdout)
    except ValueError:
        operation.error = "output is not JSON"
    return operation


def closed_loop(pairs, flags, seconds, workdir, spans_dir=None):
    """One client running whole rotations of *pairs* for about *seconds*.

    The loop stops after the rotation that brings it closest to
    *seconds*, so every run holds whole rounds of the same operations.
    With *spans_dir*, every operation runs twice in a row, plainly and
    through the tracing launcher, so both variants see the same
    conditions; the traced operations are returned second.
    """
    plain: list[Operation] = []
    traced: list[Operation] = []
    started = time.perf_counter()
    rounds = 0
    while True:
        for pair in pairs:
            plain.append(run_cli(pair, flags, workdir))
            if spans_dir is not None:
                spans = spans_dir / f"{len(traced):04d}.json"
                traced.append(run_cli(pair, flags, workdir, spans))
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds / 2 >= seconds:
            return plain, traced, elapsed


def cli_workload(pairs, flags, seconds, trace, workdir, oracle) -> Outcome:
    """A closed loop of ``repro match`` processes over a rotation of pairs.

    *oracle* checks the operations after timing, adding problems to
    those whose answers disagree with it.
    """
    run_cli(pairs[0], flags, workdir)  # warm-up: discarded
    if not trace:
        setup = setup_seconds(workdir)
        operations, _, elapsed = closed_loop(pairs, flags, seconds, workdir)
        oracle(operations)
        attempted, failed, f_score = settle(operations)
        latencies = [op.latency_s for op in operations if op.error is None]
        metrics = {
            "setup_s": (setup, "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "throughput_per_s": (len(latencies) / elapsed, "1/s"),
            "f_measure": (f_score, "ratio"),
            "peak_rss_mb": (max(op.peak_rss_mb for op in operations), "MB"),
        }
        notes = failure_notes(operations) + _tail_note(latencies)
        return Outcome(attempted, failed, metrics, notes)

    # Traced run: each operation plainly and through the tracing
    # launcher; the ratio of their medians is the tracing overhead.
    spans_dir = workdir / "spans"
    spans_dir.mkdir()
    plain, traced, _ = closed_loop(pairs, flags, seconds, workdir, spans_dir)
    oracle(plain + traced)
    attempted, failed, _ = settle(plain + traced)
    profile = layers.Profile()
    for operation in traced:
        if operation.error is None:
            profile.add(operation.spans)
    ok = [op for op in traced if op.error is None]
    count = max(1, len(ok))
    walls = sum(op.latency_s for op in ok)
    metrics = {name: (value, PER_LAYER[name])
               for name, value in profile.metrics(count).items()}
    metrics["trace.unattributed_s"] = ((walls - profile.layer_seconds()) / count, "s")
    metrics["cli.import_s"] = (import_seconds(workdir), "s")
    plain_p50 = statistics.median([op.latency_s for op in plain if op.error is None])
    traced_p50 = statistics.median([op.latency_s for op in ok])
    metrics["obs.trace_overhead_ratio"] = (traced_p50 / plain_p50, "ratio")
    metrics.update(_composite_counts(ok))
    notes = failure_notes(plain + traced)
    notes += _manifest_partition(pairs[0], flags, workdir)
    notes += _layer_shares(profile, walls, count)
    return Outcome(attempted, failed, _with_defaults(metrics), notes)


def _composite_counts(operations: list[Operation]) -> dict:
    totals: dict[str, float] = {}
    for operation in operations:
        for key, value in operation.answer.get("diagnostics", {}).items():
            totals[key] = totals.get(key, 0.0) + value
    count = max(1, len(operations))
    evaluated = totals.get("candidates_evaluated", 0.0)
    return {
        "composite.rounds": (totals.get("rounds", 0.0) / count, "count"),
        "composite.candidates_evaluated": (evaluated / count, "count"),
        "composite.evaluations_aborted":
            (totals.get("evaluations_aborted", 0.0) / count, "count"),
        "composite.candidates_screened":
            (totals.get("candidates_screened", 0.0) / count, "count"),
        "composite.accepted_per_evaluated": (
            totals.get("composites_accepted", 0.0) / evaluated if evaluated else 0.0,
            "ratio",
        ),
    }


def _manifest_partition(pair, flags, workdir) -> list[str]:
    """The program's own ``--manifest-out`` stage partition of one call."""
    manifest = workdir / "manifest.json"
    operation = run_cli(pair, [*flags, "--manifest-out", str(manifest)], workdir)
    if operation.error is not None:
        return [f"manifest run failed: {operation.error}"]
    document = json.loads(manifest.read_text(encoding="utf-8"))
    lines = [f"manifest stages of {pair.name} (process wall {operation.latency_s:.3f} s):"]
    for name, entry in sorted(document.get("stages", {}).items()):
        lines.append(f"  {name}: {json.dumps(entry, sort_keys=True)}")
    return lines


def _layer_shares(profile: layers.Profile, walls: float, count: int) -> list[str]:
    if walls <= 0:
        return []
    lines = ["layer self time per operation (share of the traced wall time):"]
    for span, metric in layers.SPAN_METRICS.items():
        seconds = profile.self_s[span]
        lines.append(f"  {metric:28s} {seconds / count:9.4f} s  {seconds / walls:6.1%}")
    rest = walls - profile.layer_seconds()
    lines.append(f"  {'trace.unattributed_s':28s} {rest / count:9.4f} s  {rest / walls:6.1%}")
    return lines


def cli_singleton(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    pairs = inputs.singleton_pairs(seed, workdir)
    flags = ["--labels"]

    def reference_oracle(operations):
        answers = {}
        for operation in operations:
            if operation.error is not None:
                continue
            pair = operation.pair
            if pair.name not in answers:
                answers[pair.name] = in_process_answer([
                    "match", str(pair.first), str(pair.second), *flags,
                    "--kernel", "reference",
                ])
            operation.problems += checks.agreement_problems(
                operation.answer, answers[pair.name],
                checks.REFERENCE_TOLERANCE, "reference kernel",
            )

    return cli_workload(pairs, flags, seconds, trace, workdir, reference_oracle)


def cli_composite(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    pairs = inputs.composite_pairs(seed, workdir)
    flags = ["--composite", "--labels"]
    checked = pairs[seed % len(pairs)]

    def cold_serial_oracle(operations):
        oracle = in_process_answer([
            "match", str(checked.first), str(checked.second), *flags,
            "--no-incremental",
        ])
        for operation in operations:
            if operation.error is None and operation.pair is checked:
                operation.problems += checks.agreement_problems(
                    operation.answer, oracle, 0.0, "cold serial search"
                )

    return cli_workload(pairs, flags, seconds, trace, workdir, cold_serial_oracle)


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
class Session:
    """One daemon with its inputs: submits, polls and fetches jobs."""

    def __init__(self, daemon: procs.Daemon, service_inputs: inputs.ServiceInputs,
                 workdir: Path):
        self.daemon = daemon
        self.inputs = service_inputs
        self.workdir = workdir
        self.jitter = 0
        self.reads_planned = 0
        self.first_answers: dict[str, dict] = {}
        #: Held from an append's growth until its job settles: the file
        #: may only grow again once the daemon has read it.
        self.chain_lock = threading.Lock()
        self.snapshots = 0

    def client(self) -> procs.Client:
        return procs.Client(self.daemon.host, self.daemon.port)

    # Operations ------------------------------------------------------
    def plan(self, rounds: int) -> list[Operation]:
        """*rounds* rounds of :data:`MIX`, with write pairs written ahead."""
        operations = []
        for _ in range(rounds):
            for kind in MIX:
                if kind == "read":
                    reads = self.inputs.read_pairs
                    pair = reads[self.reads_planned % len(reads)]
                    self.reads_planned += 1
                elif kind == "write":
                    pair = self.inputs.next_write()
                else:
                    pair = self.inputs.chain.pair
                operations.append(Operation(kind, pair))
        return operations

    def spec(self, operation: Operation) -> dict:
        document = {"log_first": str(operation.pair.first),
                    "log_second": str(operation.pair.second)}
        if operation.kind == "read":
            # A new threshold makes a new job; the matrix stays a store hit.
            self.jitter += 1
            document["threshold"] = self.jitter * 1e-9
        return document

    def prepare(self, operation: Operation) -> threading.Lock | None:
        """Grow an append's file under the chain lock, which the caller
        releases when the job has settled; snapshot it for the cold oracle."""
        if operation.kind != "append":
            return None
        lock = self.chain_lock
        if not lock.acquire(timeout=DRAIN_SECONDS):
            raise RuntimeError("the previous append never settled")
        grown = self.inputs.chain.grow()
        self.snapshots += 1
        snapshot = self.workdir / f"snapshot-{self.snapshots:03d}-a.csv"
        shutil.copyfile(grown.first, snapshot)
        operation.oracle = inputs.Pair(grown.name, snapshot, grown.second, grown.truth)
        return lock

    def submit(self, client: procs.Client, operation: Operation) -> str | None:
        started = time.perf_counter()
        try:
            status, document = client.post("/jobs", self.spec(operation))
        except HTTP_ERRORS as error:
            operation.error = f"POST /jobs failed: {error!r}"
            return None
        operation.submit_s = time.perf_counter() - started
        if status not in (200, 201):
            operation.error = f"POST /jobs answered {status}: {document.get('error')}"
            return None
        return document["id"]

    def poll_once(self, client: procs.Client, operation: Operation, job_id: str) -> bool:
        """One status poll; fetches the result when done.  True when settled."""
        operation.polls += 1
        try:
            status, document = client.get(f"/jobs/{job_id}")
            if status != 200:
                operation.error = f"GET /jobs/{job_id} answered {status}"
                return True
            state = document["state"]
            if state in ("queued", "running"):
                return False
            if state != "done":
                operation.error = f"job {state}: {document.get('error')}"
                return True
            status, result = client.get(f"/jobs/{job_id}/result")
        except HTTP_ERRORS as error:
            operation.error = f"polling job {job_id} failed: {error!r}"
            return True
        if status != 200:
            operation.error = f"GET /jobs/{job_id}/result answered {status}"
            return True
        operation.answer = result["result"]
        operation.in_daemon_s = document["updated"] - document["submitted"]
        return True

    def run_one(self, client: procs.Client, operation: Operation) -> None:
        """Closed-loop form: prepare, submit, poll until settled."""
        lock = self.prepare(operation)
        try:
            sent = time.perf_counter()
            job_id = self.submit(client, operation)
            while job_id is not None:
                time.sleep(poll_delay(time.perf_counter() - sent))
                if self.poll_once(client, operation, job_id):
                    break
        finally:
            if lock is not None:
                lock.release()

    # Phases ----------------------------------------------------------
    def warm_up(self) -> None:
        """Compute the read pairs and the append chain's first state,
        and keep each pair's first answer for the read oracle."""
        client = self.client()
        for pair in [*self.inputs.read_pairs, self.inputs.chain.pair]:
            operation = Operation("warm-up", pair)
            self.run_one(client, operation)
            if operation.error is not None:
                raise RuntimeError(f"warm-up job failed: {operation.error}")
            self.first_answers[pair.name] = operation.answer
        for pair in self.inputs.read_pairs:
            self.run_one(client, Operation("read", pair))

    def open_loop(self, operations: list[Operation], rate: float = OPEN_RATE
                  ) -> list[Operation]:
        """Send *operations* on a fixed schedule of *rate* per second, each
        job timed from when it was due (so a stall of the sender counts
        against the jobs it delayed); a second thread polls every pending
        job.  A job not done :data:`DRAIN_SECONDS` after the last
        submission fails."""
        #: job id -> [operation, chain lock or None, time of the next poll]
        pending: dict[str, list] = {}
        pending_lock = threading.Lock()
        sending_done = threading.Event()

        def poller():
            client = self.client()
            deadline = None
            while True:
                with pending_lock:
                    current = list(pending.items())
                if sending_done.is_set():
                    if not current:
                        return
                    deadline = deadline or time.perf_counter() + DRAIN_SECONDS
                for job_id, (operation, lock, next_poll) in current:
                    now = time.perf_counter()
                    if deadline is not None and now > deadline:
                        operation.error = "not done when the open loop drained"
                    elif now < next_poll:
                        continue
                    elif self.poll_once(client, operation, job_id):
                        operation.latency_s = time.perf_counter() - operation.due
                    else:
                        pending[job_id][2] = now + poll_delay(now - operation.sent)
                        continue
                    with pending_lock:
                        del pending[job_id]
                    if lock is not None:
                        lock.release()
                time.sleep(POLL_MIN)

        thread = threading.Thread(target=poller, name="perfbench-poller")
        thread.start()
        client = self.client()
        try:
            start = time.perf_counter() + 0.05
            for index, operation in enumerate(operations):
                operation.due = start + index / rate
                delay = operation.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lock = self.prepare(operation)
                operation.sent = time.perf_counter()
                job_id = self.submit(client, operation)
                if job_id is None:
                    if lock is not None:
                        lock.release()
                    continue
                with pending_lock:
                    pending[job_id] = [operation, lock, time.perf_counter() + POLL_MIN]
        finally:
            sending_done.set()
            thread.join()
        return operations

    def saturate(self, seconds: float) -> tuple[list[Operation], float]:
        """Two closed-loop clients over whole rounds for about *seconds*;
        the jobs done and the seconds they took.

        The clients split each round between them, the first client the
        round's even positions (the write), the second the odd ones (the
        append), and meet at its end.  Every round thus loads the daemon
        the same way, instead of the two clients drifting into rounds
        where two writes contend and rounds where none runs.  Rounds are
        planned (their write pairs written) ahead of timing.
        """
        planned = [self.plan(1) for _ in range(SATURATION_PLANNED)]
        done: list[Operation] = []
        started = time.perf_counter()
        rounds = 0

        def client_share(share: list[Operation]) -> None:
            client = self.client()
            for operation in share:
                began = time.perf_counter()
                self.run_one(client, operation)
                operation.latency_s = time.perf_counter() - began

        while True:
            operations = planned.pop(0) if planned else self.plan(1)
            threads = [
                threading.Thread(target=client_share, args=(operations[index::2],),
                                 name=f"perfbench-client-{index}")
                for index in range(SERVICE_WORKERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            done += operations
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / rounds / 2 >= seconds:
                return done, elapsed

    def check(self, operations: list[Operation]) -> None:
        """The read and append oracles (structure and F-measure are in
        :func:`settle`)."""
        for operation in operations:
            if operation.error is not None:
                continue
            if operation.kind == "read":
                operation.problems += checks.agreement_problems(
                    operation.answer, self.first_answers[operation.pair.name],
                    0.0, "first computed answer",
                )
            elif operation.kind == "append":
                grown = operation.oracle
                cold = in_process_answer(["match", str(grown.first), str(grown.second)])
                operation.problems += checks.agreement_problems(
                    operation.answer, cold, 0.0, "cold one-shot match"
                )


def _metrics_counters(text: str) -> dict[str, float]:
    counters = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                counters[name] = float(value)
            except ValueError:
                continue
    return counters


def _store_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def launch(workdir: Path, name: str, spans: Path | None = None) -> tuple[procs.Daemon, float]:
    daemon = procs.Daemon(workdir / name, SERVICE_WORKERS, workdir / f"{name}.err", spans)
    try:
        return daemon, daemon.wait_ready()
    except BaseException:
        daemon.stop()
        raise


def service_mixed(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    if trace:
        return _service_traced(seed, seconds, workdir)
    setup_times = []
    for index in range(SETUP_WARMUPS + SERVICE_SETUP_SAMPLES - 1):
        daemon, ready = launch(workdir, f"setup-{index}")
        daemon.stop()
        setup_times.append(ready)
    service_inputs = inputs.service_inputs(seed, workdir)
    daemon, ready = launch(workdir, "store")
    setup_times.append(ready)
    try:
        session = Session(daemon, service_inputs, workdir)
        session.warm_up()
        open_ops = session.open_loop(session.plan(_open_rounds(seconds)))
        closed_ops, elapsed = session.saturate(seconds * (1 - OPEN_SHARE))
    finally:
        daemon.stop()
    operations = open_ops + closed_ops
    session.check(operations)
    attempted, failed, f_score = settle(operations)
    open_latencies = [op.latency_s for op in open_ops if op.error is None]
    completed = sum(1 for op in closed_ops if op.error is None)
    metrics = {
        "setup_s": (statistics.median(setup_times[SETUP_WARMUPS:]), "s"),
        "latency_p50_s": (statistics.median(open_latencies), "s"),
        "throughput_per_s": (completed / elapsed, "1/s"),
        "f_measure": (f_score, "ratio"),
        "peak_rss_mb": (daemon.peak_rss_mb, "MB"),
    }
    notes = failure_notes(operations)
    for kind in ("read", "write", "append"):
        values = [op.latency_s for op in open_ops if op.kind == kind and op.error is None]
        notes.append(f"open loop {kind}: {len(values)} jobs, p50 "
                     f"{statistics.median(values) if values else float('nan'):.4f} s")
    notes.append(f"saturation: {completed} jobs in {elapsed:.2f} s")
    notes += _tail_note(open_latencies)
    return Outcome(attempted, failed, metrics, notes)


def _open_rounds(seconds: float) -> int:
    return max(1, round(seconds * OPEN_SHARE * OPEN_RATE / len(MIX)))


def _service_traced(seed: int, seconds: float, workdir: Path) -> Outcome:
    """Untraced open loop (service and store figures, overhead base),
    then the same open loop against a traced daemon (layer self times)."""
    rounds = max(1, round(seconds / 2 * OPEN_RATE / len(MIX)))
    halves = []
    for traced in (False, True):
        half = workdir / ("traced" if traced else "plain")
        half.mkdir()
        spans = half / "daemon-spans.json" if traced else None
        daemon, _ = launch(half, "store", spans)
        try:
            session = Session(daemon, inputs.service_inputs(seed, half), half)
            session.warm_up()
            client = session.client()
            planned = session.plan(rounds)
            counters = _metrics_counters(client.text("/metrics"))
            baseline = {k: counters.get(k, 0.0) for k in _COUNTERS}
            since = time.perf_counter()
            operations = session.open_loop(planned)
            counters = _metrics_counters(client.text("/metrics"))
            keepalive = procs.keepalive_request_seconds(daemon.host, daemon.port)
        finally:
            daemon.stop()
        session.check(operations)
        deltas = {k: counters.get(k, 0.0) - baseline[k] for k in _COUNTERS}
        halves.append((operations, deltas, spans, since, half / "store", keepalive))
    (plain_ops, deltas, _, _, store_dir, keepalive), \
        (traced_ops, traced_deltas, spans, since, _, _) = halves
    attempted, failed, _ = settle(plain_ops + traced_ops)
    ok = [op for op in plain_ops if op.error is None]

    def p50(kind: str | None) -> float:
        values = [op.latency_s for op in ok if kind is None or op.kind == kind]
        return statistics.median(values) if values else 0.0

    jobs = max(1.0, deltas["job_latency_seconds_count"])
    job_run = deltas["job_latency_seconds_sum"] / jobs
    lookups = deltas["match_store_hits_total"] + deltas["match_store_misses_total"]
    metrics = {
        "read_latency_p50_s": (p50("read"), "s"),
        "write_latency_p50_s": (p50("write"), "s"),
        "append_latency_p50_s": (p50("append"), "s"),
        "service.submit_s": (statistics.fmean(op.submit_s for op in ok), "s"),
        "service.job_run_s": (job_run, "s"),
        "service.queue_wait_s": (
            statistics.fmean(op.in_daemon_s for op in ok) - job_run, "s"),
        "service.polls_per_job": (statistics.fmean(op.polls for op in ok), "count"),
        "service.keepalive_request_s": (keepalive, "s"),
        "service.generator_lag_s": (
            statistics.fmean(op.sent - op.due for op in plain_ops), "s"),
        "store.hit_ratio": (
            deltas["match_store_hits_total"] / lookups if lookups else 0.0, "ratio"),
        "store.partial_ratio": (
            sum(1 for op in ok
                if op.answer["provenance"]["match_mode"] == "store-partial") / len(ok),
            "ratio"),
        "store.bytes_per_job": (_store_bytes(store_dir) / jobs, "bytes"),
    }
    profile = layers.Profile()
    profile.add(spans, thread_prefix="repro-scheduler", since=since)
    traced_ok = [op for op in traced_ops if op.error is None]
    traced_jobs = max(1.0, traced_deltas["job_latency_seconds_count"])
    for name, value in profile.metrics(int(traced_jobs)).items():
        metrics[name] = (value, PER_LAYER[name])
    metrics["trace.unattributed_s"] = (
        (traced_deltas["job_latency_seconds_sum"] - profile.selected_s) / traced_jobs, "s")
    metrics["cli.import_s"] = (import_seconds(workdir), "s")
    metrics["obs.trace_overhead_ratio"] = (
        statistics.median([op.latency_s for op in traced_ok]) / p50(None), "ratio")
    notes = failure_notes(plain_ops + traced_ops)
    notes += _layer_shares(profile, traced_deltas["job_latency_seconds_sum"],
                           int(traced_jobs))
    return Outcome(attempted, failed, _with_defaults(metrics), notes)


_COUNTERS = (
    "job_latency_seconds_sum", "job_latency_seconds_count",
    "match_store_hits_total", "match_store_misses_total",
)


def _tail_note(latencies: list[float]) -> list[str]:
    """The latency tail, where the run's sample supports one."""
    found = stats.tail(latencies)
    if found is None:
        return [f"latency tail: none, {len(latencies)} samples "
                f"(fewer than {stats.TAIL_MIN_SAMPLES})"]
    value, percentile = found
    return [f"latency tail: p{percentile:.1f} = {value:.4f} s "
            f"({len(latencies)} samples, {stats.TAIL_BEYOND} beyond it)"]


#: Every per-layer metric with its unit; a workload that never calls a
#: layer reports 0 for it.
PER_LAYER = {
    "cli.import_s": "s", "cli.import_modules": "count",
    "logs.parse_s": "s", "logs.events_parsed": "count",
    "graph.build_s": "s",
    "ems.fixpoint_s": "s", "ems.pair_updates": "count", "ems.iterations": "count",
    "composite.discover_s": "s", "composite.count_index_s": "s",
    "composite.delta_merge_s": "s", "composite.evaluate_s": "s",
    "composite.unattributed_s": "s",
    "composite.rounds": "count", "composite.candidates_evaluated": "count",
    "composite.evaluations_aborted": "count",
    "composite.candidates_screened": "count",
    "composite.accepted_per_evaluated": "ratio",
    "matching.assign_s": "s",
    "store.hit_ratio": "ratio", "store.partial_ratio": "ratio",
    "store.digest_s": "s", "store.bytes_per_job": "bytes",
    "service.submit_s": "s", "service.queue_wait_s": "s", "service.job_run_s": "s",
    "service.polls_per_job": "count", "service.generator_lag_s": "s",
    "service.keepalive_request_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "read_latency_p50_s": "s", "write_latency_p50_s": "s",
    "append_latency_p50_s": "s",
}


def _with_defaults(metrics: dict) -> dict:
    return {name: metrics.get(name, (0.0, unit)) for name, unit in PER_LAYER.items()}


WORKLOADS = {
    "cli_singleton": cli_singleton,
    "cli_composite": cli_composite,
    "service_mixed": service_mixed,
}
