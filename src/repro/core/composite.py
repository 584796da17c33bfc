"""Composite event matching (Section 4).

One event in a log may correspond to several events in the other
(*composite events*).  Finding the optimal sets of non-overlapping
composites maximizing the average similarity is NP-hard (Theorem 3, by
reduction from maximum set packing), so the paper — and this module —
uses a greedy loop (Algorithm 2):

1. compute the singleton similarity of the two dependency graphs;
2. in each round, try every remaining candidate composite on either side:
   merge it into its log, rebuild the dependency graph, recompute the
   similarity, and remember the candidate with the highest average
   similarity;
3. accept the best candidate if it improves the average by more than the
   threshold ``delta``; otherwise stop.

Two accelerations from the paper are implemented:

* **Uc** (Proposition 4): when merging ``U`` into one graph, every pair
  whose row/column node has no real path from ``U`` keeps its similarity;
  those pairs are seeded as fixed values so the engine never re-iterates
  them.
* **Bd** (Section 4.3): candidate evaluations run under an average-
  similarity upper bound and abort as soon as they provably cannot beat
  the incumbent.

Candidate discovery follows the paper's convention: "grouping singleton
events that always appear consecutively, following the convention of SEQ
pattern in CEP" — with a relaxable adjacency confidence so the candidate
pool can be grown for the Figure 14 experiment.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import resource_tracker, shared_memory
from typing import Callable

import numpy as np

from repro.core.bounds import SCREEN_MARGIN
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, EMSResult, LabelMatrixCache
from repro.core.incremental import CandidateEvaluation, IncrementalSearchState
from repro.core.matrix import SimilarityMatrix
from repro.exceptions import BudgetExhausted
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import composite_name, merge_run_in_log
from repro.graph.reachability import real_ancestors, real_descendants
from repro.logs.log import EventLog
from repro.logs.stats import activity_occurrence_counts, directly_follows_counts
from repro.obs import NULL_OBSERVER, Observer, Tracer, get_logger
from repro.runtime.budget import BudgetMeter, MatchBudget
from repro.runtime.checkpoint import (
    CheckpointManager,
    InterruptGuard,
    SearchSnapshot,
    search_content_key,
)
from repro.runtime.degrade import DegradationPolicy
from repro.runtime.evalcache import EvaluationCache, candidate_key, discovery_key
from repro.runtime.faults import KIND_INTERRUPT, FaultPlan
from repro.runtime.report import STAGE_EXACT, STAGE_PARTIAL, RuntimeReport
from repro.runtime.supervise import (
    QuarantineRecord,
    RetryPolicy,
    SupervisedPool,
    SupervisionStats,
    run_supervised,
)
from repro.similarity.labels import CompositeAwareSimilarity, LabelSimilarity, OpaqueSimilarity

_logger = get_logger(__name__)


# ----------------------------------------------------------------------
# Candidate discovery
# ----------------------------------------------------------------------
def discover_candidates(
    log: EventLog,
    min_confidence: float = 1.0,
    max_run_length: int = 4,
    max_candidates: int | None = None,
) -> list[tuple[str, ...]]:
    """Candidate composite events of *log* as ordered activity runs.

    A pair ``(a, b)`` is a *strong adjacency* when ``b`` follows ``a`` in
    at least ``min_confidence`` of ``a``'s occurrences and ``a`` precedes
    ``b`` in at least ``min_confidence`` of ``b``'s occurrences
    (``min_confidence = 1.0`` is the paper's "always appear
    consecutively").  Candidates are all runs of chained strong
    adjacencies, up to *max_run_length*, strongest first, optionally
    capped at *max_candidates*.
    """
    if not 0.0 < min_confidence <= 1.0:
        raise ValueError(f"min_confidence must be in (0, 1], got {min_confidence}")
    if max_run_length < 2:
        raise ValueError(f"max_run_length must be >= 2, got {max_run_length}")
    occurrences = activity_occurrence_counts(log)
    follows = directly_follows_counts(log)

    strong_next: dict[str, list[tuple[str, float]]] = {}
    for (first, second), count in follows.items():
        if first == second:
            continue
        confidence = min(count / occurrences[first], count / occurrences[second])
        if confidence >= min_confidence:
            strong_next.setdefault(first, []).append((second, confidence))
    for extensions in strong_next.values():
        extensions.sort(key=lambda item: (-item[1], item[0]))

    candidates: dict[tuple[str, ...], float] = {}

    def extend(run: tuple[str, ...], strength: float) -> None:
        if len(run) >= 2:
            existing = candidates.get(run)
            if existing is None or strength > existing:
                candidates[run] = strength
        if len(run) >= max_run_length:
            return
        for successor, confidence in strong_next.get(run[-1], ()):
            if successor in run:
                continue  # no cyclic composites
            extend(run + (successor,), min(strength, confidence))

    for first, extensions in strong_next.items():
        for second, confidence in extensions:
            extend((first, second), confidence)

    ordered = sorted(candidates, key=lambda run: (-candidates[run], len(run), run))
    if max_candidates is not None:
        ordered = ordered[:max_candidates]
    return ordered


# ----------------------------------------------------------------------
# Greedy matcher
# ----------------------------------------------------------------------
@dataclass(slots=True)
class CompositeStats:
    """Instrumentation of one greedy matching run (Figures 12-14).

    ``screen_checks`` counts candidates subjected to the estimation-bound
    screen, ``candidates_screened`` those it rejected before any graph was
    built; screened candidates are not counted in ``candidates_evaluated``.
    """

    rounds: int = 0
    candidates_evaluated: int = 0
    evaluations_aborted: int = 0
    pair_updates: int = 0
    pairs_fixed: int = 0
    screen_checks: int = 0
    candidates_screened: int = 0
    #: Supervision counters (zero on unsupervised runs): evaluations
    #: re-submitted after a failure, pools torn down and rebuilt, and
    #: poison candidates set aside so their round could complete.
    worker_retries: int = 0
    pool_respawns: int = 0
    candidates_quarantined: int = 0


@dataclass(frozen=True, slots=True)
class CompositeMatchResult:
    """Outcome of composite event matching.

    The matrix is over the *merged* node vocabularies; use the member maps
    to expand node names back to original activity sets.
    """

    matrix: SimilarityMatrix
    log_first: EventLog
    log_second: EventLog
    members_first: dict[str, frozenset[str]]
    members_second: dict[str, frozenset[str]]
    accepted_first: tuple[tuple[str, ...], ...]
    accepted_second: tuple[tuple[str, ...], ...]
    stats: CompositeStats = field(compare=False, default_factory=CompositeStats)
    #: How the run ended (degradation stage, budget spend); always set by
    #: :meth:`CompositeMatcher.match`, ``None`` only for hand-built results.
    runtime: RuntimeReport | None = field(compare=False, default=None)
    #: Poison candidates the supervisor set aside (empty on clean runs).
    quarantined: tuple[QuarantineRecord, ...] = field(compare=False, default=())

    @property
    def average(self) -> float:
        return self.matrix.average()


@dataclass(slots=True)
class _SideState:
    """One log's evolving merged state during the greedy loop."""

    log: EventLog
    members: dict[str, frozenset[str]]
    graph: DependencyGraph
    accepted: list[tuple[str, ...]]


def _account_evaluation(
    stats: CompositeStats,
    evaluation: CandidateEvaluation | None,
    screen_check: bool = False,
) -> EMSResult | None:
    """Fold one candidate's evaluation into *stats*; return its outcome.

    Every evaluation — cold or incremental, serial or pool, fresh or
    served from the evaluation cache — is accounted here.  *screen_check*
    is true when the evaluation itself ran the estimation screen (the
    best-first pass counts the checks it makes).  ``evaluation=None``
    stands for a candidate whose metered fixpoint ran out of budget: it
    was admitted past any screen, so it counts as evaluated, and nothing
    else about it is known.
    """
    if screen_check:
        stats.screen_checks += 1
    if evaluation is None:
        stats.candidates_evaluated += 1
        return None
    if evaluation.screened:
        stats.candidates_screened += 1
        return None
    stats.candidates_evaluated += 1
    stats.pairs_fixed += evaluation.pairs_fixed
    if evaluation.outcome is None:
        stats.evaluations_aborted += 1
        return None
    stats.pair_updates += evaluation.outcome.pair_updates
    return evaluation.outcome


# ----------------------------------------------------------------------
# Cold candidate evaluation — the differential oracle of the incremental
# path, selected by ``EMSConfig(incremental=False)``
# ----------------------------------------------------------------------
def _unchanged_pairs(
    merged_side: int,
    run: tuple[str, ...],
    graph_merged: DependencyGraph,
    graph_other: DependencyGraph,
    directional: dict[str, SimilarityMatrix] | None,
) -> tuple[dict[tuple[str, str], float] | None, dict[tuple[str, str], float] | None, int]:
    """Uc (Proposition 4): converged values the merge provably cannot change.

    *graph_merged* is the merged side's graph **before** the merge;
    *directional* is ``None`` when the Uc pruning is off.
    Returns ``(fixed_forward, fixed_backward, pairs_fixed)``.
    """
    if directional is None:
        return None, None, 0
    new_name = composite_name(run)
    fixed: dict[str, dict[tuple[str, str], float]] = {}
    count = 0
    for direction, matrix in directional.items():
        if direction == "forward":
            affected = set(run) | real_descendants(graph_merged, run)
        else:
            affected = set(run) | real_ancestors(graph_merged, run)
        affected.add(new_name)
        unchanged = [node for node in graph_merged.nodes if node not in affected]
        pairs: dict[tuple[str, str], float] = {}
        for node in unchanged:
            for other_node in graph_other.nodes:
                if merged_side == 0:
                    pairs[(node, other_node)] = matrix.get(node, other_node)
                else:
                    pairs[(other_node, node)] = matrix.get(other_node, node)
        fixed[direction] = pairs
        count += len(pairs)
    return fixed.get("forward"), fixed.get("backward"), count


def _evaluate_candidate(
    states: tuple[_SideState, _SideState],
    directional: dict[str, SimilarityMatrix] | None,
    side_index: int,
    run: tuple[str, ...],
    abort_below: float,
    *,
    config: EMSConfig,
    base_label: LabelSimilarity,
    min_edge_frequency: float,
    use_bounds: bool,
    label_cache: LabelMatrixCache | None,
    meter: BudgetMeter | None,
    observer: Observer,
) -> CandidateEvaluation:
    """Similarity of the graphs after merging *run* on one side, cold.

    Rewrites the log, rebuilds the merged graph from scratch and seeds
    the Uc pairs from *directional* (the previous round's matrices, or
    ``None`` with the pruning off).  The outcome is ``None`` when the Bd
    bound proved the candidate cannot reach *abort_below*.
    """
    state, other = states[side_index], states[1 - side_index]
    merged_log, merged_members = merge_run_in_log(state.log, run, state.members)
    with observer.span("graph.build", merged=True, run=list(run)):
        merged_graph = DependencyGraph.from_log(
            merged_log, min_frequency=min_edge_frequency, members=merged_members
        )
    if side_index == 0:
        members_pair = (merged_members, other.members)
        graphs = (merged_graph, other.graph)
    else:
        members_pair = (other.members, merged_members)
        graphs = (other.graph, merged_graph)
    if isinstance(base_label, OpaqueSimilarity) or config.alpha == 1.0:
        label: LabelSimilarity = base_label
    else:
        label = CompositeAwareSimilarity(base_label, *members_pair)
    engine = EMSEngine(config, label, label_cache, observer=observer)
    fixed_forward, fixed_backward, pairs_fixed = _unchanged_pairs(
        side_index, run, state.graph, other.graph, directional
    )
    if use_bounds:
        outcome = engine.similarity_with_abort(
            graphs[0], graphs[1], abort_below, fixed_forward, fixed_backward,
            meter=meter,
        )
    else:
        outcome = engine.similarity(
            graphs[0], graphs[1], fixed_forward, fixed_backward, meter=meter
        )
    return CandidateEvaluation(outcome=outcome, pairs_fixed=pairs_fixed, screened=False)


# ----------------------------------------------------------------------
# Shared-memory transport of a round's directional matrices
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class _SharedDirectional:
    """Handle to a round's directional matrices in one shared-memory block.

    Pickling a handle costs the node vocabularies and a few integers; the
    ``O(n1 * n2)`` float payload stays in the
    :mod:`multiprocessing.shared_memory` segment, written once by the
    parent and read directly by every worker of the round.  The parent
    owns the segment's lifetime: it closes and unlinks after the round's
    futures have all resolved — workers only ever attach, copy out, and
    detach.
    """

    name: str
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    #: ``(direction, byte offset)`` per matrix; each is a
    #: ``(len(rows), len(cols))`` float64 block.
    offsets: tuple[tuple[str, int], ...]
    #: PID of the resource-tracker process serving the creator, so an
    #: attaching process can tell whether it shares that tracker (forked
    #: worker) or brought its own (spawned worker) — see
    #: :func:`_unpack_directional`.
    tracker_pid: int | None = None


def _tracker_pid() -> int | None:
    """PID of this process's resource-tracker process, if one is running."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    return getattr(tracker, "_pid", None)


def _pack_directional(
    directional: dict[str, SimilarityMatrix],
) -> tuple[_SharedDirectional | None, shared_memory.SharedMemory | None]:
    """Copy *directional* into a fresh shared-memory block.

    Returns ``(handle, block)``, or ``(None, None)`` when shared memory
    cannot be allocated (e.g. no writable segment directory) — callers
    then pickle the matrices into every task instead.
    """
    reference = next(iter(directional.values()))
    rows, cols = reference.rows, reference.cols
    stride = len(rows) * len(cols) * np.dtype(np.float64).itemsize
    try:
        block = shared_memory.SharedMemory(
            create=True, size=max(1, stride * len(directional))
        )
    except (OSError, ValueError):
        return None, None
    offsets: list[tuple[str, int]] = []
    for position, direction in enumerate(sorted(directional)):
        offset = position * stride
        view = np.ndarray(
            (len(rows), len(cols)), dtype=np.float64, buffer=block.buf, offset=offset
        )
        view[:] = directional[direction].values
        offsets.append((direction, offset))
    handle = _SharedDirectional(
        block.name, rows, cols, tuple(offsets), _tracker_pid()
    )
    return handle, block


def _unpack_directional(handle: _SharedDirectional) -> dict[str, SimilarityMatrix]:
    """Worker side: copy the matrices out of the block, then detach."""
    block = shared_memory.SharedMemory(name=handle.name)
    try:
        # Attaching registered the segment with this process's resource
        # tracker (Python < 3.13 SharedMemory has no track=False).  If
        # that tracker is *not* the creator's — a spawned worker, or a
        # worker forked before the parent's tracker existed — it would
        # unlink the segment behind the owner's back at worker exit, so
        # undo the registration.  A forked worker sharing the creator's
        # tracker must keep its hands off: the register was a duplicate
        # no-op there, and unregistering would strip the creator's own
        # registration (its later unlink would then double-unregister).
        if _tracker_pid() != handle.tracker_pid:
            try:
                resource_tracker.unregister(block._name, "shared_memory")
            except Exception:
                pass
        shape = (len(handle.rows), len(handle.cols))
        directional: dict[str, SimilarityMatrix] = {}
        for direction, offset in handle.offsets:
            view = np.ndarray(shape, dtype=np.float64, buffer=block.buf, offset=offset)
            directional[direction] = SimilarityMatrix(
                handle.rows, handle.cols, view.copy()
            )
        return directional
    finally:
        block.close()


def _release_shared_block(block: shared_memory.SharedMemory | None) -> None:
    """Close and unlink a round's segment, tolerating a half-dead state.

    Runs on every exit path of a parallel round — normal completion,
    budget exhaustion, ``WorkerPoolError`` after a crashed pool — so a
    pool dying mid-round does not leak its ``/dev/shm`` segment.
    """
    if block is None:
        return
    try:
        block.close()
    except (OSError, BufferError):  # pragma: no cover - platform quirk
        pass
    try:
        block.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


def _resolve_directional(
    directional: dict[str, SimilarityMatrix] | _SharedDirectional | None,
) -> dict[str, SimilarityMatrix] | None:
    """Whatever the parent shipped — handle or plain dict — as a dict."""
    if isinstance(directional, _SharedDirectional):
        return _unpack_directional(directional)
    return directional


def _worker_observer(trace: bool) -> Observer:
    """A per-task observer for a pool worker: local tracer or the null one.

    Workers never receive the parent's Observer (it is not picklable and
    its clock shares no epoch); when tracing is requested they record
    into a fresh local :class:`Tracer` and ship the span fragments back
    with the result for the parent to :meth:`~Tracer.adopt`.
    """
    return Observer(tracer=Tracer()) if trace else NULL_OBSERVER


#: Per-process state of pool workers.  The pool persists for the whole
#: match: workers receive the base side states once at initialization and
#: afterwards only the per-round delta — the list of accepted runs, which
#: each worker replays through its own IncrementalSearchState, plus the
#: round's directional matrices.
_INC_WORKER: tuple[IncrementalSearchState, dict] | None = None


def _init_incremental_worker(
    config: EMSConfig,
    base_label: LabelSimilarity,
    min_edge_frequency: float,
    use_unchanged: bool,
    use_bounds: bool,
    sides: tuple[tuple[EventLog, dict[str, frozenset[str]], DependencyGraph], ...],
    trace: bool = False,
    faults: FaultPlan | None = None,
) -> None:
    global _INC_WORKER
    if faults is not None:
        faults.fire("worker.init", in_worker=True)
    state = IncrementalSearchState(
        config, base_label, min_edge_frequency, use_unchanged, use_bounds,
        LabelMatrixCache(config.label_cache_entries),
    )
    state.reset(sides)
    _INC_WORKER = (
        state, {"applied": 0, "round": None, "trace": trace, "faults": faults}
    )


def _incremental_pool_evaluate(
    task: tuple[
        int,
        tuple[tuple[int, tuple[str, ...]], ...],
        dict[str, SimilarityMatrix] | _SharedDirectional | None,
        int,
        tuple[str, ...],
        float,
        int,
    ]
) -> tuple[CandidateEvaluation, list[dict], int]:
    """Evaluate one candidate in a persistent incremental worker.

    *task* carries ``(round_id, history, directional, side_index, run,
    abort_below, attempt)`` where *history* lists every merge accepted
    since pool creation.  The worker replays the suffix it has not
    applied yet — the per-round delta — then evaluates with warm starts
    and screening exactly like the serial loop.  *directional* is
    usually a :class:`_SharedDirectional` handle; the first task of a
    round copies the matrices out of shared memory, later tasks of the
    same round hit the ``progress["round"]`` cache and never reattach.
    Because every task carries the full history, a worker spawned by a
    supervisor *respawn* mid-match transparently catches up before
    evaluating — recovery needs no extra protocol.
    """
    assert _INC_WORKER is not None, "pool worker used without _init_incremental_worker"
    state, progress = _INC_WORKER
    round_id, history, directional, side_index, run, abort_below, attempt = task
    faults: FaultPlan | None = progress.get("faults")
    if faults is not None:
        faults.fire(
            "evaluate", in_worker=True,
            round=round_id, side=side_index, run=run, attempt=attempt,
        )
    while progress["applied"] < len(history):
        accepted_side, accepted_run = history[progress["applied"]]
        state.apply_accepted(accepted_side, accepted_run)
        progress["applied"] += 1
        progress["round"] = None  # force a begin_round with fresh matrices
    if progress["round"] != round_id:
        state.begin_round(_resolve_directional(directional))
        progress["round"] = round_id
    observer = _worker_observer(progress.get("trace", False))
    state.observer = observer
    with observer.span("candidate.evaluate", side=side_index, run=list(run)):
        evaluation = state.evaluate(side_index, run, abort_below)
    fragments = observer.tracer.export_fragments() if observer.tracing else []
    return evaluation, fragments, os.getpid()


class CompositeMatcher:
    """Greedy composite event matching (Algorithm 2).

    Parameters
    ----------
    config:
        EMS similarity configuration.
    label_similarity:
        Base label similarity; automatically wrapped so that composite
        nodes are scored through their member activities.
    delta:
        Minimum average-similarity improvement to accept a merge; the
        paper's Figure 13 sweeps this knob (moderate values work best).
    min_confidence, max_run_length, max_candidates:
        Candidate discovery knobs (see :func:`discover_candidates`).
    use_unchanged:
        Enable the Uc pruning (Proposition 4).
    use_bounds:
        Enable the Bd pruning (upper-bound abort, Section 4.3).
    min_edge_frequency:
        Minimum frequency control applied when (re)building graphs.
    budget:
        Optional :class:`~repro.runtime.MatchBudget` bounding the whole
        greedy search (wall clock and/or pair updates).  Checked between
        merge rounds and cooperatively inside every similarity
        evaluation.
    degradation:
        What to do when the budget runs out (default: the full
        exact → estimated → partial ladder).  With the ladder disabled,
        exhaustion raises :class:`~repro.exceptions.BudgetExhausted`.
    workers:
        Candidate evaluations per round run in this many worker processes
        (``0``/``1`` = in-process, serial).  The pool lives for the whole
        match; each worker keeps its own incremental search state and
        replays accepted merges from the per-round delta.  Waves of
        *workers* candidates share the round's Bd incumbent bound, which
        is re-tightened between waves from the results received so far.
        The round's directional similarity matrices travel through one
        ``multiprocessing.shared_memory`` block instead of being pickled
        per task (with a transparent pickling fallback where shared
        memory is unavailable).  Two kinds of run always evaluate
        serially, whatever *workers* says: a budgeted run (``budget``
        set), because cooperative cancellation needs the one shared meter
        that worker processes cannot charge; and a cold run
        (``EMSConfig(incremental=False)``), which is the differential
        oracle of the incremental evaluator.
    retry:
        :class:`~repro.runtime.RetryPolicy` for supervised execution.
        Pool runs are always supervised (respawn on crash, quarantine on
        poison) under this policy or its defaults; the *serial* path is
        only supervised when ``retry`` or ``faults`` is explicitly set,
        so the default serial path stays zero-overhead.
    task_timeout:
        Per-candidate wall-clock timeout (seconds) in pool runs; a
        candidate exceeding it costs a pool respawn and a retry.
    faults:
        Deterministic :class:`~repro.runtime.FaultPlan` for chaos tests;
        shipped to workers through the pool initializer.
    checkpoints:
        Optional :class:`~repro.runtime.CheckpointManager`; accepted
        rounds are snapshotted at its cadence, keyed by the content hash
        of (log pair, config, knobs).
    resume:
        Load a matching checkpoint before searching (cold start when the
        directory holds none, or the snapshot fails verification).
    interrupt:
        Optional :class:`~repro.runtime.InterruptGuard` polled at round
        boundaries; when tripped, the search flushes a final checkpoint
        and returns the best-so-far result as a ``partial`` stage with
        reason ``"interrupted"``.
    eval_cache:
        Optional :class:`~repro.runtime.EvaluationCache`: candidate
        evaluations are memoized on disk, content-keyed by (log pair,
        config, knobs, accepted history, candidate, incumbent bound), and
        served on the next identical run instead of re-evaluating.
        Results stay bit-identical — a hit replays the exact stored
        evaluation, and every load is digest-verified with corruption
        degrading to a cold evaluation.  In pool rounds, hits are served
        *before* dispatch, so retry/quarantine supervision only ever sees
        real (miss) evaluations.  Disabled while a budget meter is active
        (a served hit charges no meter, which would skew cooperative
        cancellation).
    """

    def __init__(
        self,
        config: EMSConfig | None = None,
        label_similarity: LabelSimilarity | None = None,
        delta: float = 0.01,
        min_confidence: float = 1.0,
        max_run_length: int = 4,
        max_candidates: int | None = None,
        use_unchanged: bool = True,
        use_bounds: bool = True,
        min_edge_frequency: float = 0.0,
        budget: MatchBudget | None = None,
        degradation: DegradationPolicy | None = None,
        workers: int = 0,
        observer: Observer | None = None,
        retry: RetryPolicy | None = None,
        task_timeout: float | None = None,
        faults: FaultPlan | None = None,
        checkpoints: CheckpointManager | None = None,
        resume: bool = False,
        interrupt: InterruptGuard | None = None,
        eval_cache: EvaluationCache | None = None,
    ):
        if delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be > 0, got {task_timeout}")
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.config = config if config is not None else EMSConfig()
        self.base_label = (
            label_similarity if label_similarity is not None else OpaqueSimilarity()
        )
        self.delta = delta
        self.min_confidence = min_confidence
        self.max_run_length = max_run_length
        self.max_candidates = max_candidates
        self.use_unchanged = use_unchanged
        self.use_bounds = use_bounds
        self.min_edge_frequency = min_edge_frequency
        self.budget = budget
        self.degradation = degradation if degradation is not None else DegradationPolicy()
        self.workers = workers
        self.retry = retry
        self.task_timeout = task_timeout
        self.faults = faults
        self.checkpoints = checkpoints
        self.resume = resume
        self.interrupt = interrupt
        self.eval_cache = eval_cache
        #: One S^L cache per matching run, shared by every engine built
        #: for it; reset at the start of :meth:`match`.
        self._label_cache: LabelMatrixCache | None = None
        # Per-match working state, reset by :meth:`match`.
        self._content_key: str = ""
        self._supervision = SupervisionStats()
        self._quarantined: list[QuarantineRecord] = []
        self._accepted_history: list[tuple[int, tuple[str, ...]]] = []
        self._interrupted_by: str | None = None
        #: Per-side memo of the last discovery: ``side -> (log, runs)``.
        #: A side's log object is replaced only when a merge is accepted
        #: on it, so identity comparison is an exact staleness test.
        self._discovery_memo: dict[int, tuple[EventLog, list[tuple[str, ...]]]] = {}

    # ------------------------------------------------------------------
    def _engine(self, state_first: _SideState, state_second: _SideState) -> EMSEngine:
        if isinstance(self.base_label, OpaqueSimilarity) or self.config.alpha == 1.0:
            label: LabelSimilarity = self.base_label
        else:
            label = CompositeAwareSimilarity(
                self.base_label, state_first.members, state_second.members
            )
        return EMSEngine(self.config, label, self._label_cache, observer=self.observer)

    def _graph(self, log: EventLog, members: dict[str, frozenset[str]]) -> DependencyGraph:
        return DependencyGraph.from_log(
            log, min_frequency=self.min_edge_frequency, members=members
        )

    def _accept(
        self,
        states: tuple[_SideState, _SideState],
        incremental: IncrementalSearchState | None,
        side_index: int,
        run: tuple[str, ...],
    ) -> None:
        """Advance one side past an accepted merge and record the merge."""
        state = states[side_index]
        if incremental is not None:
            state.log, state.members, state.graph = incremental.apply_accepted(
                side_index, run
            )
        else:
            state.log, state.members = merge_run_in_log(state.log, run, state.members)
            state.graph = self._graph(state.log, state.members)
        state.accepted.append(run)
        self._accepted_history.append((side_index, run))

    # ------------------------------------------------------------------
    def match(self, log_first: EventLog, log_second: EventLog) -> CompositeMatchResult:
        """Run Algorithm 2 on the two logs.

        With a :class:`~repro.runtime.MatchBudget` configured, the run is
        resilient: the initial similarity degrades through the ladder of
        the configured :class:`~repro.runtime.DegradationPolicy`, and a
        budget exhausted mid-search truncates the greedy loop and returns
        the best merge state found so far — always a valid result,
        annotated through :attr:`CompositeMatchResult.runtime`.
        """
        obs = self.observer
        started = obs.clock()
        meter = self.budget.start(obs.clock) if self.budget is not None else None
        policy = self.degradation
        self._label_cache = LabelMatrixCache(self.config.label_cache_entries)
        self._supervision = SupervisionStats()
        self._quarantined = []
        self._accepted_history = []
        self._interrupted_by = None
        self._content_key = ""
        self._discovery_memo = {}
        snapshot: SearchSnapshot | None = None
        if self.checkpoints is not None or self.eval_cache is not None:
            self._content_key = search_content_key(
                log_first, log_second,
                dataclasses.asdict(self.config),
                {
                    "delta": self.delta,
                    "min_confidence": self.min_confidence,
                    "max_run_length": self.max_run_length,
                    "max_candidates": self.max_candidates,
                    "use_unchanged": self.use_unchanged,
                    "use_bounds": self.use_bounds,
                    "min_edge_frequency": self.min_edge_frequency,
                },
            )
            if self.checkpoints is not None and self.resume:
                snapshot = self.checkpoints.load(self._content_key)
        with obs.span("graph.build", activities=len(log_first.activities())):
            graph_first = self._graph(log_first, {})
        with obs.span("graph.build", activities=len(log_second.activities())):
            graph_second = self._graph(log_second, {})
        states = (
            _SideState(
                log_first,
                {a: frozenset({a}) for a in log_first.activities()},
                graph_first,
                [],
            ),
            _SideState(
                log_second,
                {a: frozenset({a}) for a in log_second.activities()},
                graph_second,
                [],
            ),
        )
        stats = CompositeStats()
        stage: str = STAGE_EXACT
        reason: str | None = None
        detail: str | None = None
        engine = self._engine(states[0], states[1])
        if meter is None:
            current = engine.similarity(states[0].graph, states[1].graph)
        else:
            current, stage, reason = engine.similarity_resilient(
                states[0].graph, states[1].graph, meter, policy
            )
            if stage != STAGE_EXACT:
                detail = "initial similarity degraded; composite search skipped"
        stats.pair_updates += current.pair_updates

        if stage == STAGE_EXACT:
            try:
                current = self._search(states, current, stats, meter, snapshot)
            except BudgetExhausted as error:
                if not policy.enabled:
                    raise
                # The matrix of the last accepted merge state is complete
                # and exact — only the candidate search was cut short.
                stage = STAGE_PARTIAL
                reason = error.reason
                detail = (
                    f"composite search truncated after {stats.rounds} round(s)"
                )
            else:
                if self._interrupted_by is not None:
                    # The search unwound cleanly at a round boundary (final
                    # checkpoint already flushed); the matrix is complete.
                    stage = STAGE_PARTIAL
                    reason = "interrupted"
                    detail = (
                        f"composite search interrupted by "
                        f"{self._interrupted_by} after {stats.rounds} round(s)"
                    )

        stats.worker_retries = self._supervision.retries
        stats.pool_respawns = self._supervision.respawns
        stats.candidates_quarantined = self._supervision.quarantined
        # stats misses the pair updates of an evaluation aborted by the
        # budget mid-flight; the meter saw every metered update.
        spent = stats.pair_updates if meter is None else meter.pair_updates_spent
        runtime = RuntimeReport(
            stage=stage,
            degraded=stage != STAGE_EXACT,
            reason=reason,
            detail=detail,
            iterations=current.iterations,
            pair_updates=spent,
            wall_time=obs.clock() - started,
            rounds=stats.rounds,
        )
        return CompositeMatchResult(
            matrix=current.matrix,
            log_first=states[0].log,
            log_second=states[1].log,
            members_first=dict(states[0].members),
            members_second=dict(states[1].members),
            accepted_first=tuple(states[0].accepted),
            accepted_second=tuple(states[1].accepted),
            stats=stats,
            runtime=runtime,
            quarantined=tuple(self._quarantined),
        )

    def _search(
        self,
        states: tuple[_SideState, _SideState],
        current: EMSResult,
        stats: CompositeStats,
        meter: BudgetMeter | None,
        snapshot: SearchSnapshot | None = None,
    ) -> EMSResult:
        """The greedy merge loop of Algorithm 2; returns the final result.

        With ``config.incremental`` (the default) candidate merges are
        evaluated through an :class:`IncrementalSearchState` — delta count
        patches, patched levels, warm-started fixpoints and estimation
        screening — producing the same trajectory and scores as the cold
        path, in-process or on a worker pool.  ``config.incremental =
        False`` (``--no-incremental``) runs the full-rebuild evaluation
        instead, always in-process: it is the differential oracle the
        incremental path is tested against.

        A *snapshot* (from :class:`~repro.runtime.CheckpointManager`)
        fast-forwards the loop: its accepted-merge history is replayed
        through the same merge machinery, its stats are adopted, and the
        search continues from the round after the one it recorded —
        bit-identical to never having stopped.
        """
        incremental: IncrementalSearchState | None = None
        if self.config.incremental:
            incremental = IncrementalSearchState(
                self.config, self.base_label, self.min_edge_frequency,
                self.use_unchanged, self.use_bounds, self._label_cache,
                observer=self.observer,
            )
            incremental.reset(
                tuple((state.log, state.members, state.graph) for state in states)
            )
        if snapshot is not None:
            self._restore(snapshot, states, stats, incremental)
            current = snapshot.current
            if snapshot.complete:
                # The checkpointed search had already converged; nothing
                # left to run, and re-running the final barren round
                # would skew the counters away from the original run.
                return current
        obs = self.observer
        supervised: SupervisedPool | None = None
        # Length of the accepted history when the pool was seeded; the
        # merges after it are the delta every pool task carries.
        pool_base = 0
        supervise_serial = self.retry is not None or self.faults is not None
        try:
            while True:
                interrupted_by = self._interrupt_requested(stats.rounds + 1)
                if interrupted_by is not None:
                    self._flush_checkpoint(stats, current, force=True)
                    self._interrupted_by = interrupted_by
                    return current
                if meter is not None:
                    meter.check()
                stats.rounds += 1
                with obs.span(f"composite.round[{stats.rounds}]") as round_span:
                    obs.gauge("composite_round", stats.rounds)
                    current_average = current.matrix.average()
                    target = current_average + self.delta
                    best: tuple[int, tuple[str, ...], EMSResult] | None = None
                    best_average = current_average
                    if incremental is not None:
                        incremental.begin_round(
                            current.directional if self.use_unchanged else None
                        )

                    tasks: list[tuple[int, tuple[str, ...]]] = []
                    for side_index in (0, 1):
                        for run in self._discover(states, side_index):
                            tasks.append((side_index, run))
                    round_span.attributes["candidates"] = len(tasks)

                    if (
                        self.workers > 1
                        and incremental is not None
                        and meter is None
                        and len(tasks) > 1
                    ):
                        if supervised is None:
                            supervised = self._incremental_supervised_pool(states)
                            pool_base = len(self._accepted_history)
                        best, best_average = self._round_parallel_incremental(
                            tasks, current, stats, target, best_average,
                            supervised, tuple(self._accepted_history[pool_base:]),
                        )
                    else:
                        best, best_average = self._round_serial(
                            tasks, incremental, states, current, stats,
                            target, best_average, meter, supervise_serial,
                        )

                    if best is None or best_average - current_average <= self.delta:
                        round_span.attributes["accepted"] = None
                        # Final snapshot: a finished search resumes
                        # instantly (replay straight to the last round)
                        # even when it never accepted a merge.
                        self._flush_checkpoint(
                            stats, current, force=True, complete=True
                        )
                        return current

                    side_index, run, outcome = best
                    round_span.attributes["accepted"] = list(run)
                    round_span.attributes["average"] = best_average
                    obs.count("composite_merges_accepted_total")
                    self._accept(states, incremental, side_index, run)
                    current = outcome
                    self._flush_checkpoint(stats, current)
        finally:
            if supervised is not None:
                supervised.shutdown()

    # ------------------------------------------------------------------
    def _discover(
        self,
        states: tuple[_SideState, _SideState],
        side_index: int,
    ) -> list[tuple[str, ...]]:
        """One side's candidate runs: memoized, optionally persisted.

        :func:`discover_candidates` is a pure function of the side's
        current log, so two layers of reuse are exact by construction:

        * **in-memory** — a side whose log did not change since the last
          round (no merge accepted on it) reuses the previous round's
          list outright;
        * **on-disk** — with an evaluation cache attached, the list is
          persisted under (content key, accepted history, side), so a
          warm re-run skips the full-log statistics recomputation that
          dominates once every candidate evaluation is a cache hit.
        """
        log = states[side_index].log
        memo = self._discovery_memo.get(side_index)
        if memo is not None and memo[0] is log:
            return memo[1]
        runs: list[tuple[str, ...]] | None = None
        key: str | None = None
        if self.eval_cache is not None:
            key = discovery_key(
                self._content_key, tuple(self._accepted_history), side_index
            )
            cached = self.eval_cache.load(key)
            if cached is not None:
                runs = [tuple(run) for run in cached]
        if runs is None:
            runs = discover_candidates(
                log,
                min_confidence=self.min_confidence,
                max_run_length=self.max_run_length,
                max_candidates=self.max_candidates,
            )
            if key is not None:
                self.eval_cache.store(key, runs)
        self._discovery_memo[side_index] = (log, runs)
        return runs

    # ------------------------------------------------------------------
    def _round_serial(
        self,
        tasks: list[tuple[int, tuple[str, ...]]],
        incremental: IncrementalSearchState | None,
        states: tuple[_SideState, _SideState],
        current: EMSResult,
        stats: CompositeStats,
        target: float,
        best_average: float,
        meter: BudgetMeter | None,
        supervise_serial: bool,
    ) -> tuple[tuple[int, tuple[str, ...], EMSResult] | None, float]:
        """One round of candidates, evaluated in-process.

        With ``config.best_first`` (and the incremental path, no budget
        meter), candidates are evaluated in descending order of their
        sound estimation upper bound rather than discovery order, and the
        round cuts off as soon as the next bound cannot beat the
        incumbent — the bounds are sorted, so neither can any later one.
        The selected merge is bit-identical to the static order: the
        bound is sound (a cut candidate provably loses) and equal-average
        ties resolve to the lowest original position, which is exactly
        the candidate the static strict-improvement scan would have kept.
        """
        directional = current.directional if self.use_unchanged else None
        best: tuple[int, tuple[str, ...], EMSResult] | None = None
        best_position = -1
        order = list(range(len(tasks)))
        bounds: list[float] | None = None
        if (
            self.config.best_first
            and incremental is not None
            and meter is None
            and len(tasks) > 1
        ):
            bounds = []
            for side_index, run in tasks:
                stats.screen_checks += 1
                bounds.append(incremental.candidate_bound(side_index, run))
            order.sort(key=lambda position: (-bounds[position], position))
        for rank, position in enumerate(order):
            side_index, run = tasks[position]
            if bounds is not None and (
                bounds[position] < max(best_average, target) - SCREEN_MARGIN
            ):
                # Global cutoff: bounds are sorted descending, so every
                # remaining candidate is provably below the incumbent too.
                stats.candidates_screened += len(order) - rank
                break
            evaluate = partial(
                self._evaluate, incremental, states, directional,
                side_index, run, stats, max(best_average, target), meter,
                screen_bound=bounds[position] if bounds is not None else None,
            )
            if supervise_serial:
                outcome = self._evaluate_serial_supervised(
                    evaluate, side_index, run, stats.rounds
                )
            else:
                outcome = evaluate()
            if outcome is None:
                continue
            average = outcome.matrix.average()
            if average > best_average or (
                bounds is not None
                and best is not None
                and average == best_average
                and position < best_position
            ):
                best_average = average
                best = (side_index, run, outcome)
                best_position = position
        return best, best_average

    # ------------------------------------------------------------------
    def _cached_evaluation(
        self,
        side_index: int,
        run: tuple[str, ...],
        abort_below: float,
    ) -> tuple[str | None, CandidateEvaluation | None]:
        """``(key, hit)`` from the persistent cache; ``(None, None)`` when off.

        The key covers the search content key (logs, config, knobs), the
        accepted-merge history that shaped the current side states, the
        candidate and the incumbent bound — everything the evaluation's
        result depends on.
        """
        if self.eval_cache is None:
            return None, None
        key = candidate_key(
            self._content_key, tuple(self._accepted_history),
            side_index, run, abort_below,
        )
        return key, self.eval_cache.load(key)

    def _evaluate(
        self,
        incremental: IncrementalSearchState | None,
        states: tuple[_SideState, _SideState],
        directional: dict[str, SimilarityMatrix] | None,
        side_index: int,
        run: tuple[str, ...],
        stats: CompositeStats,
        abort_below: float,
        meter: BudgetMeter | None,
        screen_bound: float | None,
    ) -> EMSResult | None:
        """Score merging *run* on one side in-process; account it in *stats*.

        The candidate is served from the evaluation cache when possible,
        else scored by *incremental* or, on a cold run, by
        :func:`_evaluate_candidate` over *states* and *directional*.
        *screen_bound* is the candidate's precomputed bound on the
        best-first path, whose screen check the bound pass already
        counted.  A candidate whose fixpoint exhausts the budget meter
        still counts as evaluated before the exhaustion propagates.
        """
        key = hit = None
        if meter is None:
            key, hit = self._cached_evaluation(side_index, run, abort_below)
        evaluation = hit
        if evaluation is None:
            try:
                with self.observer.span(
                    "candidate.evaluate", side=side_index, run=list(run)
                ):
                    if incremental is not None:
                        evaluation = incremental.evaluate(
                            side_index, run, abort_below, meter,
                            screen_bound=screen_bound,
                        )
                    else:
                        evaluation = _evaluate_candidate(
                            states, directional, side_index, run, abort_below,
                            config=self.config,
                            base_label=self.base_label,
                            min_edge_frequency=self.min_edge_frequency,
                            use_bounds=self.use_bounds,
                            label_cache=self._label_cache,
                            meter=meter,
                            observer=self.observer,
                        )
            except BudgetExhausted:
                _account_evaluation(stats, None)
                raise
            if key is not None:
                self.eval_cache.store(key, evaluation)
        screen_check = (
            incremental is not None
            and self.config.screening
            and meter is None
            and screen_bound is None
        )
        return _account_evaluation(stats, evaluation, screen_check)

    def _evaluate_serial_supervised(
        self,
        evaluate: Callable[[], EMSResult | None],
        side_index: int,
        run: tuple[str, ...],
        round_id: int,
    ) -> EMSResult | None:
        """One serial *evaluate* call under :func:`~repro.runtime.run_supervised`.

        Active only when a retry policy or fault plan was configured, so
        the default serial path pays nothing.  Transient failures are
        retried (same candidate, same ``abort_below`` bound — the
        trajectory stays deterministic); deterministic exceptions
        quarantine the candidate and the round moves on.  Faults fire
        before any cache lookup, so a poison candidate is quarantined —
        never silently served from the evaluation cache.
        """
        def call(attempt: int) -> EMSResult | None:
            if self.faults is not None:
                self.faults.fire(
                    "evaluate", round=round_id,
                    side=side_index, run=run, attempt=attempt,
                )
            return evaluate()

        value, record = run_supervised(
            call,
            policy=self.retry if self.retry is not None else RetryPolicy(),
            describe=lambda: (side_index, run),
            round=round_id,
            config_hash=self._content_key,
            observer=self.observer,
            stats=self._supervision,
        )
        if record is not None:
            self._quarantined.append(record)
            return None
        return value

    # ------------------------------------------------------------------
    # Durability plumbing: restore, interrupts, checkpoints
    # ------------------------------------------------------------------
    def _restore(
        self,
        snapshot: SearchSnapshot,
        states: tuple[_SideState, _SideState],
        stats: CompositeStats,
        incremental: IncrementalSearchState | None,
    ) -> None:
        """Fast-forward *states*/*stats* to a checkpointed round boundary.

        The snapshot records only the ``(side, run)`` merge sequence;
        replaying it through the same accept step that produced it
        rebuilds bit-identical side states.
        """
        for side_index, run in snapshot.history:
            self._accept(states, incremental, side_index, tuple(run))
        # The snapshot's counters already include everything up to its
        # round — including the initial similarity this run recomputed —
        # so adopt them wholesale for bit-identical final stats.
        for spec in dataclasses.fields(CompositeStats):
            setattr(stats, spec.name, getattr(snapshot.stats, spec.name))
        self.observer.info(
            "resumed composite search at round %d (%d accepted merge(s))",
            snapshot.rounds, len(snapshot.history),
        )

    def _interrupt_requested(self, next_round: int) -> str | None:
        """Who is asking the search to stop before *next_round*, if anyone."""
        if self.interrupt is not None and self.interrupt.interrupted:
            return self.interrupt.signal_name or "signal"
        if self.faults is not None:
            spec = self.faults.match("search.round", round=next_round)
            if spec is not None and spec.kind == KIND_INTERRUPT:
                name = f"fault:search.round[{next_round}]"
                if self.interrupt is not None:
                    self.interrupt.trip(name)
                return name
        return None

    def _flush_checkpoint(
        self, stats: CompositeStats, current: EMSResult,
        force: bool = False, complete: bool = False,
    ) -> None:
        """Snapshot the search if a checkpoint is due (or *force*)."""
        if self.checkpoints is None:
            return
        if not force and not self.checkpoints.due(stats.rounds):
            return
        snapshot = SearchSnapshot(
            key=self._content_key,
            rounds=stats.rounds,
            history=tuple(self._accepted_history),
            stats=dataclasses.replace(stats),
            current=current,
            complete=complete,
        )
        try:
            self.checkpoints.save(snapshot)
        except OSError as error:
            # A full disk must degrade durability, not correctness.
            _logger.warning("checkpoint write failed: %s", error)

    # ------------------------------------------------------------------
    # Worker pools
    # ------------------------------------------------------------------
    def _incremental_supervised_pool(
        self, states: tuple[_SideState, _SideState]
    ) -> SupervisedPool:
        """A match-lifetime supervised pool seeded with the current states.

        The factory freezes its ``initargs`` now: a supervisor *respawn*
        later in the match rebuilds workers from these same base states,
        and the full accepted-run history carried by every task replays
        them forward — so a respawned worker is indistinguishable from
        an original one.
        """
        workers = self.workers
        initargs = (
            self.config, self.base_label, self.min_edge_frequency,
            self.use_unchanged, self.use_bounds,
            tuple((state.log, state.members, state.graph) for state in states),
            self.observer.tracing,
            self.faults,
        )

        def factory() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_incremental_worker,
                initargs=initargs,
            )

        pool = SupervisedPool(
            factory,
            _incremental_pool_evaluate,
            payload=lambda task, attempt: task + (attempt,),
            describe=lambda task: (task[3], task[4]),
            policy=self.retry,
            task_timeout=self.task_timeout,
            observer=self.observer,
            config_hash=self._content_key,
        )
        pool.stats = self._supervision
        return pool

    def _note_shared_memory_fallback(self) -> None:
        """Log and count a round whose matrices fall back to pickling.

        Operators can then see rounds paying the per-task pickling cost.
        """
        _logger.warning(
            "shared-memory transport unavailable; pickling the round's "
            "directional matrices to every worker instead"
        )
        self.observer.count(
            "workers_shared_memory_fallbacks_total",
            help="rounds whose directional matrices were pickled because "
            "shared memory was unavailable",
        )

    def _wave_cache_hits(
        self,
        wave: list[tuple[int, tuple[str, ...]]],
        bound: float,
    ) -> tuple[dict[int, CandidateEvaluation], dict[int, str]]:
        """Serve a wave's persistent-cache hits before dispatching it.

        Returns ``(hits by wave index, candidate keys of the misses)``;
        only the misses are submitted to the pool, so supervision
        (retries, quarantine) never applies to a served hit — and a
        fully cached wave never touches the pool at all.
        """
        hits: dict[int, CandidateEvaluation] = {}
        keys: dict[int, str] = {}
        if self.eval_cache is None:
            return hits, keys
        history = tuple(self._accepted_history)
        for index, (side_index, run) in enumerate(wave):
            key = candidate_key(
                self._content_key, history, side_index, run, bound
            )
            cached = self.eval_cache.load(key)
            if cached is not None:
                hits[index] = cached
            else:
                keys[index] = key
        return hits, keys

    def _round_parallel_incremental(
        self,
        tasks: list[tuple[int, tuple[str, ...]]],
        current: EMSResult,
        stats: CompositeStats,
        target: float,
        best_average: float,
        supervised: SupervisedPool,
        history: tuple[tuple[int, tuple[str, ...]], ...],
    ) -> tuple[tuple[int, tuple[str, ...], EMSResult] | None, float]:
        """One round of candidates on the persistent incremental pool.

        Tasks carry only the per-round delta — the accepted-run *history*
        (replayed by workers that have not caught up) and the round's
        directional matrices.  The matrices themselves travel through one
        shared-memory block per round (see :class:`_SharedDirectional`);
        each task pickles only the handle.
        The supervisor returns wave outcomes in submission order, which
        matches the serial candidate order, so the selected best
        candidate is the one the serial loop would pick; quarantined
        candidates are simply absent from the reduction, exactly as if
        they had been screened out.
        """
        obs = self.observer
        directional = current.directional if self.use_unchanged else None
        handle = block = None
        if directional:
            handle, block = _pack_directional(directional)
            if handle is None:
                self._note_shared_memory_fallback()
        payload = handle if handle is not None else directional
        round_id = stats.rounds
        best: tuple[int, tuple[str, ...], EMSResult] | None = None
        try:
            with obs.span(
                "workers.dispatch",
                workers=self.workers,
                tasks=len(tasks),
                shared_memory=handle is not None,
            ):
                for start in range(0, len(tasks), self.workers):
                    wave = tasks[start:start + self.workers]
                    bound = max(best_average, target)
                    hits, miss_keys = self._wave_cache_hits(wave, bound)
                    pending = [i for i in range(len(wave)) if i not in hits]
                    outcomes = supervised.run_wave(
                        [
                            (round_id, history, payload, *wave[i], bound)
                            for i in pending
                        ],
                        round=round_id,
                    )
                    by_index = dict(zip(pending, outcomes))
                    for index in range(len(wave)):
                        side_index, run = wave[index]
                        evaluation = hits.get(index)
                        if evaluation is None:
                            entry = by_index[index]
                            if entry.quarantined is not None:
                                self._quarantined.append(entry.quarantined)
                                continue
                            evaluation, fragments, worker_pid = entry.value
                            if fragments and obs.tracing:
                                obs.tracer.adopt(fragments, tid=worker_pid)
                            key = miss_keys.get(index)
                            if key is not None:
                                self.eval_cache.store(key, evaluation)
                        outcome = _account_evaluation(
                            stats, evaluation, self.config.screening
                        )
                        if outcome is not None:
                            average = outcome.matrix.average()
                            if average > best_average:
                                best = (side_index, run, outcome)
                                best_average = average
        finally:
            # The segment must outlive any mid-round pool respawn (new
            # workers re-attach to evaluate retried candidates), so it is
            # only reclaimed here, when the round is over — including on
            # the WorkerPoolError path.
            _release_shared_block(block)
        return best, best_average
