"""Incremental candidate evaluation for the composite search (Section 4).

The greedy loop of :class:`repro.core.composite.CompositeMatcher` evaluates
every remaining candidate merge in every round.  The cold path pays, per
candidate: a full log rewrite, a full recount, two graph builds with fresh
longest-distance passes, and an ``O(n1 * n2)`` Python-dict Uc seeding.
This module replaces all of that with delta work proportional to what the
merge actually touches, while staying **bit-identical** to the cold path:

* **delta graph merges** — :func:`repro.graph.merge.merge_counts` patches
  the parent round's integer trace counters from only the traces containing
  the run; identical integers divided by the same trace count give
  bit-identical frequencies, hence bit-identical graphs
  (:func:`repro.graph.merge.merged_graph_from_delta`), with Proposition-2
  levels recomputed only where ``l(v)`` can change;
* **warm-started fixpoint** — the parent round's converged directional
  matrices are mapped onto the merged node grid as a
  :class:`repro.core.ems.WarmStart` whose non-dirty region is exactly the
  Proposition-4 unchanged set the cold path seeds through ``fixed_pairs``
  dictionaries.  Same fixed cells, same values, array-built — the fixpoint
  then re-iterates only pairs in the dirty frontier;
* **estimation-bound screening** — before any graph is built, the
  candidate's average similarity is bounded from the closed-form Section
  3.5 coefficients (:func:`repro.core.bounds.estimation_screen_bound`,
  computed straight from the patched counts).  A candidate whose bound
  cannot beat the incumbent ``Bd`` is rejected outright.  The bound is
  sound, so screening never changes the merge trajectory; it is disabled
  while a :class:`~repro.runtime.budget.BudgetMeter` is active so budget
  accounting stays identical to the unscreened path.

``tests/property/test_property_incremental.py`` holds the equivalence to
account: identical trajectories, scores and ``pairs_fixed`` against the
cold path, including under mid-round budget exhaustion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bounds import SCREEN_MARGIN, estimation_screen_bound
from repro.core.config import EMSConfig
from repro.core.ems import EMSEngine, EMSResult, LabelMatrixCache, WarmStart, edge_agreement
from repro.core.estimation import estimation_coefficients
from repro.core.matrix import SimilarityMatrix
from repro.graph.dependency import DependencyGraph
from repro.graph.merge import (
    LogCounts,
    MergeDelta,
    TraceIndex,
    apply_delta_to_log,
    merge_counts,
    merged_graph_from_delta,
    merged_member_map,
)
from repro.graph.reachability import real_ancestors, real_descendants
from repro.logs.log import EventLog
from repro.obs import NULL_OBSERVER, Observer
from repro.runtime.budget import BudgetMeter
from repro.similarity.labels import CompositeAwareSimilarity, LabelSimilarity, OpaqueSimilarity

#: Slack subtracted from the incumbent bound before rejecting a candidate,
#: so borderline floating-point ties always fall through to the exact
#: evaluation instead of risking a trajectory divergence.  Shared with the
#: best-first cutoff as :data:`repro.core.bounds.SCREEN_MARGIN`.
_SCREEN_MARGIN = SCREEN_MARGIN


@dataclass(slots=True)
class CandidateEvaluation:
    """What :meth:`IncrementalSearchState.evaluate` learned about one candidate.

    ``outcome`` is ``None`` when the candidate was killed without a full
    evaluation — by the Bd abort (``screened`` False) or by the estimation
    screen (``screened`` True, ``bound`` holding the losing upper bound).
    """

    outcome: EMSResult | None
    pairs_fixed: int
    screened: bool
    bound: float | None = None


@dataclass(slots=True)
class _IncrementalSide:
    """One log's evolving state plus the delta-merge support structures."""

    log: EventLog
    members: dict[str, frozenset[str]]
    graph: DependencyGraph
    counts: LogCounts
    index: TraceIndex


class IncrementalSearchState:
    """Round-scoped incremental evaluation engine for the composite search.

    Lifecycle: :meth:`reset` once per match with the initial side states,
    :meth:`begin_round` at the top of every greedy round with the current
    result's directional matrices, :meth:`evaluate` per candidate, and
    :meth:`apply_accepted` when a round accepts a merge (or when a
    checkpointed search replays its history).  The same object serves
    the in-process loop and every pool worker; a worker replays accepted
    merges from the task history to stay in lockstep with the parent
    (see ``_incremental_pool_evaluate`` in :mod:`repro.core.composite`).
    """

    def __init__(
        self,
        config: EMSConfig,
        base_label: LabelSimilarity,
        min_edge_frequency: float,
        use_unchanged: bool,
        use_bounds: bool,
        label_cache: LabelMatrixCache | None = None,
        observer: Observer | None = None,
    ):
        self.config = config
        self.base_label = base_label
        self.min_edge_frequency = min_edge_frequency
        self.use_unchanged = use_unchanged
        self.use_bounds = use_bounds
        self.label_cache = label_cache
        self.observer = observer if observer is not None else NULL_OBSERVER
        self._sides: list[_IncrementalSide] = []
        self._directional: dict[str, SimilarityMatrix] | None = None
        #: Per (direction, side): the parent matrix as a raw array, built
        #: lazily once per round and sliced into candidate warm starts.
        self._warm_values: dict[str, np.ndarray] = {}
        #: Deltas computed by :meth:`candidate_bound` this round, consumed
        #: by the matching :meth:`evaluate` call so best-first scheduling
        #: never runs ``merge_counts`` twice for one candidate.  Keyed by
        #: ``(side_index, run)``; flushed whenever the side states move.
        self._delta_memo: dict[tuple[int, tuple[str, ...]], MergeDelta] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(
        self, sides: tuple[tuple[EventLog, dict[str, frozenset[str]], DependencyGraph], ...]
    ) -> None:
        """Adopt the match's initial per-side (log, members, graph) states."""
        self._sides = [
            _IncrementalSide(
                log=log,
                members=dict(members),
                graph=graph,
                counts=LogCounts.from_log(log),
                index=TraceIndex(log),
            )
            for log, members, graph in sides
        ]
        self._directional = None
        self._warm_values = {}
        self._delta_memo = {}

    def begin_round(self, directional: dict[str, SimilarityMatrix] | None) -> None:
        """Start a greedy round; *directional* feeds this round's warm starts."""
        self._directional = directional if self.use_unchanged else None
        self._warm_values = (
            {name: matrix.values for name, matrix in self._directional.items()}
            if self._directional
            else {}
        )
        self._delta_memo = {}

    def side(self, side_index: int) -> _IncrementalSide:
        return self._sides[side_index]

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def candidate_bound(self, side_index: int, run: tuple[str, ...]) -> float:
        """The sound estimation upper bound of one candidate, graph-free.

        Best-first scheduling calls this for every candidate of a round
        before any full evaluation.  The ``merge_counts`` delta it
        computes is memoized for the follow-up :meth:`evaluate` call on
        the same candidate, so the priority pass adds only the (cheap)
        bound arithmetic over the static order's cost.
        """
        side = self._sides[side_index]
        other = self._sides[1 - side_index]
        key = (side_index, run)
        delta = self._delta_memo.get(key)
        if delta is None:
            delta = merge_counts(side.counts, side.index, run)
            self._delta_memo[key] = delta
        return self._screen_bound(delta, other.graph)

    def evaluate(
        self,
        side_index: int,
        run: tuple[str, ...],
        abort_below: float,
        meter: BudgetMeter | None = None,
        screen_bound: float | None = None,
    ) -> CandidateEvaluation:
        """Score merging *run* on one side, incrementally.

        Mirrors the cold oracle ``_evaluate_candidate`` of
        :mod:`repro.core.composite` step for step — same graphs, same
        fixed pairs, same engine calls — so results are interchangeable
        with the cold path.  *screen_bound* short-circuits the screening
        recomputation when the caller already holds this candidate's
        :meth:`candidate_bound` (the best-first path); the comparison
        against *abort_below* is still performed here so screening
        semantics are identical either way.
        """
        side = self._sides[side_index]
        other = self._sides[1 - side_index]
        delta = self._delta_memo.pop((side_index, run), None)
        if delta is None:
            delta = merge_counts(side.counts, side.index, run)

        if self.config.screening and meter is None:
            bound = (
                screen_bound
                if screen_bound is not None
                else self._screen_bound(delta, other.graph)
            )
            if bound < abort_below - _SCREEN_MARGIN:
                self.observer.count("composite_candidates_screened_total")
                return CandidateEvaluation(
                    outcome=None, pairs_fixed=0, screened=True, bound=bound
                )

        merged_members = merged_member_map(
            sorted(delta.counts.activity), run, side.members
        )
        need_backward = self.config.direction in ("backward", "both")
        with self.observer.span("graph.build", merged=True, run=list(run)):
            merged_graph = merged_graph_from_delta(
                side.graph, delta, self.min_edge_frequency, merged_members,
                patch_reversed=need_backward,
            )
        if side_index == 0:
            members_pair = (merged_members, other.members)
            graphs = (merged_graph, other.graph)
        else:
            members_pair = (other.members, merged_members)
            graphs = (other.graph, merged_graph)
        if isinstance(self.base_label, OpaqueSimilarity) or self.config.alpha == 1.0:
            label: LabelSimilarity = self.base_label
        else:
            label = CompositeAwareSimilarity(self.base_label, *members_pair)
        engine = EMSEngine(self.config, label, self.label_cache, observer=self.observer)

        fixed_forward, fixed_backward, pairs_fixed = self._warm_starts(
            side_index, run, delta.name, merged_graph, other.graph
        )
        if self.use_bounds:
            outcome = engine.similarity_with_abort(
                graphs[0], graphs[1], abort_below, fixed_forward, fixed_backward,
                meter=meter,
            )
        else:
            outcome = engine.similarity(
                graphs[0], graphs[1], fixed_forward, fixed_backward, meter=meter
            )
        return CandidateEvaluation(outcome=outcome, pairs_fixed=pairs_fixed, screened=False)

    def apply_accepted(
        self, side_index: int, run: tuple[str, ...]
    ) -> tuple[EventLog, dict[str, frozenset[str]], DependencyGraph]:
        """Advance one side past an accepted merge; returns its new state."""
        self._delta_memo = {}
        side = self._sides[side_index]
        delta = merge_counts(side.counts, side.index, run)
        members = merged_member_map(sorted(delta.counts.activity), run, side.members)
        graph = merged_graph_from_delta(
            side.graph, delta, self.min_edge_frequency, members,
            patch_reversed=self.config.direction in ("backward", "both"),
        )
        side.log = apply_delta_to_log(side.log, delta)
        side.members = members
        side.graph = graph
        side.counts = delta.counts
        side.index.apply(delta)
        return side.log, side.members, side.graph

    # ------------------------------------------------------------------
    # Warm starts (Proposition 4 in array form)
    # ------------------------------------------------------------------
    def _warm_starts(
        self,
        side_index: int,
        run: tuple[str, ...],
        name: str,
        merged_graph: DependencyGraph,
        other_graph: DependencyGraph,
    ) -> tuple[WarmStart | None, WarmStart | None, int]:
        """The per-direction warm starts for merging *run* on one side.

        Fixes exactly the pairs ``_unchanged_pairs`` fixes — parent nodes
        with no real path from the run (per direction) crossed with every
        node of the other graph — at exactly the parent matrix values.
        """
        if not self.use_unchanged or self._directional is None:
            return None, None, 0
        parent_graph = self._sides[side_index].graph
        parent_nodes = parent_graph.nodes
        merged_index = {node: i for i, node in enumerate(merged_graph.nodes)}
        n_other = len(other_graph.nodes)
        # Carried values are narrowed to the run dtype here, matching what
        # a cold run would do when seeding the same fixed pairs.
        dtype = self.config.np_dtype
        starts: dict[str, WarmStart] = {}
        count = 0
        for direction, parent_values in self._warm_values.items():
            if direction == "forward":
                affected = set(run) | real_descendants(parent_graph, run)
            else:
                affected = set(run) | real_ancestors(parent_graph, run)
            affected.add(name)
            merged_rows: list[int] = []
            parent_rows: list[int] = []
            for parent_pos, node in enumerate(parent_nodes):
                if node not in affected:
                    merged_rows.append(merged_index[node])
                    parent_rows.append(parent_pos)
            if side_index == 0:
                shape = (len(merged_index), n_other)
                values = np.zeros(shape, dtype=dtype)
                dirty = np.ones(shape, dtype=bool)
                if merged_rows:
                    values[merged_rows, :] = parent_values[parent_rows, :]
                    dirty[merged_rows, :] = False
            else:
                shape = (n_other, len(merged_index))
                values = np.zeros(shape, dtype=dtype)
                dirty = np.ones(shape, dtype=bool)
                if merged_rows:
                    values[:, merged_rows] = parent_values[:, parent_rows]
                    dirty[:, merged_rows] = False
            start = WarmStart(values=values, dirty=dirty)
            starts[direction] = start
            count += start.pairs_fixed
        return starts.get("forward"), starts.get("backward"), count

    # ------------------------------------------------------------------
    # Estimation-bound screening (Section 3.5 as a filter)
    # ------------------------------------------------------------------
    def _screen_bound(self, delta: MergeDelta, other_graph: DependencyGraph) -> float:
        """Upper bound of the candidate's average similarity, graph-free.

        Degrees and node frequencies of the merged side come straight from
        the patched counts; the other side reads its (already built)
        graph.  With a non-opaque label similarity the label term is
        bounded by ``S^L <= 1`` so no label matrix is needed either.
        """
        config = self.config
        stats = delta.counts.statistics()
        tc = delta.counts.trace_count
        threshold = self.min_edge_frequency
        merged_nodes = sorted(delta.counts.activity)
        in_degree = {node: 1 for node in merged_nodes}   # the v^X source edge
        out_degree = {node: 1 for node in merged_nodes}
        for (source, target), freq in stats.pair_frequencies.items():
            if freq >= threshold:
                in_degree[target] += 1
                out_degree[source] += 1
        merged_freq = np.array([stats.activity_frequencies[n] for n in merged_nodes])
        other_nodes = other_graph.nodes
        other_freq = np.array([other_graph.frequency(n) for n in other_nodes])
        other_in = np.array([len(other_graph.predecessors(n)) for n in other_nodes])
        other_out = np.array([len(other_graph.successors(n)) for n in other_nodes])
        merged_in = np.array([in_degree[n] for n in merged_nodes])
        merged_out = np.array([out_degree[n] for n in merged_nodes])

        if config.use_edge_weights:
            artificial = edge_agreement(merged_freq, other_freq, config.c)
        else:
            artificial = np.full((len(merged_nodes), len(other_nodes)), config.c)
        if isinstance(self.base_label, OpaqueSimilarity) or config.alpha == 1.0:
            label = np.zeros_like(artificial)
        else:
            label = np.ones_like(artificial)  # S^L <= 1: stay an upper bound

        # Direction pre-counts: forward uses in-degrees, backward (reversed
        # graphs) uses out-degrees; the artificial agreement is symmetric,
        # and (q, a) are symmetric in (A, B), so the bound's mean does not
        # depend on which side is "first".
        bounds: list[float] = []
        if config.direction in ("forward", "both"):
            q, a = estimation_coefficients(
                merged_in, other_in, artificial, label, config.alpha, config.c
            )
            bounds.append(float(estimation_screen_bound(q, a).mean()))
        if config.direction in ("backward", "both"):
            q, a = estimation_coefficients(
                merged_out, other_out, artificial, label, config.alpha, config.c
            )
            bounds.append(float(estimation_screen_bound(q, a).mean()))
        return float(np.mean(bounds))
