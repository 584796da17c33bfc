"""Configuration of the EMS similarity computation.

One dataclass gathers every knob the paper exposes:

* ``alpha`` — weight of the structural part vs the label part
  (Definition 2); the paper's structural-only experiments use ``alpha = 1``.
* ``c`` — similarity decay across edges, the upper bound of the edge
  agreement factor ``C`` (Definition 2).  The paper's worked examples are
  consistent with ``c = 0.8``.
* ``epsilon`` — iteration stops when no pair moved by more than this
  (Section 3.2).
* ``direction`` — forward (predecessors), backward (successors), or the
  average of both; Section 3.6 notes that aggregating both directions is
  what fully addresses dislocated matching.
* ``use_pruning`` — early-convergence pruning (Proposition 2).
* ``estimation_iterations`` — the budget ``I`` of exact iterations before
  switching to the closed-form estimation (Section 3.5); ``None`` disables
  estimation (exact EMS).
* ``kernel`` — which implementation evaluates formula (1):
  ``"vectorized"`` (default) runs each iteration as batched NumPy
  gather/multiply/max-reduce operations over degree-bucketed pair
  populations, ``"sparse"`` evaluates the same iteration as a CSR
  gather–scatter over flat contribution chunks — ``O(chunk)`` working
  memory instead of the vectorized kernel's ``O(Σ m·A·B)`` resident
  tensors — ``"compiled"`` runs the bucketed iteration through
  numba-jitted machine-code loops when numba is installed (pure-Python
  vectorized fallback otherwise, with a one-time logged warning), and
  ``"reference"`` is the straightforward per-pair loop the other
  kernels are differentially tested against.  All of them produce the
  same ``iterations`` and ``pair_updates``.  Similarities are bitwise
  reproducible within one kernel and dtype; ``"vectorized"`` is
  bitwise equal to ``"reference"``, while
  ``"sparse"`` sums in another order and agrees only within the
  ``ATOL`` of ``tests/core/test_sparse_kernel_equivalence.py``.
* ``dtype`` — floating-point width of the similarity computation.
  ``"float64"`` (default) is exact against the reference kernel;
  ``"float32"`` halves the memory of every value/agreement buffer at a
  ~1e-5 accuracy cost (rank-preserving in practice, see
  ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

Direction = Literal["forward", "backward", "both"]
Kernel = Literal["vectorized", "reference", "sparse", "compiled"]
Dtype = Literal["float64", "float32"]

#: The NumPy dtypes backing :attr:`EMSConfig.dtype`.
_DTYPES: dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


@dataclass(frozen=True, slots=True)
class EMSConfig:
    """Parameters of the EMS similarity (see module docstring)."""

    alpha: float = 1.0
    c: float = 0.8
    epsilon: float = 1e-4
    max_iterations: int = 100
    direction: Direction = "both"
    use_pruning: bool = True
    estimation_iterations: int | None = None
    #: Ablation switch: with False, the edge-agreement factor ``C`` is the
    #: constant ``c`` regardless of frequency differences — i.e. a plain
    #: SimRank-style propagation without the paper's edge similarities
    #: (Definition 2's second ingredient).  Keep True outside ablations.
    use_edge_weights: bool = True
    #: Which fixpoint implementation evaluates formula (1); see module
    #: docstring for the determinism contract (bitwise within a kernel
    #: and dtype, "vectorized" bitwise equal to "reference", "sparse"
    #: within a tolerance).  "reference" exists for differential testing
    #: and as a readable spec of the computation, "sparse" trades a
    #: little arithmetic for O(chunk) working memory, "compiled" runs the
    #: bucketed loops through numba when available (vectorized fallback
    #: otherwise).
    kernel: Kernel = "vectorized"
    #: Floating-point width of the similarity computation ("float64" or
    #: "float32"); see module docstring.
    dtype: Dtype = "float64"
    #: Incremental composite search: candidate merges patch the parent
    #: round's counts, graphs and levels instead of rebuilding from the
    #: rewritten log, and the fixpoint warm-starts from the parent round's
    #: converged matrices (Proposition 4 in array form).  Trajectories and
    #: scores are identical to the cold path (the differential property
    #: suite holds this to 1e-12).  False selects the cold path — the
    #: ``--no-incremental`` differential oracle — which always evaluates
    #: in-process: a cold run never starts a worker pool, whatever
    #: ``CompositeMatcher(workers=...)`` says.
    incremental: bool = True
    #: Estimation-bound candidate screening (Section 3.5 as a filter):
    #: before the exact evaluation, a candidate whose closed-form upper
    #: bound cannot beat the incumbent ``Bd`` is rejected without building
    #: a graph.  Sound — screened candidates would have lost anyway — and
    #: automatically disabled while a pair-update budget is active so that
    #: budget accounting matches the unscreened path.  Only consulted on
    #: the incremental path.
    screening: bool = True
    #: Best-first candidate scheduling in the serial composite search:
    #: each round's candidates are ordered by their sound estimation
    #: upper bound (:func:`repro.core.bounds.estimation_screen_bound`,
    #: highest first) and the round cuts off globally once the best
    #: confirmed average dominates every remaining bound.  The selected
    #: merges and final scores are bit-identical to the static
    #: round-robin order — the bound is sound and ties resolve to the
    #: round-robin winner — only the evaluation order and the number of
    #: full evaluations change.  Disabled while a budget meter is active
    #: (same reason as ``screening``) and on worker-pool rounds (wave
    #: order is the determinism contract there); ``--no-best-first``
    #: restores the static order everywhere.
    best_first: bool = True
    #: LRU entry cap of the shared :class:`~repro.core.ems.LabelMatrixCache`
    #: (``None`` = unbounded).  Each entry is one whole label matrix plus
    #: headroom for 128 scalar cells.
    label_cache_entries: int | None = 512

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"c must be in (0, 1), got {self.c}")
        if self.alpha * self.c >= 1.0:
            raise ValueError(
                f"alpha * c must be < 1 for convergence (Theorem 1), got {self.alpha * self.c}"
            )
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.direction not in ("forward", "backward", "both"):
            raise ValueError(f"direction must be forward/backward/both, got {self.direction!r}")
        if self.estimation_iterations is not None and self.estimation_iterations < 0:
            raise ValueError(
                f"estimation_iterations must be >= 0 or None, got {self.estimation_iterations}"
            )
        if self.kernel not in ("vectorized", "reference", "sparse", "compiled"):
            raise ValueError(
                f"kernel must be vectorized/reference/sparse/compiled, "
                f"got {self.kernel!r}"
            )
        if self.dtype not in _DTYPES:
            raise ValueError(
                f"dtype must be float64/float32, got {self.dtype!r}"
            )
        if self.label_cache_entries is not None and self.label_cache_entries < 1:
            raise ValueError(
                f"label_cache_entries must be >= 1 or None, got {self.label_cache_entries}"
            )

    def with_(self, **changes) -> "EMSConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **changes)

    @property
    def decay(self) -> float:
        """``alpha * c``: the per-iteration contraction factor (Lemma 5)."""
        return self.alpha * self.c

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype backing :attr:`dtype`."""
        return _DTYPES[self.dtype]
