"""Tests for composite event matching (Section 4, Algorithm 2)."""

import pytest

from repro.core.composite import CompositeMatcher, discover_candidates
from repro.core.config import EMSConfig
from repro.logs.log import EventLog


class TestDiscoverCandidates:
    def test_always_adjacent_pair_found(self):
        log = EventLog([["a", "b", "c"], ["x", "a", "b"]])
        assert ("a", "b") in discover_candidates(log)

    def test_sometimes_adjacent_pair_needs_lower_confidence(self):
        log = EventLog([["a", "b"], ["a", "c"]])
        assert ("a", "b") not in discover_candidates(log, min_confidence=1.0)
        assert ("a", "b") in discover_candidates(log, min_confidence=0.5)

    def test_chains_extend(self):
        log = EventLog([["a", "b", "c"]] * 5)
        candidates = discover_candidates(log, max_run_length=3)
        assert ("a", "b", "c") in candidates
        assert ("a", "b") in candidates
        assert ("b", "c") in candidates

    def test_max_run_length_respected(self):
        log = EventLog([["a", "b", "c", "d"]] * 3)
        candidates = discover_candidates(log, max_run_length=2)
        assert all(len(run) == 2 for run in candidates)

    def test_max_candidates_cap(self):
        log = EventLog([["a", "b", "c", "d"]] * 3)
        assert len(discover_candidates(log, max_candidates=2)) == 2
        assert discover_candidates(log, max_candidates=0) == []

    def test_no_cyclic_candidates(self):
        log = EventLog([["a", "b", "a", "b"]] * 3)
        for run in discover_candidates(log, min_confidence=0.4):
            assert len(set(run)) == len(run)

    def test_self_loops_ignored(self):
        log = EventLog([["a", "a", "b"]] * 3)
        for run in discover_candidates(log, min_confidence=0.3):
            assert all(run[i] != run[i + 1] for i in range(len(run) - 1))

    def test_validation(self):
        log = EventLog([["a", "b"]])
        with pytest.raises(ValueError):
            discover_candidates(log, min_confidence=0.0)
        with pytest.raises(ValueError):
            discover_candidates(log, max_run_length=1)

    def test_ordering_strongest_first(self):
        # (c, d) is always adjacent (confidence 1.0); (a, b) only in 80%
        # of a's occurrences (confidence 0.8) — confidence orders first.
        log = EventLog([["a", "b"]] * 8 + [["a", "c", "d"]] * 2)
        candidates = discover_candidates(log, min_confidence=0.1, max_run_length=2)
        assert candidates[0] == ("c", "d")
        assert ("a", "b") in candidates


class TestGreedyMatcher:
    @pytest.fixture()
    def matcher(self) -> CompositeMatcher:
        return CompositeMatcher(
            EMSConfig(), delta=0.005, min_confidence=0.9, max_run_length=2
        )

    def test_paper_example7(self, fig1_logs, matcher):
        """Greedy accepts exactly {C, D}; avg rises 0.502 -> ~0.509."""
        result = matcher.match(*fig1_logs)
        assert result.accepted_first == (("C", "D"),)
        assert result.accepted_second == ()
        assert result.average == pytest.approx(0.509, abs=2e-3)

    def test_members_expose_composite(self, fig1_logs, matcher):
        result = matcher.match(*fig1_logs)
        assert result.members_first["⟨C+D⟩"] == frozenset({"C", "D"})

    def test_high_delta_blocks_merging(self, fig1_logs):
        matcher = CompositeMatcher(EMSConfig(), delta=0.5, min_confidence=0.9)
        result = matcher.match(*fig1_logs)
        assert result.accepted_first == ()
        assert result.accepted_second == ()

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            CompositeMatcher(delta=-0.1)

    def test_pruning_variants_agree_on_result(self, fig1_logs):
        results = []
        for use_unchanged in (False, True):
            for use_bounds in (False, True):
                matcher = CompositeMatcher(
                    EMSConfig(),
                    delta=0.005,
                    min_confidence=0.9,
                    max_run_length=2,
                    use_unchanged=use_unchanged,
                    use_bounds=use_bounds,
                )
                results.append(matcher.match(*fig1_logs))
        first = results[0]
        for other in results[1:]:
            assert other.accepted_first == first.accepted_first
            assert other.accepted_second == first.accepted_second
            assert other.average == pytest.approx(first.average, abs=1e-4)

    def test_pruning_reduces_work(self, fig1_logs):
        pruned = CompositeMatcher(
            EMSConfig(), delta=0.005, min_confidence=0.9, max_run_length=2,
            use_unchanged=True, use_bounds=True,
        ).match(*fig1_logs)
        unpruned = CompositeMatcher(
            EMSConfig(), delta=0.005, min_confidence=0.9, max_run_length=2,
            use_unchanged=False, use_bounds=False,
        ).match(*fig1_logs)
        assert pruned.stats.pair_updates < unpruned.stats.pair_updates

    def test_stats_recorded(self, fig1_logs, matcher):
        result = matcher.match(*fig1_logs)
        assert result.stats.rounds >= 1
        assert result.stats.candidates_evaluated >= 1
        assert result.stats.pair_updates > 0

    def test_accepted_runs_pairwise_disjoint(self):
        # Overlapping candidates must never both be accepted.
        log_first = EventLog([["a", "b", "c", "d"]] * 20)
        log_second = EventLog([["x", "y"]] * 20)
        matcher = CompositeMatcher(
            EMSConfig(), delta=0.0, min_confidence=0.9, max_run_length=3
        )
        result = matcher.match(log_first, log_second)
        seen: set[str] = set()
        for run in result.accepted_first + result.accepted_second:
            flattened = {
                member
                for node in run
                for member in (
                    result.members_first.get(node, frozenset({node}))
                    | result.members_second.get(node, frozenset({node}))
                )
            }
            # No accepted composite may reuse an already-merged activity
            # unless it is the nested merge of a previous composite.
            assert not (seen & flattened) or any(
                node.startswith("⟨") for node in run
            )
            seen.update(flattened)

    def test_labels_still_find_the_turbine_composite(self):
        from repro.similarity.labels import QGramCosineSimilarity
        from repro.synthesis.examples import turbine_order_logs

        log_first, log_second, _ = turbine_order_logs()
        matcher = CompositeMatcher(
            EMSConfig(alpha=0.5),
            label_similarity=QGramCosineSimilarity(),
            delta=0.005,
            min_confidence=0.9,
            max_run_length=2,
        )
        result = matcher.match(log_first, log_second)
        assert (("Check Inventory", "Validate"),) == result.accepted_first

    def test_no_candidates_returns_singleton_matching(self):
        # Alternating log: nothing is always-adjacent.
        log_first = EventLog([["a", "b"], ["b", "a"]] * 3)
        log_second = EventLog([["x", "y"], ["y", "x"]] * 3)
        matcher = CompositeMatcher(EMSConfig(), min_confidence=1.0)
        result = matcher.match(log_first, log_second)
        assert result.accepted_first == ()
        assert set(result.matrix.rows) == {"a", "b"}


class TestParallelEvaluation:
    """workers > 1 must reproduce the serial greedy search exactly."""

    KNOBS = dict(delta=0.005, min_confidence=0.9, max_run_length=2)

    def test_workers_match_serial(self, fig1_logs):
        import numpy as np

        serial = CompositeMatcher(EMSConfig(), **self.KNOBS).match(*fig1_logs)
        parallel = CompositeMatcher(
            EMSConfig(), workers=2, **self.KNOBS
        ).match(*fig1_logs)
        assert parallel.accepted_first == serial.accepted_first
        assert parallel.accepted_second == serial.accepted_second
        assert parallel.members_first == serial.members_first
        np.testing.assert_allclose(
            parallel.matrix.values, serial.matrix.values, rtol=0, atol=1e-12
        )
        assert parallel.stats.rounds == serial.stats.rounds
        assert parallel.stats.candidates_evaluated == serial.stats.candidates_evaluated

    def test_workers_match_serial_with_labels(self):
        import numpy as np

        from repro.similarity.labels import QGramCosineSimilarity
        from repro.synthesis.examples import turbine_order_logs

        log_first, log_second, _ = turbine_order_logs()
        results = []
        for workers in (0, 2):
            matcher = CompositeMatcher(
                EMSConfig(alpha=0.5),
                label_similarity=QGramCosineSimilarity(),
                workers=workers,
                **self.KNOBS,
            )
            results.append(matcher.match(log_first, log_second))
        serial, parallel = results
        assert parallel.accepted_first == serial.accepted_first
        assert parallel.accepted_second == serial.accepted_second
        np.testing.assert_allclose(
            parallel.matrix.values, serial.matrix.values, rtol=0, atol=1e-12
        )

    def test_cold_run_with_workers_stays_serial(self, fig1_logs, monkeypatch):
        """``incremental=False`` is the serial oracle whatever ``workers`` says."""
        import dataclasses

        import numpy as np

        import repro.core.composite as composite_module

        # Looser discovery than KNOBS: 14 and 12 candidates in the two
        # rounds, so a pooled run would dispatch them to workers.
        knobs = dict(delta=0.005, min_confidence=0.5, max_run_length=3)
        config = EMSConfig(incremental=False, screening=False)
        serial = CompositeMatcher(config, workers=0, **knobs).match(*fig1_logs)

        def no_pool(*args, **kwargs):
            raise AssertionError("a cold run must not start a worker pool")

        monkeypatch.setattr(composite_module, "ProcessPoolExecutor", no_pool)
        pooled = CompositeMatcher(config, workers=2, **knobs).match(*fig1_logs)
        assert pooled.accepted_first == serial.accepted_first
        assert pooled.accepted_second == serial.accepted_second
        assert pooled.members_first == serial.members_first
        assert pooled.members_second == serial.members_second
        assert dataclasses.asdict(pooled.stats) == dataclasses.asdict(serial.stats)
        np.testing.assert_array_equal(pooled.matrix.values, serial.matrix.values)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            CompositeMatcher(workers=-1)

    def test_budgeted_run_stays_serial_and_exact(self, fig1_logs):
        from repro.runtime.budget import MatchBudget

        matcher = CompositeMatcher(
            EMSConfig(), workers=2, budget=MatchBudget(max_pair_updates=10**9),
            **self.KNOBS,
        )
        result = matcher.match(*fig1_logs)
        assert result.runtime is not None
        assert result.runtime.stage == "exact"
        assert result.accepted_first == (("C", "D"),)


class TestSharedMemoryTransport:
    """The per-round shared-memory shipping of directional matrices.

    The transport is pure plumbing — workers must see the exact same
    float64 payload whether it travels through a shared-memory block or
    (on platforms without one) through the pickling fallback.
    """

    @staticmethod
    def _directional():
        import numpy as np

        from repro.core.matrix import SimilarityMatrix

        rows, cols = ("A", "B"), ("X", "Y", "Z")
        rng = np.random.default_rng(5)
        return {
            "forward": SimilarityMatrix(rows, cols, rng.random((2, 3))),
            "backward": SimilarityMatrix(rows, cols, rng.random((2, 3))),
        }

    def test_pack_unpack_roundtrip(self):
        import numpy as np

        from repro.core.composite import (
            _pack_directional,
            _resolve_directional,
            _SharedDirectional,
        )

        directional = self._directional()
        handle, block = _pack_directional(directional)
        if handle is None:
            pytest.skip("shared memory unavailable on this platform")
        try:
            assert isinstance(handle, _SharedDirectional)
            restored = _resolve_directional(handle)
            assert set(restored) == set(directional)
            for name, matrix in directional.items():
                assert restored[name].rows == matrix.rows
                assert restored[name].cols == matrix.cols
                np.testing.assert_array_equal(
                    restored[name].values, matrix.values
                )
        finally:
            block.close()
            block.unlink()

    def test_plain_payloads_pass_through(self):
        from repro.core.composite import _resolve_directional

        directional = self._directional()
        assert _resolve_directional(directional) is directional
        assert _resolve_directional(None) is None

    def test_allocation_failure_falls_back(self, monkeypatch):
        import repro.core.composite as composite_module
        from repro.core.composite import _pack_directional

        def refuse(*args, **kwargs):
            raise OSError("no shared memory here")

        monkeypatch.setattr(
            composite_module.shared_memory, "SharedMemory", refuse
        )
        assert _pack_directional(self._directional()) == (None, None)

    def test_workers_match_serial_without_shared_memory(
        self, fig1_logs, monkeypatch
    ):
        """The pickling fallback reproduces the serial search too."""
        import numpy as np

        import repro.core.composite as composite_module

        knobs = dict(delta=0.005, min_confidence=0.9, max_run_length=2)
        serial = CompositeMatcher(EMSConfig(), **knobs).match(*fig1_logs)
        monkeypatch.setattr(
            composite_module, "_pack_directional", lambda directional: (None, None)
        )
        parallel = CompositeMatcher(
            EMSConfig(), workers=2, **knobs
        ).match(*fig1_logs)
        assert parallel.accepted_first == serial.accepted_first
        assert parallel.accepted_second == serial.accepted_second
        assert parallel.stats.pair_updates == serial.stats.pair_updates
        np.testing.assert_allclose(
            parallel.matrix.values, serial.matrix.values, rtol=0, atol=1e-12
        )

    def test_multi_candidate_round_ships_via_shared_memory(self, monkeypatch):
        """A >1-candidate round packs one block and stays byte-identical."""
        import numpy as np

        import repro.core.composite as composite_module

        packed = []
        original = composite_module._pack_directional

        def counting(directional):
            outcome = original(directional)
            packed.append(outcome[0] is not None)
            return outcome

        monkeypatch.setattr(composite_module, "_pack_directional", counting)
        # Two always-adjacent runs on the first side -> a two-task round,
        # which is what routes through the worker pool (single-task
        # rounds fall back to the serial loop).
        log_first = EventLog(
            [["a", "b", "x", "c", "d"], ["c", "d", "y", "a", "b"],
             ["a", "b", "z", "c", "d"]] * 3,
            name="shm-first",
        )
        log_second = EventLog([["p", "q"], ["q", "p"]] * 5, name="shm-second")
        knobs = dict(delta=0.001, min_confidence=0.9, max_run_length=2)
        serial = CompositeMatcher(EMSConfig(), **knobs).match(
            log_first, log_second
        )
        parallel = CompositeMatcher(EMSConfig(), workers=2, **knobs).match(
            log_first, log_second
        )
        assert packed, "the parallel round never reached the pool path"
        assert parallel.accepted_first == serial.accepted_first
        assert parallel.accepted_second == serial.accepted_second
        assert parallel.stats.pair_updates == serial.stats.pair_updates
        np.testing.assert_array_equal(
            parallel.matrix.values, serial.matrix.values
        )
