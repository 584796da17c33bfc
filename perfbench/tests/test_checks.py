"""Each checker rejects a deliberately corrupted answer."""

import copy

import checks

FIRST = frozenset({"a", "b", "c"})
SECOND = frozenset({"x", "y", "z"})
TRUTH = (
    (frozenset({"a"}), frozenset({"x"})),
    (frozenset({"b", "c"}), frozenset({"y"})),
)


def answer():
    return {
        "objective": 0.75,
        "correspondences": [
            {"left": ["a"], "right": ["x"]},
            {"left": ["b", "c"], "right": ["y"]},
        ],
        "runtime": {"stage": "exact", "degraded": False, "reason": None},
        "quarantined": [],
    }


def test_a_correct_answer_passes_every_check():
    assert checks.structure_problems(answer(), FIRST, SECOND) == []
    assert checks.agreement_problems(answer(), answer()) == []
    assert checks.f_measure(TRUTH, answer()) == 1.0


def test_swapped_pair_is_rejected():
    swapped = answer()
    first, second = swapped["correspondences"]
    first["right"], second["right"] = second["right"], first["right"]
    assert checks.agreement_problems(swapped, answer())
    assert checks.f_measure(TRUTH, swapped) == 0.0


def test_dropped_activity_is_rejected():
    dropped = answer()
    del dropped["correspondences"][1]["left"][1]
    assert checks.agreement_problems(dropped, answer())
    assert checks.f_measure(TRUTH, dropped) < 1.0
    # An answer naming an activity the file does not hold is invalid.
    assert checks.structure_problems(answer(), FIRST - {"c"}, SECOND)


def test_activity_in_two_correspondences_is_rejected():
    doubled = answer()
    doubled["correspondences"].append({"left": ["a"], "right": ["z"]})
    assert checks.structure_problems(doubled, FIRST, SECOND)


def test_degraded_runtime_is_rejected():
    degraded = answer()
    degraded["runtime"] = {"stage": "estimated", "degraded": True, "reason": "budget"}
    assert checks.structure_problems(degraded, FIRST, SECOND)
    assert checks.structure_problems({**answer(), "runtime": None}, FIRST, SECOND)


def test_quarantined_candidate_is_rejected():
    quarantined = answer()
    quarantined["quarantined"] = [{"candidate": ["b", "c"]}]
    assert checks.structure_problems(quarantined, FIRST, SECOND)


def test_store_hit_differing_from_its_first_answer_is_rejected():
    first = answer()
    hit = copy.deepcopy(first)
    hit["objective"] = first["objective"] + 2 ** -52
    assert checks.agreement_problems(hit, first, 0.0)
    assert checks.agreement_problems(copy.deepcopy(first), first, 0.0) == []


def test_reference_tolerance_accepts_rounding_and_rejects_more():
    near = answer()
    near["objective"] += checks.REFERENCE_TOLERANCE / 2
    far = answer()
    far["objective"] += checks.REFERENCE_TOLERANCE * 2
    assert checks.agreement_problems(near, answer(), checks.REFERENCE_TOLERANCE) == []
    assert checks.agreement_problems(far, answer(), checks.REFERENCE_TOLERANCE)
