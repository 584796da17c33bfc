"""Output checks, made apart from the path being timed.

Each check returns a list of problems; an empty list passes.  An
operation whose answer has any problem counts as failed.  The checks
read only the answer document (the ``--json`` output of ``repro match``
or a job's ``result``), the files the generator wrote and its ground
truth; none of them calls into the program.
"""

from __future__ import annotations

#: Objective tolerance between the default kernel and ``kernel="reference"``:
#: the kernels sum in different orders (the kernel-equivalence suite pins
#: their matrices to 1e-12).
REFERENCE_TOLERANCE = 1e-9


def correspondences(answer: dict) -> frozenset[tuple[frozenset[str], frozenset[str]]]:
    """The answer's correspondences as a set of ``(left, right)`` sets."""
    return frozenset(
        (frozenset(item["left"]), frozenset(item["right"]))
        for item in answer["correspondences"]
    )


def structure_problems(
    answer: dict, first: frozenset[str], second: frozenset[str]
) -> list[str]:
    """Correspondences name only activities of the files, each at most once,
    and every runtime stage is exact with nothing quarantined."""
    problems = []
    seen_left: set[str] = set()
    seen_right: set[str] = set()
    for item in answer.get("correspondences", ()):
        left, right = set(item["left"]), set(item["right"])
        if not left or not right:
            problems.append(f"empty side in {item}")
        for name in left - first:
            problems.append(f"{name!r} is not an activity of the first log")
        for name in right - second:
            problems.append(f"{name!r} is not an activity of the second log")
        for name in left & seen_left:
            problems.append(f"{name!r} appears in two correspondences")
        for name in right & seen_right:
            problems.append(f"{name!r} appears in two correspondences")
        seen_left |= left
        seen_right |= right
    runtime = answer.get("runtime")
    if not runtime:
        problems.append("no runtime report")
    elif runtime.get("stage") != "exact" or runtime.get("degraded"):
        problems.append(
            f"runtime stage {runtime.get('stage')!r} "
            f"(degraded={runtime.get('degraded')!r}, reason={runtime.get('reason')!r})"
        )
    if answer.get("quarantined"):
        problems.append(f"{len(answer['quarantined'])} candidate(s) quarantined")
    return problems


def f_measure(truth, answer: dict) -> float:
    """Link-level F-measure of the answer against the ground truth.

    A correspondence ``({C, D}, {4})`` contributes the links ``(C, 4)``
    and ``(D, 4)`` (Section 5.1 of the paper), so a partly right
    composite earns partial credit.
    """
    expected = {(a, b) for left, right in truth for a in left for b in right}
    found = {
        (a, b) for left, right in correspondences(answer) for a in left for b in right
    }
    hits = len(expected & found)
    if not hits:
        return 0.0
    precision, recall = hits / len(found), hits / len(expected)
    return 2 * precision * recall / (precision + recall)


def agreement_problems(answer: dict, oracle: dict, tolerance: float = 0.0,
                       label: str = "oracle") -> list[str]:
    """The answer has the oracle's correspondences and an objective within
    *tolerance* of it (``0.0`` asks for bitwise equality)."""
    problems = []
    if correspondences(answer) != correspondences(oracle):
        problems.append(f"correspondences differ from the {label}")
    difference = abs(answer["objective"] - oracle["objective"])
    if not difference <= tolerance:  # also catches a NaN objective
        problems.append(
            f"objective {answer['objective']!r} differs from the {label}'s "
            f"{oracle['objective']!r} by {difference:.3g} (tolerance {tolerance:g})"
        )
    return problems
