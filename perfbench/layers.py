"""Per-layer figures from the spans the tracing launcher writes.

A span's *self time* is its duration minus the time its child spans
cover.  Spans nest only within one thread, so each thread's list is
folded on its own.  A span still open when the process exited (a daemon
thread cut off mid-call) is left out.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

#: Span name -> per-layer time metric it feeds.
SPAN_METRICS = {
    "logs.parse": "logs.parse_s",
    "graph.build": "graph.build_s",
    "ems.fixpoint": "ems.fixpoint_s",
    "composite.discover": "composite.discover_s",
    "composite.count_index": "composite.count_index_s",
    "composite.delta_merge": "composite.delta_merge_s",
    "composite.evaluate": "composite.evaluate_s",
    # The search's own time: what no narrower composite span covers.
    "composite.search": "composite.unattributed_s",
    "matching.assign": "matching.assign_s",
    "store.digest": "store.digest_s",
}


class Profile:
    """Self time per span name and summed span attributes, over processes."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        #: Self time of spans on threads whose name starts with a prefix
        #: given to :meth:`add` (the daemon's scheduler threads).
        self.selected_s = 0.0
        self.modules = 0

    def add(self, path: Path, thread_prefix: str | None = None,
            since: float = float("-inf")) -> None:
        """Fold one process's spans in, keeping those that started at or
        after *since* (``time.perf_counter`` shares its clock between the
        processes of one machine)."""
        document = json.loads(path.read_text(encoding="utf-8"))
        self.modules = max(self.modules, len(document["modules"]))
        for key, spans in document["threads"].items():
            selected = thread_prefix is not None and key.startswith(thread_prefix)
            for name, start, seconds, attributes in _self_times(spans):
                if start < since:
                    continue
                self.self_s[name] += seconds
                self.counts.update(attributes)
                if selected:
                    self.selected_s += seconds

    def layer_seconds(self) -> float:
        """Self time of every layer span (``cli.main`` excluded)."""
        return sum(self.self_s[name] for name in SPAN_METRICS)

    def metrics(self, operations: int) -> dict[str, float]:
        """Per-operation layer times and counts."""
        figures = {
            metric: self.self_s[name] / operations
            for name, metric in SPAN_METRICS.items()
        }
        figures["logs.events_parsed"] = self.counts["events"] / operations
        figures["ems.iterations"] = self.counts["iterations"] / operations
        figures["ems.pair_updates"] = self.counts["pair_updates"] / operations
        figures["cli.import_modules"] = float(self.modules)
        return figures


def _self_times(spans: list) -> list[tuple[str, float, float, dict]]:
    """``(name, start, self seconds, attributes)`` of each closed span."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if end is not None and parent >= 0:
            covered[parent] += end - start
    return [
        (name, start, (end - start) - covered[index], attributes)
        for index, (name, start, end, _, attributes) in enumerate(spans)
        if end is not None
    ]
