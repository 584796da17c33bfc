"""Run ``repro`` with timing wrappers around each layer's public entry points.

Usage::

    python perfbench/traced.py SPANS_OUT [repro arguments ...]

An import hook wraps the functions in :data:`TARGETS` as soon as their
module has loaded, before any other module can bind them, so the process
imports exactly the modules a plain ``python -m repro`` would.  Each call
records a span (name, start, end, parent, thread); the spans, the count
of ``repro`` modules loaded and the launcher's start time are written to
SPANS_OUT as JSON when the process exits.  The same launcher runs the
CLI children and the daemon (``serve``), which exits through the same
path on SIGTERM.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import json
import sys
import threading
import time

LAUNCHED = time.perf_counter()


def _events_of(log) -> dict:
    return {"events": sum(len(trace) for trace in log)}


def _fixpoint_counts(result) -> dict:
    return {"iterations": result.iterations, "pair_updates": result.pair_updates}


#: module -> ((attribute path, span name, annotator of the return value), ...)
TARGETS = {
    "repro.cli": (("main", "cli.main", None),),
    "repro.logs.csvio": (
        ("read_csv", "logs.parse", None),
        # The row parser under read_csv, the daemon's streaming ingest
        # and the append fast path: every CSV parse runs through it.
        ("_read_rows", "logs.parse", _events_of),
    ),
    "repro.store.sharding": (("partition_csv", "logs.parse", None),),
    "repro.graph.dependency": (
        ("DependencyGraph.from_log", "graph.build", None),
        ("DependencyGraph.from_statistics", "graph.build", None),
    ),
    "repro.core.ems": (("EMSEngine.similarity", "ems.fixpoint", _fixpoint_counts),),
    "repro.core.composite": (
        ("discover_candidates", "composite.discover", None),
        ("CompositeMatcher.match", "composite.search", None),
    ),
    "repro.core.incremental": (
        ("IncrementalSearchState.reset", "composite.count_index", None),
        ("IncrementalSearchState.evaluate", "composite.evaluate", None),
    ),
    "repro.graph.merge": (("merge_counts", "composite.delta_merge", None),),
    "repro.matching.assignment": (("max_weight_assignment", "matching.assign", None),),
    "repro.store.logstore": (("file_digest", "store.digest", None),),
}

_registry_lock = threading.Lock()
#: One span list per thread: [name, start, end, parent index, attributes].
_threads: dict[str, list] = {}
_local = threading.local()


def _thread_spans() -> tuple[list, list]:
    spans = getattr(_local, "spans", None)
    if spans is None:
        spans, _local.stack = [], []
        _local.spans = spans
        with _registry_lock:
            name = threading.current_thread().name
            _threads[f"{name}#{threading.get_ident()}"] = spans
    return spans, _local.stack


def _wrap(function, name: str, annotate):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        spans, stack = _thread_spans()
        record = [name, time.perf_counter(), None, stack[-1] if stack else -1, {}]
        stack.append(len(spans))
        spans.append(record)
        try:
            result = function(*args, **kwargs)
            if annotate is not None:
                record[4] = annotate(result)
            return result
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    return wrapper


def _patch(module, targets) -> None:
    for path, name, annotate in targets:
        owner_name, _, attribute = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        raw = owner.__dict__[attribute] if owner_name else getattr(module, attribute)
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(_wrap(raw.__func__, name, annotate)))
        else:
            setattr(owner, attribute, _wrap(raw, name, annotate))


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, targets):
        self._loader = loader
        self._targets = targets

    def __getattr__(self, attribute):
        return getattr(self._loader, attribute)

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        _patch(module, self._targets)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def find_spec(self, fullname, path, target=None):
        targets = TARGETS.get(fullname)
        if targets is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _PatchingLoader(spec.loader, targets)
                return spec
        return None


def _write(destination: str) -> None:
    with _registry_lock:
        threads = {key: list(spans) for key, spans in _threads.items()}
    document = {
        "launched": LAUNCHED,
        "exited": time.perf_counter(),
        "modules": sorted(name for name in sys.modules
                          if name == "repro" or name.startswith("repro.")),
        "threads": threads,
    }
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def main() -> None:
    if len(sys.argv) < 2:
        raise SystemExit("usage: traced.py SPANS_OUT [repro arguments ...]")
    destination, arguments = sys.argv[1], sys.argv[2:]
    # This file's directory must not shadow any module the program imports.
    del sys.path[0]
    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_write, destination)
    sys.argv = ["repro", *arguments]
    import repro.cli

    raise SystemExit(repro.cli.main(arguments))


if __name__ == "__main__":
    main()
