"""Wall-clock spans around the calls into each layer's public functions.

The tracer wraps functions and methods of ``repro`` from outside, while
it is installed, and restores the originals on :meth:`Tracer.uninstall`:
the program itself is not changed.  Each call becomes a span (name,
start, end, parent span, job id) kept in memory; the benchmark writes
them out when it ends.  Span names are the per-layer metric names, so
spans added inside the program later can reuse them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

from stats import reuse_ratio, self_time, union_length

#: (span name, module, function) — module-level functions.  The wrapper
#: replaces every ``repro`` module's binding of the function, so
#: ``from x import f`` copies are traced too.
FUNCTIONS = (
    ("graph.make_dataset", "repro.graph.generators.suite", "make_dataset"),
    ("graph.from_edges", "repro.graph.build", "from_edges"),
    ("bc.fold", "repro.bc.preprocess", "fold_degree_one"),
    ("bc.forward", "repro.bc.frontier", "forward_sweep"),
    ("bc.engine", "repro.bc.engine", "run_root"),
    ("bc.batched", "repro.bc.batched", "batched_dependencies"),
)

#: (span name, module, class, method).
METHODS = (
    ("gpusim.run_bc", "repro.gpusim.device", "Device", "run_bc"),
    ("service.submit", "repro.service.daemon", "BCService", "submit"),
    ("service.scheduler.execute", "repro.service.scheduler", "Scheduler",
     "execute"),
    ("service.journal.append", "repro.service.journal", "JobJournal",
     "append"),
    ("service.journal.compact", "repro.service.journal", "JobJournal",
     "compact"),
    ("service.storage.write", "repro.service.storage", "ServiceStorage",
     "append_line"),
    ("service.storage.write", "repro.service.storage", "ServiceStorage",
     "replace_atomic"),
    ("service.cache.put", "repro.service.cache", "ResultCache", "put"),
    ("service.cache.get", "repro.service.cache", "ResultCache", "get"),
    ("telemetry.emit", "repro.telemetry.events", "TelemetryLog", "emit"),
    ("client.submit", "repro.client.sdk", "BCClient", "submit"),
    ("client.result", "repro.client.sdk", "BCClient", "result"),
)

#: Per-layer metrics read from spans: (metric, unit, span name, kind),
#: kind being ``calls``, ``busy`` (time covered by the spans) or
#: ``self`` (span time not covered by child spans).
SPAN_METRICS = (
    ("graph.make_dataset.calls", "count", "graph.make_dataset", "calls"),
    ("graph.make_dataset.s", "s", "graph.make_dataset", "busy"),
    ("graph.from_edges.calls", "count", "graph.from_edges", "calls"),
    ("graph.from_edges.s", "s", "graph.from_edges", "busy"),
    ("bc.fold.calls", "count", "bc.fold", "calls"),
    ("bc.fold.s", "s", "bc.fold", "busy"),
    ("bc.forward.calls", "count", "bc.forward", "calls"),
    ("bc.forward.s", "s", "bc.forward", "busy"),
    ("bc.engine.s", "s", "bc.engine", "busy"),
    ("bc.accumulate.self_s", "s", "bc.engine", "self"),
    ("bc.batched.s", "s", "bc.batched", "busy"),
    ("gpusim.run_bc.calls", "count", "gpusim.run_bc", "calls"),
    ("gpusim.run_bc.s", "s", "gpusim.run_bc", "busy"),
    ("gpusim.run_bc.self_s", "s", "gpusim.run_bc", "self"),
    ("service.submit.s", "s", "service.submit", "busy"),
    ("service.scheduler.execute.s", "s", "service.scheduler.execute",
     "busy"),
    ("service.journal.append.calls", "count", "service.journal.append",
     "calls"),
    ("service.journal.append.s", "s", "service.journal.append", "busy"),
    ("service.journal.compact.calls", "count", "service.journal.compact",
     "calls"),
    ("service.journal.compact.s", "s", "service.journal.compact", "busy"),
    ("service.storage.write.calls", "count", "service.storage.write",
     "calls"),
    ("service.storage.write.s", "s", "service.storage.write", "busy"),
    ("service.cache.put.s", "s", "service.cache.put", "busy"),
    ("service.cache.get.s", "s", "service.cache.get", "busy"),
    ("telemetry.emit.calls", "count", "telemetry.emit", "calls"),
    ("telemetry.emit.s", "s", "telemetry.emit", "busy"),
    ("client.submit.s", "s", "client.submit", "busy"),
    ("client.result.s", "s", "client.result", "busy"),
)

#: Per-layer metrics counted by the wrappers (value, unit).
COUNT_METRICS = (
    ("bc.fold.reuse", "ratio"),
    ("bc.forward.levels", "count"),
    ("bc.traversal.reuse", "ratio"),
    ("gpusim.sim_cycles", "cycles"),
    ("service.storage.write.bytes", "bytes"),
    ("service.cache.hit_ratio", "ratio"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Collects spans and counts while installed and not paused."""

    def __init__(self):
        #: ``[name, start, end, parent index or -1, job]`` per call.
        self.spans: list = []
        self._stack: list = []
        #: Job id stamped on spans opened from now on.
        self.job = None
        self.active = False
        self._patches: list = []
        # Graph objects seen, kept alive so ``id()`` keys stay unique.
        self._graphs: dict = {}
        self._fold_calls = 0
        self._folded: set = set()
        self._traversals = 0
        self._traversed: set = set()
        self._levels = 0
        self._sim_cycles = 0.0
        self._write_bytes = 0
        self._gets = 0
        self._hits = 0

    # -- counting hooks (args, kwargs, result) ------------------------
    def _graph_key(self, g) -> int:
        self._graphs[id(g)] = g
        return id(g)

    def _on_fold(self, args, kwargs, result) -> None:
        self._fold_calls += 1
        self._folded.add(self._graph_key(_arg(args, kwargs, 0, "g")))

    def _on_forward(self, args, kwargs, result) -> None:
        key = self._graph_key(_arg(args, kwargs, 0, "g"))
        self._traversals += 1
        self._traversed.add((key, int(_arg(args, kwargs, 1, "source"))))
        self._levels += len(result.levels)

    def _on_batched(self, args, kwargs, result) -> None:
        key = self._graph_key(_arg(args, kwargs, 0, "g"))
        roots = _arg(args, kwargs, 1, "roots")
        self._traversals += len(roots)
        self._traversed.update((key, int(r)) for r in roots)

    def _on_run_bc(self, args, kwargs, result) -> None:
        self._sim_cycles += float(result.cycles)

    def _on_write(self, args, kwargs, result) -> None:
        # Methods: args[0] is self, then (path, text, ...).
        self._write_bytes += len(_arg(args, kwargs, 2, "text")
                                 .encode("utf-8"))

    def _on_get(self, args, kwargs, result) -> None:
        self._gets += 1
        self._hits += result is not None

    _HOOKS = {
        "bc.fold": "_on_fold",
        "bc.forward": "_on_forward",
        "bc.batched": "_on_batched",
        "gpusim.run_bc": "_on_run_bc",
        "service.storage.write": "_on_write",
        "service.cache.get": "_on_get",
    }

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name: str, fn):
        hook = getattr(self, self._HOOKS[name]) if name in self._HOOKS \
            else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0,
                          stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        """Wrap every traced function and method (active at once)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, modname, attr in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            traced = self._wrap(name, original)
            for mname, mod in list(sys.modules.items()):
                if mod is None or not (mname == "repro"
                                       or mname.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))
        self.active = True
        return self

    def uninstall(self) -> None:
        """Restore every original binding (idempotent)."""
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------
    def layer_metrics(self, skip_job=None) -> dict:
        """``{metric: (value, unit)}`` for every span and count metric;
        spans stamped with job ``skip_job`` are left out of the span
        metrics."""
        intervals = defaultdict(list)
        children = defaultdict(list)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if job == skip_job and skip_job is not None:
                continue
            intervals[name].append(i)
            if parent >= 0:
                children[parent].append(i)
        spans = self.spans

        def value(span_name: str, kind: str) -> float:
            idx = intervals.get(span_name, [])
            if kind == "calls":
                return len(idx)
            if kind == "busy":
                return union_length((spans[i][1], spans[i][2]) for i in idx)
            return sum(self_time(spans[i][1], spans[i][2],
                                 [(spans[c][1], spans[c][2])
                                  for c in children[i]])
                       for i in idx)

        out = {metric: (value(span, kind), unit)
               for metric, unit, span, kind in SPAN_METRICS}
        counted = {
            "bc.fold.reuse": reuse_ratio(len(self._folded),
                                         self._fold_calls),
            "bc.forward.levels": self._levels,
            "bc.traversal.reuse": reuse_ratio(len(self._traversed),
                                              self._traversals),
            "gpusim.sim_cycles": self._sim_cycles,
            "service.storage.write.bytes": self._write_bytes,
            "service.cache.hit_ratio": reuse_ratio(self._hits, self._gets),
        }
        out.update((metric, (counted[metric], unit))
                   for metric, unit in COUNT_METRICS)
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")
