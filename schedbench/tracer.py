"""Span tracer that wraps the package's public functions from outside.

The package is not edited.  Each traced function is rebound in every
loaded `schedgames` module that holds a reference to it, because the
modules import one another's functions by name: `measures` calls its own
`scan_deviations`, `experiments` its own `measure_report`, and so on.

The `on_leaf` callback handed to `scan_deviations` is timed as the layer
`<caller>.leaf`, where the caller is the module whose reference was
called.  Leaves are aggregated into counters rather than recorded one
span each, since a single scan can reach tens of thousands of them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module defining the function, function, span name)
TARGETS = (
    ("core", "load_profile", "core.load_profile"),
    ("equilibria", "scan_deviations", "equilibria.scan_deviations"),
    ("equilibria", "is_nash", "equilibria.is_nash"),
    ("equilibria", "is_strong", "equilibria.is_strong"),
    ("equilibria", "enumerate_profitable_deviations", "equilibria.enumerate_profitable_deviations"),
    ("measures", "measure_report", "measures.measure_report"),
    ("measures", "ir_min", "measures.ir_min"),
    ("measures", "structural_report", "measures.structural_report"),
    ("schedulers", "lpt", "schedulers.lpt"),
    ("schedulers", "list_schedule", "schedulers.list_schedule"),
    ("schedulers", "ptas", "schedulers.ptas"),
    ("schedulers", "optimal_makespan", "schedulers.optimal_makespan"),
    ("experiments", "random_ne", "experiments.random_ne"),
    ("experiments", "bound_sweep", "experiments.bound_sweep"),
    ("witnesses", "reduce_partition_identical", "witnesses.reduce_partition"),
    ("witnesses", "reduce_partition_unrelated", "witnesses.reduce_partition"),
    ("witnesses", "partition_oracle", "witnesses.partition_oracle"),
)

SCAN = "equilibria.scan_deviations"
SETUP = -1  # trace id of the set-up phase; work items count from 0


class Tracer:
    """Spans of one traced run, kept in memory until `write`.

    A span is (id, parent id, trace id, name, start, end); spans of one
    work item share its trace id.  Self time, a span's duration minus
    the time its child spans and leaf callbacks cover, is summed per
    (phase, name) as spans close, the phase being "setup" or "items".
    """

    def __init__(self, budget_error):
        self._budget_error = budget_error
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_ids = array("q")
        self.parents = array("q")
        self.traces = array("q")
        self.name_of = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.tags: dict[int, str] = {}
        self.trace: int | None = None
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._origin = time.perf_counter()

    # ------------------------------------------------------------- items

    def begin_item(self, trace_id: int, tag: str):
        self.trace = trace_id
        self.tags[trace_id] = tag

    def end_item(self):
        self.trace = None

    # ------------------------------------------------------------- spans

    def _enter(self, name: str, span_id: int | None = None):
        parent = self._stack[-1][0] if self._stack else -1
        if span_id is None:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([span_id, parent, name, 0.0, time.perf_counter()])

    def _exit(self, record: bool):
        end = time.perf_counter()
        span_id, parent, name, child, start = self._stack.pop()
        duration = end - start
        key = ("setup" if self.trace == SETUP else "items", name)
        self.calls[key] += 1
        self.self_s[key] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if record:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.span_ids.append(span_id)
            self.parents.append(parent)
            self.traces.append(self.trace)
            self.name_of.append(self._name_ids[name])
            self.starts.append(start - self._origin)
            self.ends.append(end - self._origin)

    def _wrap(self, func, name: str):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.trace is None:
                return func(*args, **kwargs)
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(True)
            if name == "measures.measure_report":
                tracer.counts["measures.deviation_count"] += result.deviation_count
            return result

        return traced

    def _wrap_scan(self, func, caller: str):
        tracer = self
        leaf_name = f"{caller}.leaf"

        @functools.wraps(func)
        def traced(*args, on_leaf, **kwargs):
            if tracer.trace is None:
                return func(*args, on_leaf=on_leaf, **kwargs)

            def leaf(*leaf_args):
                tracer.counts[SCAN + ".leaves"] += 1
                # a leaf is not a span of its own: spans it opens hang off the scan
                tracer._enter(leaf_name, span_id=tracer._stack[-1][0])
                try:
                    return on_leaf(*leaf_args)
                finally:
                    tracer._exit(False)

            tracer._enter(SCAN)
            try:
                return func(*args, on_leaf=leaf, **kwargs)
            except tracer._budget_error:
                tracer.counts["equilibria.budget_exceeded"] += 1
                raise
            finally:
                tracer._exit(True)

        return traced

    # ------------------------------------------------------- installation

    def install(self):
        """Rebind every target in every loaded schedgames module."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if name == "schedgames" or name.startswith("schedgames.")
        }
        for home, attr, name in TARGETS:
            original = getattr(modules[home], attr)
            shared = self._wrap(original, name)
            for caller, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        wrapper = self._wrap_scan(original, caller) if name == SCAN else shared
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ results

    def tagged_calls(self, name: str, tag: str) -> int:
        """Spans named `name` recorded in items tagged `tag`."""
        if name not in self._name_ids:
            return 0
        nid = self._name_ids[name]
        return sum(
            1
            for k, trace in enumerate(self.traces)
            if self.name_of[k] == nid and self.tags.get(trace) == tag
        )

    def write(self, path):
        """Write the spans as gzipped JSON lines: a header, then one
        [id, parent, trace, name, start_s, end_s] list per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "tags": self.tags}) + "\n")
            for k in range(len(self.span_ids)):
                fh.write(
                    json.dumps(
                        [
                            self.span_ids[k],
                            self.parents[k],
                            self.traces[k],
                            self.names[self.name_of[k]],
                            round(self.starts[k], 7),
                            round(self.ends[k], 7),
                        ]
                    )
                    + "\n"
                )
