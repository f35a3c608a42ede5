"""Outside-in tracer: times calls into affweyl's functions without editing them.

A traced function is replaced by a wrapper in every loaded ``affweyl``
module that holds it, because ``from .affine_weyl import mul`` copies the
binding into the importing module and rebinding only the defining module
would miss those call sites.  Internal calls inside the defining module go
through its global name and are caught as well.

Two kinds of target:

* coarse targets record a span (id, name, start, end, parent span id)
  besides the aggregate counters;
* hot primitives (``hot=True``) only add to the aggregates, so that
  millions of calls cost one list push/pop and two clock reads each.

Aggregates per name: calls, total time and self time (total minus the time
of traced callees).  Per (caller, callee) pair: calls and total time, which
is how the phases inside ``adm`` are assigned by parent.  Everything stays
in memory; ``snapshot()`` hands it to the caller, which writes it out.
"""

from __future__ import annotations

import functools
import sys
import time

PREFIX = "affweyl."


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, total_s]
        self.spans: list[tuple] = []  # (id, name, start, end, parent_id)
        self.results: dict[str, dict] = {}  # name -> {id: result}, kept alive so ids stay unique
        self.result_counts: dict[str, dict[str, int]] = {}
        self._stack: list[list] = []  # frames: [name, child_time, span_id]
        self._rebound: list[tuple] = []  # (module, attribute, original)
        self._origin = time.perf_counter()

    def wrap(self, fn, name: str, hot: bool = False, on_result=None):
        """Return a wrapper of fn that records under name.

        on_result(result) -> dict of counters is called once per distinct
        result object, so a memoised function's cached answers count once.
        """
        stack = self._stack
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        spans = self.spans
        seen = self.results.setdefault(name, {})
        counts = self.result_counts.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                frame = [name, 0.0, parent[2] if parent else None]
            else:
                frame = [name, 0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                caller = parent[0] if parent else None
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if parent is not None:
                    parent[1] += dur
                if not hot:
                    parent_span = parent[2] if parent else None
                    spans[frame[2]] = (frame[2], name, t0 - self._origin, t1 - self._origin, parent_span)
            if on_result is not None and id(result) not in seen:
                seen[id(result)] = result
                for key, value in on_result(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self, module_name: str, attribute: str, name: str, hot: bool = False, on_result=None):
        """Trace module.attribute under name, in every affweyl module that binds it."""
        original = getattr(sys.modules[module_name], attribute)
        wrapper = self.wrap(original, name, hot, on_result)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "affweyl" and not mod_name.startswith(PREFIX):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def run_span(self, name: str, fn):
        """Call fn() inside a span opened by the benchmark itself (one job)."""
        return self.wrap(fn, name)()

    def snapshot(self) -> dict:
        spans = [s for s in self.spans if s is not None]
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "edges": [[a, b, v[0], v[1]] for (a, b), v in self.edges.items()],
            "results": {k: v for k, v in self.result_counts.items() if v},
            "spans": spans,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the aggregates of several traced processes (spans are concatenated)."""
    stats: dict[str, list] = {}
    edges: dict[tuple, list] = {}
    results: dict[str, dict] = {}
    spans = []
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for caller, callee, calls, total in snap["edges"]:
            acc = edges.setdefault((caller, callee), [0, 0.0])
            acc[0] += calls
            acc[1] += total
        for name, counts in snap["results"].items():
            acc = results.setdefault(name, {})
            for key, value in counts.items():
                acc[key] = acc.get(key, 0) + value
        spans.append(snap["spans"])
    return {
        "stats": stats,
        "edges": [[a, b, v[0], v[1]] for (a, b), v in edges.items()],
        "results": results,
        "spans": spans,
    }
