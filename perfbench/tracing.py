"""In-memory span tracing installed from outside the library.

The benchmark measures each layer by timing calls into its public
functions: :class:`Tracer` swaps a timing wrapper in for a function or
method wherever the name is looked up (``from x import f`` binds ``f`` in
the importing module too, so every loaded ``repro.*`` module that holds
the same object is patched), records one span per call and restores the
originals on :meth:`Tracer.uninstall`.  Spans stay in memory; the
benchmark turns them into per-layer tables when the run ends.

Pool workers keep no wrapper spans (a forked worker inherits the
wrappers, which then pass straight through); their spans come from the
library's own ``repro.obs`` session, which ships worker spans home, and
are merged with :meth:`Tracer.ingest_obs`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass

# Library span names (``repro.obs``) that map onto the benchmark's layer
# spans; every other library span is ignored so it cannot take self time
# away from a layer.  The library's spans are used only where the
# benchmark's own wrappers cannot reach, in pool workers: everywhere else
# each layer is timed from outside, around its public calls, so the
# benchmark measures the library the same way whatever the library
# records about itself.
OBS_SPAN_NAMES = {
    "plan.run": "sfg.plan_run",
    "plan.run_pair": "sfg.plan_run",
    "plan.requantize": "sfg.requantize",
    "plan.compile": "sfg.compile_plan",
    "psd.welch": "psd.welch",
    "analysis.walk_batch": "analysis.walk_batch",
    "sim.evaluate_batch": "analysis.sim_batch",
    "campaign.payload": "campaign.payload",
}


@dataclass
class Span:
    """One timed call: ``start``/``end`` in seconds, ``parent`` the index
    of the enclosing span in the same process (-1 at top level)."""

    name: str
    start: float
    end: float
    parent: int = -1
    failed: bool = False
    samples: int = 0
    scenario: str = ""


class Tracer:
    """Records spans around patched library calls while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, func, count_samples=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return func(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if count_samples is not None:
                    span.samples = count_samples(args, kwargs)

        return traced

    def patch_function(self, func, name: str, count_samples=None) -> None:
        """Replace ``func`` by a timing wrapper in every loaded ``repro``
        module that binds it."""
        wrapper = self._wrap(name, func, count_samples)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, func))

    def patch_method(self, cls, attr: str, name: str,
                     count_samples=None) -> None:
        """Replace ``cls.attr`` by a timing wrapper."""
        func = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, func, count_samples))
        self._restore.append((cls, attr, func))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, attr, func in reversed(self._restore):
            setattr(owner, attr, func)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Foreign spans
    # ------------------------------------------------------------------
    def ingest_obs(self, payloads: list, samples_by_scenario: dict) -> None:
        """Merge ``repro.obs`` spans recorded in pool workers.

        Only worker-process spans whose names map onto a layer are kept;
        parents are recovered by interval containment per process, and a
        simulation run is credited with its scenario's stimulus length.
        """
        by_pid: dict[int, list] = {}
        for payload in payloads:
            name = OBS_SPAN_NAMES.get(payload["name"])
            if name is None or payload.get("pid") == self._pid:
                continue
            by_pid.setdefault(payload["pid"], []).append(
                Span(name, payload["ts"], payload["ts"] + payload["dur"],
                     scenario=str(payload.get("attrs", {})
                                  .get("scenario", ""))))
        for pid, spans in by_pid.items():
            spans.sort(key=lambda s: (s.start, -s.end))
            base = len(self.spans)
            stack: list[int] = []
            for offset, span in enumerate(spans):
                while stack and spans[stack[-1]].end <= span.start:
                    stack.pop()
                if stack:
                    span.parent = base + stack[-1]
                    if not span.scenario:
                        span.scenario = spans[stack[-1]].scenario
                if span.name == "sfg.plan_run":
                    span.samples = samples_by_scenario.get(span.scenario, 0)
                stack.append(offset)
            self.spans.extend(spans)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def layer_table(self) -> dict:
        """``{span name: {calls, failures, total_s, self_s, samples}}``.

        Self time is a span's duration minus the time its child spans
        cover (children of one call never overlap: each process records
        one call stack).
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        table: dict[str, dict] = {}
        for span, children in zip(self.spans, child_time):
            row = table.setdefault(span.name, {
                "calls": 0, "failures": 0, "total_s": 0.0, "self_s": 0.0,
                "samples": 0})
            duration = span.end - span.start
            row["calls"] += 1
            row["failures"] += int(span.failed)
            row["total_s"] += duration
            row["self_s"] += max(0.0, duration - children)
            row["samples"] += span.samples
        return table

    def busy_intervals(self, name: str) -> list[tuple]:
        """``(start, end)`` of every span called ``name``."""
        return [(s.start, s.end) for s in self.spans if s.name == name]


def covered_seconds(intervals: list[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
