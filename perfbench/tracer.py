"""Span tracing of ppc's public functions, installed from outside the package.

A `Tracer` replaces each listed public function with a timing wrapper at
every module attribute (and every module-level dict entry, such as
`mincut.UPDATE_SCHEMES`) that refers to it, so calls made between ppc
modules are caught too. Spans are kept in memory: name, start, end and the
span that caused it. A layer's self time is its duration minus the time
covered by its direct child spans. A listed name that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    phase: str | None
    parent: int  # index of the causing span, -1 at top level
    start: float
    end: float = 0.0
    child_s: float = 0.0
    result: object = None


@dataclass
class LayerStats:
    calls: float = 0.0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    results: list[object] = field(default_factory=list)


class Tracer:
    """Wraps `module.attr` targets; use as a context manager around a traced pass.

    `targets` maps a layer name to "module:attr". `keep_results` names the
    layers whose return values are kept so outcome counts can be read from
    them (for example a SolverReport's sweep count). The caller sets
    `phase` to tag the spans that follow; `stats` weights each phase.
    """

    def __init__(self, targets: dict[str, str], keep_results: set[str] = frozenset()):
        self.targets = targets
        self.keep_results = set(keep_results)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []  # (container, key, original)

    def _wrap(self, name: str, fn):
        tracer, spans, stack = self, self.spans, self._stack
        keep = name in self.keep_results
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, tracer.phase, stack[-1] if stack else -1, clock()))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span = spans[idx]
                span.end = clock()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            if keep:
                span.result = out
            return out

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items()) if key == "ppc" or key.startswith("ppc.")]
        for name, target in self.targets.items():
            mod_name, attr = target.split(":")
            try:
                original = getattr(importlib.import_module(mod_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod.__dict__, key, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, wrapper)
        return self

    def _patch(self, container: dict, key, wrapper):
        self._patches.append((container, key, container[key]))
        container[key] = wrapper

    def __exit__(self, *exc):
        for container, key, original in reversed(self._patches):
            container[key] = original
        self._patches.clear()
        return False

    def stats(self, repeats: dict[str, int]) -> dict[str, LayerStats]:
        """Per-layer calls, total and self time, per-call durations and kept results.

        Calls and times are per repetition: a phase run `repeats[phase]`
        times contributes its sums divided by that count. Spans of a phase
        not in `repeats` are skipped. Durations and results are kept as
        recorded.
        """
        sums: dict[tuple[str, str], list[float]] = {}
        out = {name: LayerStats() for name in self.targets if name not in self.absent}
        for span in self.spans:
            if span.phase not in repeats:
                continue
            d = span.end - span.start
            acc = sums.setdefault((span.name, span.phase), [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += d
            acc[2] += d - span.child_s
            out[span.name].durations.append(d)
            if span.name in self.keep_results:
                out[span.name].results.append(span.result)
        for (name, phase), (calls, total, own) in sums.items():
            s, r = out[name], repeats[phase]
            s.calls += calls / r
            s.total_s += total / r
            s.self_s += own / r
        return out
