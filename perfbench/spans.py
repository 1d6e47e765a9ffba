"""Spans around the calls into each lpgaps module, and the per-layer
metrics derived from them.

The tracer wraps a module's public function at every import site: the
modules bind names with ``from .x import``, so ``lpgaps.hull.solve_lp``
and ``lpgaps.lp.solve_lp`` are two references to one function and both
are replaced. Nothing in ``src/`` changes. Spans live in memory and are
folded into per-layer totals after each op, outside the op's timing.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

# (module, function, layer span name)
TARGETS = (
    ("lpgaps.cli", "main", "cli"),
    ("lpgaps.hull", "subset_gap_scan", "hull.scan"),
    ("lpgaps.hull", "facet_gap", "hull.facet_gap"),
    ("lpgaps.hull", "polytope_lp", "hull.model_build"),
    ("lpgaps.lp", "solve_lp", "lp.solve"),
    ("lpgaps.valleys", "degree_lp", "valleys.model_build"),
    ("lpgaps.valleys", "relaxation_with_cuts", "valleys.model_build"),
    ("lpgaps.valleys", "separate_subtour", "valleys.separate"),
    ("lpgaps.valleys", "cutting_plane_loop", "valleys.loop"),
    ("lpgaps.ilp", "tsp_oracle", "ilp.oracle"),
    ("lpgaps.gaps", "integrality_gap", "gaps"),
    ("lpgaps.reports", "report_document", "reports.render"),
    ("lpgaps.reports", "render_json", "reports.render"),
)

# bytes per Held-Karp table cell: lpgaps.ilp keeps the table in int64
DP_CELL_BYTES = 8


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    args: tuple = ()
    result: Any = None


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, []))
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None,
                        args=args)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            return span.result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGETS function wherever an lpgaps module binds it."""
        patches = []
        try:
            for module, func, name in TARGETS:
                original = getattr(sys.modules[module], func)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "lpgaps":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patches.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _max_bits(values) -> int:
    return max(
        (max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


@dataclass
class LayerTotals:
    """Per-layer sums over the traced ops."""

    busy: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    solve_ms: list[float] = field(default_factory=list)
    max_bits: int = 0

    def _count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def add(self, spans: list[Span], exhaustive_limit: int) -> None:
        """Fold the spans of one op in; drops nothing the metrics need."""
        for span, own in zip(spans, self_times(spans)):
            name = span.name
            duration = span.end - span.start
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self._count(name)
            if name == "cli" and span.result != 0:
                self._count("cli.exit_nonzero")
            elif name == "lp.solve":
                lp, outcome = span.args[0], span.result
                m = len(lp.constraints)
                self._count("lp.cells", m * (lp.num_vars + m))
                self._count(f"lp.status.{outcome.status.value}")
                self.solve_ms.append(duration * 1e3)
                values = list(outcome.point or ()) + (
                    [outcome.value] if outcome.value is not None else [])
                self.max_bits = max(self.max_bits, _max_bits(values))
            elif name == "valleys.separate" and span.result is not None:
                self._count("valleys.cuts")
            elif name == "valleys.loop":
                self._count("valleys.rounds", len(span.result.rounds))
            elif name == "ilp.oracle":
                n = span.args[0].n
                if n <= exhaustive_limit:
                    self._count("ilp.exhaustive")
                else:
                    self._count("ilp.held_karp_cells", (1 << (n - 1)) * (n - 1))
            elif name == "reports.render" and isinstance(span.result, str):
                self._count("reports.bytes", len(span.result.encode()))

    def metrics(self, passes: int, traced_wall: float, overhead: float) -> dict:
        """Per-layer metrics, per pass; shares are busy time over the
        traced wall time."""
        def per_pass(value):
            return value // passes if isinstance(value, int) else value / passes

        def count(name):
            return per_pass(self.counts.get(name, 0))

        def busy(name):
            return per_pass(self.busy.get(name, 0.0))

        def own(*names):
            return per_pass(sum(self.self_s.get(n, 0.0) for n in names))

        def share(name):
            return self.busy.get(name, 0.0) / traced_wall

        separate_calls = self.counts.get("valleys.separate", 0)
        cells = count("ilp.held_karp_cells")
        return {
            "cli.self_s": (own("cli"), "s"),
            "cli.exit_nonzero": (count("cli.exit_nonzero"), "count"),
            "hull.scan_calls": (count("hull.scan"), "count"),
            "hull.facet_gap_calls": (count("hull.facet_gap"), "count"),
            "hull.self_s": (own("hull.scan", "hull.facet_gap"), "s"),
            "hull.model_build_s": (busy("hull.model_build"), "s"),
            "lp.solve_calls": (count("lp.solve"), "count"),
            "lp.solve_busy_s": (busy("lp.solve"), "s"),
            "lp.solve_share": (share("lp.solve"), "ratio"),
            "lp.solve_p50_ms": (statistics.median(self.solve_ms) if self.solve_ms else 0.0, "ms"),
            "lp.solve_max_ms": (max(self.solve_ms, default=0.0), "ms"),
            "lp.cells_computed": (count("lp.cells"), "cells"),
            "lp.status.optimal": (count("lp.status.optimal"), "count"),
            "lp.status.unbounded": (count("lp.status.unbounded"), "count"),
            "lp.status.infeasible": (count("lp.status.infeasible"), "count"),
            "lp.max_bits": (self.max_bits, "bits"),
            "valleys.model_build_s": (own("valleys.model_build"), "s"),
            "valleys.separate_calls": (count("valleys.separate"), "count"),
            "valleys.separate_busy_s": (busy("valleys.separate"), "s"),
            "valleys.separate_share": (share("valleys.separate"), "ratio"),
            "valleys.cut_yield": (
                self.counts.get("valleys.cuts", 0) / separate_calls if separate_calls else 0.0,
                "ratio"),
            "valleys.loop_self_s": (own("valleys.loop"), "s"),
            "valleys.rounds": (count("valleys.rounds"), "count"),
            "ilp.oracle_calls": (count("ilp.oracle"), "count"),
            "ilp.oracle_busy_s": (busy("ilp.oracle"), "s"),
            "ilp.oracle_share": (share("ilp.oracle"), "ratio"),
            "ilp.exhaustive_calls": (count("ilp.exhaustive"), "count"),
            "ilp.held_karp_cells": (cells, "cells"),
            "ilp.dp_bytes_computed": (cells * DP_CELL_BYTES, "bytes"),
            "gaps.self_s": (own("gaps"), "s"),
            "reports.render_busy_s": (busy("reports.render"), "s"),
            "reports.bytes": (count("reports.bytes"), "bytes"),
            "trace.overhead_s": (overhead, "s"),
        }
