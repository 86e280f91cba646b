"""Layer tracing installed from outside the package.

A layer is one module of ``janostab``.  Every function that one module
imports from another (a cross-module call) is rebound, in each importing
module, to a wrapper that records a span (name, start, end, parent span,
op id) and adds the layer's work counts.  Per-scalar helpers are left
alone so the wrapper cost stays far below the work it measures.  Spans
stay in memory; ``write_spans`` dumps them when the run ends, and
``layer_metrics`` derives each layer's self time from them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = (
    "series",
    "janowski",
    "inequalities",
    "subordination",
    "search",
    "figure",
    "serialize",
    "cli",
)

# Count metrics that repeat exactly for a fixed op list; the traced run
# checks that they do.
COUNT_METRICS = (
    "janowski.coeffs",
    "series.points",
    "series.failed_points",
    "subordination.samples",
    "inequalities.checked",
    "search.cells",
    "search.violating_cells",
    "figure.points",
    "serialize.bytes",
)

# Called once per number or coordinate: wrapping them would measure the
# tracer, not the layer.
SKIP = frozenset({"fmt6", "fmt17"})

# Entry points the benchmark itself calls through the defining module.
ENTRY_POINTS = (("cli", "main"),)


def _log_points(args, kwargs, result):
    log, failed = result[0], result[1]
    return {"series.points": log.size, "series.failed_points": int(failed.sum())}


def _coeffs(attr):
    def count(args, kwargs, result):
        values = getattr(result, attr) if attr else result
        return {"janowski.coeffs": values.size}

    return count


def _one(key):
    return lambda args, kwargs, result: {key: 1}


def _sweep_cells(args, kwargs, cells):
    return {
        "search.cells": len(cells),
        "search.violating_cells": sum(1 for c in cells if c.margin > 0.0),
    }


def _figure_points(args, kwargs, geom):
    points = geom.curve.size + sum(b.size for _, b in geom.boundaries) + 1
    return {"figure.points": points}


def _text_bytes(args, kwargs, text):
    return {"serialize.bytes": len(text.encode("utf-8"))}


def _checked(args, kwargs, report):
    return {"inequalities.checked": report.checked}


# Work counts per wrapped function, keyed "<layer>.<function>".
_COUNTERS = {
    "series.circle_log_values": _log_points,
    "series.ray_log_values": _log_points,
    "series.real_power_on_ray": _one("series.points"),
    "janowski.janowski_series": _coeffs("coeffs"),
    "janowski.coeff_recurrence": _coeffs("values"),
    "janowski.convolution_coeffs": _coeffs(None),
    "janowski._falling_over_factorial": _coeffs(None),
    "janowski._rising_over_factorial": _coeffs(None),
    "subordination._mobius_power_margins": (
        lambda args, kwargs, result: {"subordination.samples": result[0].size}
    ),
    "subordination.stability_ratio": _one("subordination.samples"),
    "subordination.self_margin_at": _one("subordination.samples"),
    "inequalities.check_coeff_positivity": _checked,
    "inequalities.check_coeff_pair_inequality": _checked,
    "inequalities.check_weighted_pair_inequality": _checked,
    "inequalities.check_alternating_identity": _checked,
    "search.sweep_parameter_grid": _sweep_cells,
    "figure.compute_figure_geometry": _figure_points,
    "serialize.csv_text": _text_bytes,
    "serialize.dumps": _text_bytes,
}

# Stability checks: samples are the report's circles plus the grid's
# explicit points, which only the ``grid`` argument records.
_STABILITY_CHECKS = (
    "subordination.check_stability_vs_base",
    "subordination.check_stability_vs_self",
    "subordination.check_cross_order_stability",
)


def _counter_for(name: str, fn):
    if name not in _STABILITY_CHECKS:
        return _COUNTERS.get(name)
    signature = inspect.signature(fn)

    def count(args, kwargs, report):
        grid = signature.bind(*args, **kwargs).arguments.get("grid")
        extras = len(grid.extra_points) if grid is not None else 0
        samples = len(report.sample_radii) * report.points_per_circle + extras
        return {"subordination.samples": samples}

    return count


class Tracer:
    """In-memory spans and counts for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._wrappers = {}
        self._patched = []  # (module, attribute, original)

    def wrap(self, fn):
        if fn in self._wrappers:
            return self._wrappers[fn]
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__name__}"
        counter = _counter_for(name, fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result

        self._wrappers[fn] = traced
        return traced

    def install(self, package) -> None:
        """Rebind every cross-module function import of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__.startswith(prefix)
                    and value.__module__ != module.__name__
                    and attr not in SKIP
                ):
                    self._patch(module, attr, value)
        for layer, attr in ENTRY_POINTS:
            module = sys.modules[prefix + layer]
            self._patch(module, attr, getattr(module, attr))

    def _patch(self, module, attr, fn) -> None:
        self._patched.append((module, attr, fn))
        setattr(module, attr, self.wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one benchmark op as the root span of what it calls."""
        span = ["bench.op", 0.0, 0.0, -1, op_id]
        self.op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self.op_id = -1

    def layer_metrics(self) -> dict:
        """``<layer>.calls`` and ``<layer>.self_s`` from the spans, plus counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            layer = name.partition(".")[0]
            calls[layer] += 1
            self_s[layer] += (end - start) - inner
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        return out

    def write_spans(self, path, tag: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([tag, name, start, end, parent, op]) + "\n")
