"""Span tracer that instruments decotherm from outside the library.

`Tracer.install()` wraps every public function of the layer modules and
rebinds each name that points at it in every decotherm module, because
callers receive functions through `from .x import f` (for example
`scenarios.liouvillian`, `cli.propagate`, `thermo.apply_generator`). The
library source is not touched; `uninstall()` restores the originals.

Each wrapped call records a span (id, name, start, end, parent id) and
adds its duration to the per-name totals. A span's self time is its
duration minus the time covered by its child spans. `_kernels` is not
wrapped: its RK4 loop is the propagation layer, so its time is the self
time of `dynamics.propagate`.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Modules whose functions are wrapped; the short name is the layer name.
LAYERS = ("cli", "scenarios", "dynamics", "thermo", "baths", "onsager", "operators")

#: Private helpers that are layer boundaries of their own.
PRIVATE_BOUNDARIES = {"cli": ("_write_table",)}

#: Spans kept in memory per process; later spans still count in the totals.
MAX_SPANS = 100_000


def _steps(args, kwargs, result):
    return len(result) - 1


def _points(args, kwargs, result):
    return len(result)


def _columns(args, kwargs, result):
    dim = args[0] if args else kwargs["dim"]
    return dim * dim


def _bytes_written(args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return os.path.getsize(path)


#: span name -> (count name, function of (args, kwargs, result) -> increment)
COUNTERS = {
    "dynamics.propagate": ("dynamics.propagate_steps", _steps),
    "thermo.sample_thermodynamics": ("thermo.sample_points", _points),
    "operators.superop_from_action": ("operators.superop_from_action_columns", _columns),
    "cli._write_table": ("cli.bytes_out", _bytes_written),
}


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # frames: [span id, child time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        parent = -1
        if self._stack:
            self._stack[-1][1] += dur
            parent = self._stack[-1][0]
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], name, t0, t1, parent))

    @contextmanager
    def span(self, name: str):
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, t0, time.perf_counter())

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, t0, clock())
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- instrumentation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions of the imported decotherm package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "decotherm" or n.startswith("decotherm."))]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"decotherm.{layer}")
            if mod is None:
                continue
            extra = PRIVATE_BOUNDARIES.get(layer, ())
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def profile(self) -> dict:
        """JSON-ready totals: per-span [calls, total_s, self_s] and counts."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def merge_profiles(profiles) -> dict:
    stats: dict[str, list[float]] = {}
    counts: Counter = Counter()
    for p in profiles:
        for name, (calls, total, self_s) in p["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        counts.update(p["counts"])
    return {"stats": stats, "counts": dict(counts)}


#: per-layer time metric -> spans whose self times it sums
SELF_TIME_METRICS = {
    "dynamics.propagate_s": ("dynamics.propagate",),
    "thermo.sample_thermodynamics_s": ("thermo.sample_thermodynamics",),
    "baths.stationary_map_s": ("baths.stationary_map",),
    "baths.apply_generator_s": ("baths.apply_generator",),
    "dynamics.liouvillian_s": ("dynamics.liouvillian",),
    "baths.generator_superop_s": ("baths.generator_superop",),
    "operators.superop_from_action_s": ("operators.superop_from_action",),
    "dynamics.steady_state_s": ("dynamics.steady_state",),
    "scenarios.device_report_s": ("scenarios.device_report",),
    "scenarios.build_device_s": ("scenarios.build_device",),
    "onsager.ness_entropy_production_s": ("onsager.ness_entropy_production",),
    "onsager.reciprocal_coefficients_s": ("onsager.reciprocal_coefficients",),
    # linear_response delegates each pair to onsager_superop
    "onsager.linear_response_s": ("onsager.linear_response", "onsager.onsager_superop"),
    "cli.load_config_s": ("cli.load_config",),
    "cli.emit_s": ("cli.emit_trajectory", "cli.trajectory_table", "cli._write_table"),
}

#: per-layer call-count metric -> span
CALL_METRICS = {
    "baths.stationary_map_calls": "baths.stationary_map",
    "baths.apply_generator_calls": "baths.apply_generator",
    "dynamics.steady_state_calls": "dynamics.steady_state",
}

COUNT_METRICS = tuple(c for c, _ in COUNTERS.values())


def layer_metrics(profile: dict, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from a merged profile of `passes` passes.

    The span named "root" encloses the measured work; its self time is
    the part no layer span covers.
    """
    stats, counts = profile["stats"], profile["counts"]

    def self_s(*names):
        return sum(stats[n][2] for n in names if n in stats)

    out: dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = self_s(*names) / passes
    for metric, name in CALL_METRICS.items():
        out[metric] = stats[name][0] / passes if name in stats else 0
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / passes
    out["dynamics.propagate_us_per_step"] = _per(
        out["dynamics.propagate_s"], out["dynamics.propagate_steps"])
    out["thermo.sample_us_per_point"] = _per(
        out["thermo.sample_thermodynamics_s"], out["thermo.sample_points"])
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = sum(
            v[2] for n, v in stats.items() if n.split(".", 1)[0] == layer) / passes
    root_total = stats["root"][1] if "root" in stats else 0.0
    covered = root_total - (stats["root"][2] if "root" in stats else 0.0)
    out["trace.wall_s"] = root_total / passes
    out["trace.coverage_pct"] = 100.0 * covered / root_total if root_total > 0 else 0.0
    return out


def _per(seconds: float, n: float) -> float:
    return 1e6 * seconds / n if n else 0.0
