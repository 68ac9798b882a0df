"""Benchmark entry point.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a decotherm checkout. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. The line before it holds the machine facts and run
details. Exit code 2, with no result line, when the checkout is missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import NamedTuple  # noqa: E402

from perfbench import WORKLOADS  # noqa: E402

#: BLAS threads in every benchmark process. One, not the machine's two
#: cores: with two OpenBLAS threads a 9x9 eig plus expm takes 40x longer
#: (thread wake-up), so the runs would time the BLAS thread pool and the
#: other tenants on the second core rather than the library.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: set-up is repeated in this many fresh processes and the median reported
SETUP_SAMPLES = 3
#: exceptions reported by class; any other exception counts as errors.other
ERROR_CLASSES = ("SupportViolation", "NoConvergence", "DegenerateKernel",
                 "NonPositiveSolution", "StateInvariantViolated", "NegativeEigenvalue")
OUT_DIR = ".perfbench_out"
#: item time between two reference readings
READ_EVERY_S = 0.5


def _child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


class Judge:
    """Checks each item's first output and holds later passes to it bit for bit.

    An item is one operation however many passes repeat it: `attempted`,
    `failed` and the failure labels count distinct items, so they depend
    on the seed alone and not on how many passes fit in the run."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, tuple[bytes, list[str]]] = {}
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return sum(1 for _, labels in self.first.values() if labels)

    @property
    def labels(self) -> Counter:
        return Counter(label for _, labels in self.first.values() for label in labels)

    def judge(self, index: int, item, output, error: str | None) -> None:
        wl = self.workload
        if error == "crash":
            self.problems.append(f"item {index} crashed: {output!r}")
        fp = error.encode() + str(output).encode() if error else wl.fingerprint(output)
        if index not in self.first:
            labels = [error] if error else self._check(item, output)
            self.first[index] = (fp, labels)
        elif fp != self.first[index][0]:
            self.problems.append(f"item {index}: output differs from its first pass")

    def _check(self, item, output) -> list[str]:
        from decotherm.errors import DecothermError

        try:
            return self.workload.check(item, output)
        except DecothermError as exc:
            return [type(exc).__name__]


@dataclass
class Timing:
    """Item and pass times of one run, in reference seconds (see
    reference.py), plus the measured pass times and speed factors."""

    passes: list[float] = field(default_factory=list)
    items: list[float] = field(default_factory=list)
    measured_passes: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)  # REFERENCE_S / reading, per item


def run_passes(wl, judge: Judge, seconds: float, tracer=None) -> Timing:
    """Whole passes over the item set until the next one would overrun
    `seconds`; at least one. A reference reading is taken before the
    first item, whenever READ_EVERY_S of item time has run, and after the
    last item. Each item is scaled by the median of the three readings
    before it and the three after it, because one reading is about as
    noisy as the drift itself. Workloads with `reference_scaled` false are
    not scaled (see `_unit_reading`)."""
    from decotherm.errors import DecothermError

    from . import reference

    clock = time.perf_counter
    read = reference.reading if wl.reference_scaled else _unit_reading
    readings = [read()]
    runs: list[tuple[int, float, int]] = []  # (pass, seconds, index of the reading before it)
    since_reading = 0.0
    start = clock()
    n_passes = 0
    while True:
        for index, item in enumerate(wl.items):
            error = None
            with tracer.span("root") if tracer is not None else nullcontext():
                t0 = clock()
                try:
                    output = wl.run(item)
                except DecothermError as exc:
                    output, error = exc, type(exc).__name__
                except Exception as exc:  # an unclassified library failure
                    output, error = exc, "crash"
                t1 = clock()
            runs.append((n_passes, t1 - t0, len(readings) - 1))
            since_reading += t1 - t0
            if since_reading >= READ_EVERY_S:
                readings.append(read())
                since_reading = 0.0
            if error is None and hasattr(wl, "error_label"):
                error = wl.error_label(output)
            if tracer is not None and error is not None:
                tracer.counts[f"errors.{error}"] += 1
            judge.judge(index, item, output, error)
        n_passes += 1
        elapsed = clock() - start
        if elapsed * (n_passes + 1) / n_passes > seconds:
            break
    if since_reading > 0.0:
        readings.append(read())
    timing = Timing(passes=[0.0] * n_passes, measured_passes=[0.0] * n_passes)
    for n, seconds_run, before in runs:
        near = readings[max(0, before - 2):before + 4]
        speed = reference.REFERENCE_S / statistics.median(near)
        timing.speed.append(speed)
        timing.items.append(seconds_run * speed)
        timing.passes[n] += seconds_run * speed
        timing.measured_passes[n] += seconds_run
    return timing


def _unit_reading() -> float:
    """Stands in for a reading where the kernel does not track the work's
    speed, so times stay as measured. `cli_configs` runs in child
    processes: this process's readings widened the ten-seed spread of its
    wall_s from 16% to 24%, and readings taken while a child runs slow
    down with it on the second vCPU. `dense_d16` runs one 3 s item at a
    time, so the readings around an item lie seconds away from it: over
    ten seeds its scaled wall_s spread 18%, the measured one 9%."""
    from . import reference

    return reference.REFERENCE_S


class Setup(NamedTuple):
    seconds: float  # reference seconds
    measured: float  # seconds
    import_s: float  # reference seconds


def set_up(name: str, root: str, seed: int, out_dir: str):
    """Import, input generation and one warm-up item, timed from process
    start and scaled by the reference readings before and after the
    warm-up item (the first reading's own time is left out)."""
    t0 = time.perf_counter()
    import decotherm  # noqa: F401

    import_s = time.perf_counter() - t0
    from . import reference
    from .workloads import WORKLOADS

    wl = WORKLOADS[name](root, seed, out_dir, _child_env(root))
    read = reference.reading if wl.reference_scaled else _unit_reading
    before = read()
    try:
        wl.run(wl.warm_up_item)
    except decotherm.errors.DecothermError:
        pass
    measured = time.perf_counter() - T_START - (before if wl.reference_scaled else 0.0)
    speed = reference.REFERENCE_S / (0.5 * (before + read()))
    return wl, Setup(measured * speed, measured, import_s * speed)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def _setup_probe(args, root: str) -> Setup:
    cmd = [sys.executable, "-m", "perfbench", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=root, env=_child_env(root), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return Setup(*json.loads(proc.stdout.strip().splitlines()[-1]))


def _error_metrics(counts, judge_labels: Counter, passes: int) -> dict[str, float]:
    """errors.<class>, per pass, from the exceptions items raised
    (`counts`), and errors.check_<name>, items of the item set, from the
    checks their outputs failed."""
    from .checks import CHECK_NAMES

    raised = {k[len("errors."):]: n for k, n in counts.items() if k.startswith("errors.")}
    out = {f"errors.{c}": raised.get(c, 0) / passes for c in ERROR_CLASSES}
    out["errors.other"] = sum(n for c, n in raised.items() if c not in ERROR_CLASSES) / passes
    for c in CHECK_NAMES:
        out[f"errors.{c}"] = judge_labels.get(c, 0)
    return out


def measure(args, root: str) -> tuple[dict, dict]:
    out_dir = os.path.join(root, OUT_DIR, args.workload, str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        wl, setup = set_up(args.workload, root, args.seed, out_dir)
        setups = [setup]
        if not args.trace:
            setups += [_setup_probe(args, root) for _ in range(SETUP_SAMPLES - 1)]
        judge = Judge(wl)
        facts = dict(machine_facts(), workload=args.workload, seed=args.seed,
                     items_per_pass=len(wl.items), run_seconds=args.seconds,
                     setup_measured_s=[s.measured for s in setups])
        if not args.trace:
            timing = run_passes(wl, judge, args.seconds)
            metrics = {
                "setup_s": (statistics.median(s.seconds for s in setups), "s"),
                "wall_s": (statistics.median(timing.passes), "s"),
                "item_p50_ms": (1e3 * statistics.median(timing.items), "ms"),
                "item_p90_ms": (1e3 * _quantile(timing.items, 0.9), "ms"),
                "peak_rss_mb": (_peak_rss_mb(wl.in_process), "MB"),
            }
            facts.update(measured_passes_s=timing.measured_passes,
                         median_speed=statistics.median(timing.speed))
        else:
            metrics, extra = measure_traced(args, wl, judge, setup.import_s, out_dir)
            facts.update(extra)
        facts.update(attempted=judge.attempted, failed=judge.failed,
                     failures=dict(sorted(judge.labels.items())), problems=judge.problems)
        return metrics, facts
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure_traced(args, wl, judge: Judge, import_s: float, out_dir: str):
    from .tracing import Tracer, layer_metrics, merge_profiles

    untraced = run_passes(wl, judge, args.seconds / 2)
    if not wl.in_process:
        wl.trace_dir = out_dir
        traced = run_passes(wl, judge, args.seconds / 2)
        profiles = []
        for path in sorted(glob.glob(os.path.join(out_dir, "*.profile.json"))):
            with open(path, encoding="utf-8") as fh:
                profiles.append(json.load(fh))
        profile = merge_profiles(profiles)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, judge, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        profile = tracer.profile()
        _write_spans(tracer, os.path.dirname(out_dir))
    passes = len(traced.passes)
    speed = statistics.median(traced.speed)
    values = layer_metrics(profile, passes)
    for name in values:  # span times to reference seconds, like the passes
        if _unit(name) in ("s", "us"):
            values[name] *= speed
    if wl.in_process:
        values["import.decotherm_s"] = import_s
    else:  # every child imports the package: their import time summed over a pass
        values["import.decotherm_s"] = profile["stats"]["import.decotherm"][1] / passes
    values.update(_error_metrics(profile["counts"], judge.labels, passes))
    values["error_rate"] = judge.failed / judge.attempted
    values["trace.overhead_s"] = statistics.median(traced.passes) - statistics.median(untraced.passes)
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    return metrics, {"untraced_passes": len(untraced.passes), "traced_passes": passes,
                     "median_speed": speed}


def _write_spans(tracer, directory: str) -> None:
    with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tracer.spans}, fh)


def _unit(name: str) -> str:
    if name.endswith("_us_per_step") or name.endswith("_us_per_point"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name == "error_rate":
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "decotherm", "__init__.py"))
            and os.path.isdir(os.path.join(root, "configs"))):
        print("perfbench: run from the root of a decotherm checkout "
              "(src/decotherm and configs/ not found)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(root, "src"))

    if args.setup_only:
        out_dir = os.path.join(root, OUT_DIR, args.workload, str(os.getpid()))
        os.makedirs(out_dir, exist_ok=True)
        try:
            _, setup = set_up(args.workload, root, args.seed, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(json.dumps(setup))
        return 0

    metrics, facts = measure(args, root)
    correct = not facts["problems"] and facts["attempted"] > 0
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
