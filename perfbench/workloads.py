"""The three benchmark workloads: inputs from a seed, one item at a time.

A workload generates its inputs in `__init__` from the seed alone, runs
one item per `run(item)` call, and judges an item's output with
`check(item, output)`, which returns the failed check names. Outputs of
one item must be bit-identical across passes; `fingerprint` reduces an
output to the bytes compared. `in_process` says whether items run in the
benchmark's own process; `reference_scaled` whether their times are
scaled by the reference kernel (see reference.py).

    cli_configs   every configs/*.json through `decotherm run` in a fresh
                  process (package import, trajectories, emit)
    steady_sweep  seeded device_report calls over the ROADMAP's
                  robustness range (assembly, steady state, onsager)
    dense_d16     one random d = 16 model end to end (arithmetic-bound
                  where the d = 3 workloads are call-overhead-bound)
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

from . import checks


def _unit(d: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def device_hamiltonian(e_l: float, e_r: float, v: float) -> np.ndarray:
    """Basis (|0>, |L>, |R>): E_L |L><L| + E_R |R><R| + (V/2)(|L><R| + |R><L|)."""
    h = np.diag([0.0, e_l, e_r]).astype(complex)
    h[1, 2] = h[2, 1] = v / 2.0
    return h


def device_terms(n_l: float, n_r: float, gamma: float) -> dict[str, list]:
    """(rate, jump) lists of the device baths, from the package docs."""
    terms = {
        "left": [(1.0 + n_l, _unit(3, 1, 0)), (n_l, _unit(3, 0, 1))],
        "right": [(n_r, _unit(3, 2, 0)), (1.0 + n_r, _unit(3, 0, 2))],
    }
    if gamma > 0:
        terms["dephasing"] = [(gamma, _unit(3, 1, 1)), (gamma, _unit(3, 2, 2))]
    return terms


def _hash(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


# ---------------------------------------------------------------------------
# cli_configs
# ---------------------------------------------------------------------------

class CliConfigs:
    """Each committed config through `decotherm run` in a fresh process:
    a trajectory config once per pass, a sub-second one `short_repeats`
    times."""

    name = "cli_configs"
    in_process = False  # items run in child processes
    reference_scaled = False
    #: With each config once, the median item is the slowest of three
    #: ~0.5 s processes, whose time swung by 24% between runs with the
    #: host's speed; the median of nine is steadier.
    short_repeats = 3

    def __init__(self, root: str, seed: int, out_dir: str, env: dict[str, str]):
        self.root = root
        self.out_dir = out_dir
        self.env = env
        self.trace_dir: str | None = None  # set: run traced, one profile per run
        self._traced_runs = 0
        paths = sorted(glob.glob(os.path.join(root, "configs", "*.json")))
        self.configs = {}
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                self.configs[p] = json.load(fh)
        pool = [p for p in paths
                for _ in range(1 if "integrator" in self.configs[p] else self.short_repeats)]
        order = np.random.default_rng(seed).permutation(len(pool))
        self.items = [pool[i] for i in order]
        # the first config without a trajectory: cheap and seed-independent
        self.warm_up_item = next(p for p in paths if "integrator" not in self.configs[p])

    def _output_path(self, config: str) -> str:
        fmt = self.configs[config]["output"]["format"]
        return os.path.join(self.out_dir, os.path.basename(config) + "." + fmt)

    def command(self, config: str) -> list[str]:
        args = ["run", config, "--output", self._output_path(config)]
        if self.trace_dir is None:
            return [sys.executable, "-m", "decotherm.cli", *args]
        self._traced_runs += 1
        profile = os.path.join(self.trace_dir, f"{self._traced_runs:05d}.profile.json")
        return [sys.executable, "-m", "perfbench.traced_cli", profile, *args]

    def run(self, config: str):
        proc = subprocess.run(self.command(config), cwd=self.root, env=self.env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            with open(self._output_path(config), "rb") as fh:
                return proc.returncode, proc.stderr, fh.read()
        return proc.returncode, proc.stderr, b""

    @staticmethod
    def fingerprint(output) -> bytes:
        code, _, data = output
        return hashlib.sha256(bytes([code % 256]) + data).digest()

    @staticmethod
    def error_label(output) -> str | None:
        """None for a clean exit; else the exit code as a label."""
        code, stderr, _ = output
        if code == 0:
            return None
        return "crash" if "Traceback" in stderr else f"exit{code}"

    def check(self, config: str, output) -> list[str]:
        cfg = self.configs[config]
        table = _parse_table(output[2], cfg["output"]["format"])
        params = cfg["params"]
        scenario = cfg["scenario"]
        if scenario == "two-level-decoherence":
            gamma, e_level = params["gamma"], params["e_level"]
            if "integrator" not in cfg:
                defect = checks.two_level_heat_defect(table["heat_rate"], gamma, e_level, params["x"])
                return [] if defect <= checks.TWO_LEVEL_TOL else ["check_two_level_heat"]
            failed = checks.trajectory_failures(table, ["dephasing"])
            defect = checks.two_level_heat_defect(table["heat_dephasing"], gamma, e_level, table["bloch_x"])
            if not defect <= checks.TWO_LEVEL_TOL:
                failed.append("check_two_level_heat")
            return failed
        if scenario == "device-trajectory":
            names = list(device_terms(1.0, 1.0, params["gamma"]))
            return checks.trajectory_failures(table, names)
        gammas = params["gammas"] if scenario == "gamma-sweep" else [params["gamma"]]
        failed: list[str] = []
        for row, gamma in enumerate(gammas):
            if scenario == "gamma-sweep" and table["status"][row] != 1.0:
                failed.append("DegenerateKernel")
                continue
            failed += _report_failures(
                {k: float(v[row]) for k, v in table.items()},
                dict(params, gamma=gamma), cfg.get("onsager_c", 1.0))
        return sorted(set(failed))


def _parse_table(data: bytes, fmt: str) -> dict[str, np.ndarray]:
    if fmt == "json":
        payload = json.loads(data)
        cols, rows = payload["columns"], np.array(payload["rows"], dtype=float).reshape(-1, len(payload["columns"]))
    else:
        lines = data.decode().splitlines()
        cols = lines[0].split(",")
        rows = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return {c: rows[:, i] for i, c in enumerate(cols)}


def _report_failures(row: dict[str, float], params: dict, c: float) -> list[str]:
    """Checks on one device report row (CLI column names)."""
    h = device_hamiltonian(params["e_l"], params["e_r"], params["v"])
    terms = device_terms(params["n_l"], params["n_r"], params["gamma"])
    lmat = checks.superop(h, [t for ts in terms.values() for t in ts], 3)
    nu = np.diag([row["nu_00"], row["nu_LL"], row["nu_RR"]]).astype(complex)
    nu[1, 2] = complex(row["coherence_re"], row["coherence_im"])
    nu[2, 1] = nu[1, 2].conjugate()
    failed = checks.steady_failures(
        lmat, h, nu, [row["heat_l"], row["heat_r"], row["heat_d"]], row["entropy_production"])
    defect = checks.reciprocal_defect(row["m_ld"], row["m_dl"], c, params["gamma"], params["n_l"], params["v"])
    if not defect <= checks.RECIPROCAL_TOL:
        failed.append("check_reciprocal")
    return failed


# ---------------------------------------------------------------------------
# steady_sweep
# ---------------------------------------------------------------------------

class SteadySweep:
    """Seeded device reports over occupations 1e-12..1e6 and gamma 0 or 1e-2..1e2."""

    name = "steady_sweep"
    in_process = True
    reference_scaled = True
    n_items = 200
    c = 1.0

    def __init__(self, root: str, seed: int, out_dir: str, env: dict[str, str]):
        rng = np.random.default_rng(seed)
        n = self.n_items

        def draw(lo, hi):
            # stratified: one point in each of n equal slices, in random
            # order, so that every seed covers the range alike
            return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

        e_r = draw(0.5, 1.5)
        e_l = e_r + draw(0.1, 1.0)
        v = draw(0.05, 1.0)
        n_l = 10.0 ** draw(-12.0, 6.0)
        n_r = 10.0 ** draw(-12.0, 6.0)
        gamma = 10.0 ** draw(-2.0, 2.0)
        gamma[rng.permutation(n)[: n // 4]] = 0.0
        self.items = [
            dict(e_l=float(e_l[i]), e_r=float(e_r[i]), v=float(v[i]),
                 n_l=float(n_l[i]), n_r=float(n_r[i]), gamma=float(gamma[i]))
            for i in range(n)
        ]
        # the committed device_steady.json point: seed-independent and solvable
        self.warm_up_item = dict(e_l=1.5, e_r=1.0, v=0.4, n_l=0.6, n_r=0.2, gamma=0.3)

    def run(self, params: dict):
        from decotherm import scenarios  # attribute lookup at call time, so tracing sees it

        return scenarios.device_report(scenarios.DeviceParams(**params), self.c)

    @staticmethod
    def fingerprint(report) -> bytes:
        return _hash(report.nu, np.array([
            report.heat_l, report.heat_r, report.heat_d, report.x_l, report.x_d,
            report.m_ld, report.m_dl, report.entropy_production]))

    def check(self, params: dict, report) -> list[str]:
        from decotherm.baths import stationary_map
        from decotherm.scenarios import DeviceParams, build_device

        h = device_hamiltonian(params["e_l"], params["e_r"], params["v"])
        terms = device_terms(params["n_l"], params["n_r"], params["gamma"])
        lmat = checks.superop(h, [t for ts in terms.values() for t in ts], 3)
        failed = checks.steady_failures(
            lmat, h, report.nu, [report.heat_l, report.heat_r, report.heat_d],
            report.entropy_production)
        defect = checks.reciprocal_defect(
            report.m_ld, report.m_dl, self.c, params["gamma"], params["n_l"], params["v"])
        if not defect <= checks.RECIPROCAL_TOL:
            failed.append("check_reciprocal")
        for bath in build_device(DeviceParams(**params)).baths:
            bath_terms = terms[bath.name]
            failed += checks.stationary_failures(
                checks.superop(None, bath_terms, 3), max(r for r, _ in bath_terms),
                report.nu, stationary_map(bath, report.nu))
        return sorted(set(failed))


# ---------------------------------------------------------------------------
# dense_d16
# ---------------------------------------------------------------------------

class DenseD16:
    """One random d = 16 model: two PropagateToFixedPoint baths of four
    jumps each, a dephasing bath in a random basis, and a Hamiltonian
    schedule whose switch times fall off the dt grid."""

    name = "dense_d16"
    in_process = True
    reference_scaled = False
    dim = 16
    jumps_per_bath = 4
    n_switches = 4
    n_steps = 600
    dt = 1e-3
    #: stiffness bound 4 sum_k r_k ||A_k||^2 of each bath; with ||H|| = 1
    #: the library's default step for this model equals `dt`
    stiffness = {"hot": 1.0, "cold": 1.0, "dephasing": 0.5}

    def __init__(self, root: str, seed: int, out_dir: str, env: dict[str, str]):
        rng = np.random.default_rng(seed)
        d = self.dim

        def ginibre():
            return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

        def hamiltonian():
            a = ginibre()
            h = 0.5 * (a + a.conj().T)
            return h / np.linalg.norm(h, 2)

        self.baths = {}
        for name in ("hot", "cold"):
            jumps = [a / np.linalg.norm(a, 2) for a in (ginibre() for _ in range(self.jumps_per_bath))]
            rates = rng.uniform(0.5, 1.5, self.jumps_per_bath)
            rates *= self.stiffness[name] / (4.0 * rates.sum())
            self.baths[name] = [(float(r), a) for r, a in zip(rates, jumps)]
        self.basis, _ = np.linalg.qr(ginibre())
        self.gamma = self.stiffness["dephasing"] / (4.0 * d)
        self.baths["dephasing"] = [
            (self.gamma, np.outer(self.basis[:, j], self.basis[:, j].conj())) for j in range(d)]
        # Switch times sit strictly between grid points, and at least one
        # rounds down: the sampler's work impulse for such a switch is the
        # known defect that exact propagation (ROADMAP item 2) removes.
        steps = np.sort(rng.choice(np.arange(20, self.n_steps - 20), self.n_switches, replace=False))
        frac = rng.uniform(0.1, 0.4, self.n_switches)
        up = rng.random(self.n_switches) < 0.5
        up[rng.integers(self.n_switches)] = False
        frac = np.where(up, 1.0 - frac, frac)
        self.schedule = [(0.0, hamiltonian())] + [
            (float((k + f) * self.dt), hamiltonian()) for k, f in zip(steps, frac)]
        x = ginibre()
        rho0 = x @ x.conj().T
        self.rho0 = rho0 / np.trace(rho0).real
        self.items = [0]
        self.warm_up_item = 0

    def _library_baths(self):
        from decotherm.baths import Bath, JumpTerm, LindbladGenerator, PropagateToFixedPoint, dephasing_bath

        d = self.dim
        out = [Bath(name, LindbladGenerator(d, tuple(JumpTerm(r, a) for r, a in self.baths[name])),
                    PropagateToFixedPoint()) for name in ("hot", "cold")]
        out.append(dephasing_bath([self.basis[:, j] for j in range(d)], self.gamma))
        return tuple(out)

    def run(self, item):
        import decotherm as dt

        baths = self._library_baths()
        h0 = self.schedule[0][1]
        nu = dt.steady_state(dt.liouvillian(dt.EvolutionSpec(h0, baths)))
        heats = [dt.heat_rate(h0, b, nu) for b in baths]
        production = dt.ness_entropy_production(baths, nu)
        pairs = {k: m.matrix for k, m in dt.linear_response(baths).pairs.items()}
        spec = dt.EvolutionSpec(self.schedule, baths, t_max=self.n_steps * self.dt, dt=self.dt)
        traj = dt.propagate(self.rho0, spec)
        samples = dt.sample_thermodynamics(traj, spec)
        return {"baths": baths, "nu": nu, "heats": heats, "production": production,
                "pairs": pairs, "states": traj.states, "samples": samples}

    @staticmethod
    def fingerprint(out) -> bytes:
        table = _sample_table(out["samples"], out["baths"])
        return _hash(out["nu"], np.array(out["heats"] + [out["production"]]),
                     *out["pairs"].values(), out["states"], *table.values())

    def check(self, item, out) -> list[str]:
        from decotherm.baths import stationary_map

        h0 = self.schedule[0][1]
        all_terms = [t for ts in self.baths.values() for t in ts]
        lmat = checks.superop(h0, all_terms, self.dim)
        failed = checks.steady_failures(lmat, h0, out["nu"], out["heats"], out["production"])
        for bath in out["baths"]:
            terms = self.baths[bath.name]
            failed += checks.stationary_failures(
                checks.superop(None, terms, self.dim), max(r for r, _ in terms),
                out["nu"], stationary_map(bath, out["nu"]))
        if not checks.adjoint_defect(out["pairs"]) <= checks.ADJOINT_TOL:
            failed.append("check_onsager_adjoint")
        table = _sample_table(out["samples"], out["baths"])
        failed += checks.trajectory_failures(table, list(self.baths))
        return sorted(set(failed))


def _sample_table(samples, baths) -> dict[str, np.ndarray]:
    """ThermoSample list -> columns named like the CLI's trajectory table."""
    table = {
        "t": np.array([s.t for s in samples]),
        "energy": np.array([s.energy for s in samples]),
        "work_rate": np.array([s.work_rate for s in samples]),
        "entropy": np.array([s.entropy for s in samples]),
        "entropy_production": np.array([s.entropy_production for s in samples]),
    }
    for b in baths:
        table[f"heat_{b.name}"] = np.array([s.heat_rates[b.name] for s in samples])
        table[f"flux_{b.name}"] = np.array([s.entropy_flux[b.name] for s in samples])
    return table


WORKLOADS = {cls.name: cls for cls in (CliConfigs, SteadySweep, DenseD16)}
