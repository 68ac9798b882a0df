"""Command-line front end: JSON scenario configs in, deterministic CSV/JSON out.

Config layout (one scenario per file, unknown keys are a hard error):

    {
      "scenario": "two-level-decoherence",
      "params": {"gamma": 1.0, "e_level": 1.0, "x": 0.5, "z": 0.0},
      "integrator": {"dt": 0.001, "t_max": 3.0},
      "output": {"format": "csv", "path": "out.csv"},
      "onsager_c": 1.0
    }

Scenarios: two-level-decoherence (instant heat rate; with an "integrator"
block it emits the dephasing trajectory instead), device-steady and
gamma-sweep (no "integrator" block), device-trajectory (needs one). The
exit code follows the error's type (`decotherm.errors`): 0 ok, 1 I/O error,
2 a ConfigError or any other refused input, 3 a NumericalFailure, whose
message names the failing stage.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .dynamics import EvolutionSpec, Trajectory, propagate
from .errors import ConfigError, DecothermError, InvalidParams, NumericalFailure
from .scenarios import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DeviceParams,
    TwoLevelDecoherenceParams,
    build_device,
    device_report,
    gamma_sweep,
    two_level_decoherence_heat,
    two_level_dephasing_assembly,
)
from .thermo import ThermoSamples, sample_thermodynamics

_DEVICE = {"e_l": True, "e_r": True, "v": True, "n_l": True, "n_r": True}

#: scenario -> {param key: required?}
_PARAMS = {
    "two-level-decoherence": {"gamma": True, "e_level": True, "x": True, "z": False},
    "device-steady": {**_DEVICE, "gamma": True},
    "device-trajectory": {**_DEVICE, "gamma": True, "initial_state": False},
    "gamma-sweep": {**_DEVICE, "gammas": True},
}
SCENARIOS = tuple(_PARAMS)
FORMATS = ("csv", "json")


#: 17 significant digits; lossless for 64-bit floats
_FLOAT = "%.17g"

#: Rows per formatted CSV chunk.
_EMIT_ROWS = 1024


def _require_keys(table: dict, allowed: dict[str, bool], where: str) -> None:
    """allowed maps key -> required?"""
    for key in table:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key, required in allowed.items():
        if required and key not in table:
            raise ConfigError(f"missing required key '{key}' in {where}")


def _number(v: Any, key: str, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"key '{key}' in {where} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # also false for nan
        raise ConfigError(f"key '{key}' in {where} must be finite, got {v!r}")
    return float(v)


@dataclass(frozen=True, eq=False)
class RunConfig:
    scenario: str
    params: dict[str, Any]
    output_format: str
    output_path: str
    integrator: dict[str, float] | None = None
    onsager_c: float = 1.0


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:  # read() decodes the whole file: start is its offset
            raise ConfigError(f"{path}: byte {exc.start} is not UTF-8") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _require_keys(
        raw,
        {"scenario": True, "params": True, "output": True,
         "integrator": False, "onsager_c": False},
        "config",
    )
    scenario = raw["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario '{scenario}'; expected one of {SCENARIOS}")
    params = raw["params"]
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    params = _params(scenario, params)
    out = raw["output"]
    if not isinstance(out, dict):
        raise ConfigError("'output' must be an object")
    _require_keys(out, {"format": True, "path": True}, "output")
    if out["format"] not in FORMATS:
        raise ConfigError(f"unknown output format '{out['format']}'; expected one of {FORMATS}")
    # open() takes an int as a file descriptor: "path": 1 would write to stdout
    if not isinstance(out["path"], str) or not out["path"]:
        raise ConfigError(f"key 'path' in output must be a non-empty string, got {out['path']!r}")
    integrator = raw.get("integrator")
    if integrator is not None:
        if not isinstance(integrator, dict):
            raise ConfigError("'integrator' must be an object")
        _require_keys(integrator, {"dt": False, "t_max": True}, "integrator")
        integrator = {k: _number(v, k, "integrator") for k, v in integrator.items()}
        if scenario in ("device-steady", "gamma-sweep"):
            raise ConfigError(f"{scenario} takes no 'integrator' block")
    elif scenario == "device-trajectory":
        raise ConfigError("device-trajectory requires an 'integrator' block")
    onsager_c = _number(raw["onsager_c"], "onsager_c", "config") if "onsager_c" in raw else 1.0
    if not onsager_c > 0:
        raise ConfigError(f"onsager_c must be > 0, got {onsager_c}")
    return RunConfig(
        scenario=scenario,
        params=params,
        output_format=out["format"],
        output_path=out["path"],
        integrator=integrator,
        onsager_c=onsager_c,
    )


def _params(scenario: str, params: dict) -> dict[str, Any]:
    """Checked params, every number converted to float."""
    where = f"params ({scenario})"
    _require_keys(params, _PARAMS[scenario], where)
    out: dict[str, Any] = {}
    for k, v in params.items():
        if k == "initial_state":
            if v not in ("maximally-mixed", "ground"):
                raise ConfigError(f"initial_state must be 'maximally-mixed' or 'ground', got {v!r}")
            out[k] = v
        elif k == "gammas":
            if not isinstance(v, list) or not v:
                raise ConfigError("'gammas' must be a non-empty list of numbers")
            out[k] = [_number(g, k, where) for g in v]
        else:
            out[k] = _number(v, k, where)
    return out


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def _write_table(
    columns: list[str], rows: np.ndarray | list[list[float]], path: str, fmt: str
) -> None:
    """Write a table of floats, rows an array (n, len(columns)) or nested
    rows of that shape, formatted in chunks of _EMIT_ROWS rows, so no list
    of every row is held. CSV repeats the per-row _FLOAT template once per
    chunk, with the bytes of one `%` per row; JSON encodes each chunk's rows
    one level deeper, with the bytes of one json.dump(..., indent=1)."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(columns))
    chunks = (table[lo:lo + _EMIT_ROWS] for lo in range(0, len(table), _EMIT_ROWS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "csv":
            line = ",".join([_FLOAT] * len(columns)) + "\n"
            fh.write(",".join(columns) + "\n")
            for chunk in chunks:
                fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
        else:
            # up to '"rows": [', then each chunk without its brackets
            fh.write(json.dumps({"columns": columns, "rows": []}, indent=1)[:-3])
            for i, chunk in enumerate(chunks):
                fh.write("," * (i > 0) + json.dumps(chunk.tolist(), indent=1)[1:-2].replace("\n", "\n "))
            fh.write("\n ]\n}\n" if len(table) else "]\n}\n")


def trajectory_table(
    traj: Trajectory, samples: ThermoSamples, bath_names: list[str]
) -> tuple[list[str], np.ndarray]:
    """The column names and the float array (n, columns) of a trajectory.

    Column order contract: t, energy, work_rate, heat_<bath>..., entropy,
    flux_<bath>..., entropy_production, rel_entropy_<bath>..., and Bloch
    coordinates for two-level systems, each Tr[rho sigma] of the whole
    stack in one contraction."""
    if len(samples) != len(traj):
        raise InvalidParams("trajectory and samples lengths differ")
    columns = {
        "t": samples.t, "energy": samples.energy, "work_rate": samples.work_rate,
        **{f"heat_{n}": samples.heat_rates[n] for n in bath_names},
        "entropy": samples.entropy,
        **{f"flux_{n}": samples.entropy_flux[n] for n in bath_names},
        "entropy_production": samples.entropy_production,
        **{f"rel_entropy_{n}": samples.relative_entropies[n] for n in bath_names},
    }
    if traj.states.shape[1] == 2:
        for axis, s in zip("xyz", (SIGMA_X, SIGMA_Y, SIGMA_Z)):
            columns[f"bloch_{axis}"] = np.einsum("nij,ji->n", traj.states, s).real
    return list(columns), np.column_stack(list(columns.values()))


def emit_trajectory(
    traj: Trajectory, samples: ThermoSamples, bath_names: list[str], path: str, fmt: str
) -> None:
    columns, rows = trajectory_table(traj, samples, bath_names)
    _write_table(columns, rows, path, fmt)


_REPORT_COLUMNS = [
    "nu_00", "nu_LL", "nu_RR", "coherence_re", "coherence_im",
    "heat_l", "heat_r", "heat_d", "x_l", "x_d", "m_ld", "m_dl", "entropy_production",
]


def _report_row(report) -> list[float]:
    return [
        float(report.nu[0, 0].real), float(report.nu[1, 1].real), float(report.nu[2, 2].real),
        report.coherence.real, report.coherence.imag,
        report.heat_l, report.heat_r, report.heat_d,
        report.x_l, report.x_d, report.m_ld, report.m_dl, report.entropy_production,
    ]


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _run_trajectory(cfg: RunConfig, h: np.ndarray, baths: tuple, rho0: np.ndarray) -> ThermoSamples:
    """Propagate rho0 over the config's integrator grid, sample it and emit
    the trajectory table."""
    spec = EvolutionSpec(h, baths, t_max=cfg.integrator["t_max"], dt=cfg.integrator.get("dt"))
    traj = propagate(rho0, spec)
    samples = sample_thermodynamics(traj, spec)
    emit_trajectory(traj, samples, [b.name for b in baths], cfg.output_path, cfg.output_format)
    return samples


def _run_two_level(cfg: RunConfig) -> str:
    p = TwoLevelDecoherenceParams(**cfg.params)
    if cfg.integrator is not None:
        h, bath, rho0 = two_level_dephasing_assembly(p)
        samples = _run_trajectory(cfg, h, (bath,), rho0)
        return (
            f"two-level-decoherence trajectory: {len(samples)} points, "
            f"initial heat_rate={samples.heat_rates[bath.name][0]:.6g}"
        )
    q = two_level_decoherence_heat(p)
    columns = ["gamma", "e_level", "x", "z", "heat_rate", "heat_rate_abs"]
    rows = [[p.gamma, p.e_level, p.x, p.z, q, abs(q)]]
    _write_table(columns, rows, cfg.output_path, cfg.output_format)
    return f"two-level-decoherence: heat_rate={q:.6g} |heat_rate|={abs(q):.6g}"


def _device_params(cfg: RunConfig, gamma: float | None = None) -> DeviceParams:
    p = cfg.params
    return DeviceParams(
        p["e_l"], p["e_r"], p["v"], p["n_l"], p["n_r"], p["gamma"] if gamma is None else gamma
    )


def _run_device_steady(cfg: RunConfig) -> str:
    report = device_report(_device_params(cfg), cfg.onsager_c)
    _write_table(_REPORT_COLUMNS, [_report_row(report)], cfg.output_path, cfg.output_format)
    return (
        f"device-steady: heat_l={report.heat_l:.6g} heat_d={report.heat_d:.6g} "
        f"P={report.entropy_production:.6g} m_ld={report.m_ld:.6g}"
    )


def _run_device_trajectory(cfg: RunConfig) -> str:
    assembly = build_device(_device_params(cfg))
    if cfg.params.get("initial_state", "maximally-mixed") == "ground":
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
    else:
        rho0 = np.eye(3, dtype=complex) / 3.0
    samples = _run_trajectory(cfg, assembly.hamiltonian, assembly.baths, rho0)
    return (
        f"device-trajectory: {len(samples)} points, final entropy={samples.entropy[-1]:.6g}, "
        f"final P={samples.entropy_production[-1]:.6g}"
    )


def _run_gamma_sweep(cfg: RunConfig) -> str:
    gammas = cfg.params["gammas"]
    base = _device_params(cfg, gamma=gammas[0])
    points = gamma_sweep(base, gammas, cfg.onsager_c)
    columns = ["gamma", "status"] + _REPORT_COLUMNS
    rows = []
    n_ok = 0
    for pt in points:
        if pt.report is None:
            rows.append([pt.gamma, 0.0] + [math.nan] * len(_REPORT_COLUMNS))
        else:
            n_ok += 1
            rows.append([pt.gamma, 1.0] + _report_row(pt.report))
    _write_table(columns, rows, cfg.output_path, cfg.output_format)
    return f"gamma-sweep: {n_ok}/{len(points)} points solved"


_RUNNERS = {
    "two-level-decoherence": _run_two_level,
    "device-steady": _run_device_steady,
    "device-trajectory": _run_device_trajectory,
    "gamma-sweep": _run_gamma_sweep,
}


def run(config_path: str, output: str | None = None, output_format: str | None = None) -> int:
    """Execute one config; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        cfg = replace(cfg, output_format=output_format or cfg.output_format,
                      output_path=output or cfg.output_path)
        summary = _RUNNERS[cfg.scenario](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure in {exc.stage}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except DecothermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="decotherm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config", help="path to a JSON run config")
    runp.add_argument("--output", help="override the output path")
    runp.add_argument("--format", choices=FORMATS, help="override the output format")
    args = parser.parse_args(argv)
    return run(args.config, output=args.output, output_format=args.format)


def _entry() -> int:
    """main as a process entry point (`python -m decotherm.cli`, the
    `decotherm` console script). What import built lives until exit, so it
    is frozen first (`gc.freeze`): the collector then neither scans it
    during the run nor frees it object by object at exit. main() leaves
    the collector as it is, since a caller may run it in process."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(_entry())
