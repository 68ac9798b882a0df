"""CLI: config validation, emitters, exit codes, determinism."""

import ast
import builtins
import json
import math
import os
import subprocess
import sys
import time
import types

import pytest

import decotherm
from decotherm import cli, dynamics, errors
from decotherm.errors import ConfigError, DecothermError, InvalidParams, NumericalFailure


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "scenario": "two-level-decoherence",
        "params": {"gamma": 1.0, "e_level": 1.0, "x": 0.5},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        # "seed" is no key: every scenario is deterministic
        for key in ("extra_key", "seed"):
            path = write_config(tmp_path, **{key: 1})
            assert cli.run(str(path)) == 2
            assert f"'{key}'" in capsys.readouterr().err

    def test_unknown_param_key_named(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            scenario="device-steady",
            params={"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamm": 0.3},
        )
        assert cli.run(str(path)) == 2
        assert "gamm" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_config(tmp_path, params={"gamma": 1.0, "e_level": 1.0})
        assert cli.run(str(path)) == 2
        assert "x" in capsys.readouterr().err

    def test_parse_error_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "scenario": "two-level-decoherence",\n  "params": {,}\n}')
        assert cli.run(str(path)) == 2
        err = capsys.readouterr().err
        assert ":3:" in err  # line of the bad token

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"scenario": "device-steady", "params": {"e_l": 1.5\xff}}')
        assert cli.run(str(path)) == 2
        assert capsys.readouterr().err == f"config error: {path}: byte 51 is not UTF-8\n"

    def test_missing_file_is_io_error(self, tmp_path):
        assert cli.run(str(tmp_path / "nope.json")) == 1

    def test_unknown_scenario(self, tmp_path, capsys):
        path = write_config(tmp_path, scenario="foo")
        assert cli.run(str(path)) == 2
        assert "foo" in capsys.readouterr().err

    def test_bad_output_format(self, tmp_path):
        path = write_config(tmp_path, output={"format": "xml", "path": "x"})
        assert cli.run(str(path)) == 2

    @pytest.mark.parametrize("bad", [1, ["a"], "", None, True])
    def test_output_path_must_be_a_non_empty_string(self, tmp_path, capsys, bad):
        # an int path is a file descriptor to open(): 1 would write the CSV
        # to stdout and close it
        path = write_config(tmp_path, output={"format": "csv", "path": bad})
        assert cli.run(str(path)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "'path'" in err and "non-empty string" in err

    def test_non_finite_numbers_rejected(self, tmp_path, capsys):
        # json.load accepts NaN and Infinity; a number past the float range
        # is as unusable
        device = {"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2}
        for bad in (math.nan, math.inf, -math.inf, 10**400):
            cases = [
                ("gamma", {"params": {"gamma": bad, "e_level": 1.0, "x": 0.5}}),
                ("n_l", {"scenario": "device-steady", "params": {**device, "n_l": bad, "gamma": 0.3}}),
                ("gammas", {"scenario": "gamma-sweep", "params": {**device, "gammas": [0.3, bad]}}),
                ("t_max", {"integrator": {"t_max": bad}}),
                ("dt", {"integrator": {"t_max": 1.0, "dt": bad}}),
                ("onsager_c", {"scenario": "device-steady", "params": {**device, "gamma": 0.3}, "onsager_c": bad}),
            ]
            for key, overrides in cases:
                path = write_config(tmp_path, **overrides)
                assert cli.run(str(path)) == 2, (key, bad)
                err = capsys.readouterr().err
                assert f"'{key}'" in err and "finite" in err, (key, bad, err)
                assert not (tmp_path / "out.csv").exists(), (key, bad)

    @pytest.mark.parametrize("overrides, message", [
        ({"params": [1.0]}, "'params' must be an object"),
        ({"output": "out.csv"}, "'output' must be an object"),
        ({"integrator": 1.0}, "'integrator' must be an object"),
        ({"params": {"gamma": "1", "e_level": 1.0, "x": 0.5}}, "key 'gamma' in params"),
        ({"scenario": "device-steady", "onsager_c": 0.0,
          "params": {"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamma": 0.3}},
         "onsager_c must be > 0"),
        ({"scenario": "device-trajectory", "integrator": {"t_max": 1.0},
          "params": {"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamma": 0.3,
                     "initial_state": "excited"}},
         "initial_state must be"),
        ({"scenario": "gamma-sweep",
          "params": {"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gammas": []}},
         "'gammas' must be a non-empty list"),
    ])
    def test_malformed_block_or_value(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(errors.ConfigError, match=message):
            cli.load_config(str(path))
        assert cli.run(str(path)) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert cli.run(str(path)) == 2
        assert "top level must be an object" in capsys.readouterr().err

    def test_integrator_block_only_where_it_is_read(self, tmp_path, capsys):
        # a block that nothing reads is refused, as is a missing one, by
        # load_config: before any numerics
        device = {"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2}
        cases = [
            ("device-steady", {**device, "gamma": 0.3}, {"integrator": {"t_max": -5.0}},
             "device-steady takes no 'integrator' block"),
            ("gamma-sweep", {**device, "gammas": [0.3]}, {"integrator": {"t_max": 1.0}},
             "gamma-sweep takes no 'integrator' block"),
            ("device-trajectory", {**device, "gamma": 0.3}, {},
             "device-trajectory requires an 'integrator' block"),
        ]
        for scenario, params, extra, message in cases:
            path = write_config(tmp_path, scenario=scenario, params=params, **extra)
            with pytest.raises(errors.ConfigError, match=message):
                cli.load_config(str(path))
            assert cli.run(str(path)) == 2
            assert f"config error: {message}" in capsys.readouterr().err
            assert not (tmp_path / "out.csv").exists()


class TestTwoLevelRun:
    def test_heat_row(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert cli.run(str(path)) == 0
        out = (tmp_path / "out.csv").read_text().splitlines()
        assert out[0] == "gamma,e_level,x,z,heat_rate,heat_rate_abs"
        row = [float(v) for v in out[1].split(",")]
        assert abs(row[4]) == pytest.approx(0.5, abs=1e-12)
        assert row[5] == pytest.approx(0.5, abs=1e-12)
        assert "heat_rate" in capsys.readouterr().out

    def test_trajectory_bloch_decay(self, tmp_path):
        path = write_config(
            tmp_path,
            params={"gamma": 1.0, "e_level": 1.0, "x": 0.5, "z": 0.2},
            integrator={"t_max": 1.0, "dt": 0.001},
        )
        assert cli.run(str(path)) == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t", "energy", "work_rate", "heat_dephasing", "entropy",
            "flux_dephasing", "entropy_production", "rel_entropy_dephasing",
            "bloch_x", "bloch_y", "bloch_z",
        ]
        ix = header.index("bloch_x")
        it = header.index("t")
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[ix] == pytest.approx(0.5 * math.exp(-2.0 * vals[it]), abs=1e-8)

    def test_unitary_only_columns_zero(self, tmp_path):
        # gamma must be positive for the scenario; instead check device with
        # v=0: all heat columns vanish within 1e-10
        cfg = {
            "scenario": "device-steady",
            "params": {"e_l": 1.5, "e_r": 1.0, "v": 0.0, "n_l": 0.6, "n_r": 0.2, "gamma": 0.3},
            "output": {"format": "csv", "path": str(tmp_path / "dev.csv")},
        }
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(str(path)) == 0
        lines = (tmp_path / "dev.csv").read_text().splitlines()
        header = lines[0].split(",")
        vals = dict(zip(header, lines[1].split(",")))
        for col in ("heat_l", "heat_r", "heat_d"):
            assert abs(float(vals[col])) < 1e-10


class TestDeterminismAndRoundTrip:
    def test_bit_identical_csv(self, tmp_path):
        path = write_config(
            tmp_path,
            params={"gamma": 1.0, "e_level": 1.0, "x": 0.5, "z": 0.2},
            integrator={"t_max": 0.5},
        )
        assert cli.run(str(path), output=str(tmp_path / "a.csv")) == 0
        assert cli.run(str(path), output=str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_json_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            params={"gamma": 0.8, "e_level": 1.3, "x": 0.4, "z": -0.1},
            integrator={"t_max": 0.2},
            output={"format": "json", "path": str(tmp_path / "out.json")},
        )
        assert cli.run(str(path)) == 0
        payload = json.loads((tmp_path / "out.json").read_text())
        run_a = payload["rows"]
        assert cli.run(str(path), output=str(tmp_path / "out2.json")) == 0
        run_b = json.loads((tmp_path / "out2.json").read_text())["rows"]
        assert run_a == run_b
        # csv at 17 significant digits re-parses to the same floats
        assert cli.run(str(path), output=str(tmp_path / "out.csv"), output_format="csv") == 0
        lines = (tmp_path / "out.csv").read_text().splitlines()
        for row_json, line in zip(run_a, lines[1:]):
            row_csv = [float(v) for v in line.split(",")]
            assert row_csv == pytest.approx(row_json, rel=0, abs=0)

    def test_gamma_sweep_output(self, tmp_path):
        cfg = {
            "scenario": "gamma-sweep",
            "params": {
                "e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2,
                "gammas": [0.0, 0.3, 1.0],
            },
            "output": {"format": "csv", "path": str(tmp_path / "sweep.csv")},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert cli.run(str(path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[:2] == ["gamma", "status"]
        assert "m_ld" in header and "coherence_re" in header


class TestDeviceRuns:
    def test_trajectory_from_the_ground_state(self, tmp_path, capsys):
        path = write_config(
            tmp_path, scenario="device-trajectory", integrator={"t_max": 0.05},
            params={"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamma": 0.3,
                    "initial_state": "ground"},
        )
        assert cli.run(str(path)) == 0
        assert capsys.readouterr().out.startswith("device-trajectory: ")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        first = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        # |0><0| is pure and has E_0 = 0
        assert first["t"] == 0.0 and first["energy"] == 0.0 and first["entropy"] == 0.0

    def test_gamma_sweep_degenerate_point_is_a_status_0_row(self, tmp_path, monkeypatch, capsys):
        from test_scenarios import replace_baths_at, silent_pumps

        import decotherm.scenarios as sc

        build = replace_baths_at(0.5, silent_pumps)
        monkeypatch.setattr(sc, "_device_baths", build)
        path = write_config(
            tmp_path, scenario="gamma-sweep",
            params={"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2,
                    "gammas": [0.0, 0.5, 1.0]},
        )
        assert cli.run(str(path)) == 0
        assert build.edited == [(1, 3)]
        assert "gamma-sweep: 2/3 points solved" in capsys.readouterr().out
        rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert [row[:2] for row in rows] == [["0", "1"], ["0.5", "0"], ["1", "1"]]
        assert all(math.isnan(float(v)) for v in rows[1][2:])
        assert not any(math.isnan(float(v)) for row in (rows[0], rows[2]) for v in row)


class TestEmitterDirect:
    def test_unitary_only_trajectory_has_no_heat_columns(self, tmp_path):
        import numpy as np

        from decotherm.cli import emit_trajectory
        from decotherm.dynamics import EvolutionSpec, propagate
        from decotherm.scenarios import bloch_state
        from decotherm.thermo import sample_thermodynamics

        sz = np.diag([1.0, -1.0]).astype(complex)
        spec = EvolutionSpec(sz, (), t_max=0.5, dt=0.01)
        traj = propagate(bloch_state(0.5, 0.0, 0.3), spec)
        samples = sample_thermodynamics(traj, spec)
        out = tmp_path / "u.csv"
        emit_trajectory(traj, samples, [], str(out), "csv")
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "t", "energy", "work_rate", "entropy", "entropy_production",
            "bloch_x", "bloch_y", "bloch_z",
        ]
        energies = [float(l.split(",")[1]) for l in lines[1:]]
        assert max(energies) - min(energies) < 1e-10
        prods = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(p == 0.0 for p in prods)


def per_row_bytes(columns, rows, fmt):
    """The emitter the chunked `_write_table` replaced, one `%` per row: its
    bytes are the oracle."""
    if fmt == "csv":
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        return (",".join(columns) + "\n" + "".join(line % tuple(row) for row in rows)).encode()
    payload = {"columns": columns, "rows": [[float(v) for v in row] for row in rows]}
    return (json.dumps(payload, indent=1) + "\n").encode()


class TestWriteTable:
    COLUMNS = ["t", "energy", "heat_left", "entropy_production", "rel_entropy_left"]

    @staticmethod
    def table(n):
        import numpy as np

        rng = np.random.default_rng(n)
        rows = rng.normal(size=(n, 5)) * 10.0 ** rng.integers(-300, 300, size=(n, 5))
        rows[::7, 3] = math.nan  # a flagged point, or a failed sweep row
        rows[::11, 4] = math.inf
        rows[::13, 1] = -0.0
        rows[::17, 2] = 5e-324
        return rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # n = chunks * _EMIT_ROWS + extra: 0, 1, chunk - 1, chunk, chunk + 1, 2 chunk + 3 rows
    @pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_bytes_are_those_of_the_per_row_template(self, tmp_path, chunks, extra, fmt):
        rows = self.table(chunks * cli._EMIT_ROWS + extra)
        expected = per_row_bytes(self.COLUMNS, rows.tolist(), fmt)
        for given in (rows, rows.tolist()):  # a trajectory array, or report rows
            out = tmp_path / f"out.{fmt}"
            cli._write_table(self.COLUMNS, given, str(out), fmt)
            assert out.read_bytes() == expected


def test_grid_over_the_cap_exits_2_before_allocating(tmp_path, capsys):
    # gamma = 1e6 puts the default dt near 3e-10: 1.3e10 points, whose time grid
    # alone would take 95 GiB
    path = write_config(
        tmp_path,
        scenario="device-trajectory",
        params={"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamma": 1e6,
                "initial_state": "maximally-mixed"},
        integrator={"t_max": 4.0},
    )
    start = time.perf_counter()
    assert cli.run(str(path)) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    for word in ("dt = ", "grid points", "integrator.dt", "t_max"):
        assert word in err, word
    assert not (tmp_path / "out.csv").exists()


class TestNumericalFailureExit:
    """The exit code follows the error's class; no table in the CLI lists them."""

    @staticmethod
    def run_raising(tmp_path, monkeypatch, exc):
        def boom(*a, **k):
            raise exc

        monkeypatch.setattr(cli, "device_report", boom)
        path = write_config(
            tmp_path,
            scenario="device-steady",
            params={"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamma": 0.3},
        )
        return cli.run(str(path))

    @pytest.mark.parametrize("cls", NumericalFailure.__subclasses__(), ids=lambda c: c.__name__)
    def test_numerical_failure_is_exit_3(self, tmp_path, monkeypatch, capsys, cls):
        assert self.run_raising(tmp_path, monkeypatch, cls("boom")) == 3
        assert capsys.readouterr().err == f"numerical failure in {cls.stage}: boom\n"

    def test_invalid_params_is_exit_2(self, tmp_path, monkeypatch, capsys):
        assert self.run_raising(tmp_path, monkeypatch, InvalidParams("boom")) == 2
        assert capsys.readouterr().err == "error: boom\n"

    def test_trace_drift_is_exit_3(self, tmp_path, monkeypatch, capsys):
        # the one raise of propagate that no physical run reaches
        monkeypatch.setattr(dynamics, "TRACE_DRIFT_TOL", 0.0)
        path = write_config(
            tmp_path, scenario="device-trajectory", integrator={"t_max": 0.05},
            params={"e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2, "gamma": 0.3},
        )
        assert cli.run(str(path)) == 3
        assert capsys.readouterr().err.startswith("numerical failure in propagate: trace drifted by ")


def test_each_error_is_of_one_kind():
    # every class is the base, one of the three kinds, or a subclass of
    # exactly one kind; every numerical failure names its own stage
    kinds = (InvalidParams, ConfigError, NumericalFailure)
    for cls in vars(errors).values():
        if isinstance(cls, type) and issubclass(cls, Exception):
            assert cls is DecothermError or [issubclass(cls, k) for k in kinds].count(True) == 1, \
                cls.__name__
            if issubclass(cls, NumericalFailure) and cls is not NumericalFailure:
                assert "stage" in vars(cls) and cls.stage, cls.__name__


def test_library_raises_only_its_own_errors():
    src = os.path.dirname(os.path.abspath(cli.__file__))
    raising = set()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(raised, ast.Name) and isinstance(getattr(builtins, raised.id, None), type):
                    raising.add(f"{name}:{node.lineno}: {raised.id}")
    assert not raising, sorted(raising)


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path)
    # the child imports the same package this process imported
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "decotherm.cli", "run", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "heat_rate" in proc.stdout


def test_main_in_process_leaves_the_collector_alone(tmp_path):
    # only the process entry points freeze what import built; main() runs
    # in the caller's process and must not move its objects
    import gc

    before = gc.get_freeze_count()
    assert cli.main(["run", str(write_config(tmp_path))]) == 0
    assert gc.get_freeze_count() == before


def test_module_entry_point_writes_what_main_writes(tmp_path):
    # `python -m decotherm.cli` freezes the collector first; its files are
    # the bytes main() writes in process
    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name in ("device_steady", "gamma_sweep", "two_level_heat"):
        cfg = os.path.join(configs, f"{name}.json")
        child, here = tmp_path / f"{name}.child", tmp_path / f"{name}.here"
        proc = subprocess.run([sys.executable, "-m", "decotherm.cli", "run", cfg, "--output", str(child)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert cli.main(["run", cfg, "--output", str(here)]) == 0
        assert child.read_bytes() == here.read_bytes(), name


def test_entry_freezes_then_runs_main(monkeypatch):
    import gc

    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
    assert cli._entry() == 0
    assert calls == ["freeze", "main"]
    # the console script enters there too
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as f:
        assert 'decotherm = "decotherm.cli:_entry"' in f.read().splitlines()


def test_config_runs_never_import_scipy(tmp_path):
    # scipy is a test-only dependency: no committed config may load it
    configs = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
    names = sorted(f[: -len(".json")] for f in os.listdir(configs) if f.endswith(".json"))
    assert len(names) == 5
    runs = [(os.path.join(configs, f"{name}.json"), str(tmp_path / f"{name}.out")) for name in names]
    child = (
        "import sys\n"
        "from decotherm import cli\n"
        f"for cfg, out in {runs!r}:\n"
        "    assert cli.main(['run', cfg, '--output', out]) == 0, cfg\n"
        "    assert 'scipy' not in sys.modules, cfg\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_library_imports_only_stdlib_numpy_and_itself():
    # numpy is the only runtime dependency on every code path, not only on
    # those the configs reach: scipy is test-only, and mpmath (installed as
    # sympy's dependency) is not a dependency at all
    allowed = set(sys.stdlib_module_names) | {"numpy", "decotherm"}
    src = os.path.dirname(os.path.abspath(cli.__file__))
    files = sorted(f for f in os.listdir(src) if f.endswith(".py"))
    assert "thermo.py" in files
    for name in files:
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in allowed, f"{name} imports {module}"


def test_scenarios_imports_no_steady_pass_step():
    # the device reports run the one steady pass, thermo._steady_pass: a
    # device copy of one of its steps would have to import one of these
    steps = {"_kernel_basis", "_steady_states", "_commutator", "_bath_terms", "_require_support",
             "_traces", "_production"}
    src = os.path.dirname(os.path.abspath(cli.__file__))
    with open(os.path.join(src, "scenarios.py")) as f:
        tree = ast.parse(f.read(), "scenarios.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_steady_pass" in imported
    assert not imported & steps, sorted(imported & steps)


def test_only_operators_raises_a_non_finite_entry():
    # every refusal of a NaN or infinite entry goes through
    # operators.require_finite, so no module grows its own copy
    src = os.path.dirname(os.path.abspath(cli.__file__))
    raising = set()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                for leaf in ast.walk(node):
                    if isinstance(leaf, ast.Constant) and "non-finite entry" in str(leaf.value):
                        raising.add(f"{name}:{node.lineno}")
    assert {site.split(":")[0] for site in raising} == {"operators.py"}, sorted(raising)


def test_stack_budget_is_assigned_in_one_module():
    # the device report passes and the sampler's state blocks share one
    # 2**14-entry budget, baths._PASS_ENTRIES
    src = os.path.dirname(os.path.abspath(cli.__file__))
    assigning = set()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                if any(ast.unparse(leaf).replace(" ", "") in ("2**14", str(2**14))
                       for leaf in ast.walk(node.value)):
                    assigning.add(f"{name}:{node.lineno}")
    assert [site.split(":")[0] for site in assigning] == ["baths.py"], sorted(assigning)


PUBLIC_NAMES = [
    "Bath", "DEFAULT_DEVICE", "DeviceAssembly", "DeviceParams", "DeviceReport",
    "EvolutionSpec", "ForceFlowPair", "JumpTerm", "LindbladGenerator", "LinearResponse",
    "PropagateToFixedPoint", "SuperOperator", "ThermoSample", "ThermoSamples", "Trajectory",
    "TwoLevelDecoherenceParams", "apply_generator", "assert_density_matrix", "bloch_state",
    "build_device", "default_timestep", "dephasing_bath", "device_dephasing_bath",
    "device_report", "device_reports", "energy", "entropy_balance_residuals", "entropy_flux",
    "entropy_production", "first_law_residuals", "flow", "force", "force_flow_pairs",
    "force_parameters", "gamma_sweep", "generator_superop", "heat_rate", "hermitize",
    "left_pump_bath", "linear_flow_prediction", "linear_response", "liouvillian",
    "ness_entropy_production", "propagate", "reciprocal_coefficients",
    "relative_entropy_to_bath", "right_pump_bath", "sample_thermodynamics", "stationary_map",
    "steady_state", "thermal_occupation", "thermal_two_level_bath",
    "two_level_decoherence_heat", "von_neumann_entropy", "work_rate",
]

ERROR_CLASSES = [
    "ConfigError", "DecothermError", "DegenerateKernel", "InvalidParams",
    "NegativeEigenvalue", "NoConvergence", "NonPositiveSolution", "NonRealPairing",
    "NumericalFailure", "StateInvariantViolated", "SupportViolation",
]


def test_public_surface_is_pinned():
    # a name added to or removed from the package shows in this list's diff;
    # submodules are left out, since which of them are attributes of the
    # package depends on what has been imported
    names = sorted(n for n, v in vars(decotherm).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_NAMES
    classes = sorted(n for n, v in vars(errors).items()
                     if isinstance(v, type) and issubclass(v, Exception))
    assert classes == ERROR_CLASSES


def test_unwritable_output_is_io_error(tmp_path, capsys):
    path = write_config(tmp_path, output={"format": "csv", "path": str(tmp_path / "no" / "dir" / "x.csv")})
    assert cli.run(str(path)) == 1
    assert "i/o" in capsys.readouterr().err
