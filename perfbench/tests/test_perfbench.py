"""Tests of the benchmark itself: seeded inputs, checks, metric names."""

import dataclasses
import json
import os
import re

import numpy as np
import pytest

from decotherm.dynamics import EvolutionSpec, propagate
from decotherm.scenarios import TwoLevelDecoherenceParams, two_level_dephasing_assembly
from decotherm.thermo import sample_thermodynamics
import perfbench
from perfbench import __main__ as bench
from perfbench import checks, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(wl):
    if isinstance(wl, workloads.DenseD16):
        return [wl.rho0, wl.basis, wl.gamma] + [x for step in wl.schedule for x in step] + [
            x for terms in wl.baths.values() for term in terms for x in term]
    return wl.items


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    cls = workloads.WORKLOADS[name]
    first, again, other = (cls(ROOT, s, ROOT, {}) for s in (7, 7, 8))
    assert _same(_inputs(first), _inputs(again))
    assert not _same(_inputs(first), _inputs(other))


def test_dense_switch_times_fall_off_the_grid():
    wl = workloads.DenseD16(ROOT, 3, ROOT, {})
    frac = np.array([t / wl.dt % 1.0 for t, _ in wl.schedule[1:]])
    assert np.all((frac > 0.05) & (frac < 0.95))
    assert np.any(frac < 0.5)  # at least one switch rounds down to the grid


# ---------------------------------------------------------------------------
# each check passes on a correct output and rejects a perturbed one
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_report():
    wl = workloads.SteadySweep(ROOT, 0, ROOT, {})
    return wl, wl.warm_up_item, wl.run(wl.warm_up_item)


def test_steady_sweep_checks_pass_on_library_output(sweep_report):
    wl, params, report = sweep_report
    assert wl.check(params, report) == []


@pytest.mark.parametrize("field, label", [
    ("m_ld", "check_reciprocal"),
    ("m_dl", "check_reciprocal"),
    ("heat_l", "check_energy_balance"),
    ("entropy_production", "check_entropy_production"),
])
def test_steady_sweep_checks_reject_perturbed_report(sweep_report, field, label):
    wl, params, report = sweep_report
    value = getattr(report, field)
    bad = dataclasses.replace(report, **{field: -abs(value) - 1e-3})
    assert label in wl.check(params, bad)


def test_steady_residual_rejects_perturbed_state(sweep_report):
    wl, params, report = sweep_report
    nu = report.nu.copy()
    nu[0, 0] += 1e-6
    nu[1, 1] -= 1e-6
    assert "check_steady_residual" in wl.check(params, dataclasses.replace(report, nu=nu))


def test_stationary_checks_reject_wrong_images():
    terms = workloads.device_terms(0.6, 0.2, 0.3)["left"]
    lbath = checks.superop(None, terms, 3)
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    n = 0.6
    exact = np.diag([0.5 * n / (1 + 2 * n), 0.5 * (1 + n) / (1 + 2 * n), 0.5]).astype(complex)
    assert checks.stationary_failures(lbath, 1 + n, rho, exact) == []
    assert "check_stationary_residual" in checks.stationary_failures(lbath, 1 + n, rho, rho)
    # stationary under the bath, but the R population is not conserved
    moved = np.diag([0.52 * n / (1 + 2 * n), 0.52 * (1 + n) / (1 + 2 * n), 0.48]).astype(complex)
    assert checks.stationary_failures(lbath, 1 + n, rho, moved) == ["check_stationary_conservation"]


def test_two_level_heat_and_reciprocal_reject_perturbation():
    assert checks.two_level_heat_defect(-0.5, 1.0, 1.0, 0.5) <= checks.TWO_LEVEL_TOL
    assert checks.two_level_heat_defect(-0.5 + 1e-9, 1.0, 1.0, 0.5) > checks.TWO_LEVEL_TOL
    assert checks.reciprocal_defect(0.072, 0.072, 1.0, 0.3, 0.6, 0.4) <= checks.RECIPROCAL_TOL
    assert checks.reciprocal_defect(0.072, 0.0720001, 1.0, 0.3, 0.6, 0.4) > checks.RECIPROCAL_TOL


def test_adjoint_check_rejects_perturbed_pair():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    pairs = {("x", "x"): a + a.conj().T, ("x", "y"): a, ("y", "x"): a.conj().T, ("y", "y"): a @ a.conj().T}
    assert checks.adjoint_defect(pairs) <= checks.ADJOINT_TOL
    pairs[("x", "y")] = a + 1e-6
    assert checks.adjoint_defect(pairs) > checks.ADJOINT_TOL


@pytest.fixture(scope="module")
def trajectory_table():
    h, bath, rho0 = two_level_dephasing_assembly(TwoLevelDecoherenceParams(1.0, 1.0, 0.5, 0.2))
    spec = EvolutionSpec(h, (bath,), t_max=0.3)
    samples = sample_thermodynamics(propagate(rho0, spec), spec)
    return workloads._sample_table(samples, (bath,))


def test_trajectory_checks_pass_on_library_output(trajectory_table):
    assert checks.trajectory_failures(trajectory_table, ["dephasing"]) == []


@pytest.mark.parametrize("column, label", [
    ("energy", "check_first_law"),
    ("heat_dephasing", "check_first_law"),
    ("entropy", "check_entropy_balance"),
    ("flux_dephasing", "check_entropy_balance"),
])
def test_trajectory_checks_reject_perturbed_point(trajectory_table, column, label):
    table = {k: v.copy() for k, v in trajectory_table.items()}
    table[column][100] += 1e-5
    assert label in checks.trajectory_failures(table, ["dephasing"])


def test_trajectory_checks_reject_negative_production(trajectory_table):
    table = {k: v.copy() for k, v in trajectory_table.items()}
    table["entropy_production"][5] = -1e-3
    assert "check_entropy_production" in checks.trajectory_failures(table, ["dephasing"])


def test_cli_check_rejects_perturbed_output(tmp_path):
    config = os.path.join(ROOT, "configs", "two_level_heat.json")
    env = bench._child_env(ROOT)
    wl = workloads.CliConfigs(ROOT, 0, str(tmp_path), env)
    output = wl.run(config)
    assert wl.error_label(output) is None
    assert wl.check(config, output) == []
    bad = output[2].replace(b",-0.4999", b",-0.4998")
    assert bad != output[2]
    assert wl.check(config, (0, "", bad)) == ["check_two_level_heat"]


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert tuple(w["name"] for w in json.load(fh)["workloads"]) == perfbench.WORKLOADS
    assert tuple(workloads.WORKLOADS) == perfbench.WORKLOADS


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(trace, monkeypatch):
    monkeypatch.chdir(ROOT)
    args = bench.argparse.Namespace(workload="steady_sweep", seed=0, seconds=0.01,
                                    trace=trace, setup_only=False)
    metrics, facts = bench.measure(args, ROOT)
    end_to_end, per_layer = _declared()
    declared = per_layer if trace else end_to_end
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert all(NAME.fullmatch(k) for k in metrics)
    assert all(isinstance(v, (int, float)) for v, _ in metrics.values())
    assert facts["attempted"] > 0 and not facts["problems"]


def test_declared_names_are_well_formed():
    end_to_end, per_layer = _declared()
    assert not set(end_to_end) & set(per_layer)
    assert all(NAME.fullmatch(k) and len(k) <= 64 for k in (*end_to_end, *per_layer))


def test_missing_checkout_exits_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench.main(["--workload", "steady_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_failures_count_items_not_passes():
    wl = workloads.SteadySweep(ROOT, 0, "", {})
    wl.items = wl.items[:3]
    wl.check = lambda item, output: ["check_reciprocal"] if item is wl.items[1] else []
    wl.fingerprint = lambda output: b"same"
    judge = bench.Judge(wl)
    for _ in range(4):  # passes
        for index, item in enumerate(wl.items):
            judge.judge(index, item, None, None)
    assert (judge.attempted, judge.failed) == (3, 1)
    assert judge.labels == {"check_reciprocal": 1}
    judge.judge(2, wl.items[2], "error", "NoConvergence")
    assert judge.problems and judge.failed == 1
