"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion. Batched spectral helpers below are test-side oracles for
long trajectories; each is cross-validated pointwise against the public
observables before being trusted.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import ginibre_state, hs_inner, random_hermitian, trace_distance

from decotherm import cli
from decotherm.baths import (
    apply_generator,
    dephasing_bath,
    stationary_map,
    thermal_two_level_bath,
)
from decotherm.dynamics import EvolutionSpec, liouvillian, propagate, steady_state
from decotherm.onsager import linear_response, reciprocal_coefficients
from decotherm.scenarios import (
    DEFAULT_DEVICE,
    DeviceParams,
    TwoLevelDecoherenceParams,
    build_device,
    device_dephasing_bath,
    device_hamiltonian,
    device_report,
    two_level_decoherence_heat,
    two_level_dephasing_assembly,
)
from decotherm.thermo import (
    entropy_flux,
    entropy_production,
    first_law_residuals,
    relative_entropy_to_bath,
    sample_thermodynamics,
    von_neumann_entropy,
)

Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


@contextmanager
def criterion(label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL ({time.perf_counter() - t0:.2f} s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f} s)")
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.2f} s, budget {budget} s"


# ---------------------------------------------------------------------------
# batched trajectory oracles (cross-validated against the public API)
# ---------------------------------------------------------------------------

def _batched_spectral(states, cut=1e-12):
    lam, u = np.linalg.eigh(states)
    lam_max = lam[:, -1]
    safe = np.maximum(lam, 1e-300)
    logs = np.where(lam > cut * lam_max[:, None], np.log(safe), 0.0)
    weights = np.where(lam > cut * lam_max[:, None], lam, 0.0)
    entropy = -np.sum(weights * logs, axis=1)
    log_m = np.einsum("tik,tk,tjk->tij", u, logs, u.conj())
    return entropy, log_m


def _batched_generator(states, bath):
    out = np.zeros_like(states)
    gen = bath.generator
    for k in range(gen.rate_stack.shape[0]):
        a = gen.jump_stack[k]
        jj = a.conj().T @ a
        out += gen.rate_stack[k] * (2.0 * a @ states @ a.conj().T - jj @ states - states @ jj)
    return out


def _batched_log_stationary(states, gibbs=None):
    """log B(rho_t) batched over time: the same log of `gibbs` for every
    state of a thermal bath, whose kernel is one-dimensional, or the log
    of the computational-basis pinching when gibbs is None."""
    if gibbs is not None:
        _, log_g = _batched_spectral(gibbs[None])
        return np.broadcast_to(log_g[0], states.shape)
    # pinching in the computational basis
    diag = np.einsum("tii->ti", states).real
    logs = np.log(np.maximum(diag, 1e-300))
    out = np.zeros_like(states)
    idx = np.arange(states.shape[1])
    out[:, idx, idx] = logs
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_two_level_decoherence_heat():
    with criterion("01 two-level decoherence heat rate", budget=1.0):
        for gamma in np.linspace(0.1, 2.0, 5):
            for e in np.linspace(0.5, 2.0, 5):
                for x in np.linspace(-1.0, 1.0, 5):
                    q = two_level_decoherence_heat(
                        TwoLevelDecoherenceParams(gamma, e, x, 0.0)
                    )
                    assert abs(abs(q) - gamma * e * abs(x)) <= 1e-12
                    if x == 0.0:
                        assert q == 0.0
        # result independent of the z component wherever the state is valid
        for gamma, e, x in ((1.0, 1.0, 0.5), (0.4, 1.7, -0.6), (2.0, 0.5, 0.3)):
            vals = {
                two_level_decoherence_heat(TwoLevelDecoherenceParams(gamma, e, x, z))
                for z in (-0.5, 0.0, 0.5)
            }
            assert len(vals) == 1


def test_02_reciprocal_coefficients():
    with criterion("02 reciprocal transport/decoherence coefficients", budget=5.0):
        rng = np.random.default_rng(42)
        for _ in range(50):
            p = DeviceParams(
                e_l=1.0 + rng.uniform(0.1, 1.5),
                e_r=rng.uniform(0.2, 1.0),
                v=rng.uniform(-1.0, 1.0),
                n_l=rng.uniform(0.05, 2.0),
                n_r=rng.uniform(0.05, 2.0),
                gamma=rng.uniform(0.0, 2.0),
            )
            c = rng.uniform(0.1, 3.0)
            coeffs = reciprocal_coefficients(
                device_hamiltonian(p),
                build_device(p).left,
                device_dephasing_bath(p.gamma),
                c,
            )
            assert abs(coeffs.m_ld - coeffs.m_dl) <= 1e-10
            assert abs(coeffs.m_ld - c * p.gamma * p.n_l * p.v) <= 1e-10


def test_03_linear_response_reciprocity():
    with criterion("03 linear-response reciprocity"):
        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        lr = linear_response(assembly.baths, c=1.0)
        names = [b.name for b in assembly.baths]
        assert len(lr.pairs) == 9
        for b in names:
            for a in names:
                m_ba = lr.pairs[(b, a)].matrix
                m_ab_dag = lr.pairs[(a, b)].adjoint().matrix
                assert np.linalg.norm(m_ba - m_ab_dag) <= 1e-10 * max(
                    np.linalg.norm(m_ba), 1e-30
                )
        # entropy-production double sum: pairing each response map with the
        # conjugate force ordering leaves the sum unchanged
        rng = np.random.default_rng(3)
        for _ in range(20):
            xs = {n: random_hermitian(rng, 3) for n in names}
            s1 = sum(
                hs_inner(lr.pairs[(b, a)].apply(xs[a]), xs[b]).real
                for b in names
                for a in names
            )
            s2 = sum(
                hs_inner(lr.pairs[(b, a)].adjoint().apply(xs[b]), xs[a]).real
                for b in names
                for a in names
            )
            assert abs(s1 - s2) <= 1e-10 * max(abs(s1), 1.0)


def test_04_second_law():
    with criterion("04 second law (entropy production >= 0)"):
        rng = np.random.default_rng(11)
        evaluations = 0
        thermal = thermal_two_level_bath(1.0, 1.0, 1.0)
        deph2 = dephasing_bath(Z_BASIS, 0.7)
        for _ in range(60):
            rho = ginibre_state(rng, 2)
            for bath in (thermal, deph2):
                assert entropy_production(rho, [bath]) >= -1e-9
                evaluations += 1
        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        for _ in range(50):
            rho = ginibre_state(rng, 3)
            assert entropy_production(rho, assembly.baths) >= -1e-9
            evaluations += 1
        for _ in range(50):
            p = DeviceParams(
                e_l=1.0 + rng.uniform(0.1, 1.0),
                e_r=rng.uniform(0.2, 1.0),
                v=rng.uniform(-0.8, 0.8),
                n_l=rng.uniform(0.1, 1.5),
                n_r=rng.uniform(0.1, 1.5),
                gamma=rng.uniform(0.0, 1.5),
            )
            assert device_report(p).entropy_production >= -1e-9
            evaluations += 1
        assert evaluations >= 200


def test_05_relative_entropy_monotonicity():
    with criterion("05 relative-entropy monotonicity"):
        rng = np.random.default_rng(5)
        h0 = np.zeros((2, 2), dtype=complex)

        thermal = thermal_two_level_bath(1.0, 1.0, 1.0)
        gibbs = stationary_map(thermal, np.eye(2, dtype=complex) / 2)
        _, log_g = _batched_spectral(gibbs[None])
        min_rate = float(min(r for r in thermal.generator.rate_stack if r > 0))
        t_final = 20.0 / min_rate
        for _ in range(20):
            rho0 = ginibre_state(rng, 2)
            traj = propagate(rho0, EvolutionSpec(h0, (thermal,), t_max=t_final, dt=0.01))
            s, log_rho = _batched_spectral(traj.states)
            cross = np.einsum("tij,ji->t", traj.states, log_g[0]).real
            r = -s - cross
            # oracle validation at a few points
            for k in (0, len(traj) // 2, len(traj) - 1):
                assert r[k] == pytest.approx(
                    relative_entropy_to_bath(traj.states[k], thermal), abs=1e-10
                )
            assert np.all(np.diff(r) <= 1e-9)
            assert r[-1] < 1e-6

        deph = dephasing_bath(Z_BASIS, 0.7)
        for _ in range(20):
            rho0 = ginibre_state(rng, 2)
            traj = propagate(rho0, EvolutionSpec(h0, (deph,), t_max=10.0, dt=0.01))
            s, _ = _batched_spectral(traj.states)
            diag = np.einsum("tii->ti", traj.states).real
            s_pinched = -np.sum(diag * np.log(np.maximum(diag, 1e-300)), axis=1)
            r = s_pinched - s
            for k in (0, len(traj) - 1):
                assert r[k] == pytest.approx(
                    relative_entropy_to_bath(traj.states[k], deph), abs=1e-10
                )
            assert np.all(np.diff(r) <= 1e-9)


def test_06_first_law():
    with criterion("06 first law along scenario trajectories", budget=3.0):
        # two-level decoherence scenario
        p = TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=0.5, z=0.2)
        h, bath, rho0 = two_level_dephasing_assembly(p)
        spec = EvolutionSpec(h, (bath,), t_max=2.0)
        samples = sample_thermodynamics(propagate(rho0, spec), spec)
        assert np.nanmax(first_law_residuals(samples)) <= 1e-6

        # device trajectories from both canonical starting states
        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        ground = np.zeros((3, 3), dtype=complex)
        ground[0, 0] = 1.0
        for rho0 in (np.eye(3, dtype=complex) / 3.0, ground):
            spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=1.0)
            samples = sample_thermodynamics(propagate(rho0, spec), spec)
            resid = np.nanmax(first_law_residuals(samples))
            assert resid <= 1e-6, f"first-law residual {resid:.3e}"


def test_07_entropy_balance():
    with criterion("07 entropy balance and production rate"):
        rng = np.random.default_rng(7)
        h0 = np.zeros((2, 2), dtype=complex)
        thermal = thermal_two_level_bath(1.0, 1.0, 1.0)
        gibbs = np.diag([1.0, np.exp(-1.0)]).astype(complex) / (1.0 + np.exp(-1.0))
        deph = dephasing_bath(Z_BASIS, 0.7)
        dt = 5e-5
        for bath, image in ((thermal, gibbs), (deph, None)):
            for _ in range(3):
                rho0 = ginibre_state(rng, 2, mix=0.1)
                spec = EvolutionSpec(h0, (bath,), t_max=0.6, dt=dt)
                traj = propagate(rho0, spec)
                s, log_rho = _batched_spectral(traj.states)
                log_b = _batched_log_stationary(traj.states, image)
                flow_t = _batched_generator(traj.states, bath)
                phi = -np.einsum("tij,tji->t", flow_t, log_b).real
                prod = np.einsum("tij,tji->t", flow_t, log_b - log_rho).real
                # validate the batched oracle against the public observables
                for k in (1, len(traj) // 2, len(traj) - 2):
                    assert phi[k] == pytest.approx(
                        entropy_flux(bath, traj.states[k]), abs=1e-11
                    )
                    assert prod[k] == pytest.approx(
                        entropy_production(traj.states[k], [bath]), abs=1e-11
                    )
                    assert s[k] == pytest.approx(
                        von_neumann_entropy(traj.states[k]), abs=1e-11
                    )
                s_dot = (s[2:] - s[:-2]) / (2.0 * dt)
                resid = np.abs(s_dot - phi[1:-1] - prod[1:-1])
                assert resid.max() <= 1e-6, f"balance residual {resid.max():.3e}"

        # production rate against the Richardson-extrapolated decay of the
        # relative entropy along a single-bath relaxation
        rho0 = ginibre_state(rng, 2, mix=0.2)
        dt = 2e-3
        spec = EvolutionSpec(h0, (thermal,), t_max=0.3, dt=dt)
        spec_half = EvolutionSpec(h0, (thermal,), t_max=0.3, dt=dt / 2)
        traj = propagate(rho0, spec)
        traj_half = propagate(rho0, spec_half)
        for k in (20, 60, 120):
            r_c = [relative_entropy_to_bath(traj.states[k + s], thermal) for s in (-1, 1)]
            fd = (r_c[1] - r_c[0]) / (2 * dt)
            r_h = [
                relative_entropy_to_bath(traj_half.states[2 * k + s], thermal)
                for s in (-1, 1)
            ]
            fd_half = (r_h[1] - r_h[0]) / dt
            richardson = (4.0 * fd_half - fd) / 3.0
            p_closed = entropy_production(traj.states[k], [thermal])
            assert abs(p_closed + richardson) <= 1e-5


def test_08_steady_state_correctness():
    with criterion("08 steady-state correctness", budget=10.0):
        presets = [
            DeviceParams(**DEFAULT_DEVICE),
            DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.0),
            DeviceParams(1.2, 0.5, 0.2, 0.3, 0.3, 0.1),
            DeviceParams(2.0, 1.0, 0.8, 1.0, 0.5, 0.5),
            DeviceParams(1.8, 0.9, -0.4, 0.4, 0.6, 0.3),
            DeviceParams(1.1, 0.4, 0.3, 0.15, 0.9, 0.7),
            DeviceParams(1.6, 1.2, 0.5, 0.8, 0.15, 1.0),
            DeviceParams(2.5, 0.7, 0.6, 0.5, 0.4, 0.2),
            DeviceParams(1.4, 0.8, 0.1, 0.25, 0.2, 0.05),
            DeviceParams(1.9, 1.3, 0.7, 1.5, 0.8, 0.9),
        ]
        for p in presets:
            assembly = build_device(p)
            lv = liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths))
            nu = steady_state(lv)
            assert np.linalg.norm(lv.apply(nu)) <= 1e-9
            total_heat = sum(
                float(np.trace(assembly.hamiltonian @ apply_generator(b.generator, nu)).real)
                for b in assembly.baths
            )
            assert abs(total_heat) <= 1e-9
            min_rate = min(
                float(r) for b in assembly.baths for r in b.generator.rate_stack if r > 0
            )
            spec = EvolutionSpec(
                assembly.hamiltonian, assembly.baths, t_max=50.0 / min_rate, dt=0.008
            )
            traj = propagate(np.eye(3, dtype=complex) / 3.0, spec)
            assert trace_distance(traj.states[-1], nu) <= 1e-6


def test_09_strong_dephasing_suppresses_coherence():
    with criterion("09 strong dephasing suppresses steady coherence"):
        base = dict(DEFAULT_DEVICE)
        max_rate = max(1.0 + base["n_l"], base["n_l"], 1.0 + base["n_r"], base["n_r"])
        coh = {}
        for gamma in (0.0, 100.0 * max_rate):
            params = dict(base)
            params["gamma"] = gamma
            rep = device_report(DeviceParams(**params))
            coh[gamma] = abs(rep.coherence)
        assert coh[100.0 * max_rate] < coh[0.0]


def test_10_cli_determinism(tmp_path):
    with criterion("10 deterministic CLI output"):
        cfg = {
            "scenario": "two-level-decoherence",
            "params": {"gamma": 1.0, "e_level": 1.0, "x": 0.5, "z": 0.2},
            "integrator": {"t_max": 0.5},
            "output": {"format": "csv", "path": str(tmp_path / "a.csv")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.run(str(cfg_path)) == 0
        assert cli.run(str(cfg_path), output=str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

        sweep = {
            "scenario": "gamma-sweep",
            "params": {
                "e_l": 1.5, "e_r": 1.0, "v": 0.4, "n_l": 0.6, "n_r": 0.2,
                "gammas": [0.0, 0.3, 1.0, 3.0],
            },
            "output": {"format": "csv", "path": str(tmp_path / "s1.csv")},
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert cli.run(str(sweep_path)) == 0
        assert cli.run(str(sweep_path), output=str(tmp_path / "s2.csv")) == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
