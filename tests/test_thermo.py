"""Energy/heat bookkeeping, entropies, fluxes, entropy production."""

import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    SX,
    SZ,
    count_generator_builds,
    count_structure_passes,
    ginibre_state,
    random_complex,
)

import decotherm
from decotherm import thermo
from decotherm.baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    PropagateToFixedPoint,
    dephasing_bath,
    left_pump_bath,
    stationary_map,
    stationary_structure,
    thermal_two_level_bath,
)
from decotherm.dynamics import EvolutionSpec, default_timestep, liouvillian, propagate
from decotherm.operators import assert_density_matrix
from decotherm.errors import (
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
    NonRealPairing,
    NotHermitian,
    SupportViolation,
)
from decotherm.onsager import (
    flow,
    force,
    force_flow_pairs,
    force_parameters,
    ness_entropy_production,
    reciprocal_coefficients,
)
from decotherm.scenarios import (
    DEFAULT_DEVICE,
    DeviceParams,
    TwoLevelDecoherenceParams,
    bloch_state,
    build_device,
    two_level_dephasing_assembly,
    two_level_hamiltonian,
)
from decotherm.thermo import (
    ThermoSample,
    energy,
    entropy_balance_residuals,
    entropy_flux,
    entropy_production,
    first_law_residuals,
    heat_rate,
    relative_entropy_to_bath,
    sample_thermodynamics,
    von_neumann_entropy,
    work_rate,
)

Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


class TestEnergyAndWork:
    def test_sigma_z_on_mixed(self):
        assert energy(SZ, np.eye(2, dtype=complex) / 2) == pytest.approx(0.0, abs=1e-15)

    def test_projector_hamiltonian(self):
        # H = E|E><E| with |E> = (|0>+|1>)/sqrt(2) on rho = (I + x sx)/2
        e, x = 1.7, 0.4
        h = two_level_hamiltonian(e)
        rho = bloch_state(x)
        assert energy(h, rho) == pytest.approx(e * (1 + x) / 2, rel=1e-12)

    def test_diagonal_dot_product(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert energy(h, rho) == pytest.approx(0.7, rel=1e-14)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            energy(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2, dtype=complex) / 2)

    def test_work_rate_static_is_zero(self):
        assert work_rate(np.zeros((2, 2), dtype=complex), bloch_state(0.3)) == 0.0

    def test_work_rate_pauli_trace(self):
        x = 0.35
        assert work_rate(SX, bloch_state(x)) == pytest.approx(x, rel=1e-12)


class TestHeatRate:
    def test_commuting_case_is_zero(self, rng):
        bath = dephasing_bath(Z_BASIS, gamma=1.3)
        h = np.diag([0.2, 1.4]).astype(complex)  # diagonal in the preferred basis
        for _ in range(5):
            assert heat_rate(h, bath, ginibre_state(rng, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_two_level_magnitude(self):
        gamma, e, x = 1.0, 1.0, 0.5
        bath = dephasing_bath(Z_BASIS, gamma)
        h = two_level_hamiltonian(e)
        for z in (-0.5, 0.0, 0.5):
            q = heat_rate(h, bath, bloch_state(x, 0.0, z))
            assert abs(q) == pytest.approx(gamma * e * abs(x), rel=1e-12)
            # sign fixed by the brute-force oracle with Hermitian sigma_x
            assert q == pytest.approx(-gamma * e * x, rel=1e-12)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(bloch_state(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(np.log(2.0))

    def test_two_thirds(self):
        rho = np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)
        expected = np.log(3.0) - (2.0 / 3.0) * np.log(2.0)
        assert von_neumann_entropy(rho) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.6365, abs=5e-5)


class TestRelativeEntropy:
    def test_zero_at_equilibrium_both_baths(self, rng):
        deph = dephasing_bath(Z_BASIS, 1.0)
        eta = np.diag([0.3, 0.7]).astype(complex)
        assert relative_entropy_to_bath(eta, deph) == pytest.approx(0.0, abs=1e-12)
        therm = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = stationary_map(therm, eta)
        assert relative_entropy_to_bath(g, therm) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_costs_ln2(self):
        deph = dephasing_bath(Z_BASIS, 1.0)
        plus = bloch_state(1.0)
        assert relative_entropy_to_bath(plus, deph) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_ground_vs_finite_temperature(self):
        # Gibbs = diag(2/3, 1/3): R(ground) = -ln(2/3)
        bath = thermal_two_level_bath(1.0, np.log(2.0), 1.0)
        ground = np.diag([1.0, 0.0]).astype(complex)
        assert relative_entropy_to_bath(ground, bath) == pytest.approx(-np.log(2.0 / 3.0), rel=1e-12)
        assert -np.log(2.0 / 3.0) == pytest.approx(0.4055, abs=5e-5)

    def test_infinity_sentinel_outside_support(self):
        # effectively zero temperature: stationary state is the ground projector
        bath = thermal_two_level_bath(1.0, 900.0, 1.0)
        excited = np.diag([0.0, 1.0]).astype(complex)
        assert relative_entropy_to_bath(excited, bath) == math.inf

    def test_zero_iff_stationary(self, rng):
        bath = dephasing_bath(Z_BASIS, 0.8)
        for _ in range(10):
            rho = ginibre_state(rng, 2)
            r = relative_entropy_to_bath(rho, bath)
            fixed = np.max(np.abs(stationary_map(bath, rho) - rho)) < 1e-8
            assert (r < 1e-12) == fixed


class TestEntropyFlux:
    def test_zero_at_stationary_state(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert entropy_flux(bath, g) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_flux_is_beta_times_heat(self, rng):
        e, beta = 1.3, 0.9
        bath = thermal_two_level_bath(e, beta, 1.1)
        h = np.diag([0.0, e]).astype(complex)
        for _ in range(10):
            rho = ginibre_state(rng, 2)
            assert entropy_flux(bath, rho) == pytest.approx(
                beta * heat_rate(h, bath, rho), rel=1e-10, abs=1e-12
            )

    def test_dephasing_flux_vanishes(self, rng):
        # L_d(rho) has zero diagonal while log B_d(rho) is diagonal
        bath = dephasing_bath(Z_BASIS, 1.0)
        for _ in range(5):
            assert entropy_flux(bath, ginibre_state(rng, 2)) == pytest.approx(0.0, abs=1e-13)

    def test_support_violation_raises(self):
        bath = thermal_two_level_bath(1.0, 900.0, 1.0)
        with pytest.raises(SupportViolation):
            entropy_flux(bath, np.eye(2, dtype=complex) / 2)


class TestEntropyProduction:
    def test_zero_at_equilibrium(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert entropy_production(g, [bath]) == pytest.approx(0.0, abs=1e-12)

    def test_second_law_random(self, rng):
        baths2 = [thermal_two_level_bath(1.0, 1.0, 1.0), dephasing_bath(Z_BASIS, 0.7)]
        for _ in range(25):
            rho = ginibre_state(rng, 2)
            assert entropy_production(rho, baths2) >= -1e-9

    def test_matches_finite_difference_of_relative_entropy(self, rng):
        # single thermal bath, H = 0: P = -dR/dt, Richardson-extrapolated
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        rho0 = ginibre_state(rng, 2, mix=0.2)
        dt = 2e-3
        spec = EvolutionSpec(np.zeros((2, 2), dtype=complex), (bath,), t_max=20 * dt, dt=dt)
        spec_half = EvolutionSpec(np.zeros((2, 2), dtype=complex), (bath,), t_max=20 * dt, dt=dt / 2)
        traj = propagate(rho0, spec)
        traj_half = propagate(rho0, spec_half)
        k = 5
        r = [relative_entropy_to_bath(traj.states[k + s], bath) for s in (-1, 1)]
        fd = (r[1] - r[0]) / (2 * dt)
        rh = [relative_entropy_to_bath(traj_half.states[2 * k + s], bath) for s in (-1, 1)]
        fd_half = (rh[1] - rh[0]) / dt
        richardson = (4.0 * fd_half - fd) / 3.0
        p = entropy_production(traj.states[k], [bath])
        assert p == pytest.approx(-richardson, abs=1e-8)

    def test_balance_identity(self, rng):
        # dS/dt = sum Phi + P, with dS/dt = -Tr[L(rho) log rho]
        from conftest import log_on_support

        from decotherm.baths import apply_generator

        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        for _ in range(10):
            rho = ginibre_state(rng, 2, mix=0.1)
            sdot = -np.trace(
                apply_generator(bath.generator, rho) @ log_on_support(rho)
            ).real
            lhs = entropy_production(rho, [bath])
            rhs = sdot - entropy_flux(bath, rho)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_no_baths_produce_nothing(self, rng):
        p = entropy_production(ginibre_state(rng, 3), [])
        assert p == 0.0 and type(p) is float


#: the callers of thermo._state_terms, the one one-state entry
STATE_TERMS_CALLERS = {
    "entropy_production": lambda baths, rho: entropy_production(rho, baths),
    "entropy_flux": lambda baths, rho: entropy_flux(baths[0], rho),
    "relative_entropy_to_bath": lambda baths, rho: relative_entropy_to_bath(rho, baths[0]),
    "force_flow_pairs": lambda baths, rho: force_flow_pairs(baths, rho),
}


@pytest.mark.parametrize("caller", STATE_TERMS_CALLERS)
def test_one_generator_build_per_scalar_call(monkeypatch, rng, caller):
    # one build serves the structure pass and the flows, whether or not the
    # structures are cached already
    from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

    baths = build_device(DeviceParams(**DEFAULT_DEVICE)).baths
    used = baths if caller in ("entropy_production", "force_flow_pairs") else baths[:1]
    rho = ginibre_state(rng, 3)
    builds = count_generator_builds(monkeypatch)
    for _ in range(2):
        builds.clear()
        STATE_TERMS_CALLERS[caller](baths, rho)
        assert [list(map(id, gens)) for gens in builds] == [[id(b.generator) for b in used]]


@pytest.mark.parametrize("call", [
    lambda bath, rho: heat_rate(np.zeros((2, 2), dtype=complex), bath, rho),
    lambda bath, rho: flow(bath, rho),
    lambda bath, rho: force(bath, rho),
    lambda bath, rho: entropy_production(rho, [bath]),
    lambda bath, rho: relative_entropy_to_bath(rho, bath),
    lambda bath, rho: entropy_flux(bath, rho),
], ids=["heat_rate", "flow", "force", "entropy_production", "relative_entropy_to_bath",
        "entropy_flux"])
def test_state_of_another_dimension_than_the_bath(call):
    with pytest.raises(DimensionMismatch):
        call(left_pump_bath(0.6), np.eye(2, dtype=complex) / 2)


class TestSampleThermodynamics:
    def test_unitary_only(self):
        spec = EvolutionSpec(SZ.copy(), (), t_max=1.0, dt=0.01)
        traj = propagate(bloch_state(0.6, 0.0, 0.2), spec)
        samples = sample_thermodynamics(traj, spec)
        es = np.array([s.energy for s in samples])
        assert np.max(np.abs(es - es[0])) < 1e-10
        assert all(s.heat_rates == {} for s in samples)
        assert all(s.work_rate == 0.0 for s in samples)

    def test_dephasing_heat_decay(self):
        gamma, e, x0 = 1.0, 1.0, 0.5
        bath = dephasing_bath(Z_BASIS, gamma)
        spec = EvolutionSpec(two_level_hamiltonian(e), (bath,), t_max=2.0)
        traj = propagate(bloch_state(x0, 0.0, 0.2), spec)
        samples = sample_thermodynamics(traj, spec)
        q = np.array([s.heat_rates[bath.name] for s in samples])
        expected = gamma * e * abs(x0) * np.exp(-2.0 * gamma * traj.times)
        assert np.max(np.abs(np.abs(q) - expected)) < 1e-9

    def test_first_law_residuals_interior(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        spec = EvolutionSpec(np.diag([0.0, 1.0]).astype(complex), (bath,), t_max=2.0)
        traj = propagate(bloch_state(0.4, 0.0, -0.3), spec)
        samples = sample_thermodynamics(traj, spec)
        resid = first_law_residuals(samples)
        assert np.isnan(resid[0]) and np.isnan(resid[-1])
        assert np.nanmax(resid) < 1e-6

    def test_entropy_production_nonnegative_along_device_run(self, rng):
        from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.8)
        traj = propagate(ginibre_state(rng, 3), spec)
        samples = sample_thermodynamics(traj, spec)
        ps = np.array([s.entropy_production for s in samples])
        assert np.all(ps >= -1e-9)

    def test_entropy_production_nonnegative_twenty_initial_states(self, rng):
        from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.15, dt=2e-3)
        for _ in range(20):
            traj = propagate(ginibre_state(rng, 3), spec)
            samples = sample_thermodynamics(traj, spec)
            assert all(s.entropy_production >= -1e-9 for s in samples)

    def test_generator_built_once_per_bath(self, monkeypatch):
        from decotherm import baths
        from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.4, dt=1e-4)
        traj = propagate(np.eye(3, dtype=complex) / 3, spec)
        assert len(traj) > 2 * (thermo._BLOCK_ENTRIES // 9)  # three blocks
        for bath in assembly.baths:
            stationary_structure(bath)  # cached on the bath, built outside the count
        builds = count_generator_builds(monkeypatch)
        sample_thermodynamics(traj, spec)
        built = [g for gens in builds for g in gens]
        assert sorted(map(id, built)) == sorted(id(b.generator) for b in assembly.baths)

    def test_one_structure_pass_per_call(self, monkeypatch, rng):
        from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

        passes = count_structure_passes(monkeypatch)
        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        rho = ginibre_state(rng, 3)
        entropy_production(rho, assembly.baths)  # through thermo._state_terms
        assert passes == [3]
        entropy_production(rho, assembly.baths)
        entropy_flux(assembly.left, rho)
        relative_entropy_to_bath(rho, assembly.dephasing)
        force_flow_pairs(assembly.baths, rho)
        assert passes == [3]  # every bath cached: no pass at all
        force_flow_pairs(build_device(DeviceParams(**DEFAULT_DEVICE)).baths, rho)
        assert passes == [3, 3]

        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.4, dt=1e-4)
        traj = propagate(np.eye(3, dtype=complex) / 3, spec)
        assert len(traj) > 2 * (thermo._BLOCK_ENTRIES // 9)  # three blocks
        assert passes == [3, 3]
        sample_thermodynamics(traj, spec)
        assert passes == [3, 3, 3]
        sample_thermodynamics(traj, spec)
        assert passes == [3, 3, 3]

    def test_spec_of_another_dimension_than_the_states(self):
        from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        traj = propagate(np.eye(3, dtype=complex) / 3,
                         EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.1))
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        spec = EvolutionSpec(two_level_hamiltonian(1.0), (bath,), t_max=0.1)
        with pytest.raises(DimensionMismatch, match="spec dim 2 does not match trajectory dim 3"):
            sample_thermodynamics(traj, spec)

    def test_support_violation_flagged_not_fatal(self):
        bath = thermal_two_level_bath(1.0, 900.0, 1.0)
        spec = EvolutionSpec(np.diag([0.0, 1.0]).astype(complex), (bath,), t_max=0.05, dt=0.01)
        traj = propagate(np.eye(2, dtype=complex) / 2, spec)
        samples = sample_thermodynamics(traj, spec)
        assert not samples[0].support_ok
        assert math.isnan(samples[0].entropy_flux[bath.name])
        assert samples[0].relative_entropies[bath.name] == math.inf

    def test_schedule_work_at_switch(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        h1 = two_level_hamiltonian(1.0)
        dt = 0.01
        spec = EvolutionSpec([(0.0, h0), (0.5, h1)], (), t_max=1.0, dt=dt)
        rho0 = bloch_state(0.3, 0.0, 0.5)
        traj = propagate(rho0, spec)
        samples = sample_thermodynamics(traj, spec)
        k = int(round(0.5 / dt))
        rho_k = traj.states[k]
        expected = np.trace((h1 - h0) @ rho_k).real / dt
        assert samples[k].work_rate == pytest.approx(expected, rel=1e-12)
        interior = [s.work_rate for i, s in enumerate(samples) if i != k]
        assert all(w == 0.0 for w in interior)

    def test_first_law_across_off_grid_switch(self):
        # the switch rounds down to the grid (500.04 steps); the work impulse
        # belongs at the first grid point after it, where H changes
        h, bath, rho0 = two_level_dephasing_assembly(
            TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=0.5, z=0.2)
        )
        spec = EvolutionSpec([(0.0, h), (0.50004, 2.0 * h)], (bath,), t_max=1.0, dt=1e-3)
        samples = sample_thermodynamics(propagate(rho0, spec), spec)
        assert [k for k, s in enumerate(samples) if s.work_rate != 0.0] == [501]
        assert np.nanmax(first_law_residuals(samples)) <= 1e-6


def _random_d16_run(seed=16):
    """Random d = 16 model with switches off the grid, sampled over several
    blocks of the sampler."""
    rng = np.random.default_rng(seed)
    d = 16

    def hamiltonian():
        a = random_complex(rng, d)
        h = 0.5 * (a + a.conj().T)
        return h / np.linalg.norm(h, 2)

    baths = [
        Bath(name, LindbladGenerator(d, tuple(
            JumpTerm(r, random_complex(rng, d) / d) for r in rng.uniform(0.1, 1.0, 3))))
        for name in ("hot", "cold")
    ]
    basis, _ = np.linalg.qr(random_complex(rng, d))
    baths.append(dephasing_bath([basis[:, j] for j in range(d)], 0.05))
    dt = 1e-3
    schedule = [(0.0, hamiltonian()), (70.4 * dt, hamiltonian()), (151.7 * dt, hamiltonian())]
    spec = EvolutionSpec(schedule, tuple(baths), t_max=200 * dt, dt=dt)
    return propagate(ginibre_state(rng, d, mix=0.1), spec), spec


def _thermal_run():
    bath = thermal_two_level_bath(1.0, 1.0, 1.0)
    spec = EvolutionSpec(np.diag([0.0, 1.0]).astype(complex), (bath,), t_max=10.0, dt=1e-3)
    return propagate(bloch_state(0.3, 0.0, 0.5), spec), spec


def _device_run():
    from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

    assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
    spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.1)
    return propagate(np.eye(3, dtype=complex) / 3.0, spec), spec


def _two_level_run():
    h, bath, rho0 = two_level_dephasing_assembly(
        TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=0.5, z=0.2)
    )
    spec = EvolutionSpec(h, (bath,), t_max=0.3)
    return propagate(rho0, spec), spec


def _two_level_config_run():
    """The committed two-level trajectory config, run as `decotherm run` does."""
    from decotherm import cli

    cfg = cli.load_config(str(Path(__file__).parents[1] / "configs" / "two_level_trajectory.json"))
    h, bath, rho0 = two_level_dephasing_assembly(TwoLevelDecoherenceParams(**cfg.params))
    spec = EvolutionSpec(h, (bath,), t_max=cfg.integrator["t_max"], dt=cfg.integrator.get("dt"))
    return propagate(rho0, spec), spec


class TestEntropyBalanceResiduals:
    def test_two_level_trajectory_config(self):
        traj, spec = _two_level_config_run()
        samples = sample_thermodynamics(traj, spec)
        resid = entropy_balance_residuals(samples)
        assert resid.shape == (len(samples),)
        assert np.isnan(resid[0]) and np.isnan(resid[-1]) and not np.isnan(resid[1:-1]).any()
        assert np.max(resid[1:-1]) <= 1e-6
        # dS/dt by numpy's centered differences, against sum_b Phi_b + P
        rate = sum(samples.entropy_flux.values()) + samples.entropy_production
        oracle = np.abs(np.gradient(samples.entropy, traj.dt) - rate)
        assert np.max(np.abs(resid[1:-1] - oracle[1:-1])) <= 1e-12

    @pytest.mark.parametrize("run", [_two_level_config_run, _random_d16_run],
                             ids=["two-level-config", "random-d16-switches"])
    def test_nan_where_first_law_is_nan(self, run):
        traj, spec = run()
        samples = sample_thermodynamics(traj, spec)
        balance, first_law = entropy_balance_residuals(samples), first_law_residuals(samples)
        assert np.array_equal(np.isnan(balance), np.isnan(first_law))
        if spec.is_schedule:
            assert np.isnan(first_law[1:-1]).sum() >= 2 * (len(spec.segments) - 1)

    def test_fewer_than_three_points_are_nan(self):
        traj, spec = _two_level_config_run()
        short = thermo.ThermoSamples(*(
            {k: v[:2] for k, v in col.items()} if isinstance(col, dict) else col[:2]
            for col in vars(sample_thermodynamics(traj, spec)).values()))
        assert np.isnan(entropy_balance_residuals(short)).all()


class TestSamplerColumns:
    """The columns of the blocked sampler against the scalar observables."""

    @pytest.mark.parametrize("run", [_device_run, _two_level_run, _random_d16_run],
                             ids=["device", "two-level", "random-d16"])
    def test_columns_match_scalar_functions(self, run):
        traj, spec = run()
        samples = sample_thermodynamics(traj, spec)
        segs = spec.segments
        starts = [t for t, _ in segs]
        ref = {"energy": [], "entropy": [], "entropy_production": []}
        for b in spec.baths:
            ref[f"heat_{b.name}"], ref[f"flux_{b.name}"], ref[f"rel_{b.name}"] = [], [], []
        for t, rho in zip(traj.times, traj.states):
            h = segs[np.searchsorted(starts, t + 1e-15, side="right") - 1][1]
            ref["energy"].append(energy(h, rho))
            ref["entropy"].append(von_neumann_entropy(rho))
            ref["entropy_production"].append(entropy_production(rho, spec.baths))
            for b in spec.baths:
                ref[f"heat_{b.name}"].append(heat_rate(h, b, rho))
                ref[f"flux_{b.name}"].append(entropy_flux(b, rho))
                ref[f"rel_{b.name}"].append(relative_entropy_to_bath(rho, b))
        got = {"energy": samples.energy, "entropy": samples.entropy,
               "entropy_production": samples.entropy_production}
        for b in spec.baths:
            got[f"heat_{b.name}"] = samples.heat_rates[b.name]
            got[f"flux_{b.name}"] = samples.entropy_flux[b.name]
            got[f"rel_{b.name}"] = samples.relative_entropies[b.name]
        if spec.dim == 16:
            assert len(traj) > 3 * (thermo._BLOCK_ENTRIES // 16**2)
        assert samples.support_ok.all()
        # relative to the scale of the observables along the run
        scale = max(np.max(np.abs(v)) for v in ref.values())
        for name, values in ref.items():
            dev = np.max(np.abs(got[name] - np.array(values)))
            assert dev <= 1e-12 * scale, f"{name}: {dev:.3e}"

    def test_switch_at_block_start_gets_one_impulse(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        h1 = two_level_hamiltonian(1.0)
        h2 = 2.0 * h0
        dt = 1e-3
        block = thermo._BLOCK_ENTRIES // 4
        # off the grid, rounding up to the first point of block 1; on the
        # grid at the first point of block 2
        schedule = [(0.0, h0), ((block - 0.4) * dt, h1), (2 * block * dt, h2)]
        spec = EvolutionSpec(schedule, (), t_max=(2 * block + 10) * dt, dt=dt)
        traj = propagate(bloch_state(0.3, 0.0, 0.5), spec)
        samples = sample_thermodynamics(traj, spec)
        assert list(np.flatnonzero(samples.work_rate)) == [block, 2 * block]
        for k, (h_new, h_old) in ((block, (h1, h0)), (2 * block, (h2, h1))):
            expected = np.trace((h_new - h_old) @ traj.states[k]).real / dt
            assert samples.work_rate[k] == pytest.approx(expected, rel=1e-12)

    def test_support_mask_is_per_point(self):
        # a cold bath whose Gibbs image is the ground projector: clean while
        # the state sits in the ground state, off the support once a drive
        # switched on at t = 0.05 lifts some population
        bath = thermal_two_level_bath(1.0, 900.0, 0.1)
        schedule = [(0.0, np.diag([0.0, 1.0]).astype(complex)), (0.05, SX.copy())]
        spec = EvolutionSpec(schedule, (bath,), t_max=0.1, dt=0.01)
        traj = propagate(np.diag([1.0, 0.0]).astype(complex), spec)
        samples = sample_thermodynamics(traj, spec)
        expected = [relative_entropy_to_bath(rho, bath) != math.inf for rho in traj.states]
        assert list(samples.support_ok) == expected
        assert any(expected) and not all(expected)
        bad = ~samples.support_ok
        assert np.all(np.isnan(samples.entropy_flux[bath.name][bad]))
        assert np.all(np.isnan(samples.entropy_production[bad]))
        assert np.all(samples.relative_entropies[bath.name][bad] == math.inf)
        good = samples.support_ok
        assert np.all(np.isfinite(samples.entropy_flux[bath.name][good]))
        assert np.all(np.isfinite(samples.entropy_production[good]))

    def test_fixed_point_residual_failure_raises(self, rng):
        # the sampler checks each stationary state of the bath's structure
        # once; a generic bath's carries rounding, so tol = 0 rejects it
        gen = LindbladGenerator(4, tuple(JumpTerm(1.0, random_complex(rng, 4)) for _ in range(2)))
        strangled = Bath("generic", gen, PropagateToFixedPoint(tol=0.0))
        spec = EvolutionSpec(np.zeros((4, 4), dtype=complex), (strangled,), t_max=0.05, dt=0.01)
        traj = propagate(ginibre_state(rng, 4), spec)
        with pytest.raises(NoConvergence):
            sample_thermodynamics(traj, spec)

    @pytest.mark.parametrize("run", [_thermal_run, _random_d16_run], ids=["thermal", "random-d16"])
    def test_structured_baths_need_no_eigensolve_per_image(self, run, monkeypatch):
        # one stacked eigh per block, of the states; the images' logs come
        # from each bath's cached structure
        traj, spec = run()
        for bath in spec.baths:
            assert stationary_structure(bath).blocks is not None
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        sample_thermodynamics(traj, spec)
        d = spec.dim
        block = thermo._BLOCK_ENTRIES // (d * d)
        assert len(calls) == -(-len(traj) // block)
        assert all(shape[-2:] == (d, d) for shape in calls)

    def test_point_views(self):
        traj, spec = _two_level_run()
        samples = sample_thermodynamics(traj, spec)
        n = len(samples)
        assert n == len(traj)
        last = samples[-1]
        assert isinstance(last, ThermoSample)
        assert last.t == traj.times[-1] and last.support_ok
        assert last.heat_rates == {"dephasing": samples.heat_rates["dephasing"][n - 1]}
        views = list(samples)
        assert len(views) == n
        assert [v.energy for v in views] == list(samples.energy)
        with pytest.raises(IndexError):
            samples[n]


def test_sample_invariant_bounds(rng):
    from decotherm.scenarios import DEFAULT_DEVICE, DeviceParams, build_device

    assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
    spec = EvolutionSpec(assembly.hamiltonian, assembly.baths, t_max=0.5)
    samples = sample_thermodynamics(propagate(ginibre_state(rng, 3), spec), spec)
    ln_d = np.log(3.0)
    for s in samples:
        assert -1e-12 <= s.entropy <= ln_d + 1e-12
        assert s.entropy_production >= -1e-9
        assert all(r >= -1e-10 for r in s.relative_entropies.values())


class TestSamplerPairingCheck:
    """The trajectory's P pairing passes the NonRealPairing check of the
    scalar functions: an imaginary part above IMAG_TOL at a point raises."""

    @staticmethod
    def shift_pairing(monkeypatch, imag, n_baths):
        # each bath's pairing picks up i*imag/n_baths, each point's sum i*imag
        real = thermo._bath_terms

        def shifted(baths, gens, rho, log_rho):
            terms = real(baths, gens, rho, log_rho)
            return terms._replace(pairing=terms.pairing + 1j * imag / n_baths)

        monkeypatch.setattr(thermo, "_bath_terms", shifted)

    @pytest.mark.parametrize("ratio, raises", [(0.5, False), (2.0, True)])
    def test_sampler_bound(self, monkeypatch, ratio, raises):
        traj, spec = _device_run()
        expected = sample_thermodynamics(traj, spec).entropy_production
        self.shift_pairing(monkeypatch, ratio * thermo.IMAG_TOL, len(spec.baths))
        if raises:
            with pytest.raises(NonRealPairing):
                sample_thermodynamics(traj, spec)
        else:
            got = sample_thermodynamics(traj, spec).entropy_production
            assert np.array_equal(got, expected)

    def test_trajectory_run_exits_3(self, monkeypatch, tmp_path, capsys):
        from decotherm import cli
        from decotherm.scenarios import DEFAULT_DEVICE

        self.shift_pairing(monkeypatch, 2.0 * thermo.IMAG_TOL, 3)
        path = tmp_path / "trajectory.json"
        path.write_text(json.dumps({
            "scenario": "device-trajectory",
            "params": {**DEFAULT_DEVICE, "initial_state": "maximally-mixed"},
            "integrator": {"t_max": 0.1},
            "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
        }))
        assert cli.run(str(path)) == 3
        assert "numerical failure in entropy_production" in capsys.readouterr().err


def _poisoned(value):
    """The maximally mixed qubit with one entry replaced by value."""
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = value
    return rho


def _device_block(x):
    """x in the |L>, |R> block of a 3x3 device operator, zero elsewhere."""
    out = np.zeros((3, 3), dtype=complex)
    out[1:, 1:] = x
    return out


_BATH = dephasing_bath(Z_BASIS, 0.7)
_H = two_level_hamiltonian(1.0)
_TRAJ = EvolutionSpec(two_level_hamiltonian(1.0), (_BATH,), t_max=0.1, dt=0.01)
_DEVICE = build_device(DeviceParams(**DEFAULT_DEVICE))
#: each call with the non-finite matrix x in the place of a state or a Hamiltonian
NON_FINITE_CALLS = {
    "assert_density_matrix": lambda x: assert_density_matrix(x),
    "propagate": lambda x: propagate(x, _TRAJ),
    "von_neumann_entropy": lambda x: von_neumann_entropy(x),
    "heat_rate_state": lambda x: heat_rate(_H, _BATH, x),
    "heat_rate_hamiltonian": lambda x: heat_rate(x, _BATH, np.eye(2, dtype=complex) / 2),
    "relative_entropy_to_bath": lambda x: relative_entropy_to_bath(x, _BATH),
    "entropy_production": lambda x: entropy_production(x, [_BATH]),
    "entropy_flux": lambda x: entropy_flux(_BATH, x),
    "force_flow_pairs": lambda x: force_flow_pairs([_BATH], x),
    "stationary_map": lambda x: stationary_map(_BATH, x),
    "energy_state": lambda x: energy(_H, x),
    "energy_hamiltonian": lambda x: energy(x, np.eye(2, dtype=complex) / 2),
    "work_rate_state": lambda x: work_rate(_H, x),
    "work_rate_hamiltonian": lambda x: work_rate(x, np.eye(2, dtype=complex) / 2),
    "flow": lambda x: flow(_DEVICE.left, _device_block(x)),
    "force": lambda x: force(_DEVICE.left, _device_block(x)),
    "ness_entropy_production": lambda x: ness_entropy_production(_DEVICE.baths, _device_block(x)),
    "force_parameters": lambda x: force_parameters(_device_block(x)),
    "reciprocal_coefficients": lambda x: reciprocal_coefficients(
        _device_block(x), _DEVICE.left, _DEVICE.dephasing),
    "liouvillian": lambda x: liouvillian(EvolutionSpec(_device_block(x), _DEVICE.baths)),
    "default_timestep": lambda x: default_timestep(_device_block(x), _DEVICE.baths),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_input_is_refused(call, value):
    # every comparison with NaN is false, so no tolerance check downstream
    # catches it: the one shared check refuses it before any numerics
    with pytest.raises(InvalidParams, match="non-finite entry"):
        NON_FINITE_CALLS[call](_poisoned(value))


def test_every_state_or_hamiltonian_entry_point_is_in_the_table():
    # an entry "<function>", "<function>_state" or "<function>_hamiltonian"
    # covers the public function
    covered = {re.sub("_(state|hamiltonian)$", "", call) for call in NON_FINITE_CALLS}
    gated = {"rho", "rho0", "nu", "h", "h_dot", "hamiltonian"}
    missing = [
        name for name, obj in vars(decotherm).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and gated & set(inspect.signature(obj).parameters) and name not in covered
    ]
    assert not missing


#: each call with the error class its argument gate raises (a NaN argument
#: is a NON_FINITE_CALLS entry)
REFUSED_CALLS = {
    "reciprocal_coefficients_triangular": (NotHermitian, lambda: reciprocal_coefficients(
        np.triu(np.ones((3, 3))), _DEVICE.left, _DEVICE.dephasing)),
    "reciprocal_coefficients_two_level": (DimensionMismatch, lambda: reciprocal_coefficients(
        _H, _BATH, _BATH)),
    "von_neumann_entropy_non_square": (DimensionMismatch, lambda: von_neumann_entropy(np.eye(3)[:2])),
    "empty_schedule_dim": (InvalidParams, lambda: EvolutionSpec([], _DEVICE.baths, t_max=1.0).dim),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", REFUSED_CALLS)
def test_argument_refused_at_its_gate(call):
    error, thunk = REFUSED_CALLS[call]
    with pytest.raises(error):
        thunk()
