"""Propagation, Liouvillian assembly, steady states."""

import warnings

import numpy as np
import pytest
from conftest import (
    SX,
    SY,
    SZ,
    count_generator_builds,
    ginibre_state,
    random_complex,
    random_hermitian,
    superop_from_action,
    trace_distance,
    unitary_evolution_oracle,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decotherm import dynamics
from decotherm.baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    apply_generator,
    dephasing_bath,
    generator_superop,
    stationary_map,
    thermal_two_level_bath,
)
from decotherm.dynamics import (
    EvolutionSpec,
    _expm,
    _expm_action,
    default_timestep,
    liouvillian,
    propagate,
    steady_state,
)
from decotherm.errors import (
    DegenerateKernel,
    InvalidParams,
    NoConvergence,
    NonPositiveSolution,
)
from decotherm.operators import (
    SuperOperator,
    _herm_coords,
    _herm_operators,
    _real_form,
    assert_density_matrix,
)
from decotherm.scenarios import (
    DEFAULT_DEVICE,
    DeviceParams,
    TwoLevelDecoherenceParams,
    bloch_state,
    build_device,
    device_report,
    two_level_dephasing_assembly,
)

Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def device_spec(**overrides):
    params = dict(DEFAULT_DEVICE)
    params.update(overrides)
    assembly = build_device(DeviceParams(**params))
    return EvolutionSpec(assembly.hamiltonian, assembly.baths)


class TestLiouvillian:
    def test_zero(self):
        spec = EvolutionSpec(np.zeros((2, 2), dtype=complex), ())
        assert np.allclose(liouvillian(spec).matrix, 0.0, atol=0)

    def test_commutator_by_hand(self):
        spec = EvolutionSpec(0.5 * SZ, ())
        out = liouvillian(spec).apply(SX)
        assert np.max(np.abs(out - SY)) < 1e-14

    @staticmethod
    def oracle(spec):
        h = spec.hamiltonian

        def action(a):
            out = -1j * (h @ a - a @ h)
            for b in spec.baths:
                out = out + apply_generator(b.generator, a)
            return out

        return superop_from_action(spec.dim, action).matrix

    def test_device_bit_identical_to_oracle(self, rng):
        # the parameter ranges of the steady_sweep benchmark workload
        for k in range(100):
            e_r = rng.uniform(0.5, 1.5)
            n_l, n_r = 10.0 ** rng.uniform(-12.0, 6.0, 2)
            gamma = 0.0 if k % 4 == 0 else 10.0 ** rng.uniform(-2.0, 2.0)
            p = DeviceParams(e_r + rng.uniform(0.1, 1.0), e_r, rng.uniform(0.05, 1.0), n_l, n_r, gamma)
            assembly = build_device(p)
            spec = EvolutionSpec(assembly.hamiltonian, assembly.baths)
            assert np.array_equal(liouvillian(spec).matrix, self.oracle(spec))

    def test_random_d16_matches_oracle(self, rng):
        d = 16
        gen = LindbladGenerator(
            d, tuple(JumpTerm(r, random_complex(rng, d)) for r in rng.uniform(0.1, 2.0, 6))
        )
        spec = EvolutionSpec(random_hermitian(rng, d), (Bath("b", gen),))
        ref = self.oracle(spec)
        err = np.linalg.norm(liouvillian(spec).matrix - ref) / np.linalg.norm(ref)
        assert err <= 1e-14

    def test_device_kernel_is_one_dimensional(self):
        lv = liouvillian(device_spec())
        ev = np.sort(np.abs(np.linalg.eigvals(lv.matrix)))
        assert ev[0] < 1e-12
        assert ev[1] > 1e-3

    def test_bath_dimension_mismatch(self):
        spec = EvolutionSpec(SZ.copy(), (thermal_two_level_bath(1.0, 1.0, 1.0),))
        bad = EvolutionSpec(np.eye(3, dtype=complex), spec.baths)
        with pytest.raises(InvalidParams):
            liouvillian(bad)

    def test_schedule_rejected(self):
        spec = EvolutionSpec([(0.0, SZ), (1.0, SX)], (), t_max=2.0)
        with pytest.raises(InvalidParams):
            liouvillian(spec)

    def test_checked_hamiltonian_is_the_one_used(self):
        # a spec checks its Hamiltonians once and keeps a copy of them, so a
        # later change to the caller's array cannot bypass that check
        h = device_spec().hamiltonian.copy()
        spec = EvolutionSpec(h, device_spec().baths)
        expected = liouvillian(spec).matrix
        h[1, 2] += 1e-3j
        assert np.array_equal(liouvillian(spec).matrix, expected)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_commutator_equals_kron_form(self, rng, d):
        eye = np.eye(d)
        for _ in range(50):
            h = random_hermitian(rng, d)
            kron_form = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
            assert np.array_equal(dynamics._commutator(h), kron_form)


class TestPropagate:
    def test_precession_against_closed_form(self):
        rho0 = bloch_state(0.8, 0.0, 0.3)
        spec = EvolutionSpec(SZ.copy(), (), t_max=2.0, dt=0.01)
        traj = propagate(rho0, spec)
        exact = unitary_evolution_oracle(SZ, rho0, traj.times[-1])
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-8
        # (x, y) rotates at angular frequency 2, z constant
        xs = np.real(np.trace(traj.states @ SX, axis1=1, axis2=2))
        zs = np.real(np.trace(traj.states @ SZ, axis1=1, axis2=2))
        assert np.max(np.abs(xs - 0.8 * np.cos(2.0 * traj.times))) < 1e-7
        assert np.max(np.abs(zs - 0.3)) < 1e-12

    def test_dephasing_scalar_ode(self):
        gamma = 0.9
        bath = dephasing_bath(Z_BASIS, gamma)
        rho0 = bloch_state(0.7, 0.0, -0.2)
        spec = EvolutionSpec(np.zeros((2, 2), dtype=complex), (bath,), t_max=3.0)
        traj = propagate(rho0, spec)
        xs = np.real(np.trace(traj.states @ SX, axis1=1, axis2=2))
        zs = np.real(np.trace(traj.states @ SZ, axis1=1, axis2=2))
        assert np.max(np.abs(xs - 0.7 * np.exp(-2.0 * gamma * traj.times))) < 1e-9
        assert np.max(np.abs(zs + 0.2)) < 1e-12

    def test_stationary_initial_state_stays_put(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = np.diag([1.0, np.exp(-1.0)]).astype(complex)
        g /= np.trace(g).real
        spec = EvolutionSpec(np.diag([0.0, 1.0]).astype(complex), (bath,), t_max=5.0)
        traj = propagate(g, spec)
        assert np.max(np.abs(traj.states - g[None])) < 1e-9

    def test_trace_conserved(self, rng):
        spec = device_spec()
        spec = EvolutionSpec(spec.hamiltonian, spec.baths, t_max=4.0)
        traj = propagate(ginibre_state(rng, 3), spec)
        traces = np.real(np.trace(traj.states, axis1=1, axis2=2))
        assert np.max(np.abs(traces - 1.0)) < 1e-9

    def test_trace_conserved_two_level_presets(self, rng):
        presets = [
            EvolutionSpec(
                np.zeros((2, 2), dtype=complex),
                (dephasing_bath(Z_BASIS, 1.0),),
                t_max=3.0,
            ),
            EvolutionSpec(
                np.diag([0.0, 1.0]).astype(complex),
                (thermal_two_level_bath(1.0, 1.0, 1.0),),
                t_max=3.0,
            ),
        ]
        for spec in presets:
            traj = propagate(ginibre_state(rng, 2), spec)
            traces = np.real(np.trace(traj.states, axis1=1, axis2=2))
            assert np.max(np.abs(traces - 1.0)) < 1e-9

    def test_exact_at_any_step(self):
        rho0 = bloch_state(0.8, 0.0, 0.3)
        h = SZ.copy()
        for dt in (0.05, 0.025):
            traj = propagate(rho0, EvolutionSpec(h, (), t_max=2.0, dt=dt))
            exact = np.stack(
                [unitary_evolution_oracle(h, rho0, t) for t in traj.times]
            )
            assert np.max(np.abs(traj.states - exact)) <= 1e-12

    def test_large_step_is_exact(self):
        # gamma*dt = 5: far outside any explicit integrator's stability region
        gamma, x0 = 50.0, 0.9
        bath = dephasing_bath(Z_BASIS, gamma=gamma)
        spec = EvolutionSpec(np.zeros((2, 2), dtype=complex), (bath,), t_max=4.0, dt=0.1)
        traj = propagate(bloch_state(x0, 0.0, 0.1), spec)
        xs = np.real(np.trace(traj.states @ SX, axis1=1, axis2=2))
        assert np.max(np.abs(xs - x0 * np.exp(-2.0 * gamma * traj.times))) < 1e-12
        for k, rho in enumerate(traj.states):
            assert_density_matrix(rho, what=f"state at t={traj.times[k]:.1f}")

    def test_dt_validation(self):
        spec = EvolutionSpec(SZ.copy(), (), t_max=1.0, dt=2.0)
        with pytest.raises(InvalidParams):
            propagate(bloch_state(0.5), spec)

    def test_default_timestep_scales(self):
        spec = device_spec()
        dt = default_timestep(spec.hamiltonian, spec.baths)
        # stiffness bound: 4 * sum of rates (all unit-norm jumps) = 16.8
        assert dt == pytest.approx(0.0025 / 16.8, rel=1e-12)
        # nothing to scale: any step is exact
        assert default_timestep(np.zeros((2, 2), dtype=complex), ()) == 1.0

    @pytest.mark.parametrize("rate, entry", [(8e307, 1.0), (1.7e308, 1.0), (1.0, 1e160)])
    def test_stiffness_bound_past_the_float_range_is_refused(self, rate, entry):
        # 4 r ||A||² overflows: refused, not a step of 0.0 or an
        # OverflowError of ||A||², by propagate too
        jump = np.array([[0, entry], [0, 0]], dtype=complex)
        bath = Bath("b", LindbladGenerator(2, (JumpTerm(rate, jump),)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: default_timestep(SZ.copy(), (bath,)),
                         lambda: propagate(bloch_state(0.5), EvolutionSpec(SZ.copy(), (bath,), t_max=1.0))):
                with pytest.raises(InvalidParams, match="stiffness bound .* past the float range"):
                    call()

    def test_default_dt_is_default_timestep(self):
        spec = device_spec()
        traj = propagate(np.eye(3, dtype=complex) / 3,
                         EvolutionSpec(spec.hamiltonian, spec.baths, t_max=0.01))
        assert traj.dt == default_timestep(spec.hamiltonian, spec.baths)

    @pytest.mark.parametrize("rho0, message", [
        (np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex), "deviates from Hermiticity"),
        (np.eye(2, dtype=complex), "trace"),
        (np.diag([1.5, -0.5]).astype(complex), "eigenvalue"),
    ])
    def test_initial_state_must_be_a_state(self, rho0, message):
        # the Hermiticity message is operators._require_hermitian's, with no colon
        sep = " " if message.startswith("deviates") else ": "
        with pytest.raises(InvalidParams, match=f"^initial state{sep}{message}"):
            propagate(rho0, EvolutionSpec(SZ.copy(), (), t_max=1.0, dt=0.1))

    def test_schedule_must_start_at_zero(self):
        spec = EvolutionSpec([(0.5, SZ.copy())], (), t_max=1.0, dt=0.1)
        with pytest.raises(InvalidParams, match="start at t = 0"):
            propagate(bloch_state(0.5), spec)

    @pytest.mark.parametrize("nan_first", [False, True])
    def test_switch_time_must_be_finite(self, nan_first):
        # sorted() leaves a NaN where it is listed: last, its segment would
        # never start; first, the refusal would say "must start at t = 0"
        schedule = [(0.0, SZ.copy()), (np.nan, SX.copy())]
        spec = EvolutionSpec(schedule[::-1] if nan_first else schedule, (), t_max=1.0, dt=0.1)
        with pytest.raises(InvalidParams, match="^Hamiltonian schedule start time must be finite, got nan$"):
            propagate(bloch_state(0.5), spec)

    def test_switch_after_t_max_changes_nothing(self):
        rho0 = bloch_state(0.6, 0.0, 0.3)
        static = propagate(rho0, EvolutionSpec(SZ.copy(), (), t_max=1.0, dt=0.01))
        late = propagate(rho0, EvolutionSpec([(0.0, SZ.copy()), (2.0, SX.copy())], (),
                                             t_max=1.0, dt=0.01))
        assert np.array_equal(late.states, static.states)

    def test_schedule_segments(self):
        # rotate about z, then about x; each segment matches its own unitary,
        # whether the switch falls on the grid or between two grid points
        rho0 = bloch_state(0.6, 0.0, 0.0)
        dt = 0.005
        for t_switch in (1.0, 1.0025):
            spec = EvolutionSpec([(0.0, SZ.copy()), (t_switch, SX.copy())], (), t_max=2.0, dt=dt)
            traj = propagate(rho0, spec)
            mid = unitary_evolution_oracle(SZ, rho0, t_switch)
            exact = np.stack([
                unitary_evolution_oracle(SZ, rho0, t) if t <= t_switch
                else unitary_evolution_oracle(SX, mid, t - t_switch)
                for t in traj.times
            ])
            assert np.max(np.abs(traj.states - exact)) < 1e-12

    @pytest.mark.parametrize("dt", [None, 0.1])
    def test_non_finite_hamiltonian_rejected(self, dt):
        h = SZ.copy()
        h[0, 1] = np.nan
        spec = EvolutionSpec(h, (dephasing_bath(Z_BASIS, 1.0),), t_max=1.0, dt=dt)
        with pytest.raises(InvalidParams):
            propagate(bloch_state(0.5), spec)

    def test_generator_built_once_per_bath(self, monkeypatch):
        spec = device_spec()
        h = spec.hamiltonian
        schedule = [(0.0, h), (0.10003, 2.0 * h), (0.2, h)]  # the first switch is off the grid
        builds = count_generator_builds(monkeypatch)
        rho0 = np.eye(3, dtype=complex) / 3
        propagate(rho0, EvolutionSpec(schedule, spec.baths, t_max=0.3, dt=1e-3))
        built = [g for gens in builds for g in gens]
        assert sorted(map(id, built)) == sorted(id(b.generator) for b in spec.baths)

    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_states_are_the_step_map_recurrence(self, d, rng):
        # coords[j] = P coords[j - 1] with P = expm(L dt) built as propagate
        # builds it: a later stepping scheme must not move any state silently
        if d == 2:
            h, bath, _ = two_level_dephasing_assembly(
                TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=0.5, z=0.2))
            baths = (bath,)
        else:
            base = device_spec()
            h, baths = base.hamiltonian, base.baths
        spec = EvolutionSpec(h, baths, t_max=1.0, dt=1e-3)
        rho0 = ginibre_state(rng, d)
        traj = propagate(rho0, spec)
        gens = dynamics._generators(spec.baths, d)
        diss = dynamics._liouvillian(np.zeros((1, d, d), dtype=complex), gens, np.zeros(len(gens), int))[0]
        lc = dynamics._commutator(spec.segments[0][1])
        lc += diss
        p = _expm(_real_form(lc) * spec.dt)
        coords = np.empty((len(traj), d * d))
        coords[0] = _herm_coords(rho0)
        for j in range(1, len(coords)):
            coords[j] = p @ coords[j - 1]
        assert len(traj) == 1001
        assert np.array_equal(traj.states, _herm_operators(coords))


def random_model(rng, d, n_jumps, rate_scale, h_norm):
    """A random Hamiltonian of norm h_norm and one bath of n_jumps unit-norm
    jumps with rates log-uniform around rate_scale."""
    h = random_hermitian(rng, d)
    h *= h_norm / np.linalg.norm(h, 2)
    terms = []
    for _ in range(n_jumps):
        a = random_complex(rng, d)
        rate = rate_scale * 10.0 ** rng.uniform(-0.5, 0.5)
        terms.append(JumpTerm(rate, a / np.linalg.norm(a, 2)))
    return h, Bath("random", LindbladGenerator(d, tuple(terms)))


def random_generator(rng, d, n_jumps, rate_scale, h_norm):
    """Liouvillian of random_model, and its default step."""
    h, bath = random_model(rng, d, n_jumps, rate_scale, h_norm)
    return liouvillian(EvolutionSpec(h, (bath,))).matrix, default_timestep(h, (bath,))


class TestExpm:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 16),
        n_jumps=st.integers(1, 4),
        log_rate=st.floats(-2.0, 2.0),
        log_h=st.floats(-2.0, 2.0),
        log_steps=st.floats(-3.0, 3.0),
    )
    def test_matches_scipy(self, seed, d, n_jumps, log_rate, log_h, log_steps):
        # t log-uniform over 1e-3..1e3 default steps reaches every Pade degree
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        lmat, dt = random_generator(rng, d, n_jumps, 10.0**log_rate, 10.0**log_h)
        a = lmat * (10.0**log_steps * dt)
        ref = scipy_linalg.expm(a)
        err = np.abs(_expm(a) - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()
        assert err <= 1e-13

    def test_zero_is_identity(self):
        assert np.array_equal(_expm(np.zeros((9, 9), dtype=complex)), np.eye(9))

    @pytest.mark.parametrize("steps", [1.0, 1e3])
    def test_device_step_map_preserves_trace(self, steps):
        spec = device_spec()
        lmat = liouvillian(spec).matrix
        p = _expm(lmat * (steps * default_timestep(spec.hamiltonian, spec.baths)))
        vec_i = np.eye(3).reshape(-1)
        assert np.max(np.abs(vec_i @ p - vec_i)) <= 1e-15


class TestExpmAction:
    """Partial steps: exp(t a) v against scipy's expm on Lindblad L."""

    # zero, tiny, each theta of the Taylor table, just past the last one
    # (the Pade fallback), and two norms far past it
    NORMS = [0.0, 1e-6, *dynamics._TAYLOR_THETA.values(), 3.6, 9.9, 50.0]

    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("log_rate, log_h", [(0, 0), (-2, 0), (0, -2), (1, 0), (0, 1)])
    def test_matches_scipy(self, rng, d, log_rate, log_h):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        lmat, _ = random_generator(rng, d, 3, 10.0**log_rate, 10.0**log_h)
        v = ginibre_state(rng, d).reshape(-1).astype(complex)
        l1 = np.abs(lmat).sum(axis=0).max()
        for norm in self.NORMS:
            t = norm / l1
            ref = scipy_linalg.expm(lmat * t) @ v
            err = np.linalg.norm(_expm_action(lmat, t, v) - ref) / np.linalg.norm(ref)
            assert err <= 1e-13, norm

    def test_pade_only_past_the_table(self, rng, monkeypatch):
        lmat, _ = random_generator(rng, 3, 2, 1.0, 1.0)
        l1 = np.abs(lmat).sum(axis=0).max()
        v = ginibre_state(rng, 3).reshape(-1).astype(complex)
        calls = []
        real = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", lambda a: calls.append(a) or real(a))
        last = max(dynamics._TAYLOR_THETA.values())
        _expm_action(lmat, 0.99 * last / l1, v)
        assert calls == []
        _expm_action(lmat, 1.01 * last / l1, v)
        assert len(calls) == 1

    def test_switch_inside_a_stiff_step(self, rng):
        # gamma = 50 puts ||L dt||_1 near 10 at dt = 0.1, so the partial steps
        # take both the Taylor degrees and the Pade fallback; the third
        # segment lies inside one step and holds no grid point
        scipy_linalg = pytest.importorskip("scipy.linalg")
        spec = device_spec(gamma=50.0)
        h = spec.hamiltonian
        schedule = [(0.0, h), (0.1003, 2.0 * h), (0.2071, 0.5 * h), (0.2094, h)]
        rho0 = ginibre_state(rng, 3)
        traj = propagate(rho0, EvolutionSpec(schedule, spec.baths, t_max=0.5, dt=0.1))
        lmats = [liouvillian(EvolutionSpec(hs, spec.baths)).matrix for _, hs in schedule]
        starts = [t for t, _ in schedule]

        def evolve(i, rho, tau):
            return SuperOperator(3, scipy_linalg.expm(lmats[i] * tau)).apply(rho)

        at_start = [rho0]
        for i in range(len(schedule) - 1):
            at_start.append(evolve(i, at_start[i], starts[i + 1] - starts[i]))
        for t, state in zip(traj.times, traj.states):
            i = int(np.searchsorted(starts, t, side="right")) - 1
            assert np.max(np.abs(state - evolve(i, at_start[i], t - starts[i]))) <= 1e-12, t

    def test_one_pade_step_map_per_segment_with_a_full_step(self, rng, monkeypatch):
        # a d = 16 model with its switch times off the dt grid; the segment
        # (0.0453, 0.0458) holds no full step, so 4 of the 5 segments form
        # an expm(L dt) and no partial step forms one
        h0, bath = random_model(rng, 16, 4, 0.25, 1.0)
        hs = [h0] + [random_hermitian(rng, 16) / 8.0 for _ in range(4)]
        schedule = list(zip((0.0, 0.0123, 0.0453, 0.0458, 0.0787), hs))
        calls = []
        real = dynamics._expm
        monkeypatch.setattr(dynamics, "_expm", lambda a: calls.append(a) or real(a))
        propagate(ginibre_state(rng, 16), EvolutionSpec(schedule, (bath,), t_max=0.1, dt=1e-3))
        assert len(calls) == 4


class TestGridCap:
    def test_cap_on_points_times_d_squared(self, monkeypatch):
        # t_max = 1, dt = 0.1: 11 points of d = 2, 44 entries
        spec = EvolutionSpec(SZ.copy(), (dephasing_bath(Z_BASIS, 1.0),), t_max=1.0, dt=0.1)
        monkeypatch.setattr(dynamics, "MAX_GRID_ENTRIES", 44)
        assert len(propagate(bloch_state(0.5), spec)) == 11
        monkeypatch.setattr(dynamics, "MAX_GRID_ENTRIES", 43)
        with pytest.raises(InvalidParams, match="11 grid points"):
            propagate(bloch_state(0.5), spec)

    def test_overflowing_point_count_is_refused(self):
        spec = EvolutionSpec(SZ.copy(), (), t_max=1.0, dt=5e-324)
        with pytest.raises(InvalidParams, match="inf grid points"):
            propagate(bloch_state(0.5), spec)


class TestSteadyState:
    def test_thermal_gibbs(self):
        bath = thermal_two_level_bath(1.0, 1.2, 0.8)
        spec = EvolutionSpec(np.diag([0.0, 1.0]).astype(complex), (bath,))
        nu = steady_state(liouvillian(spec))
        g = np.diag([1.0, np.exp(-1.2)]).astype(complex)
        g /= np.trace(g).real
        assert np.max(np.abs(nu - g)) < 1e-12

    def test_device_v0_decoupled(self):
        lv = liouvillian(device_spec(v=0.0))
        nu = steady_state(lv)
        assert abs(nu[1, 2]) < 1e-12
        assert abs(nu[0, 1]) < 1e-12 and abs(nu[0, 2]) < 1e-12
        spec = device_spec(v=0.0)
        from decotherm.thermo import heat_rate

        for b in spec.baths:
            assert abs(heat_rate(spec.hamiltonian, b, nu)) < 1e-12

    @pytest.mark.parametrize("log_n_l", [3.0, 4.875, 6.0])
    def test_device_v0_cold_population_beside_fast_rates(self, log_n_l):
        # v = 0: p_R = p_0 n_R/(1+n_R) ~ 1e-12 sits beside left rates up to
        # 1e6 and stays accurate, so nu stays a state
        n_l, n_r = 10.0**log_n_l, 1e-12
        p = DeviceParams(2.0, 1.0, 0.0, n_l, n_r, 0.0)
        assembly = build_device(p)
        nu = steady_state(liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths)))
        p_0 = 1.0 / (1.0 + (1.0 + n_l) / n_l + n_r / (1.0 + n_r))
        assert nu[2, 2].real == pytest.approx(p_0 * n_r / (1.0 + n_r), rel=1e-3)
        assert np.isfinite(device_report(p).entropy_production)

    def test_pure_dephasing_degenerate(self):
        # pure dephasing, and L = 0 (no bath, no Hamiltonian)
        for baths in ((dephasing_bath(Z_BASIS, 1.0),), ()):
            spec = EvolutionSpec(np.zeros((2, 2), dtype=complex), baths)
            with pytest.raises(DegenerateKernel):
                steady_state(liouvillian(spec))

    def test_residual_and_invariants(self):
        lv = liouvillian(device_spec())
        nu = steady_state(lv)
        assert_density_matrix(nu, what="steady state")
        assert np.linalg.norm(lv.apply(nu)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        log_n_l=st.floats(-14.0, 6.0),
        log_n_r=st.floats(-14.0, 6.0),
        log_gamma=st.one_of(st.none(), st.floats(-2.0, 6.0)),
        e_r=st.floats(0.5, 1.5),
        gap=st.floats(0.1, 1.0),
        v=st.floats(-1.0, 1.0),
    )
    @example(log_n_l=6.0, log_n_r=6.0, log_gamma=6.0, e_r=1.0, gap=0.5, v=0.4)  # the hot corner
    @example(log_n_l=-14.0, log_n_r=-14.0, log_gamma=6.0, e_r=1.0, gap=0.5, v=0.4)  # cold and Zeno
    @example(log_n_l=-7.745, log_n_r=-11.37, log_gamma=1.8, e_r=1.0, gap=0.5, v=0.4)
    def test_device_kernels_relative_residuals(self, log_n_l, log_n_r, log_gamma, e_r, gap, v):
        # cold to hot occupations and dephasing up to 1e6 (or none): the steady
        # state and the pump-bath images are found, with residuals relative
        # to the generator's scale, and the whole report raises nothing
        gamma = 0.0 if log_gamma is None else 10.0**log_gamma
        p = DeviceParams(e_r + gap, e_r, v, 10.0**log_n_l, 10.0**log_n_r, gamma)
        assembly = build_device(p)
        lv = liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths))
        nu = steady_state(lv)
        assert np.linalg.norm(lv.apply(nu)) <= 1e-12 * np.linalg.norm(lv.matrix, 2)
        for bath in (assembly.left, assembly.right):
            image = stationary_map(bath, nu)
            scale = np.linalg.norm(generator_superop(bath.generator).matrix, 2)
            assert np.linalg.norm(apply_generator(bath.generator, image)) <= 1e-12 * scale
        assert np.isfinite(device_report(p).entropy_production)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected(self, bad):
        spec = device_spec()
        h = spec.hamiltonian.copy()
        h[1, 2] = bad
        with pytest.raises(InvalidParams):
            steady_state(liouvillian(EvolutionSpec(h, spec.baths)))
        lmat = liouvillian(spec).matrix.copy()
        lmat[4, 5] = bad
        with pytest.raises(InvalidParams):
            steady_state(SuperOperator(3, lmat))

    def test_overflowing_rates_are_refused_without_a_warning(self):
        # each bath's generator is finite and only their sum overflows; the
        # suite turns a RuntimeWarning from decotherm into an error
        spec = device_spec(n_l=8e307, n_r=8e307)
        with pytest.raises(InvalidParams, match="^Liouvillian has a non-finite entry$"):
            steady_state(liouvillian(spec))
        with pytest.raises(InvalidParams, match="^Liouvillian has a non-finite entry$"):
            propagate(np.eye(3, dtype=complex) / 3, EvolutionSpec(spec.hamiltonian, spec.baths, 1.0, 0.1))

    @pytest.mark.parametrize("kernel, message", [
        (np.diag([1.0, -1.0]), "traceless"), (np.diag([2.0, -1.0]), "eigenvalue"),
    ])
    def test_kernel_that_is_no_state(self, kernel, message):
        # I - v v†/|v|² with v = vec(K) preserves Hermiticity for a Hermitian
        # K and has the kernel K alone
        v = kernel.astype(complex).reshape(-1, order="F")
        lmat = np.eye(4) - np.outer(v, v.conj()) / np.vdot(v, v).real
        with pytest.raises(NonPositiveSolution, match=message):
            steady_state(SuperOperator(2, lmat))

    def test_residual_over_tolerance(self, monkeypatch):
        monkeypatch.setattr(dynamics, "STEADY_RESID_TOL", 0.0)
        with pytest.raises(NoConvergence, match="steady-state residual"):
            steady_state(liouvillian(device_spec()))

    def test_agrees_with_long_propagation(self, rng):
        spec0 = device_spec()
        nu = steady_state(liouvillian(spec0))
        min_rate = min(
            float(r) for b in spec0.baths for r in b.generator.rate_stack if r > 0
        )
        spec = EvolutionSpec(spec0.hamiltonian, spec0.baths, t_max=50.0 / min_rate, dt=0.005)
        traj = propagate(ginibre_state(rng, 3), spec)
        assert trace_distance(traj.states[-1], nu) < 1e-6


def test_trajectory_states_satisfy_state_invariants(rng):
    spec0 = device_spec()
    spec = EvolutionSpec(spec0.hamiltonian, spec0.baths, t_max=3.0)
    traj = propagate(ginibre_state(rng, 3), spec)
    for k in range(0, len(traj), max(1, len(traj) // 25)):
        assert_density_matrix(traj.states[k], what=f"state at t={traj.times[k]:.3f}")


class TestHermiticity:
    """Liouvillians act on real Hermitian coordinates, which would drop an
    anti-Hermitian part, so one is refused before any work."""

    @staticmethod
    def skewed(h, eps):
        out = h.copy()
        out[1, 2] += 1j * eps
        return out

    @pytest.fixture
    def no_generator_builds(self, monkeypatch):
        def refuse(gens, d):
            raise AssertionError("generator built before the Hamiltonian check")

        monkeypatch.setattr(dynamics, "_generator_matrices", refuse)

    def test_liouvillian_refuses_a_non_hermitian_hamiltonian(self, no_generator_builds):
        spec = device_spec()
        with pytest.raises(InvalidParams):
            liouvillian(EvolutionSpec(self.skewed(spec.hamiltonian, 1e-3), spec.baths))

    def test_propagate_refuses_it_on_any_segment(self, no_generator_builds):
        spec = device_spec()
        h, bad = spec.hamiltonian, self.skewed(spec.hamiltonian, 1e-3)
        for schedule in (bad, [(0.0, h), (0.5, bad)]):
            with pytest.raises(InvalidParams):
                propagate(np.eye(3, dtype=complex) / 3,
                          EvolutionSpec(schedule, spec.baths, t_max=1.0, dt=0.01))

    def test_rounding_level_skew_passes(self, rng):
        spec = device_spec()
        h = spec.hamiltonian
        ok = self.skewed(h, 1e-12)
        nu = steady_state(liouvillian(EvolutionSpec(ok, spec.baths)))
        assert np.max(np.abs(nu - steady_state(liouvillian(spec)))) <= 1e-10
        traj = propagate(ginibre_state(rng, 3), EvolutionSpec([(0.0, h), (0.5, ok)], spec.baths,
                                                              t_max=1.0, dt=0.01))
        assert np.array_equal(traj.states, traj.states.conj().swapaxes(-1, -2))

    def test_steady_state_refuses_a_map_that_breaks_hermiticity(self):
        lv = liouvillian(device_spec())
        size = np.max(np.abs(lv.matrix))
        skewed = lv.matrix.copy()
        skewed[0, 4] += 1e-3j * size  # |1><1| -> |0><0| picks up an imaginary weight
        with pytest.raises(InvalidParams):
            steady_state(SuperOperator(3, skewed))
        skewed[0, 4] = lv.matrix[0, 4] + 1e-12j * size
        nu = steady_state(SuperOperator(3, skewed))
        assert np.max(np.abs(nu - steady_state(lv))) <= 1e-10
