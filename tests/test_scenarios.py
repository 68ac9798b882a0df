"""Two-level decoherence heat and the three-level device reproductions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import (
    GRID_GAMMAS,
    GRID_OCCUPATIONS,
    count_generator_builds,
    count_kernel_solves,
    count_structure_passes,
    ginibre_state,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from decotherm.baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    PropagateToFixedPoint,
    apply_generator,
    dephasing_bath,
    left_pump_bath,
    right_pump_bath,
    thermal_occupation,
    thermal_two_level_bath,
)
from decotherm.dynamics import EvolutionSpec, liouvillian, propagate, steady_state
from decotherm.errors import (
    DecothermError,
    DegenerateKernel,
    InvalidBlochVector,
    InvalidParams,
    NoConvergence,
    NonPositiveBeta,
    NonPositiveOccupation,
    ZeroCoherence,
)
from decotherm.onsager import (
    ReciprocalCoefficients,
    force_parameters,
    ness_entropy_production,
    reciprocal_coefficients,
)
from decotherm.scenarios import (
    DEFAULT_DEVICE,
    DeviceParams,
    DeviceReport,
    TwoLevelDecoherenceParams,
    bloch_state,
    build_device,
    device_report,
    device_reports,
    gamma_sweep,
    two_level_decoherence_heat,
    two_level_hamiltonian,
)
from decotherm.thermo import heat_rate


def brute_force_heat(gamma, e, x, z):
    """Tr[H L_d(rho)] assembled from scratch with explicit projectors."""
    rho = bloch_state(x, 0.0, z)
    h = two_level_hamiltonian(e)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    ld = sum(
        gamma * (2.0 * p @ rho @ p - p @ rho - rho @ p) for p in (p0, p1)
    )
    return float(np.trace(h @ ld).real)


class TestTwoLevelHeat:
    def test_zero_coherence_zero_heat(self):
        p = TwoLevelDecoherenceParams(gamma=1.3, e_level=0.7, x=0.0, z=0.4)
        assert two_level_decoherence_heat(p) == 0.0

    def test_magnitude_posting(self):
        p = TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=0.5)
        assert abs(two_level_decoherence_heat(p)) == pytest.approx(0.5, abs=1e-12)

    def test_z_independence(self):
        vals = [
            two_level_decoherence_heat(TwoLevelDecoherenceParams(1.0, 1.0, 0.5, z))
            for z in (-0.5, 0.0, 0.5)
        ]
        assert vals[0] == vals[1] == vals[2]

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            gamma = rng.uniform(0.1, 2.0)
            e = rng.uniform(0.5, 2.0)
            x = rng.uniform(-0.7, 0.7)
            z = rng.uniform(-0.7, 0.7)
            p = TwoLevelDecoherenceParams(gamma, e, x, z)
            assert two_level_decoherence_heat(p) == pytest.approx(
                brute_force_heat(gamma, e, x, z), abs=1e-13
            )

    def test_invalid_bloch_vector(self):
        with pytest.raises(InvalidBlochVector):
            TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=0.9, z=0.9)


class TestBuildDevice:
    def test_total_liouvillian_annihilates_trace(self, rng):
        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        lv = liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths))
        rho = ginibre_state(rng, 3)
        assert abs(np.trace(lv.apply(rho))) < 1e-12

    def test_gamma_zero_two_baths(self):
        params = dict(DEFAULT_DEVICE)
        params["gamma"] = 0.0
        assembly = build_device(DeviceParams(**params))
        assert len(assembly.baths) == 2
        assert assembly.dephasing is None

    def test_dephasing_leaves_zero_level_alone(self):
        assembly = build_device(DeviceParams(**DEFAULT_DEVICE))
        deph = assembly.dephasing
        # |0><0| carries no projector: coherences to |0> decay at gamma, not 2*gamma
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 1] = rho[1, 0] = 0.5
        out = apply_generator(deph.generator, rho)
        assert out[0, 1] == pytest.approx(-DEFAULT_DEVICE["gamma"] * 0.5, rel=1e-12)
        rho2 = np.zeros((3, 3), dtype=complex)
        rho2[1, 2] = rho2[2, 1] = 0.5
        out2 = apply_generator(deph.generator, rho2)
        assert out2[1, 2] == pytest.approx(-2.0 * DEFAULT_DEVICE["gamma"] * 0.5, rel=1e-12)

    def test_v_zero_kills_coherence_and_heat(self):
        params = dict(DEFAULT_DEVICE)
        params["v"] = 0.0
        rep = device_report(DeviceParams(**params))
        assert abs(rep.coherence) < 1e-12
        assert abs(rep.heat_l) < 1e-12 and abs(rep.heat_r) < 1e-12 and abs(rep.heat_d) < 1e-12
        assert math.isnan(rep.x_l) and math.isnan(rep.x_d)

    def test_ordering_invariant(self):
        with pytest.raises(InvalidParams):
            DeviceParams(e_l=1.0, e_r=1.5, v=0.4, n_l=0.6, n_r=0.2, gamma=0.3)


class TestDeviceReport:
    def test_preset_regression(self):
        rep = device_report(DeviceParams(**DEFAULT_DEVICE), c=1.0)
        assert rep.m_ld == pytest.approx(0.072, abs=1e-12)
        assert rep.m_dl == pytest.approx(0.072, abs=1e-12)
        # regression values pinned from this package's own solver
        assert rep.heat_l == pytest.approx(0.027779726411784646, rel=1e-9)
        assert rep.heat_r == pytest.approx(-0.02525429673798666, rel=1e-9)
        assert rep.heat_d == pytest.approx(-0.002525429673798669, rel=1e-9)
        assert rep.entropy_production == pytest.approx(0.05601582265907108, rel=1e-9)
        assert rep.x_l == pytest.approx(0.08743421938129305, rel=1e-9)

    def test_heat_sum_rule_gamma_zero(self):
        # two baths only: Q_r = -Q_l through the coherent coupling
        params = dict(DEFAULT_DEVICE)
        params["gamma"] = 0.0
        rep = device_report(DeviceParams(**params))
        assert rep.heat_r == pytest.approx(-rep.heat_l, abs=1e-12)
        assert rep.heat_d == 0.0

    def test_symmetric_dead_case_heats_vanish(self):
        p = DeviceParams(e_l=1.5, e_r=1.0, v=0.0, n_l=0.4, n_r=0.4, gamma=0.0)
        rep = device_report(p)
        assert rep.heat_l == pytest.approx(0.0, abs=1e-12)
        assert rep.heat_r == pytest.approx(0.0, abs=1e-12)
        assert rep.heat_d == 0.0
        assert rep.entropy_production == pytest.approx(0.0, abs=1e-10)

    def test_energy_balance_random_draws(self, rng):
        for _ in range(50):
            p = DeviceParams(
                e_l=1.0 + rng.uniform(0.1, 1.0),
                e_r=rng.uniform(0.2, 1.0),
                v=rng.uniform(-0.8, 0.8),
                n_l=rng.uniform(0.05, 1.5),
                n_r=rng.uniform(0.05, 1.5),
                gamma=rng.uniform(0.0, 1.5),
            )
            rep = device_report(p)
            total = rep.heat_l + rep.heat_r + rep.heat_d
            scale = max(abs(rep.heat_l), abs(rep.heat_r), 1e-30)
            assert abs(total) <= 1e-9 * scale + 1e-12
            assert rep.entropy_production >= -1e-9


class TestDeviceReportSinglePass:
    """device_report makes one pass over the baths and returns exactly what
    the public functions give when composed one by one."""

    @staticmethod
    def composed_report(p, c):
        assembly = build_device(p)
        h, baths = assembly.hamiltonian, assembly.baths
        nu = steady_state(liouvillian(EvolutionSpec(h, baths)))
        heats = {b.name: heat_rate(h, b, nu) for b in baths}
        try:
            fp = force_parameters(nu)
            x_d, x_l = fp.x_d, fp.x_l
        except ZeroCoherence:
            x_d = x_l = math.nan
        if assembly.dephasing is None:
            coeffs = ReciprocalCoefficients(0.0, 0.0)
        else:
            coeffs = reciprocal_coefficients(h, assembly.left, assembly.dephasing, c)
        return DeviceReport(
            nu=nu,
            coherence=complex(nu[1, 2]),
            heat_l=heats["left"],
            heat_r=heats["right"],
            heat_d=heats.get("dephasing", 0.0),
            x_l=x_l,
            x_d=x_d,
            m_ld=coeffs.m_ld,
            m_dl=coeffs.m_dl,
            entropy_production=ness_entropy_production(baths, nu),
        )

    def assert_same_as_composed(self, p, c=1.0):
        try:
            expected = self.composed_report(p, c)
        except DecothermError as exc:
            with pytest.raises(type(exc)):
                device_report(p, c)
            return
        report = device_report(p, c)
        for f in dataclasses.fields(DeviceReport):
            got, want = getattr(report, f.name), getattr(expected, f.name)
            assert np.array_equal(got, want, equal_nan=True), (f.name, got, want, p)

    @pytest.mark.parametrize("gamma, builds", [(0.3, 3), (0.0, 2)])
    def test_one_generator_build_per_bath(self, monkeypatch, gamma, builds):
        calls = count_generator_builds(monkeypatch)
        device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": gamma}))
        built = [g for gens in calls for g in gens]
        assert len(calls) == 1  # one batched build
        assert len(built) == builds
        assert len(set(map(id, built))) == builds  # one build of each bath's generator

    @pytest.mark.parametrize("gamma, n_baths", [(0.3, 3), (0.0, 2)])
    def test_one_structure_pass(self, monkeypatch, gamma, n_baths):
        passes = count_structure_passes(monkeypatch)
        solves = count_kernel_solves(monkeypatch)
        device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": gamma}))
        assert passes == [n_baths]
        assert solves == [1 + n_baths]  # the Liouvillian and the baths, one stack

    def test_default_device(self):
        self.assert_same_as_composed(DeviceParams(**DEFAULT_DEVICE))
        self.assert_same_as_composed(DeviceParams(**DEFAULT_DEVICE), c=0.7)
        self.assert_same_as_composed(DeviceParams(**{**DEFAULT_DEVICE, "v": 0.0}))

    def test_grid_corners(self):
        for n_l, n_r, gamma in itertools.product((1e-14, 1.0, 1e6), (1e-14, 1e6), (0.0, 1e-2, 1e6)):
            self.assert_same_as_composed(DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma))

    @settings(max_examples=40, deadline=None)
    @given(
        log_n_l=st.floats(-14.0, 6.0),
        log_n_r=st.floats(-14.0, 6.0),
        log_gamma=st.one_of(st.none(), st.floats(-2.0, 6.0)),
        e_r=st.floats(0.5, 1.5),
        gap=st.floats(0.1, 1.0),
        v=st.floats(-1.0, 1.0),
        c=st.floats(0.1, 10.0),
    )
    def test_random_devices(self, log_n_l, log_n_r, log_gamma, e_r, gap, v, c):
        gamma = 0.0 if log_gamma is None else 10.0**log_gamma
        self.assert_same_as_composed(
            DeviceParams(e_r + gap, e_r, v, 10.0**log_n_l, 10.0**log_n_r, gamma), c
        )


class TestGammaSweep:
    def test_columns_and_zeno(self):
        base = DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0})
        max_rate = 1.0 + DEFAULT_DEVICE["n_l"]
        gammas = [0.0, 1.0, 10.0, 100.0 * max_rate]
        points = gamma_sweep(base, gammas, c=1.0)
        assert [pt.gamma for pt in points] == gammas
        assert all(pt.report is not None for pt in points)
        assert points[0].report.heat_d == 0.0
        cohs = [abs(pt.report.coherence) for pt in points]
        assert cohs[-1] < cohs[0]
        assert all(b <= a for a, b in zip(cohs, cohs[1:]))

    def test_m_ld_linear_in_gamma(self):
        base = DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0})
        gammas = [0.0, 0.5, 1.0, 2.0]
        c = 1.7
        points = gamma_sweep(base, gammas, c=c)
        slope = DEFAULT_DEVICE["n_l"] * DEFAULT_DEVICE["v"] * c
        for pt in points:
            assert pt.report.m_ld == pytest.approx(slope * pt.gamma, abs=1e-12)
            assert pt.report.m_dl == pytest.approx(slope * pt.gamma, abs=1e-12)

    def test_unsorted_rejected(self):
        base = DeviceParams(**DEFAULT_DEVICE)
        with pytest.raises(InvalidParams):
            gamma_sweep(base, [1.0, 0.5])


def replace_baths_at(gamma, make_baths):
    """build_device, except that the point with dephasing rate gamma gets
    the baths make_baths(assembly)."""
    import decotherm.scenarios as sc

    real = sc.build_device

    def build(p):
        assembly = real(p)
        if p.gamma != gamma:
            return assembly
        return sc.DeviceAssembly(assembly.hamiltonian, make_baths(assembly))

    return build


def silent_pumps(assembly):
    """Zero-rate pumps: the Liouvillian of H and the dephasing alone has a
    kernel of dimension 2 or more, so the point has no unique steady state."""
    silent = LindbladGenerator(3, tuple(JumpTerm(0.0, t.jump) for t in assembly.left.generator.terms))
    return (Bath("left", silent), Bath("right", silent), assembly.dephasing)


def test_gamma_sweep_flags_failures_and_continues(monkeypatch):
    import decotherm.scenarios as sc

    monkeypatch.setattr(sc, "build_device", replace_baths_at(0.5, silent_pumps))
    base = DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0})
    points = sc.gamma_sweep(base, [0.0, 0.5, 1.0])
    assert points[1].report is None and "not unique" in points[1].failure
    assert points[0].report is not None and points[2].report is not None
    monkeypatch.undo()
    for pt in (points[0], points[2]):
        alone = device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": pt.gamma}))
        assert_same_report(pt.report, alone)


def test_gamma_sweep_raises_on_no_convergence(monkeypatch):
    # the decision for a NoConvergence of a bath's structure: the sweep
    # raises, naming the first failing bath, as a one-point call does
    import decotherm.scenarios as sc

    def strangled_left(assembly):
        left = Bath("left", assembly.left.generator, PropagateToFixedPoint(tol=0.0))
        return (left, *assembly.baths[1:])

    monkeypatch.setattr(sc, "build_device", replace_baths_at(0.5, strangled_left))
    base = DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0})
    with pytest.raises(NoConvergence, match="^left: stationary state of a block has residual"):
        sc.gamma_sweep(base, [0.0, 0.5, 1.0])
    with pytest.raises(NoConvergence, match="^left: stationary state of a block has residual"):
        sc.device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.5}))


def test_gamma_sweep_is_one_stacked_call(monkeypatch):
    import decotherm.scenarios as sc

    calls = []
    real = sc.device_reports
    monkeypatch.setattr(sc, "device_reports", lambda ps, c=1.0: calls.append(len(ps)) or real(ps, c))
    sc.gamma_sweep(DeviceParams(**DEFAULT_DEVICE), [0.0, 0.1, 1.0, 10.0])
    assert calls == [4]


def assert_same_report(got, want):
    for f in dataclasses.fields(DeviceReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b, equal_nan=True), (f.name, a, b)


#: the device grid of the ROADMAP: 7 x 7 occupations x 6 dephasing rates
ROADMAP_GRID = [
    DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma)
    for n_l, n_r, gamma in itertools.product(
        (1e-14, 1e-8, 1e-2, 1.0, 1e2, 1e4, 1e6), (1e-14, 1e-8, 1e-2, 1.0, 1e2, 1e4, 1e6),
        (0.0, 1e-2, 1.0, 1e2, 1e4, 1e6))
]


class TestDeviceReports:
    """device_reports stacks every step over all the points of a pass; each
    report is the one its one-point call gives, bit for bit."""

    def test_grid_stacked_equals_one_point(self):
        stacked = device_reports(ROADMAP_GRID, c=0.7)
        assert len(stacked) == 294
        for p, got in zip(ROADMAP_GRID, stacked):
            assert_same_report(got, device_report(p, c=0.7))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-14.0, 6.0), st.floats(-14.0, 6.0), st.one_of(st.none(), st.floats(-2.0, 6.0)),
        st.floats(0.5, 1.5), st.floats(0.1, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=8))
    def test_random_stacks(self, draws):
        params = [DeviceParams(e_r + gap, e_r, v, 10.0**ln_l, 10.0**ln_r,
                               0.0 if lg is None else 10.0**lg)
                  for ln_l, ln_r, lg, e_r, gap, v in draws]
        for p, got in zip(params, device_reports(params, c=1.3)):
            assert_same_report(got, device_report(p, c=1.3))

    def test_one_kernel_solve_and_structure_pass_per_chunk(self, monkeypatch):
        import decotherm.scenarios as sc

        per = sc._REPORTS_PER_PASS
        params = [DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0 if i % 4 == 0 else 0.3})
                  for i in range(2 * per + 7)]
        passes = count_structure_passes(monkeypatch)
        solves = count_kernel_solves(monkeypatch)
        device_reports(params)
        chunks = [params[lo:lo + per] for lo in range(0, len(params), per)]
        n_baths = [sum(3 if p.gamma > 0 else 2 for p in chunk) for chunk in chunks]
        assert passes == n_baths
        assert solves == [len(chunk) + n for chunk, n in zip(chunks, n_baths)]

    def test_degenerate_point_is_flagged(self, monkeypatch):
        import decotherm.scenarios as sc

        params = [DeviceParams(**{**DEFAULT_DEVICE, "gamma": g}) for g in (0.1, 0.5, 0.9)]
        alone = [device_report(params[0]), None, device_report(params[2])]
        monkeypatch.setattr(sc, "build_device", replace_baths_at(0.5, silent_pumps))
        out = device_reports(params)
        assert isinstance(out[1], DegenerateKernel) and "not unique" in str(out[1])
        assert_same_report(out[0], alone[0])
        assert_same_report(out[2], alone[2])
        with pytest.raises(DegenerateKernel, match="not unique"):
            device_report(params[1])


def test_device_report_across_cold_and_hot_baths():
    # every point of the grid solves: the support of each stationary image
    # comes from the bath's structure, not from a cut on the image's
    # eigenvalues, so a cold bath's 1e-14 population stays on it
    for n_l, n_r, gamma in itertools.product(GRID_OCCUPATIONS, GRID_OCCUPATIONS, GRID_GAMMAS):
        report = device_report(DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma))
        assert np.isfinite(report.entropy_production), (n_l, n_r, gamma)


NAN = math.nan
Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
NAN_CASES = {
    "device_gamma": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "gamma": NAN}), InvalidParams),
    "sweep_gamma": (lambda: gamma_sweep(DeviceParams(**DEFAULT_DEVICE), [NAN]), InvalidParams),
    "device_n_l": (lambda: device_report(DeviceParams(**{**DEFAULT_DEVICE, "n_l": NAN})),
                   NonPositiveOccupation),
    "jump_rate": (lambda: JumpTerm(NAN, np.eye(2, dtype=complex)), InvalidParams),
    "dephasing_rate": (lambda: dephasing_bath(Z_BASIS, NAN), InvalidParams),
    "left_pump": (lambda: left_pump_bath(NAN), NonPositiveOccupation),
    "right_pump": (lambda: right_pump_bath(NAN), NonPositiveOccupation),
    "beta": (lambda: thermal_occupation(NAN, 1.0), NonPositiveBeta),
    "splitting": (lambda: thermal_occupation(1.0, NAN), InvalidParams),
    "thermal_rate": (lambda: thermal_two_level_bath(1.0, 1.0, NAN), InvalidParams),
    "two_level_gamma": (lambda: TwoLevelDecoherenceParams(gamma=NAN, e_level=1.0, x=0.5),
                        InvalidParams),
    "two_level_x": (lambda: TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=NAN),
                    InvalidBlochVector),
    "bloch_state": (lambda: bloch_state(NAN), InvalidBlochVector),
    "propagate_dt": (lambda: _propagate_two_level(t_max=1.0, dt=NAN), InvalidParams),
    "propagate_t_max": (lambda: _propagate_two_level(t_max=NAN, dt=0.1), InvalidParams),
    "propagate_t_max_inf": (lambda: _propagate_two_level(t_max=math.inf, dt=0.1), InvalidParams),
    "device_e_l_inf": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "e_l": math.inf}), InvalidParams),
    "device_e_r_-inf": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "e_r": -math.inf}), InvalidParams),
    "device_v": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "v": NAN}), InvalidParams),
    "device_v_inf": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "v": math.inf}), InvalidParams),
    "device_v_-inf": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "v": -math.inf}), InvalidParams),
    "two_level_e_level": (lambda: TwoLevelDecoherenceParams(gamma=1.0, e_level=NAN, x=0.5),
                          InvalidParams),
    "two_level_e_level_inf": (lambda: TwoLevelDecoherenceParams(gamma=1.0, e_level=math.inf, x=0.5),
                              InvalidParams),
    "jump_operator": (lambda: LindbladGenerator(2, (JumpTerm(1.0, np.diag([NAN, 1.0])),)),
                      InvalidParams),
    "jump_rate_inf": (lambda: JumpTerm(math.inf, np.eye(2, dtype=complex)), InvalidParams),
    "device_n_l_inf": (lambda: device_report(DeviceParams(**{**DEFAULT_DEVICE, "n_l": math.inf})),
                       InvalidParams),
}


def _propagate_two_level(t_max, dt):
    spec = EvolutionSpec(two_level_hamiltonian(1.0), (dephasing_bath(Z_BASIS, 1.0),), t_max, dt)
    return propagate(bloch_state(0.5), spec)


@pytest.mark.parametrize("case", NAN_CASES)
def test_non_finite_parameters_rejected(case):
    make, error = NAN_CASES[case]
    with pytest.raises(error):
        make()
