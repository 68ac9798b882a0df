"""Two-level decoherence heat and the three-level device reproductions."""

import dataclasses
import decimal
import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    GRID_GAMMAS,
    GRID_OCCUPATIONS,
    assert_decides_as_the_exact_norm,
    count_generator_builds,
    count_kernel_solves,
    count_structure_solves,
    ginibre_state,
    log_on_support,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from decotherm import thermo
from decotherm.baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    PropagateToFixedPoint,
    _device_units,
    _generator_matrices,
    _kernel_basis,
    apply_generator,
    generator_superop,
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
    InvalidParams,
    NoConvergence,
    NonRealPairing,
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
    _device_baths,
    bloch_state,
    build_device,
    device_report,
    device_reports,
    gamma_sweep,
    two_level_decoherence_heat,
    two_level_hamiltonian,
)
from decotherm.thermo import _traces, heat_rate


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
        with pytest.raises(InvalidParams):
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
        except InvalidParams:
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
        import decotherm.scenarios as sc

        device_report(DeviceParams(**DEFAULT_DEVICE))  # builds the cached unit generators
        calls = count_generator_builds(monkeypatch)
        sets = []
        real = sc._device_baths
        monkeypatch.setattr(sc, "_device_baths", lambda params: sets.append(real(params)) or sets[-1])
        device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": gamma}))
        assert calls == []  # no generator built from jump operators
        assert len(sets) == 1  # one batched build
        names, gens = sets[0].names, sets[0].gens
        assert len(names) == len(gens) == builds  # one matrix for each bath

    @pytest.mark.parametrize("gamma", [0.3, 0.0])
    def test_one_kernel_solve_and_no_structure_solve(self, monkeypatch, gamma):
        solved = count_structure_solves(monkeypatch)
        solves = count_kernel_solves(monkeypatch)
        device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": gamma}))
        assert solved == []  # the baths' structures are in closed form from their rates
        assert solves == [1]  # the Liouvillian alone

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


def replace_baths_at(gamma, edit):
    """scenarios._device_baths, which the device pass reads from scenarios,
    except that edit(tols, gens, i, n) changes the bath set of a pass of n
    points at each point i with dephasing rate gamma (its left and right
    baths are i and n + i), after the set's structures are built from the
    rates and before anything reads the set. build.edited gets the (i, n)
    of each edit, so that a test can assert its seam was used."""
    import decotherm.scenarios as sc

    real = sc._device_baths

    def build(params):
        bset = real(params)
        for i, p in enumerate(params):
            if p.gamma == gamma:
                edit(bset.tols, bset.gens, i, len(params))
                build.edited.append((i, len(params)))
        return bset

    build.edited = []
    return build


def silent_pumps(tols, gens, i, n):
    """Zero-rate pumps: the Liouvillian of H and the dephasing alone has a
    kernel of dimension 2 or more, so the point has no unique steady state."""
    gens[[i, n + i]] = 0.0


def test_gamma_sweep_flags_failures_and_continues(monkeypatch):
    import decotherm.scenarios as sc

    build = replace_baths_at(0.5, silent_pumps)
    monkeypatch.setattr(sc, "_device_baths", build)
    base = DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0})
    points = sc.gamma_sweep(base, [0.0, 0.5, 1.0])
    assert build.edited == [(1, 3)]
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

    def leaking_left(tols, gens, i, n):
        # a right pump's unit generator at rate 1e-6 added to the left
        # bath's: omega_1, built from the left rates, leaks |0> into |R>
        gens[i] += 1e-6 * _device_units()[1][1, 0]

    build = replace_baths_at(0.5, leaking_left)
    monkeypatch.setattr(sc, "_device_baths", build)
    base = DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0})
    with pytest.raises(NoConvergence, match="^left: stationary state of a block has residual"):
        sc.gamma_sweep(base, [0.0, 0.5, 1.0])
    with pytest.raises(NoConvergence, match="^left: stationary state of a block has residual"):
        sc.device_report(DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.5}))
    assert build.edited == [(1, 3), (0, 1)]


def test_block_check_comes_before_the_steady_pass(monkeypatch):
    # the closed-form structures of every point of a pass are checked
    # before the steady pass: a point whose kernel is degenerate and whose
    # left bath fails the block check raises that NoConvergence for the
    # whole call, before any kernel solve, instead of a DegenerateKernel
    import decotherm.scenarios as sc

    def silent_and_tilted(tols, gens, i, n):
        # silent pumps, and a left generator rho -> w Tr[w rho] with
        # w = |L><L| - |R><R|: it annihilates the kernel of H and the
        # dephasing (|0><0| and |L><L| + |R><R|), which stays degenerate,
        # but not the left bath's block states
        silent_pumps(tols, gens, i, n)
        w = np.diag([0.0, 1.0, -1.0]).ravel()
        gens[i] += 1e-6 * np.outer(w, w)

    build = replace_baths_at(0.5, silent_and_tilted)
    monkeypatch.setattr(sc, "_device_baths", build)
    solves = count_kernel_solves(monkeypatch)
    params = [DeviceParams(**{**DEFAULT_DEVICE, "gamma": g}) for g in (0.0, 0.5, 1.0)]
    with pytest.raises(NoConvergence, match="^left: stationary state of a block has residual"):
        sc.device_reports(params)
    assert build.edited == [(1, 3)] and solves == []
    # without the block check the point is a DegenerateKernel entry
    checked = []
    monkeypatch.setattr(sc, "_require_blocks", lambda bset, fro: checked.append(len(bset.names)))
    out = sc.device_reports(params)
    assert checked == [8, 5] and solves == [3, 2]
    assert isinstance(out[1], DegenerateKernel) and "dimension 2" in str(out[1])


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

    def test_generators_are_the_public_baths_on_the_grid(self):
        # linear in the rates, byte for byte (signed zeros too) the
        # generator_superop of the constructors' baths, one point alone and
        # in passes of 50
        def public(points):
            baths = [build_device(p).baths for p in points]
            ordered = [b[0] for b in baths] + [b[1] for b in baths] + [b[2] for b in baths if len(b) > 2]
            return [generator_superop(b.generator).matrix for b in ordered]

        for p in ROADMAP_GRID:
            got = _device_baths([p]).gens
            assert [g.tobytes() for g in got] == [w.tobytes() for w in public([p])]
        for lo in range(0, len(ROADMAP_GRID), 50):
            points = ROADMAP_GRID[lo:lo + 50]
            names, tols, got, _ = _device_baths(points)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in public(points)]
            assert names == [b.name for b in (*(build_device(p).left for p in points),
                                              *(build_device(p).right for p in points),
                                              *(build_device(p).dephasing for p in points if p.gamma > 0))]
            assert np.array_equal(tols, np.full(len(names), PropagateToFixedPoint().tol))

    def test_one_point_report_builds_no_bath(self, monkeypatch):
        import decotherm.scenarios as sc

        p = DeviceParams(**DEFAULT_DEVICE)
        want = device_report(p)

        def refuse(*args, **kwargs):
            raise AssertionError("a device report built a bath")

        monkeypatch.setattr(sc, "build_device", refuse)
        monkeypatch.setattr(Bath, "__init__", refuse)
        assert_same_report(device_report(p), want)

    @pytest.mark.parametrize("field, value, message", [
        *((f, v, f"{f} must be > 0, got {v}") for f in ("n_l", "n_r") for v in (0, -1, math.nan)),
        ("n_l", math.inf, "jump rate must be finite and >= 0, got inf"),
        ("n_r", math.inf, "jump rate must be finite and >= 0, got inf"),
        ("gamma", math.inf, "jump rate must be finite and >= 0, got inf"),
    ])
    def test_refusals_keep_their_text_and_order(self, field, value, message):
        # the constructors' messages, alone and as the 3rd point of 5 with
        # later points that fail otherwise: the first failing point raises
        bad = DeviceParams(**{**DEFAULT_DEVICE, field: value})
        later = DeviceParams(**{**DEFAULT_DEVICE, "n_r": 0.0})
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            device_report(bad)
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            device_reports([DeviceParams(**DEFAULT_DEVICE)] * 2 + [bad, later, later])

    @pytest.mark.parametrize("fields, message", [
        ({"n_l": math.inf, "n_r": 0.0}, "jump rate must be finite and >= 0, got inf"),
        ({"n_l": math.nan, "n_r": math.inf}, "n_l must be > 0, got nan"),
        ({"n_r": -1.0, "gamma": math.inf}, "n_r must be > 0, got -1.0"),
    ])
    def test_refusals_in_bath_order_within_a_point(self, fields, message):
        # left, then right, then dephasing, as the constructors run
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
            device_report(DeviceParams(**{**DEFAULT_DEVICE, **fields}))

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

    def test_one_kernel_solve_per_chunk_and_no_structure_solve(self, monkeypatch):
        import decotherm.scenarios as sc

        per = sc._REPORTS_PER_PASS
        params = [DeviceParams(**{**DEFAULT_DEVICE, "gamma": 0.0 if i % 4 == 0 else 0.3})
                  for i in range(2 * per + 7)]
        solved = count_structure_solves(monkeypatch)
        solves = count_kernel_solves(monkeypatch)
        device_reports(params)
        chunks = [params[lo:lo + per] for lo in range(0, len(params), per)]
        assert solved == []
        assert solves == [len(chunk) for chunk in chunks]  # the chunk's Liouvillians

    def test_degenerate_point_is_flagged(self, monkeypatch):
        import decotherm.scenarios as sc

        params = [DeviceParams(**{**DEFAULT_DEVICE, "gamma": g}) for g in (0.1, 0.5, 0.9)]
        alone = [device_report(params[0]), None, device_report(params[2])]
        build = replace_baths_at(0.5, silent_pumps)
        monkeypatch.setattr(sc, "_device_baths", build)
        solves = count_kernel_solves(monkeypatch)
        out = device_reports(params)
        assert build.edited == [(1, 3)]
        assert solves == [3, 2]  # the degenerate point is set aside, the others solved again without it
        assert isinstance(out[1], DegenerateKernel) and "not unique" in str(out[1])
        assert_same_report(out[0], alone[0])
        assert_same_report(out[2], alone[2])
        with pytest.raises(DegenerateKernel, match="not unique"):
            device_report(params[1])


def test_residual_checks_decide_as_the_exact_norm_on_the_grid():
    # every kernel solve of a report on the ROADMAP grid, the Liouvillian
    # and each bath: ||L||_F clamps the rows ||L||_2 clamps, and the one
    # residual test passes and fails as tol ||L||_2 does
    for p in ROADMAP_GRID:
        assembly = build_device(p)
        mats = np.concatenate([
            liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths)).matrix[None],
            _generator_matrices([b.generator for b in assembly.baths], 3)])
        for lmat, fro in zip(mats, _kernel_basis(mats).fro):
            assert_decides_as_the_exact_norm(lmat, fro)


def test_device_report_across_cold_and_hot_baths():
    # every point of the grid solves: the support of each stationary image
    # comes from the bath's structure, not from a cut on the image's
    # eigenvalues, so a cold bath's 1e-14 population stays on it
    for n_l, n_r, gamma in itertools.product(GRID_OCCUPATIONS, GRID_OCCUPATIONS, GRID_GAMMAS):
        report = device_report(DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma))
        assert np.isfinite(report.entropy_production), (n_l, n_r, gamma)


def closed_form_log_image(bath, rho):
    """Test-side log B_b(rho) of a device bath, whose image of rho is
    diagonal: a pump's keeps rho_00 + rho_xx in the ratio b : a of its rates
    out of and into |x>, the dephasing bath's is the diagonal of rho. Each
    entry is formed and logged at 28 digits, so that a subnormal one keeps
    its log."""
    diag = [decimal.Decimal(float(v)) for v in np.diagonal(rho).real]
    if bath.name != "dephasing":
        a, b = (decimal.Decimal(float(r)) for r in bath.generator.rate_stack)
        x = 1 if bath.name == "left" else 2
        kept = diag[0] + diag[x]
        diag[0], diag[x] = kept * b / (a + b), kept * a / (a + b)
    return np.diag([float(v.ln()) for v in diag]).astype(complex)


@pytest.mark.parametrize("n_l", [1e-16, 1e-15, 5e-324])
def test_cold_left_bath_below_the_range_reports(n_l):
    # below the range's 1e-14 the structure solver lost the left bath's cold
    # population and the report raised SupportViolation; the closed form keeps
    # it, and P is the one recomputed from the closed-form images
    p = DeviceParams(1.5, 1.0, 0.4, n_l, 1.0, 1.0)
    report = device_report(p)
    nu = report.nu
    want = sum(_traces(apply_generator(b.generator, nu), closed_form_log_image(b, nu) - log_on_support(nu))
               for b in build_device(p).baths)
    assert report.entropy_production == pytest.approx(want, rel=1e-14)


def test_device_reports_across_the_float_range():
    # every point gives a finite report or a DecothermError, never a warning
    # or a builtin exception; the Liouvillian sums refuse an overflow
    values = (5e-324, 1e-200, 1e-15, 1.0, 1e6, 1e200, 8e307, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_l, n_r, gamma in itertools.product(values, values, (0.0, *values)):
            try:
                report = device_report(DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma))
            except DecothermError:
                continue
            assert np.isfinite(report.nu).all() and np.isfinite(report.entropy_production)
            assert report.entropy_production >= 0.0, (n_l, n_r, gamma)


NAN = math.nan
Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
NAN_CASES = {
    "device_gamma": (lambda: DeviceParams(**{**DEFAULT_DEVICE, "gamma": NAN}), InvalidParams),
    "sweep_gamma": (lambda: gamma_sweep(DeviceParams(**DEFAULT_DEVICE), [NAN]), InvalidParams),
    "device_n_l": (lambda: device_report(DeviceParams(**{**DEFAULT_DEVICE, "n_l": NAN})),
                   InvalidParams),
    "jump_rate": (lambda: JumpTerm(NAN, np.eye(2, dtype=complex)), InvalidParams),
    "dephasing_rate": (lambda: dephasing_bath(Z_BASIS, NAN), InvalidParams),
    "left_pump": (lambda: left_pump_bath(NAN), InvalidParams),
    "right_pump": (lambda: right_pump_bath(NAN), InvalidParams),
    "beta": (lambda: thermal_occupation(NAN, 1.0), InvalidParams),
    "splitting": (lambda: thermal_occupation(1.0, NAN), InvalidParams),
    "thermal_rate": (lambda: thermal_two_level_bath(1.0, 1.0, NAN), InvalidParams),
    "two_level_gamma": (lambda: TwoLevelDecoherenceParams(gamma=NAN, e_level=1.0, x=0.5),
                        InvalidParams),
    "two_level_x": (lambda: TwoLevelDecoherenceParams(gamma=1.0, e_level=1.0, x=NAN),
                    InvalidParams),
    "bloch_state": (lambda: bloch_state(NAN), InvalidParams),
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


@pytest.mark.parametrize("n_l, n_r, gamma", [(8e307, 8e307, 0.3), (1e308, 0.2, 1e308)])
def test_overflowing_liouvillian_is_refused_without_a_warning(n_l, n_r, gamma):
    # the rates are finite and their Liouvillian's sum overflows; the suite
    # turns a RuntimeWarning from decotherm into an error
    with pytest.raises(InvalidParams, match="^Liouvillian has a non-finite entry$"):
        device_report(DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma))


def summed_magnitude(p):
    """The summed _BathTerms.magnitude of a device point at its steady state:
    the scale of the pairing's rounding that NonRealPairing is relative to."""
    assembly = build_device(p)
    nu = device_report(p).nu
    return float(thermo._state_terms(assembly.baths, nu).magnitude.sum())


class TestDevicePairingCheck:
    """The device reports' P pairing passes the NonRealPairing check of the
    scalar functions and the sampler: an imaginary part above IMAG_TOL times
    the summed _BathTerms.magnitude at a point raises, one below it leaves P
    as it was; the magnitude is formed only where the bound can bind."""

    @staticmethod
    def shift_pairing(monkeypatch, ratio):
        """Each bath's pairing picks up i*ratio*IMAG_TOL times its own scale,
        each point's sum i*ratio*IMAG_TOL times the summed scale, in the
        _bath_terms that the steady pass (thermo._steady_pass) reads; the
        returned list gets the number of baths of each shifted call."""
        calls = []
        real = thermo._bath_terms

        def shifted(bset, rho, log_rho):
            terms = real(bset, rho, log_rho)
            calls.append(len(bset.names))
            return terms._replace(pairing=terms.pairing + 1j * ratio * thermo.IMAG_TOL * terms.magnitude)

        monkeypatch.setattr(thermo, "_bath_terms", shifted)
        return calls

    @staticmethod
    def count_magnitude_reads(monkeypatch):
        reads = []
        real = thermo._BathTerms.magnitude
        monkeypatch.setattr(thermo._BathTerms, "magnitude",
                            property(lambda self: reads.append(1) or real.fget(self)))
        return reads

    @pytest.mark.parametrize("ratio, raises", [(0.5, False), (2.0, True)])
    def test_device_report_bound(self, monkeypatch, ratio, raises):
        p = DeviceParams(**DEFAULT_DEVICE)
        expected = device_report(p).entropy_production
        magnitude = summed_magnitude(p)
        calls = self.shift_pairing(monkeypatch, ratio)
        if raises:
            with pytest.raises(NonRealPairing, match=re.escape(f"> tol 1.0e-10 * {magnitude:.3e}")):
                device_report(p)
        else:
            assert device_report(p).entropy_production == expected
        assert calls == [3]  # the report's one call, on its three baths

    @pytest.mark.parametrize("ratio, raises", [(0.5, False), (2.0, True)])
    def test_gamma_sweep_bound(self, monkeypatch, ratio, raises):
        base = DeviceParams(**DEFAULT_DEVICE)
        gammas = [0.0, 0.5, 1.0, 20.0]
        expected = [pt.report.entropy_production for pt in gamma_sweep(base, gammas)]
        magnitudes = [summed_magnitude(dataclasses.replace(base, gamma=g)) for g in gammas]
        calls = self.shift_pairing(monkeypatch, ratio)
        if raises:
            # the point with the largest imaginary part is named, as before
            worst = max(magnitudes)
            with pytest.raises(NonRealPairing, match=re.escape(f"* {worst:.3e}")):
                gamma_sweep(base, gammas)
        else:
            got = [pt.report.entropy_production for pt in gamma_sweep(base, gammas)]
            assert got == expected
        assert calls == [11]  # the sweep's one call: 4 left, 4 right and 3 dephasing baths

    def test_default_report_forms_no_magnitude(self, monkeypatch):
        reads = self.count_magnitude_reads(monkeypatch)
        device_report(DeviceParams(**DEFAULT_DEVICE))
        gamma_sweep(DeviceParams(**DEFAULT_DEVICE), [0.0, 0.5, 1.0])
        assert reads == []
        thermo._state_terms(build_device(DeviceParams(**DEFAULT_DEVICE)).baths, np.eye(3) / 3).magnitude
        assert reads == [1]  # the counter sees a read

    def test_device_trajectory_sampler_forms_no_magnitude(self, monkeypatch, tmp_path):
        from decotherm import cli

        reads = self.count_magnitude_reads(monkeypatch)
        config = Path(__file__).parents[1] / "configs" / "device_trajectory.json"
        assert cli.run(str(config), output=str(tmp_path / "out.csv")) == 0
        assert reads == []
