"""Flows, forces, linear-response super-operators, reciprocity."""

import json
import warnings

import numpy as np
import pytest
from conftest import (
    count_generator_builds,
    ginibre_state,
    hs_inner,
    log_on_support,
    onsager_superop,
    random_complex,
    random_hermitian,
)

from decotherm.baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    dephasing_bath,
    left_pump_bath,
    right_pump_bath,
    stationary_map,
    stationary_structure,
    thermal_two_level_bath,
)
from decotherm.dynamics import EvolutionSpec, liouvillian, steady_state
from decotherm.errors import DecothermError, InvalidParams, NonRealPairing
from decotherm.onsager import (
    flow,
    force,
    force_parameters,
    linear_flow_prediction,
    linear_response,
    ness_entropy_production,
    reciprocal_coefficients,
)
from decotherm.scenarios import (
    DEFAULT_DEVICE,
    DeviceParams,
    build_device,
    device_dephasing_bath,
)
from decotherm.thermo import entropy_production

Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def device_steady(**overrides):
    params = dict(DEFAULT_DEVICE)
    params.update(overrides)
    assembly = build_device(DeviceParams(**params))
    nu = steady_state(liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths)))
    return assembly, nu


class TestFlowAndForce:
    def test_flow_zero_at_stationary(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert np.max(np.abs(flow(bath, g))) < 1e-12

    def test_dephasing_flow_coherence(self):
        assembly, nu = device_steady()
        deph = assembly.dephasing
        j = flow(deph, nu)
        gamma = DEFAULT_DEVICE["gamma"]
        assert j[1, 2] == pytest.approx(-2.0 * gamma * nu[1, 2], rel=1e-12)

    def test_flow_traceless_hermitian(self, rng):
        bath = left_pump_bath(0.6)
        j = flow(bath, ginibre_state(rng, 3))
        assert abs(np.trace(j)) < 1e-13
        assert np.max(np.abs(j - j.conj().T)) == 0.0

    def test_force_zero_at_stationary(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert np.max(np.abs(force(bath, g))) < 1e-10

    def test_dephasing_force_structure(self, rng):
        # pinching log is diagonal: off-diagonals of X are -<j|log nu|k>
        bath = dephasing_bath(Z_BASIS, 0.5)
        nu = ginibre_state(rng, 2)
        x = force(bath, nu)
        log_nu = log_on_support(nu)
        pinched = stationary_map(bath, nu)
        log_pinched = log_on_support(pinched)
        assert x[0, 1] == pytest.approx(-log_nu[0, 1], rel=1e-12)
        assert x[0, 0] == pytest.approx((log_pinched - log_nu)[0, 0], rel=1e-12)

    def test_thermal_force_closed_form(self, rng):
        e, beta = 1.0, 0.9
        bath = thermal_two_level_bath(e, beta, 1.0)
        h = np.diag([0.0, e]).astype(complex)
        # commuting full-rank state
        nu = np.diag([0.55, 0.45]).astype(complex)
        z = 1.0 + np.exp(-beta * e)
        expected = -beta * h - np.log(z) * np.eye(2) - log_on_support(nu)
        assert np.max(np.abs(force(bath, nu) - expected)) < 1e-12


class TestNessEntropyProduction:
    def test_single_bath_stationary_is_zero(self):
        bath = thermal_two_level_bath(1.0, 1.0, 1.0)
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert ness_entropy_production([bath], g) == pytest.approx(0.0, abs=1e-12)

    def test_device_preset_positive_and_consistent(self):
        # one implementation under two names: equal bit for bit
        assembly, nu = device_steady()
        p1 = ness_entropy_production(assembly.baths, nu)
        p2 = entropy_production(nu, assembly.baths)
        assert p1 > 0.0
        assert p1 == p2

    def test_imaginary_part_is_a_numerical_failure(self, monkeypatch, tmp_path, capsys):
        # a log B_b(nu), the kernel's input, carrying i*s*J_b adds about
        # i*s*||J_b||_F^2 to each pairing Tr[L_b(nu) X_b]; the sum may pick
        # up at most IMAG_TOL times the pairing's scale, the summed
        # sum_ij |L_b(nu)_ij| (|log B_b(nu)|_ji + |log nu|_ji)
        from decotherm import cli, thermo

        assembly, nu = device_steady()
        flows = {b.name: flow(b, nu) for b in assembly.baths}
        weight = sum(np.linalg.norm(j) ** 2 for j in flows.values())
        magnitude = float(thermo._state_terms(assembly.baths, nu).magnitude.sum())
        real_log = thermo._stationary_log

        def shifted_log(bset, rho, s):
            log_b, leak = real_log(bset, rho)
            return log_b + 1j * s * np.stack([flows[name] for name in bset.names]), leak

        for ratio, raises in ((0.5, False), (2.0, True)):
            s = ratio * thermo.IMAG_TOL * magnitude / weight
            monkeypatch.setattr(
                thermo, "_stationary_log",
                lambda bset, rho, s=s: shifted_log(bset, rho, s)
            )
            if raises:
                with pytest.raises(NonRealPairing):
                    ness_entropy_production(assembly.baths, nu)
            else:
                ness_entropy_production(assembly.baths, nu)
        assert issubclass(NonRealPairing, DecothermError)
        path = tmp_path / "device.json"
        path.write_text(json.dumps({
            "scenario": "device-steady",
            "params": DEFAULT_DEVICE,
            "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
        }))
        assert cli.run(str(path)) == 3
        assert "numerical failure in entropy_production" in capsys.readouterr().err

    def test_symmetric_decoupled_case_is_equilibrium(self):
        # n_L = n_R, V = 0, gamma = 0: each bath equilibrates its own
        # sector, the diagonal steady state is a mutual fixed point
        n = 0.4
        baths = (left_pump_bath(n), right_pump_bath(n))
        h = np.diag([0.0, 1.2, 1.2]).astype(complex)
        nu = steady_state(liouvillian(EvolutionSpec(h, baths)))
        assert ness_entropy_production(baths, nu) == pytest.approx(0.0, abs=1e-10)
        for b in baths:
            assert np.max(np.abs(flow(b, nu))) < 1e-11

    def test_no_baths_produce_nothing(self):
        _, nu = device_steady()
        p = ness_entropy_production((), nu)
        assert p == 0.0 and type(p) is float

    def test_one_eigensolve_of_nu_per_call(self, monkeypatch):
        # the device baths' cached structures carry the logs of their
        # images, so log nu, shared by every bath's force, is the one eigh
        from decotherm.onsager import force_flow_pairs

        assembly, nu = device_steady()
        for b in assembly.baths:
            assert stationary_structure(b).blocks is not None
        single = [force(b, nu) for b in assembly.baths]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        ness_entropy_production(assembly.baths, nu)
        assert calls == [(3, 3)]
        calls.clear()
        pairs = force_flow_pairs(assembly.baths, nu)
        assert calls == [(3, 3)]
        for p, x in zip(pairs, single):
            assert np.array_equal(p.force, x)


class TestOnsagerSuperop:
    """M_{b,a} as linear_response(...).pairs[(b, a)], the replacement of the
    former onsager_superop, against the test-side oracle."""

    def test_structural_reciprocity(self):
        assembly, _ = device_steady()
        lr = linear_response(assembly.baths, c=0.7)
        for b in assembly.baths:
            for a in assembly.baths:
                m_ba = lr.pairs[(b.name, a.name)]
                m_ab_dag = lr.pairs[(a.name, b.name)].adjoint()
                norm = np.linalg.norm(m_ba.matrix)
                assert np.linalg.norm(m_ba.matrix - m_ab_dag.matrix) <= 1e-10 * max(norm, 1e-30)
                oracle = onsager_superop(b, a, c=0.7).matrix
                assert np.linalg.norm(m_ba.matrix - oracle) <= 1e-14 * max(norm, 1e-30)

    def test_adjoint_composition_on_device_hamiltonian(self):
        # L_l then L_d-adjoint applied to H lands on the coherence sector
        # with weight gamma * n_L * V
        assembly, _ = device_steady()
        h = assembly.hamiltonian
        m_dl = linear_response(assembly.baths, c=1.0).pairs[("dephasing", "left")]
        out = m_dl.adjoint().apply(h)
        g, n_l, v = DEFAULT_DEVICE["gamma"], DEFAULT_DEVICE["n_l"], DEFAULT_DEVICE["v"]
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = expected[2, 1] = g * n_l * v
        assert np.max(np.abs(out - expected)) < 1e-12
        oracle = onsager_superop(assembly.dephasing, assembly.left, c=1.0).adjoint().apply(h)
        assert np.max(np.abs(oracle - expected)) < 1e-12

    def test_empty_generator_gives_zero(self):
        from decotherm.baths import Bath, LindbladGenerator

        empty = Bath("null", LindbladGenerator(3, ()))
        left = left_pump_bath(0.6)
        lr = linear_response([left, empty], 1.0)
        assert np.max(np.abs(lr.pairs[("left", "null")].matrix)) == 0.0
        assert np.max(np.abs(lr.pairs[("null", "left")].matrix)) == 0.0


class TestLinearResponse:
    def test_one_generator_build_per_bath(self, monkeypatch):
        assembly, _ = device_steady()
        built = count_generator_builds(monkeypatch)
        lr = linear_response(assembly.baths, c=0.7)
        assert len(built) == 1  # one batched build
        assert sorted(map(id, built[0])) == sorted(id(b.generator) for b in assembly.baths)
        monkeypatch.undo()
        names = [b.name for b in assembly.baths]
        assert list(lr.pairs) == [(b, a) for b in names for a in names]
        for b in assembly.baths:
            for a in assembly.baths:
                expected = onsager_superop(b, a, c=0.7).matrix
                assert np.array_equal(lr.pairs[(b.name, a.name)].matrix, expected)

    def test_mirror_pairs_are_exact_adjoints_at_d16(self, rng):
        # M_{a,b} = M_{b,a}† by construction, not by the rounding of two
        # separate products
        d = 16
        baths = [
            Bath(name, LindbladGenerator(d, tuple(
                JumpTerm(float(rng.uniform(0.5, 1.5)), random_complex(rng, d)) for _ in range(4))))
            for name in ("hot", "cold")
        ]
        basis = np.linalg.qr(random_complex(rng, d))[0]
        baths.append(dephasing_bath([basis[:, j] for j in range(d)], 0.5))
        lr = linear_response(baths, c=0.7)
        for b in baths:
            for a in baths:
                m = lr.pairs[(b.name, a.name)].matrix
                assert np.array_equal(m, lr.pairs[(a.name, b.name)].matrix.conj().T)
                expected = onsager_superop(b, a, c=0.7).matrix
                assert np.max(np.abs(m - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_bath_dimension_mismatch(self):
        with pytest.raises(InvalidParams):
            linear_response([left_pump_bath(0.6), dephasing_bath(Z_BASIS, 1.0)])

    def test_product_past_the_float_range_is_refused(self):
        # the generator's entries, ~3e154, are finite; their products are not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="^linear response has a non-finite entry$"):
                linear_response([thermal_two_level_bath(1.0, 1.0, 1e154)])

    def test_repeated_bath_name(self):
        # the pairs are keyed by name: two baths named "bath" gave one pair, not four
        twice = [dephasing_bath(Z_BASIS, 1.0, name="bath"),
                 thermal_two_level_bath(1.0, 1.0, 1.0, name="bath")]
        with pytest.raises(InvalidParams, match="'bath' is given twice"):
            linear_response(twice)


class TestLinearFlowPrediction:
    def test_zero_forces_zero_flows(self):
        assembly, _ = device_steady()
        lr = linear_response(assembly.baths, c=1.0)
        zero = np.zeros((3, 3), dtype=complex)
        forces = {b.name: zero for b in assembly.baths}
        flows = linear_flow_prediction(lr, forces)
        for j in flows.values():
            assert np.max(np.abs(j)) == 0.0

    def test_double_sum_symmetry(self, rng):
        # sum_ba Tr[M_ba(X_a) X_b] equals the adjoint-ordered sum
        # sum_ba Tr[(M_ba)†(X_b) X_a]; the adjoint of M_ba IS the (a, b)
        # response map, so this exercises both the pairing and reciprocity
        assembly, _ = device_steady()
        lr = linear_response(assembly.baths, c=1.0)
        names = [b.name for b in assembly.baths]
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
            assert s1 == pytest.approx(s2, abs=1e-10 * max(abs(s1), 1.0))

    def test_missing_pair(self):
        assembly, _ = device_steady()
        lr = linear_response(assembly.baths[:2], c=1.0)
        forces = {b.name: np.zeros((3, 3), dtype=complex) for b in assembly.baths}
        with pytest.raises(InvalidParams):
            linear_flow_prediction(lr, forces)

    def test_nested_list_force_is_refused(self):
        assembly, _ = device_steady()
        lr = linear_response(assembly.baths[:1], c=1.0)
        with pytest.raises(InvalidParams, match="must be a numpy array, got list"):
            linear_flow_prediction(lr, {assembly.baths[0].name: np.zeros((3, 3)).tolist()})

    def test_near_equilibrium_correlation_reported(self, capsys):
        # small gradient, small coupling: report the relative error of the
        # predicted left flow; no fixed bound is asserted for the linear regime
        assembly, nu = device_steady(n_l=0.42, n_r=0.40, v=0.1, gamma=0.05)
        lr = linear_response(assembly.baths, c=1.0)
        forces = {b.name: force(b, nu) for b in assembly.baths}
        predicted = linear_flow_prediction(lr, forces)
        exact = flow(assembly.left, nu)
        rel_err = np.linalg.norm(predicted["left"] - exact) / np.linalg.norm(exact)
        print(f"linear-response left-flow relative error: {rel_err:.3f}")
        assert np.isfinite(rel_err)


class TestForceParameters:
    def test_diagonal_state_rejected(self):
        nu = np.diag([0.5, 0.3, 0.2]).astype(complex)
        with pytest.raises(InvalidParams):
            force_parameters(nu)

    def test_antisymmetry(self):
        _, nu = device_steady()
        fp = force_parameters(nu)
        assert fp.x_d == -fp.x_l

    def test_preset_sign_matches_log_coherence(self):
        _, nu = device_steady()
        fp = force_parameters(nu)
        log_nu = log_on_support(nu)
        assert np.sign(fp.x_l) == np.sign(log_nu[1, 2].real)
        assert fp.x_l == pytest.approx(2.0 * log_nu[1, 2].real, rel=1e-12)


class TestReciprocalCoefficients:
    def test_zero_gamma(self):
        left = left_pump_bath(0.6)
        assembly, _ = device_steady()
        from decotherm.baths import Bath, JumpTerm, LindbladGenerator

        deph0 = device_dephasing_bath(1.0)
        zero_deph = Bath(
            "dephasing",
            LindbladGenerator(3, tuple(JumpTerm(0.0, t.jump) for t in deph0.generator.terms)),
        )
        coeffs = reciprocal_coefficients(assembly.hamiltonian, left, zero_deph, c=1.0)
        assert coeffs.m_ld == 0.0 and coeffs.m_dl == 0.0

    def test_preset_value(self):
        assembly, _ = device_steady()
        coeffs = reciprocal_coefficients(assembly.hamiltonian, assembly.left, assembly.dephasing, c=1.0)
        assert coeffs.m_ld == pytest.approx(0.072, abs=1e-10)
        assert coeffs.m_dl == pytest.approx(0.072, abs=1e-10)

    def test_equality_random_draws(self, rng):
        from decotherm.scenarios import device_hamiltonian

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
            h = device_hamiltonian(p)
            left = left_pump_bath(p.n_l)
            deph = device_dephasing_bath(p.gamma)
            coeffs = reciprocal_coefficients(h, left, deph, c)
            expected = c * p.gamma * p.n_l * p.v
            assert coeffs.m_ld == pytest.approx(coeffs.m_dl, abs=1e-10)
            assert coeffs.m_ld == pytest.approx(expected, abs=1e-10)


def test_total_flow_plus_commutator_vanishes_at_steady_state():
    assembly, nu = device_steady()
    h = assembly.hamiltonian
    total = sum(flow(b, nu) for b in assembly.baths) - 1j * (h @ nu - nu @ h)
    assert np.linalg.norm(total) <= 1e-9


def test_force_is_hermitian(rng):
    bath = left_pump_bath(0.6)
    x = force(bath, ginibre_state(rng, 3))
    assert np.max(np.abs(x - x.conj().T)) < 1e-10


def test_force_flow_pairs_invariants():
    assembly, nu = device_steady()
    from decotherm.onsager import force_flow_pairs

    pairs = force_flow_pairs(assembly.baths, nu)
    assert [p.bath_name for p in pairs] == [b.name for b in assembly.baths]
    for p in pairs:
        assert np.max(np.abs(p.flow - p.flow.conj().T)) <= 1e-10
        assert abs(np.trace(p.flow)) <= 1e-10
        assert np.max(np.abs(p.force - p.force.conj().T)) <= 1e-10
    total = sum(hs_inner(p.flow, p.force).real for p in pairs)
    assert total == pytest.approx(ness_entropy_production(assembly.baths, nu), abs=1e-12)
