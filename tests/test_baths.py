"""Lindblad generators, bath constructors, and stationary maps."""

import decimal
import itertools

import numpy as np
import pytest
from conftest import (
    GRID_GAMMAS,
    GRID_OCCUPATIONS,
    SX,
    SZ,
    dissipator_oracle,
    ginibre_state,
    log_on_support,
    random_complex,
    superop_from_action,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from decotherm import thermo
from decotherm.baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    PropagateToFixedPoint,
    _generator_matrices,
    _kernel_basis,
    _stationary_structures,
    apply_generator,
    dephasing_bath,
    generator_superop,
    left_pump_bath,
    right_pump_bath,
    stationary_map,
    stationary_structure,
    thermal_occupation,
    thermal_two_level_bath,
)
from decotherm.errors import DimensionMismatch, InvalidParams, NoConvergence
from decotherm.dynamics import EvolutionSpec, liouvillian
from decotherm.operators import assert_density_matrix
from decotherm.scenarios import DeviceParams, build_device, device_dephasing_bath

Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def unit(i, j, d=3):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


class TestApplyGenerator:
    def test_dephasing_on_bloch_x(self):
        bath = dephasing_bath(Z_BASIS, gamma=0.8)
        x = 0.6
        rho = 0.5 * (np.eye(2) + x * SX).astype(complex)
        out = apply_generator(bath.generator, rho)
        # four projector terms by hand: off-diagonals decay at rate 2*gamma
        assert np.allclose(out, -2.0 * 0.8 * (x / 2.0) * SX, atol=1e-14)

    def test_diagonal_state_is_fixed(self):
        bath = dephasing_bath(Z_BASIS, gamma=1.3)
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert np.allclose(apply_generator(bath.generator, rho), 0.0, atol=1e-15)

    def test_trace_annihilation_random(self, rng):
        gen = LindbladGenerator(
            3, tuple(JumpTerm(r, random_complex(rng, 3)) for r in (0.3, 1.1, 0.7))
        )
        for _ in range(10):
            a = random_complex(rng, 3)
            assert abs(np.trace(apply_generator(gen, a))) < 1e-12 * np.linalg.norm(a)

    def test_hermiticity_preservation_random(self, rng):
        gen = LindbladGenerator(3, (JumpTerm(0.9, random_complex(rng, 3)),))
        for _ in range(50):
            a = random_complex(rng, 3)
            lhs = apply_generator(gen, a.conj().T)
            rhs = apply_generator(gen, a).conj().T
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(np.linalg.norm(a), 1.0)

    def test_hermitian_in_traceless_hermitian_out(self, rng):
        gen = LindbladGenerator(
            3, tuple(JumpTerm(r, random_complex(rng, 3)) for r in (0.5, 1.3))
        )
        for _ in range(50):
            a = random_complex(rng, 3)
            a = 0.5 * (a + a.conj().T)
            out = apply_generator(gen, a)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12 * max(np.linalg.norm(a), 1.0)
            assert abs(np.trace(out)) < 1e-12 * max(np.linalg.norm(a), 1.0)

    def test_matches_oracle(self, rng):
        terms = [(0.4, random_complex(rng, 3)), (1.2, random_complex(rng, 3))]
        gen = LindbladGenerator(3, tuple(JumpTerm(r, a) for r, a in terms))
        rho = ginibre_state(rng, 3)
        assert np.max(np.abs(apply_generator(gen, rho) - dissipator_oracle(rho, terms))) < 1e-13

    def test_stack_matches_each_operator(self, rng):
        gen = LindbladGenerator(4, tuple(JumpTerm(r, random_complex(rng, 4)) for r in (0.3, 1.1)))
        stack = np.stack([random_complex(rng, 4) for _ in range(5)])
        out = apply_generator(gen, stack)
        for a, b in zip(stack, out):
            assert np.max(np.abs(b - apply_generator(gen, a))) < 1e-13

    def test_dimension_mismatch(self):
        bath = dephasing_bath(Z_BASIS, gamma=1.0)
        with pytest.raises(DimensionMismatch):
            apply_generator(bath.generator, np.eye(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            apply_generator(bath.generator, np.zeros((2, 2, 2, 2), dtype=complex))


class TestGeneratorSuperop:
    """The closed-form matrix against the per-term oracle on every matrix unit."""

    @staticmethod
    def oracle(gen):
        terms = [(t.rate, t.jump) for t in gen.terms]
        return superop_from_action(gen.dim, lambda m: dissipator_oracle(m, terms)).matrix

    def test_device_baths_bit_identical(self, rng):
        # occupations and dephasing rates over the steady_sweep benchmark ranges
        for _ in range(100):
            n_l, n_r = 10.0 ** rng.uniform(-12.0, 6.0, 2)
            gamma = 10.0 ** rng.uniform(-2.0, 2.0)
            for bath in (left_pump_bath(n_l), right_pump_bath(n_r), device_dephasing_bath(gamma)):
                closed = generator_superop(bath.generator).matrix
                assert np.array_equal(closed, self.oracle(bath.generator))

    def test_random_d16(self, rng):
        gen = LindbladGenerator(
            16, tuple(JumpTerm(r, random_complex(rng, 16)) for r in rng.uniform(0.1, 2.0, 6))
        )
        ref = self.oracle(gen)
        err = np.linalg.norm(generator_superop(gen).matrix - ref) / np.linalg.norm(ref)
        assert err <= 1e-14


class TestDephasingBath:
    def test_not_orthonormal(self):
        with pytest.raises(InvalidParams):
            dephasing_bath([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / 2.0], gamma=1.0)

    def test_pinching_map(self):
        bath = dephasing_bath(Z_BASIS, gamma=1.0)
        x, z = 0.5, 0.3
        rho = 0.5 * (np.eye(2) + x * SX + z * SZ).astype(complex)
        out = stationary_map(bath, rho)
        assert np.allclose(out, 0.5 * (np.eye(2) + z * SZ), atol=1e-14)

    def test_eigenbasis_of_rho_is_fixed(self, rng):
        rho = ginibre_state(rng, 3)
        lam, u = np.linalg.eigh(rho)
        bath = dephasing_bath([u[:, j] for j in range(3)], gamma=0.5)
        assert np.max(np.abs(stationary_map(bath, rho) - rho)) < 1e-12

    def test_pinching_linear_idempotent_commuting(self, rng):
        bath = dephasing_bath(Z_BASIS, gamma=0.7)
        r1, r2 = ginibre_state(rng, 2), ginibre_state(rng, 2)
        w = 0.3
        mixed = stationary_map(bath, w * r1 + (1 - w) * r2)
        combo = w * stationary_map(bath, r1) + (1 - w) * stationary_map(bath, r2)
        assert np.max(np.abs(mixed - combo)) < 1e-14
        once = stationary_map(bath, r1)
        assert np.max(np.abs(stationary_map(bath, once) - once)) < 1e-14
        for j in range(2):
            p = np.diag(np.eye(2)[j]).astype(complex)
            assert np.max(np.abs(once @ p - p @ once)) < 1e-14


def bose_oracle(x: float) -> float:
    """1/(e^x - 1) at 60 digits, with e^x - 1 summed as its Taylor series
    below x = 1, so that no digits cancel for a hot bath."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        dx = decimal.Decimal(x)
        if x >= 1.0:
            return float(1 / (dx.exp() - 1))
        term = total = dx
        k = 1
        while term > total.scaleb(-65):
            k += 1
            term = term * dx / k
            total += term
        return float(1 / total)


class TestThermalBath:
    def test_occupation_value(self):
        # 1/(e - 1) for beta = E = 1
        assert thermal_occupation(1.0, 1.0) == pytest.approx(1.0 / (np.e - 1.0), rel=1e-12)
        assert thermal_occupation(1.0, 1.0) == pytest.approx(0.58198, abs=5e-6)

    def test_occupation_against_decimal_oracle(self):
        # hot baths (small beta E) included: 1 - exp(-x) must not cancel
        xs = np.concatenate([np.geomspace(1e-300, 700.0, 301), [1e-12, 1e-10, 1e-6, 1e-3]])
        for x in xs:
            want = bose_oracle(float(x))
            assert abs(thermal_occupation(float(x), 1.0) - want) <= 4 * np.finfo(float).eps * want, x

    def test_gibbs_annihilated(self):
        bath = thermal_two_level_bath(e_excited=1.0, beta=1.0, rate_scale=1.0)
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert np.max(np.abs(apply_generator(bath.generator, g))) < 1e-10

    def test_zero_temperature_limit(self):
        bath = thermal_two_level_bath(e_excited=1.0, beta=900.0, rate_scale=1.0)
        # occupation underflows to zero: only the decay term acts
        assert bath.generator.rate_stack[1] == 0.0
        g = stationary_map(bath, np.eye(2, dtype=complex) / 2)
        assert np.allclose(g, np.diag([1.0, 0.0]), atol=1e-12)

    def test_non_positive_beta(self):
        with pytest.raises(InvalidParams):
            thermal_two_level_bath(e_excited=1.0, beta=0.0, rate_scale=1.0)

    def test_detailed_balance_by_hand(self):
        e, beta, scale = 1.3, 0.7, 2.0
        bath = thermal_two_level_bath(e, beta, scale)
        n = 1.0 / np.expm1(beta * e)
        g = np.diag([1.0, np.exp(-beta * e)]).astype(complex)
        g /= np.trace(g).real
        terms = [
            (scale * (1 + n), np.array([[0, 1], [0, 0]], dtype=complex)),
            (scale * n, np.array([[0, 0], [1, 0]], dtype=complex)),
        ]
        assert np.max(np.abs(dissipator_oracle(g, terms))) < 1e-12


class TestPumpBaths:
    def test_left_on_empty_level(self):
        bath = left_pump_bath(0.6)
        out = apply_generator(bath.generator, unit(0, 0))
        expected = 2.0 * 1.6 * (unit(1, 1) - unit(0, 0))
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_right_on_occupied_level(self):
        bath = right_pump_bath(0.2)
        out = apply_generator(bath.generator, unit(2, 2))
        expected = 2.0 * 1.2 * (unit(0, 0) - unit(2, 2))
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_trace_annihilation(self, rng):
        for bath in (left_pump_bath(0.6), right_pump_bath(0.2)):
            rho = ginibre_state(rng, 3)
            assert abs(np.trace(apply_generator(bath.generator, rho))) < 1e-13

    def test_non_positive_occupation(self):
        with pytest.raises(InvalidParams):
            left_pump_bath(0.0)
        with pytest.raises(InvalidParams):
            right_pump_bath(-0.5)

    def test_from_beta_matches_direct(self):
        beta, e_l = 0.8, 1.5
        n = 1.0 / np.expm1(beta * e_l)
        bath = left_pump_bath(thermal_occupation(beta, e_l))
        assert np.allclose(bath.generator.rate_stack, [1.0 + n, n], rtol=1e-14, atol=0.0)

    def test_fixed_point_population_ratio(self, rng):
        # left bath alone: p_L/p_0 -> (1+n)/n, p_R preserved, coherences die
        n = 0.6
        bath = left_pump_bath(n)
        rho = ginibre_state(rng, 3)
        out = stationary_map(bath, rho)
        p_r = float(rho[2, 2].real)
        assert out[2, 2].real == pytest.approx(p_r, abs=1e-10)
        assert out[1, 1].real / out[0, 0].real == pytest.approx((1 + n) / n, rel=1e-9)
        assert abs(out[0, 1]) < 1e-11 and abs(out[0, 2]) < 1e-11 and abs(out[1, 2]) < 1e-11

    @pytest.mark.parametrize("n", [1e-14, 10.0**-13.96875, 1e-12, 1e-9, 0.6, 1e3, 1e6])
    def test_stationary_image_closed_form(self, n, rng):
        # exact for cold and hot baths, where the residual scales with the rates
        rho = ginibre_state(rng, 3)
        _, p_l, p_r = np.diagonal(rho).real
        hot, cold = (1.0 + n) / (1.0 + 2.0 * n), n / (1.0 + 2.0 * n)
        left = np.diag([(1.0 - p_r) * cold, (1.0 - p_r) * hot, p_r])
        right = np.diag([(1.0 - p_l) * hot, p_l, (1.0 - p_l) * cold])
        for bath, image in ((left_pump_bath(n), left), (right_pump_bath(n), right)):
            assert np.max(np.abs(stationary_map(bath, rho) - image)) <= 1e-14
            # the log keeps the cold n/(1+2n) population on the support
            (log_b,), (leak,) = thermo._stationary_log([bath], rho[None])
            assert np.max(np.abs(log_b - np.diag(np.log(np.diagonal(image))))) <= 1e-13
            assert abs(leak) <= 1e-15


class TestStationaryMapGeneral:
    def test_gibbs_closed_form_value(self):
        # beta*E from hot to cold; at 900 the excitation rate underflows to 0
        for beta in (np.log(2.0), 1.0, 30.0, 900.0):
            bath = thermal_two_level_bath(e_excited=1.0, beta=beta, rate_scale=1.0)
            out = stationary_map(bath, np.diag([0.2, 0.8]).astype(complex))
            gibbs = np.diag([1.0, np.exp(-beta)]) / (1.0 + np.exp(-beta))
            assert np.max(np.abs(out - gibbs)) <= 1e-15

    @pytest.mark.parametrize(
        "bath",
        [
            thermal_two_level_bath(1.0, 1.0, 1.0),
            dephasing_bath(Z_BASIS, 0.7),
            left_pump_bath(0.6),
            right_pump_bath(0.2),
        ],
        ids=["thermal", "dephasing", "left-pump", "right-pump"],
    )
    def test_idempotent_and_annihilated_and_valid(self, bath, rng):
        rho = ginibre_state(rng, bath.dim)
        out = stationary_map(bath, rho)
        assert_density_matrix(out, what="stationary image")
        assert np.max(np.abs(apply_generator(bath.generator, out))) < 1e-8
        again = stationary_map(bath, out)
        assert np.max(np.abs(again - out)) < 1e-9

    @pytest.mark.parametrize(
        "bath",
        [thermal_two_level_bath(1.0, 1.0, 1.0), dephasing_bath(Z_BASIS, 0.7), left_pump_bath(0.6)],
        ids=["thermal", "dephasing", "left-pump"],
    )
    def test_stack_matches_each_state(self, bath, rng):
        stack = np.stack([ginibre_state(rng, bath.dim) for _ in range(4)])
        out = stationary_map(bath, stack)
        assert out.shape == stack.shape
        for rho, b in zip(stack, out):
            assert np.max(np.abs(b - stationary_map(bath, rho))) < 1e-14

    def test_no_convergence_when_residual_reaches_tol(self, rng):
        base = left_pump_bath(0.6)
        strangled = Bath("left", base.generator, PropagateToFixedPoint(tol=0.0))
        with pytest.raises(NoConvergence):
            stationary_map(strangled, ginibre_state(rng, 3))
        with pytest.raises(NoConvergence):
            stationary_map(strangled, np.stack([ginibre_state(rng, 3) for _ in range(3)]))

    def test_empty_generator_keeps_every_state(self, rng):
        empty = Bath("null", LindbladGenerator(3, ()))
        rho = ginibre_state(rng, 3)
        assert np.array_equal(stationary_structure(empty).projector.matrix, np.eye(9))
        assert np.max(np.abs(stationary_map(empty, rho) - rho)) < 1e-15

    def test_traceless_operators_are_not_rescaled(self):
        # Tr = 0 leaves nothing to rescale to: the image is the plain projection
        bath = dephasing_bath(Z_BASIS, 0.7)
        assert np.max(np.abs(stationary_map(bath, SX.copy()))) <= 1e-15
        assert np.max(np.abs(stationary_map(bath, SZ.copy()) - SZ)) <= 1e-15

    def test_nan_input_raises(self):
        # refused before any numerics, not left to fail the residual check
        rho = np.eye(2, dtype=complex) / 2
        rho[0, 1] = np.nan
        with pytest.raises(InvalidParams):
            stationary_map(dephasing_bath(Z_BASIS, 0.7), rho)


class TestKernelProjector:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 16),
        n_jumps=st.integers(1, 4),
        split=st.integers(0, 15),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projector_onto_kernel(self, d, n_jumps, split, seed):
        # jumps confined to two diagonal blocks give a kernel of dimension 2
        split %= d
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(n_jumps):
            a = random_complex(rng, d)
            if split:
                a[:split, split:] = 0.0
                a[split:, :split] = 0.0
            terms.append(JumpTerm(float(rng.uniform(0.1, 2.0)), a))
        gen = LindbladGenerator(d, tuple(terms))
        lmat = generator_superop(gen).matrix
        struct = stationary_structure(Bath("b", gen))
        p, cached_scale = struct.projector.matrix, struct.scale
        scale = np.linalg.norm(lmat, 2)
        assert cached_scale == pytest.approx(scale, rel=1e-12)
        assert np.linalg.norm(p @ p - p, 2) <= 1e-12 * scale
        assert np.linalg.norm(lmat @ p, 2) <= 1e-12 * scale
        assert np.linalg.norm(p @ lmat, 2) <= 1e-12 * scale
        vec_eye = np.eye(d).reshape(-1)
        assert np.max(np.abs(vec_eye @ p - vec_eye)) <= 1e-12 * scale


class TestStationaryStructure:
    # seeds 0, 2, 4 and 5 put two blocks' first-probe expectations close
    # enough together to mix their eigenvectors
    @pytest.mark.parametrize(
        "seed", [None, *range(8)], ids=["fixture", *map("seed{}".format, range(8))]
    )
    def test_dephasing_d16_random_basis(self, rng, seed):
        if seed is not None:
            rng = np.random.default_rng(seed)
        d = 16
        basis, _ = np.linalg.qr(random_complex(rng, d))
        bath = dephasing_bath([basis[:, j] for j in range(d)], 0.05)
        struct = stationary_structure(bath)
        assert struct.blocks.shape == (d, d, d)
        # each block is one basis projector, and its stationary state is that
        # projector, whose log is zero
        overlaps = np.einsum("jk,mkl,lj->mj", basis.conj().T, struct.blocks, basis).real
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1.0, atol=1e-12)
        assert np.allclose(overlaps.sum(axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(struct.logs)) <= 1e-12
        rho = ginibre_state(rng, d, mix=0.1)
        probs = np.einsum("jk,kl,lj->j", basis.conj().T, rho, basis).real
        pinched_log = (basis * np.log(probs)) @ basis.conj().T
        (log_b,), (leak,) = thermo._stationary_log([bath], rho[None])
        assert np.max(np.abs(log_b - pinched_log)) <= 1e-12
        assert abs(leak) <= 1e-14

    def test_rank_two_block_takes_per_state_path(self, rng):
        # one rank-2 projector jump at d = 3: ker L = M_2 ⊕ C, so n_k = 2 for
        # the first block and the image is eigensolved per state
        proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
        bath = Bath("block", LindbladGenerator(3, (JumpTerm(0.4, proj),)))
        assert stationary_structure(bath).blocks is None
        rest = np.eye(3) - proj
        for _ in range(3):
            rho = ginibre_state(rng, 3)
            log_b = log_on_support(proj @ rho @ proj + rest @ rho @ rest)
            flux = -np.trace(apply_generator(bath.generator, rho) @ log_b).real
            rel = np.trace(rho @ (log_on_support(rho) - log_b)).real
            assert thermo.entropy_flux(bath, rho) == pytest.approx(flux, rel=1e-12, abs=1e-14)
            assert thermo.relative_entropy_to_bath(rho, bath) == pytest.approx(rel, rel=1e-12, abs=1e-14)

    def test_positional_tolerance_holder(self, rng):
        # Bath(name, generator, PropagateToFixedPoint()) keeps working
        base = left_pump_bath(0.6)
        bath = Bath("left", base.generator, PropagateToFixedPoint())
        assert bath.fixed_point.tol == base.fixed_point.tol == 1e-12
        rho = ginibre_state(rng, 3)
        assert np.max(np.abs(stationary_map(bath, rho) - stationary_map(base, rho))) <= 1e-15

    def test_images_keep_the_trace(self, rng):
        # B preserves the trace, also of a state whose trace has drifted
        rho = 1.01 * ginibre_state(rng, 3)
        for bath in (left_pump_bath(1e-3), right_pump_bath(2.0), device_dephasing_bath(0.3)):
            assert np.trace(stationary_map(bath, rho)).real == pytest.approx(1.01, rel=1e-14)
            # relative entropy is homogeneous of degree one
            r = thermo.relative_entropy_to_bath(rho / 1.01, bath)
            assert thermo.relative_entropy_to_bath(rho, bath) == pytest.approx(1.01 * r, rel=1e-12)


def _structure_arrays(struct):
    return (struct.projector.matrix, np.array(struct.scale), struct.blocks, struct.conserved,
            struct.logs)


def assert_stacked_equals_one_bath(make_baths):
    """One stacked pass over fresh baths from make_baths() gives each bath
    the structure that its one-bath call gives, bit for bit."""
    stacked = make_baths()
    structs = _stationary_structures(stacked, gen_stack(stacked))
    for bath, struct, alone in zip(stacked, structs, make_baths()):
        assert bath._structure is struct
        want_all = _structure_arrays(stationary_structure(alone))
        for got, want in zip(_structure_arrays(struct), want_all):
            assert (got is None) == (want is None), bath.name
            if want is not None:
                assert got.shape == want.shape and np.array_equal(got, want), bath.name
    return structs


def rank_two_block_bath(name="block"):
    # one rank-2 projector jump at d = 3: ker L = M_2 ⊕ C, so n_k = 2
    proj = np.diag([1.0, 1.0, 0.0]).astype(complex)
    return Bath(name, LindbladGenerator(3, (JumpTerm(0.4, proj),)))


def decay_bath(name="decay"):
    # |1> and |2> decay to |0>: the one stationary state is |0><0|, so P(I)
    # has rank 1 and the support drops two directions
    return Bath(name, LindbladGenerator(3, (JumpTerm(0.5, unit(0, 1)), JumpTerm(1.3, unit(0, 2)))))


def random_dense_baths(seed, d=16):
    """Two random four-jump baths and a rotated dephasing bath, the baths
    of perfbench's dense_d16 model."""
    rng = np.random.default_rng(seed)
    baths = [
        Bath(name, LindbladGenerator(d, tuple(
            JumpTerm(r, random_complex(rng, d) / d) for r in rng.uniform(0.1, 1.0, 4))))
        for name in ("hot", "cold")
    ]
    basis, _ = np.linalg.qr(random_complex(rng, d))
    baths.append(dephasing_bath([basis[:, j] for j in range(d)], 0.5 / 64))
    return baths


class TestStackedStructures:
    """_stationary_structures solves a list of baths in one pass; each
    bath's structure is the one its own call gives."""

    def test_device_grid(self):
        occupations = (1e-14, 1e-8, 1e-2, 1.0, 1e2, 1e4, 1e6)
        gammas = (0.0, 1e-2, 1.0, 1e2, 1e4, 1e6)
        for n_l, n_r, gamma in itertools.product(occupations, occupations, gammas):
            p = DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma)
            structs = assert_stacked_equals_one_bath(lambda: list(build_device(p).baths))
            assert all(s.blocks is not None for s in structs)

    # at d = 8 the three share one pass; at d = 16 each has its own
    @pytest.mark.parametrize("d, seed", [(8, 1), (8, 2), (16, 1), (16, 2), (16, 3)])
    def test_dense(self, d, seed):
        structs = assert_stacked_equals_one_bath(lambda: random_dense_baths(seed, d))
        assert [len(s.blocks) for s in structs] == [1, 1, d]

    def test_rank_two_block_beside_unit_blocks(self):
        structs = assert_stacked_equals_one_bath(lambda: [
            left_pump_bath(0.6), rank_two_block_bath(), device_dephasing_bath(0.3)])
        assert [s.blocks is None for s in structs] == [False, True, False]

    def test_support_of_lower_rank(self, rng):
        structs = assert_stacked_equals_one_bath(lambda: [
            device_dephasing_bath(0.3), decay_bath(), rank_two_block_bath(), right_pump_bath(2.0)])
        decay = structs[1]
        ground = unit(0, 0)
        assert decay.blocks.shape == (1, 3, 3)
        assert np.max(np.abs(decay.blocks[0] - ground)) <= 1e-15
        assert np.max(np.abs(decay.conserved[0] - np.eye(3))) <= 1e-14
        assert np.max(np.abs(decay.logs[0])) <= 1e-15
        # B(rho) = |0><0| for every state: log B(rho) = 0, and rho leaks
        # what it holds off |0>
        rho = ginibre_state(rng, 3)
        (log_b,), (leak,) = thermo._stationary_log([decay_bath()], rho[None])
        assert np.max(np.abs(log_b)) <= 1e-14
        assert leak == pytest.approx(1.0 - rho[0, 0].real, abs=1e-14)

    def test_cached_baths_are_not_solved_again(self):
        baths = [left_pump_bath(0.6), device_dephasing_bath(0.3)]
        first = [stationary_structure(baths[0])]
        structs = _stationary_structures(baths + baths, gen_stack(baths + baths))
        assert structs[0] is first[0] and structs[2] is first[0] and structs[3] is structs[1]

    def test_first_failing_bath_is_named(self):
        def strangled(base, name):
            return Bath(name, base.generator, PropagateToFixedPoint(tol=0.0))

        with pytest.raises(NoConvergence) as alone:
            stationary_structure(strangled(left_pump_bath(0.6), "left"))
        stack = [right_pump_bath(0.2), strangled(left_pump_bath(0.6), "left"),
                 strangled(right_pump_bath(0.7), "right")]
        with pytest.raises(NoConvergence) as stacked:
            _stationary_structures(stack, gen_stack(stack))
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith("left: stationary state of a block has residual")
        # the baths before the failing one keep their structures, as one by one
        assert [b._structure is not None for b in stack] == [True, False, False]

    def test_passes_hold_at_most_pass_entries(self, monkeypatch):
        # one pass for a device's baths; from d = 10 on, one bath per pass
        from decotherm import baths

        stacks = []
        real = baths._kernel_basis
        monkeypatch.setattr(baths, "_kernel_basis", lambda m: stacks.append(len(m)) or real(m))

        def solve(stack):
            stacks.clear()
            _stationary_structures(stack, gen_stack(stack))
            return list(stacks)

        assert solve(list(build_device(DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.3)).baths)) == [3]
        rng = np.random.default_rng(8)
        d8 = [Bath(f"b{j}", LindbladGenerator(8, (JumpTerm(0.5, random_complex(rng, 8)),)))
              for j in range(5)]
        assert solve(d8) == [4, 1]
        assert solve(random_dense_baths(1)) == [1, 1, 1]

    def test_baths_of_different_dimensions(self):
        baths = [left_pump_bath(0.6), dephasing_bath(Z_BASIS, 0.5)]
        with pytest.raises(DimensionMismatch):
            thermo.entropy_production(np.eye(3, dtype=complex) / 3, baths)


def complex_kernel_projector(lmat):
    """Test-side oracle: the kernel projector, its rank and ||L||_2 from the
    complex SVD of L, equilibrated on both sides as `_kernel_basis` does."""
    n = lmat.shape[0]
    eps = np.finfo(float).eps
    scale = float(np.linalg.svd(lmat, compute_uv=False)[0])
    mag = np.abs(lmat)
    rows = mag.max(axis=1)
    rows[rows <= scale * n * eps] = max(scale, 1.0)
    cols = (mag / rows[:, None]).max(axis=0)
    cols[cols <= n * eps] = 1.0
    u, s, vh = np.linalg.svd(lmat / np.outer(rows, cols))
    k = int(np.count_nonzero(s <= s[0] * n * eps))
    r, nh = (vh[n - k:].conj() / cols).T, u[:, n - k:].conj().T / rows
    return r @ np.linalg.solve(nh @ r, nh), k, scale


def gen_stack(baths):
    """The baths' generator matrices as one stack."""
    return _generator_matrices([b.generator for b in baths], baths[0].dim)


def basis_of(kernels, i):
    """(right, left, scale) of matrix i of a _kernel_basis result."""
    for at, right, left in kernels.groups.values():
        if i in at:
            j = list(at).index(i)
            return right[j], left[j], float(kernels.scales[i])
    raise KeyError(i)


def kernel_projector(lmat):
    right, left, scale = basis_of(_kernel_basis(lmat[None]), 0)
    k, n = len(right), lmat.shape[0]
    r, nh = right.conj().reshape(k, n).T, left.reshape(k, n)
    return r @ np.linalg.solve(nh @ r, nh), k, scale


class TestKernelBasis:
    """The real-arithmetic kernel solve against a complex-SVD oracle."""

    def assert_matches_oracle(self, lmat):
        # Both solves round the fast rates: with couplings of order 1, a
        # hot bath's rates of 1e6 leave each projector ~1e-10 (relative)
        # from a 60-digit one, so the bound widens to 8 eps ||L||_2.
        p, k, scale = kernel_projector(lmat)
        p_ref, k_ref, scale_ref = complex_kernel_projector(lmat)
        assert k == k_ref
        assert scale == pytest.approx(scale_ref, rel=1e-13)
        tol = max(1e-12, 8 * np.finfo(float).eps * scale)
        assert np.max(np.abs(p - p_ref)) <= tol * np.max(np.abs(p_ref))

    def test_device_baths_and_liouvillians_across_the_grid(self):
        for n in GRID_OCCUPATIONS:
            for bath in (left_pump_bath(n), right_pump_bath(n)):
                self.assert_matches_oracle(generator_superop(bath.generator).matrix)
        for gamma in GRID_GAMMAS[1:]:
            self.assert_matches_oracle(generator_superop(device_dephasing_bath(gamma).generator).matrix)
        for n_l, n_r, gamma in itertools.product(GRID_OCCUPATIONS, GRID_OCCUPATIONS, GRID_GAMMAS):
            assembly = build_device(DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma))
            self.assert_matches_oracle(liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths)).matrix)

    def test_random_d16_model(self, rng):
        d = 16
        h = random_complex(rng, d)
        h = h + h.conj().T
        terms = tuple(JumpTerm(float(rng.uniform(0.5, 1.5)), random_complex(rng, d)) for _ in range(4))
        bath = Bath("random", LindbladGenerator(d, terms))
        self.assert_matches_oracle(generator_superop(bath.generator).matrix)
        self.assert_matches_oracle(liouvillian(EvolutionSpec(h, (bath,))).matrix)
        basis = np.linalg.qr(random_complex(rng, d))[0]
        deph = dephasing_bath([basis[:, j] for j in range(d)], 0.5)
        self.assert_matches_oracle(generator_superop(deph.generator).matrix)

    def test_null_vectors_are_hermitian(self):
        right, left, _ = basis_of(
            _kernel_basis(generator_superop(device_dephasing_bath(0.3).generator).matrix[None]), 0)
        assert right.shape == left.shape == (3, 3, 3)
        for stack in (right, left):
            assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))

    def test_a_stack_solves_as_its_matrices_one_at_a_time(self):
        # a device report solves its Liouvillian and three baths as one stack
        assembly = build_device(DeviceParams(1.5, 1.0, 0.4, 1e-13, 1e3, 0.3))
        mats = [liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths)).matrix]
        mats += [generator_superop(b.generator).matrix for b in assembly.baths]
        stacked = _kernel_basis(np.stack(mats))
        assert stacked.dims.tolist() == [1, 2, 2, 3]
        for i, m in enumerate(mats):
            right, left, scale = basis_of(stacked, i)
            one_right, one_left, one_scale = basis_of(_kernel_basis(m[None]), 0)
            assert np.array_equal(right, one_right) and np.array_equal(left, one_left)
            assert scale == one_scale
