"""Lindblad generators, bath constructors, and stationary maps."""

import decimal
import itertools
import warnings

import numpy as np
import pytest
from conftest import (
    GRID_GAMMAS,
    GRID_OCCUPATIONS,
    SX,
    SZ,
    assert_decides_as_the_exact_norm,
    count_kernel_solves,
    count_structure_solves,
    count_svds,
    exact_norm,
    dissipator_oracle,
    ginibre_state,
    log_on_support,
    random_complex,
    superop_from_action,
    uncached,
    unvectorize,
    vectorize,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from decotherm import thermo
from decotherm.baths import (
    _PASS_ENTRIES,
    Bath,
    JumpTerm,
    LindbladGenerator,
    PropagateToFixedPoint,
    _bath_set,
    _device_set,
    _device_structures,
    _device_units,
    _generator_matrices,
    _kernel_basis,
    _pass_constants,
    _require_blocks,
    _solve_structure,
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
from decotherm.errors import InvalidParams, NoConvergence
from decotherm.dynamics import EvolutionSpec, liouvillian
from decotherm.operators import _herm_index, _herm_operators, _real_form, assert_density_matrix
from decotherm.scenarios import (
    DEFAULT_DEVICE,
    DeviceParams,
    TwoLevelDecoherenceParams,
    _device_baths,
    build_device,
    device_dephasing_bath,
    device_hamiltonian,
    device_report,
    device_reports,
    two_level_decoherence_heat,
)

Z_BASIS = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def unit(i, j, d=3):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


def projector_of(struct, j=0):
    """Test-side P = sum_k |kernel_k>><<conserved_k| of bath j of a
    structure, so that P vec(X) = vec(sum_k Tr[conserved_k X] kernel_k)."""
    n = struct.kernel.shape[-1] ** 2
    pairs = zip(struct.kernel[j], struct.conserved[j])
    return sum((np.outer(vectorize(w), vectorize(c.T)) for w, c in pairs), np.zeros((n, n), dtype=complex))


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
        with pytest.raises(InvalidParams):
            apply_generator(bath.generator, np.eye(3, dtype=complex))
        with pytest.raises(InvalidParams):
            apply_generator(bath.generator, np.zeros((2, 2, 2, 2), dtype=complex))
        with pytest.raises(InvalidParams, match="does not match dim 3"):
            LindbladGenerator(3, (JumpTerm(1.0, np.eye(2, dtype=complex)),))

    def test_nested_list_is_refused(self):
        gen = dephasing_bath(Z_BASIS, gamma=1.0).generator
        for apply in (lambda a: apply_generator(gen, a), generator_superop(gen).apply):
            with pytest.raises(InvalidParams, match="^operator must be a numpy array, got list$"):
                apply([[0.5, 0], [0, 0.5]])


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
            baths = (left_pump_bath(n_l), right_pump_bath(n_r), device_dephasing_bath(gamma))
            # and the device reports' matrices, linear in the rates
            linear = _device_baths([DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma)]).gens
            for bath, lin in zip(baths, linear):
                closed = generator_superop(bath.generator).matrix
                assert np.array_equal(closed, self.oracle(bath.generator))
                assert lin.tobytes() == closed.tobytes()

    def test_random_d16(self, rng):
        gen = LindbladGenerator(
            16, tuple(JumpTerm(r, random_complex(rng, 16)) for r in rng.uniform(0.1, 2.0, 6))
        )
        ref = self.oracle(gen)
        err = np.linalg.norm(generator_superop(gen).matrix - ref) / np.linalg.norm(ref)
        assert err <= 1e-14

    @pytest.mark.parametrize("call", [
        lambda: liouvillian(EvolutionSpec(device_hamiltonian(FAST_DEVICE), build_device(FAST_DEVICE).baths)),
        lambda: two_level_decoherence_heat(TwoLevelDecoherenceParams(1.7e308, 1.0, 0.5)),
        lambda: liouvillian(EvolutionSpec(np.eye(2, dtype=complex), (thermal_two_level_bath(1.0, 1.0, 8e307),))),
    ], ids=["device", "two-level-heat", "thermal"])
    def test_matrix_past_the_float_range_is_refused(self, call):
        # 2 r_k overflows for a rate above ~9e307: the build refuses the
        # matrix (InvalidParams) and warns nothing on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="^generator matrix has a non-finite entry$"):
                call()


#: (n_L, n_R, gamma) = (1e308, 0.2, 1e308): rates whose doubles overflow
FAST_DEVICE = DeviceParams(1.5, 1.0, 0.4, 1e308, 0.2, 1e308)


class TestDephasingBath:
    def test_not_orthonormal(self):
        with pytest.raises(InvalidParams):
            dephasing_bath([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / 2.0], gamma=1.0)

    def test_too_few_basis_vectors(self):
        with pytest.raises(InvalidParams, match="need 3 basis vectors"):
            dephasing_bath([np.array([1.0, 0.0, 0.0])], gamma=1.0)

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

    def test_occupation_past_the_float_range_is_refused(self):
        # a subnormal beta*E below ~5.6e-309 puts 1/(beta*E) past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for beta in (5e-324, 1e-310):
                with pytest.raises(InvalidParams, match="past the float range"):
                    thermal_occupation(beta, 1.0)
            with pytest.raises(InvalidParams, match="past the float range"):
                thermal_two_level_bath(1.0, 5e-324, 1.0)

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
        with pytest.raises(InvalidParams, match="^beta must be > 0, got 0.0$"):
            thermal_two_level_bath(e_excited=1.0, beta=0.0, rate_scale=1.0)
        with pytest.raises(InvalidParams, match="^rate_scale must be > 0"):
            thermal_two_level_bath(e_excited=1.0, beta=0.0, rate_scale=0.0)

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
            (log_b,), (leak,) = thermo._stationary_log(_bath_set([bath], gen_stack([bath])), rho[None])
            assert np.max(np.abs(log_b - np.diag(np.log(np.diagonal(image))))) <= 1e-13
            assert abs(leak) <= 1e-15

    def test_no_pump_bath_leaks_in_the_cold_window(self):
        # 4,001 log-spaced n in 1e-14..1e-12, with the window n in
        # [1.001, 1.093]·1e-14 where a left bath's cold eigenvalue once came
        # out as exactly 0: the maximally mixed state stays on every support
        ns = np.logspace(-14, -12, 4001)
        assert np.count_nonzero((ns >= 1.001e-14) & (ns <= 1.093e-14)) >= 34
        # solved, not read from the closed form of the public baths
        baths = [uncached(make(n, name=f"{side}{i}")) for i, n in enumerate(ns)
                 for side, make in (("left", left_pump_bath), ("right", right_pump_bath))]
        terms = thermo._state_terms(baths, np.eye(3, dtype=complex) / 3)
        assert terms.ok.all()
        assert np.max(np.abs(terms.leak)) <= 1e-15


#: Rates and occupations across the float range, subnormal to near the maximum.
FLOAT_RANGE = (5e-324, 1e-300, 1e-200, 1e-100, 1e-16, 1e-15, 1e-14, 1e-2, 1.0, 1e6, 1e100, 1e200,
               1e300, 8e307, 1.7e308)


class TestDeviceClosedForm:
    """A public device bath carries its structure in closed form from its
    rates; the structure solver, on an uncached Bath(name, generator),
    finds the same one."""

    def test_solver_agrees_on_the_grids(self):
        # every bath of the 294- and 600-point grids
        occupations = sorted({*GRID_OCCUPATIONS, 1e-14, 1e-8, 1e-2, 1.0, 1e2, 1e4, 1e6})
        gammas = sorted({*GRID_GAMMAS[1:], 1e-2, 1.0, 1e2, 1e4, 1e6})
        baths = [make(n) for n in occupations for make in (left_pump_bath, right_pump_bath)]
        baths += [device_dephasing_bath(gamma) for gamma in gammas]
        for bath in baths:
            closed, solved = bath._structure, stationary_structure(uncached(bath))
            assert closed is not None and closed.rows == solved.rows == slice(0, 1)
            assert closed.m == solved.m == (3 if bath.name == "dephasing" else 2)
            rates = bath.generator.rate_stack
            for field, bound in (("blocks", 1e-15), ("conserved", 1e-15), ("kernel", 1e-15), ("logs", 1e-14)):
                got, want = getattr(closed, field), getattr(solved, field)
                assert got.shape == want.shape == (1, closed.m, 3, 3)
                assert np.max(np.abs(got - want)) <= bound, (bath.name, rates, field)

    @pytest.mark.parametrize("n", FLOAT_RANGE)
    def test_pump_states_across_the_float_range(self, n):
        # omega_1 = (b |0><0| + a |x><x|)/(a + b) and its log, to rounding
        # for every occupation: no rate overflows, and a subnormal population
        # stays on the support with a finite log
        for kind, x, (a, b) in ((0, 1, (1.0 + n, n)), (1, 2, (n, 1.0 + n))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                [struct] = _device_structures(np.array([kind]), np.array([(a, b)]))
            a, b = decimal.Decimal(a), decimal.Decimal(b)
            pops = [b / (a + b), a / (a + b)]
            assert np.diag(struct.blocks[0, 0]).real.tolist() == [1.0, x == 1, x == 2]
            assert np.diag(struct.blocks[0, 1]).real.tolist() == [0.0, x == 2, x == 1]
            assert np.array_equal(struct.conserved, struct.blocks)
            assert np.array_equal(struct.kernel[0, 1], struct.blocks[0, 1])
            assert not struct.logs[0, 1].any()
            omega, log_omega = struct.kernel[0, 0], struct.logs[0, 0]
            assert not (omega - np.diag(omega.diagonal())).any()
            assert omega.diagonal()[[0, x]].real == pytest.approx([float(p) for p in pops], rel=1e-15, abs=0.0)
            assert log_omega.diagonal()[[0, x]].real == pytest.approx([float(p.ln()) for p in pops], rel=1e-15)


    @pytest.mark.parametrize("value", FLOAT_RANGE)
    def test_constructors_accept_the_float_range(self, value):
        # with no warning and no exception; a generator past the float range
        # caches no structure (the sums refuse its Liouvillian), nor does a
        # dephasing bath at rate 0, whose generator is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            baths = (left_pump_bath(value), right_pump_bath(value), device_dephasing_bath(value))
        for bath in baths:
            assert (bath._structure is None) == (value > 8e307)
        assert device_dephasing_bath(0.0)._structure is None

    @pytest.mark.parametrize("n", [1e200, 1e250, 1e300, 8e307])
    def test_solver_at_large_rates_raises_only_no_convergence(self, n, rng):
        # the block and image residuals are scaled before they are squared,
        # so they do not overflow; a singular pairing of the null vectors (at
        # 8e307) is a NoConvergence naming the bath, not numpy's LinAlgError
        rho = ginibre_state(rng, 3)
        for make in (left_pump_bath, right_pump_bath):
            public = make(n)
            bath = uncached(public)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                image = stationary_map(public, rho)
                if n < 1e307:
                    assert np.max(np.abs(stationary_map(bath, rho) - image)) <= 1e-15
                else:
                    with pytest.raises(NoConvergence, match=f"^{bath.name}: the null vectors of L pair to a singular matrix$"):
                        stationary_structure(bath)

    def test_closed_form_is_checked_against_the_generator(self):
        # a generator that does not match the rates the structure was built
        # from fails the block residual check, naming the bath
        bset = _device_set(["left", "dephasing"], np.array([0, 2]), np.array([[1.6, 0.6], [0.3, 0.3]]))
        fro = np.linalg.norm(bset.gens, axis=(1, 2))
        _require_blocks(bset, fro)
        bset.gens[1] += 1e-6 * _device_units()[1][0, 0]  # a left pump beside the dephasing
        with pytest.raises(NoConvergence, match="^dephasing: stationary state of a block has residual"):
            _require_blocks(bset, fro)


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

    def test_large_operator_maps_to_the_scaled_image(self, rng):
        # the residual bound scales with the image, max(1, ||B(X)||_F): 1e6 rho
        # rounds at 1e6 times rho's residual, which tol ||L||_2 alone refused
        bath = left_pump_bath(0.6)
        rho = ginibre_state(rng, 3)
        image = stationary_map(bath, rho)
        for x in (1e6 * rho, np.stack([rho, 1e6 * rho, 1e3 * rho])):
            got = stationary_map(bath, x)
            want = np.stack([image, 1e6 * image, 1e3 * image]) if x.ndim == 3 else 1e6 * image
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_planted_wrong_image_is_refused_at_any_size(self, rng):
        # a kernel state off ker L by 1e-9 (relative) fails the scaled bound
        # as it fails a state's, and the message names both factors
        bath = left_pump_bath(0.6)
        rho = ginibre_state(rng, 3)
        struct = stationary_structure(bath)
        plant = struct.kernel.copy()
        plant[0, 0, 0, 1] += 1e-9
        plant[0, 0, 1, 0] += 1e-9
        object.__setattr__(bath, "_structure", struct._replace(kernel=plant))
        with pytest.raises(NoConvergence, match=r"^left: kernel projector image has residual .* "
                                                r"> tol 1\.0e-12 \* \|\|L\|\|_2 [0-9.e+-]+$"):
            stationary_map(bath, rho)
        with pytest.raises(NoConvergence, match=r"\* max\(1, \|\|B\(X\)\|\|_F\) [0-9.e+-]+$"):
            stationary_map(bath, 1e6 * rho)
        with pytest.raises(NoConvergence):
            stationary_map(bath, np.stack([rho, 1e6 * rho]))

    def test_empty_generator_keeps_every_state(self, rng):
        empty = Bath("null", LindbladGenerator(3, ()))
        rho = ginibre_state(rng, 3)
        assert np.array_equal(projector_of(stationary_structure(empty)), np.eye(9))
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

    def test_wrong_shape_is_refused(self):
        bath = dephasing_bath(Z_BASIS, 0.7)
        for bad in (np.eye(3, dtype=complex), np.zeros((1, 1, 2, 2)), np.zeros(4)):
            with pytest.raises(InvalidParams):
                stationary_map(bath, bad)
        assert bath._structure is None  # refused before the structure is solved


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
        p = projector_of(struct)
        scale = np.linalg.norm(lmat, 2)
        fro = float(_kernel_basis(lmat[None]).fro[0])
        assert fro == pytest.approx(np.linalg.norm(lmat), rel=1e-12)
        assert_decides_as_the_exact_norm(lmat, fro)
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
        assert struct.blocks.shape == (1, d, d, d)
        # each block is one basis projector, and its stationary state is that
        # projector, whose log is zero
        overlaps = np.einsum("jk,mkl,lj->mj", basis.conj().T, struct.blocks[0], basis).real
        assert np.allclose(np.sort(overlaps, axis=1)[:, -1], 1.0, atol=1e-12)
        assert np.allclose(overlaps.sum(axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(struct.logs)) <= 1e-12
        rho = ginibre_state(rng, d, mix=0.1)
        probs = np.einsum("jk,kl,lj->j", basis.conj().T, rho, basis).real
        pinched_log = (basis * np.log(probs)) @ basis.conj().T
        (log_b,), (leak,) = thermo._stationary_log(_bath_set([bath], gen_stack([bath])), rho[None])
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


def structure_baths(rng):
    """Structured and unstructured baths: the three device baths, a
    random-basis dephasing bath and a random four-jump bath at d = 16, the
    rank-two-block bath and the empty generator."""
    basis = np.linalg.qr(random_complex(rng, 16))[0]
    return [
        *build_device(DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.3)).baths,
        dephasing_bath([basis[:, j] for j in range(16)], 0.05, name="dephasing16"),
        Bath("random16", LindbladGenerator(16, tuple(
            JumpTerm(float(r), random_complex(rng, 16) / 16) for r in rng.uniform(0.1, 1.0, 4)))),
        rank_two_block_bath(),
        Bath("null", LindbladGenerator(3, ())),
    ]


class TestStructureOperators:
    """A structure is k pairs of d×d operators, B(X) = sum_k Tr[C_k X] W_k."""

    def test_no_superoperator_is_cached(self, rng):
        for bath in structure_baths(rng):
            struct = stationary_structure(bath)
            d2 = bath.dim ** 2
            k = struct.kernel.shape[1]
            assert struct.rows == slice(0, 1)
            assert struct.kernel.shape == struct.conserved.shape == (1, k, bath.dim, bath.dim)
            for name, value in struct._asdict().items():
                value = getattr(value, "matrix", value)  # a SuperOperator counts by its matrix
                if isinstance(value, np.ndarray):
                    assert value.shape[-2:] != (d2, d2), (bath.name, name)
                    assert value.size <= k * d2, (bath.name, name)

    def test_no_cached_d16_array_holds_d4_entries(self, rng):
        # neither an array of the structure nor an array it is a view of:
        # the pass' d²×d² projector and work arrays are dropped with it
        for bath in structure_baths(rng):
            if bath.dim != 16:
                continue
            for name, value in stationary_structure(bath)._asdict().items():
                while isinstance(value, np.ndarray):
                    assert value.size < 16**4, (bath.name, name)
                    value = value.base

    def test_images_match_an_svd_kernel_projector(self, rng):
        for bath in structure_baths(rng):
            d = bath.dim
            # L from the per-term oracle, P from the complex-SVD oracle
            p = complex_kernel_projector(TestGeneratorSuperop.oracle(bath.generator))[0]
            herm = random_complex(rng, d)
            herm = herm + herm.conj().T
            traceless = herm - np.trace(herm).real / d * np.eye(d)
            inputs = [ginibre_state(rng, d), traceless,
                      np.stack([ginibre_state(rng, d), traceless, 2.0 * ginibre_state(rng, d)])]
            for x in inputs:
                want = np.stack([unvectorize(p @ vectorize(a), d) for a in x.reshape(-1, d, d)])
                got = stationary_map(bath, x)
                assert got.shape == x.shape
                scale = max(np.max(np.abs(want)), np.max(np.abs(x)))
                assert np.max(np.abs(got.reshape(want.shape) - want)) <= 1e-13 * scale, bath.name


def assert_set_equals_each_bath(make_baths):
    """The set of the baths of make_baths() (`_bath_set`) reads, at each
    bath's row, the entry that the structure solver gives that bath alone,
    bit for bit, and `thermo._stationary_log` of the set gives each bath
    the log and leak of a set of its own. Returns the cached entries."""
    baths = make_baths()
    gens = gen_stack(baths)
    alone = [_solve_structure(b.name, b.fixed_point.tol, gens[i:i + 1]) for i, b in enumerate(baths)]
    bset = _bath_set(baths, gens)  # each bath solved and cached on its own
    rho = ginibre_state(np.random.default_rng(0), baths[0].dim)[None]
    log_b, leak = thermo._stationary_log(bset, rho)
    for i, (bath, want) in enumerate(zip(baths, alone)):
        entry = bset.stacks[i]
        assert entry.rows == slice(i, i + 1) and bath._structure.rows == slice(0, 1), bath.name
        assert entry.m == want.m, bath.name
        for got, own in zip(entry[2:], want[2:]):
            assert (got is None) == (own is None), bath.name
            if own is not None:
                assert got.shape == own.shape and np.array_equal(got, own), bath.name
        own_log, own_leak = thermo._stationary_log(_bath_set([bath], gens[i:i + 1]), rho)
        assert np.array_equal(log_b[i], own_log[0]) and leak[i] == own_leak[0], bath.name
    return [b._structure for b in baths]


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
    """The structure solver solves one bath a call, and a set of baths reads
    each bath's entry at its own row: the entry of the bath alone. Device
    baths are solved as uncached wrappers, since the public ones carry their
    structures in closed form from their rates."""

    def test_device_grid(self):
        occupations = (1e-14, 1e-8, 1e-2, 1.0, 1e2, 1e4, 1e6)
        gammas = (0.0, 1e-2, 1.0, 1e2, 1e4, 1e6)
        for n_l, n_r, gamma in itertools.product(occupations, occupations, gammas):
            p = DeviceParams(1.5, 1.0, 0.4, n_l, n_r, gamma)
            structs = assert_set_equals_each_bath(lambda: [uncached(b) for b in build_device(p).baths])
            assert all(s.blocks is not None for s in structs)

    @pytest.mark.parametrize("d, seed", [(8, 1), (8, 2), (16, 1), (16, 2), (16, 3)])
    def test_dense(self, d, seed):
        structs = assert_set_equals_each_bath(lambda: random_dense_baths(seed, d))
        assert [s.m for s in structs] == [1, 1, d]

    def test_rank_two_block_beside_unit_blocks(self):
        structs = assert_set_equals_each_bath(lambda: [
            uncached(left_pump_bath(0.6)), rank_two_block_bath(), uncached(device_dephasing_bath(0.3))])
        assert [s.blocks is None for s in structs] == [False, True, False]

    def test_support_of_lower_rank(self, rng):
        structs = assert_set_equals_each_bath(lambda: [
            uncached(device_dephasing_bath(0.3)), decay_bath(), rank_two_block_bath(),
            uncached(right_pump_bath(2.0))])
        decay = structs[1]
        ground = unit(0, 0)
        assert decay.blocks.shape == (1, 1, 3, 3)
        assert np.max(np.abs(decay.blocks[0, 0] - ground)) <= 1e-15
        assert np.max(np.abs(decay.conserved[0, 0] - np.eye(3))) <= 1e-14
        assert np.max(np.abs(decay.logs[0, 0])) <= 1e-15
        # B(rho) = |0><0| for every state: log B(rho) = 0, and rho leaks
        # what it holds off |0>
        rho = ginibre_state(rng, 3)
        bath = decay_bath()
        (log_b,), (leak,) = thermo._stationary_log(_bath_set([bath], gen_stack([bath])), rho[None])
        assert np.max(np.abs(log_b)) <= 1e-14
        assert leak == pytest.approx(1.0 - rho[0, 0].real, abs=1e-14)

    def test_cached_baths_are_not_solved_again(self, monkeypatch):
        baths = [uncached(left_pump_bath(0.6)), uncached(device_dephasing_bath(0.3))]
        first = stationary_structure(baths[0])
        solved = count_structure_solves(monkeypatch)
        bset = _bath_set(baths + baths, gen_stack(baths + baths))
        assert solved == ["dephasing"]  # once
        assert baths[0]._structure is first
        # the set reads each cached entry at its own row
        assert [s.rows for s in bset.stacks] == [slice(i, i + 1) for i in range(4)]
        assert bset.stacks[2].kernel is first.kernel and bset.stacks[3].kernel is bset.stacks[1].kernel

    def test_first_failing_bath_is_named(self):
        def strangled(base, name):
            return Bath(name, base.generator, PropagateToFixedPoint(tol=0.0))

        with pytest.raises(NoConvergence) as alone:
            stationary_structure(strangled(left_pump_bath(0.6), "left"))
        stack = [right_pump_bath(0.2), strangled(left_pump_bath(0.6), "left"),
                 strangled(right_pump_bath(0.7), "right")]
        with pytest.raises(NoConvergence) as stacked:
            _bath_set(stack, gen_stack(stack))
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith("left: stationary state of a block has residual")
        # the baths before the failing one keep their structures, as one by one
        assert [b._structure is not None for b in stack] == [True, False, False]

    def test_passes_hold_at_most_pass_entries(self, monkeypatch):
        # the solver takes one bath a call; a device report pass solves the
        # kernels of the Liouvillians of _REPORTS_PER_PASS points, within
        # the budget, and no bath's structure
        from decotherm import scenarios

        solved = count_structure_solves(monkeypatch)
        solves = count_kernel_solves(monkeypatch)

        def solve(stack):
            solved.clear()
            _bath_set(stack, gen_stack(stack))
            return list(solved)

        device = build_device(DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.3)).baths
        assert solve([uncached(b) for b in device]) == ["left", "right", "dephasing"]
        assert solve(list(device)) == []  # their structures came with them
        rng = np.random.default_rng(8)
        d8 = [Bath(f"b{j}", LindbladGenerator(8, (JumpTerm(0.5, random_complex(rng, 8)),)))
              for j in range(5)]
        assert solve(d8) == [f"b{j}" for j in range(5)]
        assert solve(random_dense_baths(1)) == ["hot", "cold", "dephasing"]
        per = scenarios._REPORTS_PER_PASS
        assert 4 * 81 * per <= _PASS_ENTRIES  # a Liouvillian and three baths a report
        solved.clear()
        solves.clear()
        device_reports([DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.3)] * (per + 1))
        assert solved == [] and solves == [per, 1]

    def test_baths_of_different_dimensions(self):
        baths = [left_pump_bath(0.6), dephasing_bath(Z_BASIS, 0.5)]
        with pytest.raises(InvalidParams):
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
    """(right, left, ||L||_F) of matrix i of a _kernel_basis result: the
    last dims[i] null vectors of its rows."""
    k, k_max = int(kernels.dims[i]), kernels.right.shape[1]
    return kernels.right[i, k_max - k:], kernels.left[i, k_max - k:], float(kernels.fro[i])


def kernel_projector(lmat):
    right, left, fro = basis_of(_kernel_basis(lmat[None]), 0)
    k, n = len(right), lmat.shape[0]
    r, nh = right.conj().reshape(k, n).T, left.reshape(k, n)
    return r @ np.linalg.solve(nh @ r, nh), k, fro


class TestKernelBasis:
    """The real-arithmetic kernel solve against a complex-SVD oracle."""

    def assert_matches_oracle(self, lmat):
        # Both solves round the fast rates: with couplings of order 1, a
        # hot bath's rates of 1e6 leave each projector ~1e-10 (relative)
        # from a 60-digit one, so the bound widens to 8 eps ||L||_2.
        p, k, fro = kernel_projector(lmat)
        p_ref, k_ref, scale = complex_kernel_projector(lmat)
        assert k == k_ref
        assert fro == pytest.approx(np.linalg.norm(lmat), rel=1e-13)
        assert_decides_as_the_exact_norm(lmat, fro)
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

    def test_one_svd_per_kernel_solve(self, monkeypatch, rng):
        # ||L||_F decides every residual check of a report and of a
        # structure, so the kernel solve's own SVD is the only one; a
        # report solves the kernel of its Liouvillian alone
        calls = count_svds(monkeypatch)
        device_report(DeviceParams(**DEFAULT_DEVICE))
        assert calls == [((1, 9, 9), True)]
        calls.clear()
        d = 16
        terms = tuple(JumpTerm(float(rng.uniform(0.5, 1.5)), random_complex(rng, d)) for _ in range(4))
        stationary_structure(Bath("random", LindbladGenerator(d, terms)))
        assert calls == [((1, d * d, d * d), True)]

    def test_overflowing_frobenius_norm_gives_way_to_the_exact_norm(self):
        # past entries of ~1e154 the squares overflow: ||L||_2 takes the place
        # of ||L||_F, so the clamp and the checks stay those of the exact norm;
        # the block residuals are scaled before they are squared, so the
        # structure is solved, with no warning: omega = diag(3, 1)/4
        sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        for rate in (1e150, 1e300, 6e307):
            gen = LindbladGenerator(2, (JumpTerm(rate, sm), JumpTerm(rate / 3, sm.T.copy())))
            lmat = generator_superop(gen).matrix
            fro = _kernel_basis(lmat[None]).fro[0]
            if rate < 1e154:
                assert fro == pytest.approx(np.linalg.norm(lmat), rel=1e-13)
            else:
                assert fro == exact_norm(lmat)
            struct = stationary_structure(Bath("b", gen))
            assert np.max(np.abs(struct.kernel[0, 0] - np.diag([0.75, 0.25]))) <= 1e-15

    def test_null_vectors_are_hermitian(self):
        right, left, _ = basis_of(
            _kernel_basis(generator_superop(device_dephasing_bath(0.3).generator).matrix[None]), 0)
        assert right.shape == left.shape == (3, 3, 3)
        for stack in (right, left):
            assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))

    def test_a_stack_solves_as_its_matrices_one_at_a_time(self):
        # a device report pass solves the Liouvillians of its points as one
        # stack; a Liouvillian and its baths as one stack still solve apart
        assembly = build_device(DeviceParams(1.5, 1.0, 0.4, 1e-13, 1e3, 0.3))
        mats = [liouvillian(EvolutionSpec(assembly.hamiltonian, assembly.baths)).matrix]
        mats += [generator_superop(b.generator).matrix for b in assembly.baths]
        stacked = _kernel_basis(np.stack(mats))
        assert stacked.dims.tolist() == [1, 2, 2, 3]
        for i, m in enumerate(mats):
            right, left, fro = basis_of(stacked, i)
            one_right, one_left, one_fro = basis_of(_kernel_basis(m[None]), 0)
            assert np.array_equal(right, one_right) and np.array_equal(left, one_left)
            assert fro == one_fro


def per_group_kernel_basis(lmats):
    """Test-side oracle: _kernel_basis as it was before it converted the
    null columns once per side, each kernel-dimension group converting its
    own columns, and with ||L||_2 from a second, values-only SVD, which
    sets the row clamp and which it returned."""
    real = _real_form(lmats)
    n = real.shape[-1]
    eps = np.finfo(float).eps
    scale = np.linalg.svd(real, compute_uv=False)[:, 0]
    mag = np.abs(real)
    rows = mag.max(axis=2)
    rows = np.where(rows <= (scale * n * eps)[:, None], np.maximum(scale, 1.0)[:, None], rows)
    cols = (mag / rows[:, :, None]).max(axis=1)
    cols[cols <= n * eps] = 1.0
    u, s, vh = np.linalg.svd(real / (rows[:, :, None] * cols[:, None, :]))
    ks = np.count_nonzero(s <= s[:, :1] * n * eps, axis=1)
    vh /= cols[:, None, :]
    u /= rows[:, :, None]
    groups = {}
    for k in sorted(set(ks.tolist())):
        at = np.flatnonzero(ks == k)
        groups[k] = (at, _herm_operators(vh[at, n - k:]),
                     _herm_operators(u[at, :, n - k:].swapaxes(-1, -2)))
    return ks, scale, groups


def mixed_kernel_baths(rng, d):
    """Baths of dimension d with kernels of dimension 1, d and d²: a random
    two-jump bath, a dephasing bath in a random basis and the empty
    generator, each twice so that a group takes an index run and a gather."""
    basis = np.linalg.qr(random_complex(rng, d))[0]
    out = []
    for i in range(2):
        out.append(Bath(f"random{i}", LindbladGenerator(d, tuple(
            JumpTerm(float(r), random_complex(rng, d) / d) for r in rng.uniform(0.1, 1.0, 2)))))
        out.append(dephasing_bath([basis[:, j] for j in range(d)], 0.3 + i, name=f"dephasing{i}"))
        out.append(Bath(f"null{i}", LindbladGenerator(d, ())))
    return out


class TestKernelBasisConversion:
    """The null columns become operators once per side, and each kernel
    dimension slices its own: the same groups, bit for bit, as the
    per-group conversion."""

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_matches_the_per_group_conversion(self, rng, d):
        baths = mixed_kernel_baths(rng, d)
        if d == 16:  # the empty generator's 256 null columns are 1 MB each side
            baths = baths[:3]
        lmats = gen_stack(baths)
        got = _kernel_basis(lmats)
        dims, scales, groups = per_group_kernel_basis(lmats)
        assert np.array_equal(got.dims, dims)
        assert np.allclose(got.fro, np.linalg.norm(lmats, axis=(1, 2)), rtol=1e-13, atol=0.0)
        for lmat, fro in zip(lmats, got.fro):
            assert_decides_as_the_exact_norm(lmat, fro)
        k_max = got.right.shape[1]
        assert sorted(groups) == sorted({1, d, d * d})
        for k, (at, right, left) in groups.items():
            assert np.array_equal(np.flatnonzero(got.dims == k), at)
            got_right, got_left = got.right[at, k_max - k:], got.left[at, k_max - k:]
            assert got_right.shape == right.shape == (len(at), k, d, d)
            assert np.array_equal(got_right, right) and np.array_equal(got_left, left)


class TestCachedConstants:
    """Arrays built once per dimension (or per device level pair) are shared
    by every call, so none of them may be written in place."""

    @staticmethod
    def assert_read_only(a):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
        with pytest.raises(ValueError):
            a += 1

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_pass_constants_and_herm_index(self, d):
        eye, probe = _pass_constants(d)
        assert np.array_equal(eye, np.eye(d))
        assert np.array_equal(np.diag(probe).real, np.arange(2.0, 2.0 * d + 1.0, 2.0))
        for a in (eye, probe, *_herm_index(d)):
            self.assert_read_only(a)
        assert _pass_constants(d)[1] is probe

    def test_device_units(self):
        # the unit jumps of the left, right and dephasing baths, in rate
        # order, and the generator matrix of each at rate 1
        jumps, units = _device_units()
        pairs = (((1, 0), (0, 1)), ((2, 0), (0, 2)), ((1, 1), (2, 2)))
        for kind, k in itertools.product(range(3), range(2)):
            assert np.array_equal(jumps[kind, k], unit(*pairs[kind][k]))
            gen = LindbladGenerator(3, (JumpTerm(1.0, unit(*pairs[kind][k])),))
            assert units[kind, k].tobytes() == generator_superop(gen).matrix.tobytes()
        for a in (jumps, units):
            self.assert_read_only(a)
        assert _device_units()[1] is units

    def test_device_baths_built_in_a_row_share_no_writable_array(self):
        def arrays(assembly):
            out = [assembly.hamiltonian]
            for b in assembly.baths:
                g = b.generator
                out += [g.jump_stack, g.rate_stack, *(t.jump for t in g.terms)]
            return out

        p = DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.3)
        first, second = arrays(build_device(p)), arrays(build_device(p))
        shared = [(a, b) for a in first for b in second if np.shares_memory(a, b)]
        assert shared  # the unit jumps are built once
        for a, b in shared:
            assert not a.flags.writeable and not b.flags.writeable


class TestGeneratorPasses:
    """Each matrix of a list _generator_matrices builds is the one its own
    build gives, bit for bit."""

    @staticmethod
    def assert_each_its_own(gens, d):
        stacked = _generator_matrices(gens, d)
        assert all(np.array_equal(s, _generator_matrices([g], d)[0]) for s, g in zip(stacked, gens))
        return stacked

    def test_d16_one_generator_a_pass(self):
        self.assert_each_its_own([b.generator for b in random_dense_baths(5)], 16)

    def test_d3_device_list(self):
        gens = []
        for n in np.geomspace(1e-12, 1e6, 69):
            gens += [b.generator for b in build_device(DeviceParams(1.5, 1.0, 0.4, n, n, n)).baths]
        self.assert_each_its_own(gens, 3)

    @pytest.mark.parametrize("d", [3, 16])
    def test_mixed_jump_counts(self, d):
        # 0, 1, 2 and d jumps in one list: the empty generator, a decay, a
        # device-like pump and a dephasing bath, whose unit jumps make the
        # per-term oracle exact
        gens = [LindbladGenerator(d, ()), LindbladGenerator(d, (JumpTerm(0.7, unit(0, 1, d)),)),
                LindbladGenerator(d, (JumpTerm(1.6, unit(1, 0, d)), JumpTerm(0.6, unit(0, 1, d)))),
                dephasing_bath(list(np.eye(d)), 0.3).generator]
        stacked = self.assert_each_its_own(gens, d)
        for mat, gen in zip(stacked, gens):
            assert np.array_equal(mat, TestGeneratorSuperop.oracle(gen))


class TestStationaryMapRefusesNonHermitian:
    """B maps Hermitian operators; a non-Hermitian one, alone or in a stack,
    is refused instead of mapped through its Hermitian part."""

    def test_sigma_plus_is_refused(self):
        empty = Bath("null", LindbladGenerator(2, ()))
        plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(InvalidParams, match="Hermiticity"):
            stationary_map(empty, plus)
        stack = np.stack([np.eye(2, dtype=complex) / 2, plus, SX.copy()])
        with pytest.raises(InvalidParams, match="Hermiticity"):
            stationary_map(empty, stack)

    def test_tolerance_is_relative_to_the_entries(self, rng):
        bath = Bath("null", LindbladGenerator(3, ()))
        rho = 1e6 * ginibre_state(rng, 3)
        rho[0, 1] += 1e-5  # a defect of ~2e-11 max|rho|
        stationary_map(bath, rho)
        rho[0, 1] += 1e-3
        with pytest.raises(InvalidParams):
            stationary_map(bath, rho)

    @staticmethod
    def plain_image(bath, x):
        """stationary_map's arithmetic without its gates and residual check,
        as it read before the Hermiticity gate."""
        struct = stationary_structure(bath)
        d, k = bath.dim, struct.kernel.shape[1]
        coefs = x.swapaxes(-1, -2).reshape(-1, d * d) @ struct.conserved.reshape(k, d * d).T
        img = (coefs @ struct.kernel.reshape(k, d * d)).reshape(x.shape)
        out = 0.5 * (img + img.swapaxes(-1, -2).conj())
        tr, tr_out = np.trace(x, axis1=-2, axis2=-1), np.trace(out, axis1=-2, axis2=-1)
        weight = np.abs(np.diagonal(x, axis1=-2, axis2=-1).real).sum(axis=-1)
        rescale = (tr != 0) & (2.0 * np.abs(tr) >= weight)
        ratio = np.divide(tr, tr_out, out=np.ones(tr.shape, complex), where=rescale)
        return out * ratio.real[..., None, None]

    def test_hermitian_operators_and_states_map_as_before(self, rng):
        for bath in [*build_device(DeviceParams(1.5, 1.0, 0.4, 0.6, 0.2, 0.3)).baths,
                     rank_two_block_bath(), Bath("null", LindbladGenerator(3, ()))]:
            herm = random_complex(rng, 3)
            herm = herm + herm.conj().T
            traceless = herm - np.trace(herm).real / 3 * np.eye(3)
            states = np.stack([ginibre_state(rng, 3) for _ in range(4)])
            for x in (traceless, states[0], states, np.stack([traceless, states[1]])):
                assert np.array_equal(stationary_map(bath, x), self.plain_image(bath, x)), bath.name
