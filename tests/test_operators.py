"""Operator and super-operator algebra."""

import numpy as np
import pytest
from conftest import (
    SX,
    SZ,
    ginibre_state,
    hs_inner,
    log_on_support,
    random_complex,
    random_hermitian,
    superop_from_action,
    unvectorize,
    vectorize,
)

from decotherm.baths import Bath, JumpTerm, LindbladGenerator
from decotherm.dynamics import EvolutionSpec, liouvillian
from decotherm.errors import InvalidParams, NegativeEigenvalue
from decotherm.operators import (
    Spectrum,
    SuperOperator,
    _herm_coords,
    _herm_index,
    _herm_operators,
    _real_form,
    dagger,
    hermitize,
)


EPS = np.finfo(float).eps


def exp_hermitian(a):
    """exp(A) of a Hermitian A through its eigendecomposition."""
    lam, vecs = np.linalg.eigh(a)
    return (vecs * np.exp(lam)) @ vecs.conj().T


class TestHermitize:
    def test_hermitian_fixed_point(self, rng):
        a = random_hermitian(rng, 4)
        assert np.allclose(hermitize(a), a, atol=0)

    def test_upper_triangular_by_hand(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(hermitize(a), np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_matches_direct_arithmetic(self, rng):
        a = random_complex(rng, 5)
        expected = (a + a.conj().T) / 2.0
        assert np.array_equal(hermitize(a), expected)

    def test_projection_is_closest(self, rng):
        a = random_complex(rng, 4)
        out = hermitize(a)
        assert np.linalg.norm(out - a) <= np.linalg.norm(a - a.conj().T) + 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4, 16])
    def test_in_place_half_matches_the_two_temporary_form(self, rng, d):
        # oracle: the form hermitize had before it halved in place
        def oracle(a):
            return 0.5 * (a + dagger(a))

        for a in (random_complex(rng, d), np.stack([random_complex(rng, d) for _ in range(5)]),
                  rng.normal(size=(3, d, d)), 1e150 * random_complex(rng, d)):
            got = hermitize(a)
            assert got.dtype == oracle(a).dtype
            assert np.array_equal(got, oracle(a))
        ints = rng.integers(-5, 5, size=(2, d, d))
        assert hermitize(ints).dtype == float
        assert np.array_equal(hermitize(ints), oracle(ints))


def support_log(a):
    return Spectrum.of(a).log


class TestMatrixLogOnSupport:
    """The support log Spectrum.of(a).log, which replaced
    matrix_log_on_support, against closed forms and test-side oracles."""

    def test_identity(self):
        assert np.allclose(support_log(np.eye(2, dtype=complex)), 0.0, atol=1e-14)

    def test_uniform_qubit(self):
        out = support_log(np.eye(2, dtype=complex) / 2)
        assert np.allclose(out, -np.log(2.0) * np.eye(2), atol=1e-14)

    def test_rank_deficient_support_dropped(self):
        out = support_log(np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_negative_eigenvalue(self):
        with pytest.raises(NegativeEigenvalue):
            support_log(np.diag([1.0, -0.2]).astype(complex))

    def test_exp_log_roundtrip(self, rng):
        for _ in range(10):
            rho = ginibre_state(rng, 4, mix=0.2)
            back = exp_hermitian(support_log(rho))
            assert np.max(np.abs(back - rho)) < 1e-9
            assert np.max(np.abs(support_log(rho) - log_on_support(rho))) < 1e-13

    def test_against_scipy_logm(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rho = ginibre_state(rng, 3, mix=0.3)
        ref = scipy_linalg.logm(rho)
        assert np.max(np.abs(support_log(rho) - ref)) < 1e-10


class TestSpectrum:
    def test_stack_matches_each_matrix(self, rng):
        states = [ginibre_state(rng, 4, mix=0.1) for _ in range(3)]
        stack = np.stack(states + [np.diag([0.5, 0.5, 0.0, 0.0])])
        spec = Spectrum.of(stack)
        logs, entropies = spec.log, spec.entropy()
        for rho, log_m, s in zip(stack, logs, entropies):
            assert np.max(np.abs(log_m - log_on_support(rho))) < 1e-13
            lam = np.linalg.eigvalsh(rho)
            lam = lam[lam > 1e-12]
            assert s == pytest.approx(-np.sum(lam * np.log(lam)), rel=1e-13)

    def test_leak_onto_kernel(self):
        spec = Spectrum.of(np.diag([1.0, 0.0, 0.0]).astype(complex))
        states = np.stack([np.diag([0.5, 0.3, 0.2]), np.diag([1.0, 0.0, 0.0])]).astype(complex)
        assert np.allclose(spec.leak_of(states), [0.5, 0.0], atol=1e-15)

    def test_reads_the_hermitian_part(self, rng):
        # the whole matrix is read, not one triangle: here only the upper
        # triangle carries the off-diagonals
        rho = hermitize(ginibre_state(rng, 4, mix=0.1))
        upper = 2.0 * np.triu(rho, 1) + np.diag(np.diag(rho))
        assert np.array_equal(Spectrum.of(upper).log, Spectrum.of(rho).log)

    def test_negative_eigenvalue_anywhere_in_stack(self):
        stack = np.stack([np.eye(2) / 2, np.diag([1.0, -0.2])]).astype(complex)
        with pytest.raises(NegativeEigenvalue):
            Spectrum.of(stack)


class TestMatrixExpHermitian:
    """The exp oracle of test_exp_log_roundtrip."""

    def test_zero_gives_identity(self):
        assert np.allclose(exp_hermitian(np.zeros((3, 3), dtype=complex)), np.eye(3))

    def test_diagonal(self):
        out = exp_hermitian(np.diag([np.log(2.0), 0.0]).astype(complex))
        assert np.allclose(out, np.diag([2.0, 1.0]), atol=1e-14)

    def test_against_scaling_and_squaring(self, rng):
        # independent oracle: Taylor series after halving k times, then square back
        a = random_hermitian(rng, 4)
        k = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 2), 1e-30)))) + 3)
        small = a / 2.0**k
        term = np.eye(4, dtype=complex)
        series = np.eye(4, dtype=complex)
        for n in range(1, 30):
            term = term @ small / n
            series = series + term
        for _ in range(k):
            series = series @ series
        assert np.max(np.abs(exp_hermitian(a) - series)) < 1e-10


class TestHsInner:
    def test_identity_identity(self):
        assert hs_inner(np.eye(3, dtype=complex), np.eye(3, dtype=complex)) == pytest.approx(3.0)

    def test_orthogonal_paulis(self):
        assert hs_inner(SX, SZ) == pytest.approx(0.0, abs=1e-15)

    def test_matches_entrywise_sum(self, rng):
        a, b = random_complex(rng, 4), random_complex(rng, 4)
        expected = np.sum(a.conj() * b)
        assert hs_inner(a, b) == pytest.approx(expected)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParams):
            hs_inner(np.eye(2, dtype=complex), np.eye(3, dtype=complex))

    def test_positive_definite(self, rng):
        for _ in range(10):
            a = random_complex(rng, 3)
            val = hs_inner(a, a)
            assert abs(val.imag) < 1e-12
            assert val.real >= 0.0
        zero = np.zeros((3, 3), dtype=complex)
        assert hs_inner(zero, zero) == 0.0


class TestSuperopFromAction:
    def test_identity_action(self):
        s = superop_from_action(2, lambda a: a)
        assert np.array_equal(s.matrix, np.eye(4, dtype=complex))

    def test_sigma_z_conjugation(self):
        s = superop_from_action(2, lambda a: SZ @ a @ SZ)
        # derived by applying the action to all four matrix units
        assert np.allclose(s.matrix, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    def test_commutator_kron_identity(self, rng):
        h = random_hermitian(rng, 3)
        s = superop_from_action(3, lambda a: -1j * (h @ a - a @ h))
        expected = -1j * (np.kron(np.eye(3), h) - np.kron(h.T, np.eye(3)))
        assert np.max(np.abs(s.matrix - expected)) < 1e-13

    def test_apply_matches_action(self, rng):
        h = random_hermitian(rng, 3)
        s = superop_from_action(3, lambda a: h @ a @ h - 2.0 * a)
        for _ in range(5):
            a = random_complex(rng, 3)
            assert np.max(np.abs(s.apply(a) - (h @ a @ h - 2.0 * a))) < 1e-12

    def test_apply_stack_matches_each_operator(self, rng):
        s = SuperOperator(3, random_complex(rng, 9))
        stack = np.stack([random_complex(rng, 3) for _ in range(4)])
        out = s.apply(stack)
        assert out.shape == stack.shape
        for a, b in zip(stack, out):
            assert np.max(np.abs(b - s.apply(a))) < 1e-13

    @pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3), (4, 3, 3), (2, 3)])
    def test_apply_rejects_other_shapes(self, shape):
        with pytest.raises(InvalidParams):
            SuperOperator(2, np.eye(4, dtype=complex)).apply(np.zeros(shape, dtype=complex))

    def test_linearity_of_apply(self, rng):
        s = SuperOperator(3, random_complex(rng, 9))
        a, b = random_complex(rng, 3), random_complex(rng, 3)
        al, be = 0.7 - 0.2j, -1.3 + 0.5j
        lhs = s.apply(al * a + be * b)
        rhs = al * s.apply(a) + be * s.apply(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSuperopAdjoint:
    def test_unitary_conjugation_inverse(self, rng):
        h = random_hermitian(rng, 3)
        lam, u = np.linalg.eigh(h)
        s = superop_from_action(3, lambda a: u @ a @ u.conj().T)
        adj = s.adjoint()
        a = random_complex(rng, 3)
        assert np.max(np.abs(adj.apply(a) - u.conj().T @ a @ u)) < 1e-12

    def test_lindblad_dissipator_heisenberg_form(self, rng):
        a_op = random_complex(rng, 3)
        gamma = 0.7
        sch = superop_from_action(
            3,
            lambda r: gamma
            * (2 * a_op @ r @ a_op.conj().T - a_op.conj().T @ a_op @ r - r @ a_op.conj().T @ a_op),
        )
        heis = superop_from_action(
            3,
            lambda x: gamma
            * (2 * a_op.conj().T @ x @ a_op - a_op.conj().T @ a_op @ x - x @ a_op.conj().T @ a_op),
        )
        assert np.max(np.abs(sch.adjoint().matrix - heis.matrix)) < 1e-12

    def test_pinching_self_adjoint(self):
        projs = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        s = superop_from_action(2, lambda a: sum(p @ a @ p for p in projs))
        assert np.max(np.abs(s.adjoint().matrix - s.matrix)) < 1e-15

    def test_involution_exact(self, rng):
        s = SuperOperator(3, random_complex(rng, 9))
        assert np.array_equal(s.adjoint().adjoint().matrix, s.matrix)

    def test_adjoint_pairing(self, rng):
        s = SuperOperator(3, random_complex(rng, 9))
        adj = s.adjoint()
        for _ in range(20):
            a, b = random_complex(rng, 3), random_complex(rng, 3)
            lhs = hs_inner(s.apply(a), b)
            rhs = hs_inner(a, adj.apply(b))
            bound = 1e-10 * np.linalg.norm(a) * np.linalg.norm(b)
            assert abs(lhs - rhs) <= bound


def test_vec_roundtrip_and_column_stacking(rng):
    a = random_complex(rng, 3)
    v = vectorize(a)
    # column stacking: first d entries are the first column
    assert np.array_equal(v[:3], a[:, 0])
    assert np.array_equal(unvectorize(v, 3), a)
    # vec(A X B) = kron(B.T, A) vec(X)
    b, x = random_complex(rng, 3), random_complex(rng, 3)
    assert np.max(np.abs(vectorize(a @ x @ b) - np.kron(b.T, a) @ vectorize(x))) < 1e-13


def hermitian_basis_unitary(d):
    """Test-side T: column p = i + d j is vec(F_p), with F_p = E_ii on the
    diagonal, (E_ij + E_ji)/√2 above it and i(E_ji - E_ij)/√2 below it."""
    t = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            f = np.zeros((d, d), dtype=complex)
            if i == j:
                f[i, i] = 1.0
            elif i < j:
                f[i, j] = f[j, i] = 1.0 / np.sqrt(2.0)
            else:
                f[j, i], f[i, j] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            t[:, i + d * j] = vectorize(f)
    return t


def random_lindblad_matrix(rng, d):
    """Vectorized -i[H, .] plus a three-jump dissipator, both random."""
    h = random_hermitian(rng, d)
    terms = tuple(JumpTerm(float(rng.uniform(0.5, 1.5)), random_complex(rng, d)) for _ in range(3))
    return liouvillian(EvolutionSpec(h, (Bath("random", LindbladGenerator(d, terms)),))).matrix


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_real_form_is_the_map_in_the_hermitian_basis(self, rng, d):
        t = hermitian_basis_unitary(d)
        assert np.max(np.abs(t.conj().T @ t - np.eye(d * d))) <= 1e-15
        m = random_lindblad_matrix(rng, d)
        ref = t.conj().T @ m @ t
        size = np.max(np.abs(m))
        real = _real_form(m)
        assert real.dtype == np.float64
        assert np.max(np.abs(real - ref.real)) <= 1e-14 * size
        assert np.max(np.abs(ref.imag)) <= 1e-14 * size  # what the real form drops
        s_m = np.linalg.svd(m, compute_uv=False)
        assert np.max(np.abs(np.linalg.svd(real, compute_uv=False) - s_m)) <= 1e-13 * s_m[0]

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_real_form_acts_on_coordinates(self, rng, d):
        m = random_lindblad_matrix(rng, d)
        x = np.stack([random_hermitian(rng, d) for _ in range(4)])
        images = SuperOperator(d, m).apply(x)
        out = _herm_coords(x) @ _real_form(m).T
        assert np.max(np.abs(out - _herm_coords(images))) <= 1e-13 * np.max(np.abs(images))

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_coordinates_round_trip(self, rng, d):
        t = hermitian_basis_unitary(d)
        x = np.stack([random_hermitian(rng, d) for _ in range(5)])
        coords = _herm_coords(x)
        ref = (x.swapaxes(-1, -2).reshape(5, -1) @ t.conj()).real  # Tr[F_p X]
        assert np.max(np.abs(coords - ref)) <= 4 * EPS * np.max(np.abs(x))
        back = _herm_operators(coords)
        # exactly Hermitian, and X again to one rounding of the √2 scaling
        assert np.array_equal(back, back.conj().swapaxes(-1, -2))
        assert np.array_equal(np.diagonal(back, axis1=1, axis2=2).real, np.diagonal(x, axis1=1, axis2=2).real)
        assert np.max(np.abs(back - x)) <= EPS * np.max(np.abs(x))
        # one operator as a stack of one
        assert np.array_equal(_herm_coords(x[0]), coords[0])
        assert np.array_equal(_herm_operators(coords[0]), back[0])

    def test_coordinates_of_the_hermitian_part(self, rng):
        a = random_complex(rng, 4)
        assert np.max(np.abs(_herm_coords(a) - _herm_coords(hermitize(a)))) <= 4 * EPS * np.max(np.abs(a))

    def test_tables_stay_small_at_d16(self):
        assert sum(t.nbytes for t in _herm_index(16)) <= 2 * 2**20
