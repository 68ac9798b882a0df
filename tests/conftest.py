"""Shared test helpers: random states, Paulis, and brute-force oracles."""

import math

import numpy as np
import pytest

from decotherm.baths import Bath, _first_failure
from decotherm.operators import SuperOperator, _real_form, require_operator

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: device grid: cold to hot occupations (1e-14 is beta E ≈ 32) and no
#: dephasing up to the Zeno regime
GRID_OCCUPATIONS = (1e-14, 1.3e-14, 3e-14, 1e-13, 1e-12, 1e-9, 1e-3, 0.6, 1e3, 1e6)
GRID_GAMMAS = (0.0, 1e-2, 0.3, 1e2, 1e4, 1e6)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    a = random_complex(rng, d)
    return 0.5 * (a + a.conj().T)


def ginibre_state(rng, d, mix=0.0):
    """Random full-rank density matrix; mix > 0 blends in the maximally
    mixed state to keep the spectrum away from zero."""
    x = random_complex(rng, d)
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    if mix:
        rho = (1.0 - mix) * rho + mix * np.eye(d) / d
    return rho


def hs_inner(a, b):
    """Hilbert-Schmidt inner product Tr[A† B]."""
    require_operator(b, "operator", require_operator(a, "operator"))
    return complex(np.einsum("ij,ij->", a.conj(), b))


def vectorize(a):
    """Column-stack a (d, d) operator into a length-d² vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvectorize(v, dim):
    return np.asarray(v).reshape(dim, dim, order="F")


def superop_from_action(dim, action):
    """Materialize a linear operator map by applying it to all matrix units."""
    d2 = dim * dim
    mat = np.empty((d2, d2), dtype=complex)
    for k in range(d2):
        e = np.zeros(d2, dtype=complex)
        e[k] = 1.0
        mat[:, k] = vectorize(action(unvectorize(e, dim)))
    return SuperOperator(dim, mat)


def log_on_support(m, cut=1e-12):
    """Test-side log of a PSD matrix on its support, by one eigensolve: the
    oracle for the library's support log, Spectrum.of(m).log."""
    lam, u = np.linalg.eigh(m)
    logs = np.where(lam > cut * lam[-1], np.log(np.maximum(lam, 1e-300)), 0.0)
    return (u * logs) @ u.conj().T


def onsager_superop(b, a, c=1.0):
    """Test-side M_{b,a}: X -> c * L_b(L_a†(X)), with L_a† the Heisenberg
    adjoint, from the two generator matrices: the oracle for
    linear_response(...).pairs[(b, a)]."""
    from decotherm.baths import generator_superop

    sb = generator_superop(b.generator).matrix
    sa = generator_superop(a.generator).matrix
    return SuperOperator(b.dim, c * (sb @ sa.conj().T))


def _wrap_everywhere(monkeypatch, name, make):
    """Replace decotherm's private function name, in every module that
    imported it, by make(real)."""
    import decotherm

    wrapped = make(getattr(decotherm.baths, name))
    for module_name in ("baths", "dynamics", "thermo", "onsager", "scenarios"):
        module = getattr(decotherm, module_name)
        if hasattr(module, name):
            monkeypatch.setattr(module, name, wrapped)


def count_structure_solves(monkeypatch):
    """Wrap every module's baths._solve_structure, the structure solver,
    which solves one bath a call; the returned list gets the name of each
    bath it solved."""
    solved = []

    def make(real):
        def counting(name, tol, gen):
            solved.append(name)
            return real(name, tol, gen)
        return counting

    _wrap_everywhere(monkeypatch, "_solve_structure", make)
    return solved


def uncached(bath):
    """The bath as Bath(name, generator): a bath that caches no structure,
    so the structure solver solves it, where a public device bath carries
    its structure in closed form from its rates."""
    return Bath(bath.name, bath.generator)


def count_generator_builds(monkeypatch):
    """Wrap every module's baths._generator_matrices; the returned list gets,
    per call, the list of generators it built."""
    builds = []

    def make(real):
        def counting(gens, d):
            builds.append(list(gens))
            return real(gens, d)
        return counting

    _wrap_everywhere(monkeypatch, "_generator_matrices", make)
    return builds


def count_kernel_solves(monkeypatch):
    """Wrap every module's baths._kernel_basis; the returned list gets the
    number of matrices of each call."""
    solves = []

    def make(real):
        def counting(lmats):
            solves.append(len(lmats))
            return real(lmats)
        return counting

    _wrap_everywhere(monkeypatch, "_kernel_basis", make)
    return solves


def exact_norm(lmat):
    """Test-side oracle: ||L||_2 from the SVD of L's real form, the matrix
    whose singular values the library computes where it needs them."""
    return float(np.linalg.svd(_real_form(lmat), compute_uv=False)[0])


def assert_decides_as_the_exact_norm(lmat, fro):
    """||L||_F (fro, `_Kernels.fro`) decides what ||L||_2 decided: the
    rows `_kernel_basis` clamps, those at or below ||L||·n·eps, are the
    ones the exact norm clamps, and `_first_failure` passes a residual
    exactly when it is at most tol·||L||_2, names ||L||_2 where it fails,
    and refuses NaN. The residuals sit on both sides of the bound
    tol·||L||_F/n it passes without ||L||_2 and of tol·||L||_2 itself."""
    real = _real_form(lmat)
    n, eps, tol = real.shape[0], np.finfo(float).eps, 1e-12
    norm = exact_norm(lmat)
    top = np.abs(real).max(axis=1)
    assert np.array_equal(top <= fro * n * eps, top <= norm * n * eps)
    edges = [tol * fro / n, tol * norm]
    resids = [0.0, 1e-3 * tol * norm, math.nan,
              *(np.nextafter(e, side) for e in edges for side in (0.0, math.inf)), *edges]
    for r in resids:
        got = _first_failure(np.array([[r]]), tol, lmat[None], np.array([fro]))
        if r <= tol * norm:
            assert got is None, r
        else:
            assert got == (0, norm), r


def count_svds(monkeypatch):
    """Wrap np.linalg.svd; the returned list gets (shape, compute_uv) of
    each call."""
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def dissipator_oracle(rho, terms):
    """Direct per-term arithmetic: sum r (2 A rho A† - A†A rho - rho A†A)."""
    out = np.zeros_like(rho, dtype=complex)
    for rate, a in terms:
        ad = a.conj().T
        out = out + rate * (2.0 * a @ rho @ ad - ad @ a @ rho - rho @ ad @ a)
    return out


def unitary_evolution_oracle(h, rho0, t):
    """Closed-form e^{-iHt} rho e^{+iHt} through the eigenbasis of H."""
    lam, u = np.linalg.eigh(h)
    phases = np.exp(-1j * lam * t)
    prop = (u * phases) @ u.conj().T
    return prop @ rho0 @ prop.conj().T


def trace_distance(a, b):
    lam = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(lam)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
