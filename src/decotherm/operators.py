"""Dense complex operator and super-operator algebra.

Operators are plain complex numpy arrays of shape (d, d); the helpers that
say so also take stacks of shape (n, d, d). Super-operators act on
column-stacked operators: vec(A) stacks the columns of A, so that
vec(A X B) = kron(B.T, A) @ vec(X). `_apply_each` is the one action of
such matrices on operators, for a stack of matrices each on its own
operator or operator stack; `SuperOperator.apply` is its one-matrix call.
The matrix log goes through the Hermitian eigendecomposition; nothing here
needs a general matrix function.

Hermitian operators also have real coordinates in an orthonormal Hermitian
basis (`_herm_coords`, `_herm_operators`), in which a map that preserves
Hermiticity is a real d²×d² matrix (`_real_form`). The kernel solves and
the propagation do their d²×d² LAPACK work on those real matrices; every
public map stays a complex SuperOperator over vec().

An operator argument is checked once, where it enters, by one of two
gates: `require_operator` (square, of the given dimension, finite) or
`require_hamiltonian` (that, and Hermitian within HERM_TOL).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParams,
    NegativeEigenvalue,
    NotHermitian,
    StateInvariantViolated,
)

#: The one support cut: eigenvalues at or below DEFAULT_EIG_CUT times the
#: largest one are float noise, not support.
DEFAULT_EIG_CUT = 1e-12

#: Max entrywise deviation of a Hermitian operator from its adjoint.
HERM_TOL = 1e-10

#: Max trace deviation from 1 and max negative eigenvalue of a state.
STATE_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """A† of one operator or of each operator in a stack."""
    return a.swapaxes(-1, -2).conj()


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A†)/2 of one operator or a stack."""
    return 0.5 * (a + dagger(a))


def herm_defect(a: np.ndarray) -> float:
    """Max absolute entrywise deviation of A from A†."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_finite(a: np.ndarray, what: str = "operator") -> None:
    """InvalidParams if a has a NaN or infinite entry: every comparison with
    NaN is false, so no later tolerance check would catch it."""
    if not np.isfinite(a).all():
        raise InvalidParams(f"{what} has a non-finite entry")


def require_operator(a: np.ndarray, what: str, d: int | None = None) -> int:
    """The gate of one operator argument: DimensionMismatch unless a is
    square (and d×d, if d is given), then InvalidParams for a non-finite
    entry. Returns its dimension."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise DimensionMismatch(f"{what} shape {a.shape} does not match dim {d}")
    require_finite(a, what)
    return a.shape[0]


def require_hamiltonian(h: np.ndarray, what: str, d: int | None = None) -> int:
    """The gate of a Hamiltonian: require_operator, then NotHermitian if h
    deviates from h† by more than HERM_TOL. Returns its dimension."""
    d = require_operator(h, what, d)
    defect = herm_defect(h)
    if defect > HERM_TOL:
        raise NotHermitian(f"{what} deviates from Hermiticity by {defect:.3e} (tol {HERM_TOL:.1e})")
    return d


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigensystem of a Hermitian PSD matrix, shape (d, d), or of a stack of
    them, shape (n, d, d), split at the support cut.

    Eigenvalues at or below DEFAULT_EIG_CUT times the largest one form the
    numerical kernel; log_eigs is log(eigs) on the support and 0 on the
    kernel. Eigenvalues below minus the cut raise NegativeEigenvalue.
    """

    eigs: np.ndarray  # (..., d)
    vecs: np.ndarray  # (..., d, d), one eigenvector per column
    keep: np.ndarray  # (..., d) support mask
    log_eigs: np.ndarray  # (..., d)

    @classmethod
    def of(cls, m: np.ndarray) -> "Spectrum":
        """Spectrum of the Hermitian part of m, cut at DEFAULT_EIG_CUT."""
        return cls.of_eigh(*np.linalg.eigh(hermitize(m)))

    @classmethod
    def of_eigh(cls, eigs: np.ndarray, vecs: np.ndarray) -> "Spectrum":
        """Spectrum from an eigensolve (ascending eigenvalues) already made."""
        cut = DEFAULT_EIG_CUT * np.maximum(eigs[..., -1], 0.0)
        low = eigs[..., 0]
        bad = low < -cut
        if bad.any():
            raise NegativeEigenvalue(
                f"matrix has eigenvalue {np.min(low[bad]):.3e} below -{np.max(cut[bad]):.1e}; not PSD"
            )
        keep = eigs > cut[..., None]
        return cls(eigs, vecs, keep, np.log(eigs, out=np.zeros(eigs.shape), where=keep))

    @property
    def log(self) -> np.ndarray:
        """The log restricted to the support, as a matrix (or stack)."""
        return (self.vecs * self.log_eigs[..., None, :]) @ dagger(self.vecs)

    def entropy(self) -> np.ndarray:
        """-sum lambda ln lambda over the support."""
        return -(self.eigs * self.log_eigs).sum(axis=-1)

    def leak_of(self, rho: np.ndarray) -> np.ndarray:
        """Weight of rho on the numerical kernel: one state, or a stack of
        states against one spectrum or against a stack of the same length."""
        if self.keep.all():
            return np.zeros(rho.shape[:-2])
        w = np.einsum("...ij,...ij->...j", self.vecs.conj(), rho @ self.vecs).real
        return np.where(self.keep, 0.0, w).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Linear map on operators, stored as a d²×d² matrix over vec()."""

    dim: int
    matrix: np.ndarray

    def apply(self, a: np.ndarray) -> np.ndarray:
        """The map on one operator (d, d), or on each operator of a stack
        (n, d, d) as a single matrix product (`_apply_each`)."""
        if a.ndim not in (2, 3) or a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"super-operator acts on {self.dim}x{self.dim}, got {a.shape}"
            )
        return _apply_each(self.matrix[None], a[None])[0]

    def adjoint(self) -> "SuperOperator":
        return SuperOperator(self.dim, self.matrix.conj().T)


def _apply_each(mats: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Each d²×d² matrix of a stack (m, n, n) acting on its own operator
    a[i] (m, d, d) or its own operator stack a[i] (m, j, d, d); one
    operator (d, d), or a leading axis of length 1, is shared by all the
    matrices. The one implementation of a super-operator's action."""
    d = a.shape[-1]
    lead = a.shape[:-2] or (1,)
    # vec() stacks columns, so vec(a) is the row-major flattening of a.T
    flat = a.swapaxes(-1, -2).reshape(lead[0], math.prod(lead[1:]), d * d)
    images = flat @ mats.swapaxes(-1, -2)
    return images.reshape(len(mats), *lead[1:], d, d).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Hermitian coordinates
# ---------------------------------------------------------------------------
#
# The orthonormal Hermitian basis F_p, one element per vec position
# p = i + d j: E_ii on the diagonal, (E_ij + E_ji)/√2 above it and
# i(E_ji - E_ij)/√2 below it. A Hermitian X = sum_p x_p F_p has real
# coordinates x_p = Tr[F_p X]: X_ii, then √2 Re X_ij above the diagonal and
# √2 Im X_ji below it. With T the unitary whose columns are vec(F_p), a map
# M that sends Hermitian operators to Hermitian ones has the real matrix
# T†MT (Alicki & Lendi, Lect. Notes Phys. 286, 1987), with the singular
# values of M.

_SQRT_HALF = float(np.sqrt(0.5))


@functools.lru_cache(maxsize=None)
def _herm_index(d: int) -> tuple[np.ndarray, ...]:
    """Gather tables of the Hermitian coordinates of dimension d, ~1.5 MB
    at d = 16: for `_real_form`, the two floats of M that make each entry,
    and their signed weights; for `_herm_coords`, the two floats of X that
    make each coordinate, and theirs; for `_herm_operators`, the coordinate
    and the weight of each float of X."""
    n = d * d
    p = np.arange(n)
    i, j = p % d, p // d  # vec position p = i + d j
    mirror = j + d * i
    lower, pair = i > j, i != j
    # column p of T, vec(F_p), is i^turn[t, p] (over √2 for a pair) at
    # pos[t, p], t = 0, 1; a diagonal column's one entry is read twice
    pos = np.stack([np.where(lower, mirror, p), np.where(lower, p, mirror)])
    turn = np.where(lower, [[1], [3]], 0)
    # Entry (p, q) of T†MT sums conj(T[a, p]) M[a, b] T[b, q] over the
    # entries of columns p and q. For M with M[(ij),(kl)] = conj(M[(ji),(lk)])
    # the terms from a = pos[1, p] repeat those from a = pos[0, p], so each
    # entry is two terms Re(i^e M[a, b]): the real (e even) or imaginary
    # (e odd) float of M[a, b], negated for e = 1, 2.
    # |conj(T[a, p]) T[b, q]| is 1, 1/√2 or 1/2 for none, one or both of p, q
    # off the diagonal; doubled for a pair row, whose repeated terms fold
    # in, and halved for a diagonal column, whose one entry is read twice
    pairs = pair.astype(int)
    weight = np.array([1.0, _SQRT_HALF, 0.5])[pairs[:, None] + pairs[None, :]]
    weight *= np.where(pair, 2.0, 1.0)[:, None] * np.where(pair, 1.0, 0.5)
    map_idx = np.empty((2, n, n), dtype=np.int32)
    map_weight = np.empty((2, n, n))
    for u in range(2):
        e = (turn[u][None, :] - turn[0][:, None]) % 4
        map_idx[u] = 2 * (pos[0][:, None] * n + pos[u][None, :]) + e % 2
        map_weight[u] = np.where((e == 1) | (e == 2), -weight, weight)
    # coordinates: x_p = Tr[F_p X] for the Hermitian part of X is the real
    # (imaginary below the diagonal) floats of X at pos[0, p] and pos[1, p],
    # weighted, the second negated below the diagonal
    coord_idx = 2 * (i * d + j)[pos] + lower  # (i * d + j)[p]: row-major flat index
    coord_weight = np.where(pair, _SQRT_HALF, 0.5) * np.stack([np.ones(n), np.where(lower, -1.0, 1.0)])
    # inverse: the real float of X at row-major (i, j) is w times the
    # coordinate above the diagonal (the larger vec position of (i, j) and
    # (j, i)), the imaginary one ±w times the coordinate below it
    r_i, r_j = np.divmod(p, d)  # row-major position -> (i, j)
    at, mirror_at = r_i + d * r_j, r_j + d * r_i
    op_idx = np.stack([np.maximum(at, mirror_at), np.minimum(at, mirror_at)], 1).reshape(-1)
    op_weight = np.stack([np.where(r_i == r_j, 1.0, _SQRT_HALF),
                          np.sign(r_j - r_i) * _SQRT_HALF], 1).reshape(-1)
    tables = (map_idx, map_weight, coord_idx, coord_weight, op_idx, op_weight)
    for t in tables:
        t.flags.writeable = False
    return tables


def _real_form(mat: np.ndarray) -> np.ndarray:
    """Re(T†MT): the real d²×d² matrix, in the Hermitian coordinates, of a
    map M on vec(d×d) that preserves Hermiticity, read from the rows of M at
    the diagonal and upper positions (the others are their mirror images);
    of one matrix, or of each matrix of a stack."""
    idx, weight = _herm_index(math.isqrt(mat.shape[-1]))[:2]
    flat = np.ascontiguousarray(mat, dtype=complex).reshape(*mat.shape[:-2], -1)
    terms = flat.view(float)[..., idx]
    terms *= weight
    return np.add(terms[..., 0, :, :], terms[..., 1, :, :])


def _herm_coords(a: np.ndarray) -> np.ndarray:
    """Coordinates (..., d²) of the Hermitian part of one operator (d, d)
    or of each operator of a stack (n, d, d)."""
    d = a.shape[-1]
    idx, weight = _herm_index(d)[2:4]
    af = np.ascontiguousarray(a, dtype=complex).reshape(*a.shape[:-2], d * d).view(float)
    terms = af.take(idx, axis=-1)
    terms *= weight
    return np.add(terms[..., 0, :], terms[..., 1, :])


def _herm_operators(x: np.ndarray) -> np.ndarray:
    """The Hermitian operators (..., d, d) with coordinates x (..., d²):
    the inverse of `_herm_coords`."""
    d = math.isqrt(x.shape[-1])
    idx, weight = _herm_index(d)[4:]
    out = x.take(idx, axis=-1)
    out *= weight
    return out.view(complex).reshape(*x.shape[:-1], d, d)


def assert_density_matrix(rho: np.ndarray, what: str = "state") -> None:
    """Check Hermiticity (HERM_TOL), positivity and unit trace (STATE_TOL);
    raise on violation."""
    require_operator(rho, what)
    defect = herm_defect(rho)
    if defect > HERM_TOL:
        raise StateInvariantViolated(f"{what}: Hermiticity defect {defect:.3e} > {HERM_TOL:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > STATE_TOL:
        raise StateInvariantViolated(f"{what}: trace {tr} deviates from 1 by more than {STATE_TOL:.1e}")
    lam_min = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if lam_min < -STATE_TOL:
        raise StateInvariantViolated(f"{what}: eigenvalue {lam_min:.3e} < -{STATE_TOL:.1e}")
