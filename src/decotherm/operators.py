"""Dense complex operator and super-operator algebra.

Operators are plain complex numpy arrays of shape (d, d); the helpers that
say so also take stacks of shape (n, d, d). Super-operators
act on column-stacked operators: vec(A) stacks the columns of A, so that
vec(A X B) = kron(B.T, A) @ vec(X). The matrix log goes through the
Hermitian eigendecomposition; nothing here needs a general matrix
function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, StateInvariantViolated

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


def require_hermitian(a: np.ndarray, what: str = "operator") -> None:
    defect = herm_defect(a)
    if defect > HERM_TOL:
        raise NotHermitian(f"{what} deviates from Hermiticity by {defect:.3e} (tol {HERM_TOL:.1e})")


def require_square(a: np.ndarray, what: str = "operator") -> int:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {a.shape}")
    return a.shape[0]


def require_same_dim(a: np.ndarray, b: np.ndarray) -> int:
    da = require_square(a)
    db = require_square(b)
    if da != db:
        raise DimensionMismatch(f"operator dimensions differ: {da} vs {db}")
    return da


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
        eigs, vecs = np.linalg.eigh(hermitize(m))  # ascending
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


def matrix_log_on_support(a: np.ndarray) -> np.ndarray:
    """Natural log of a Hermitian PSD matrix, restricted to its support.

    Eigenvalues at or below DEFAULT_EIG_CUT times the largest one
    contribute zero; eigenvalues below minus that cut raise
    NegativeEigenvalue.
    """
    require_hermitian(a, what="log argument")
    return Spectrum.of(a).log


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[A† B]."""
    require_same_dim(a, b)
    return complex(np.einsum("ij,ij->", a.conj(), b))


def vectorize(a: np.ndarray) -> np.ndarray:
    """Column-stack a (d, d) operator into a length-d² vector."""
    return np.asarray(a).reshape(-1, order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim, order="F")


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Linear map on operators, stored as a d²×d² matrix over vec()."""

    dim: int
    matrix: np.ndarray

    def apply(self, a: np.ndarray) -> np.ndarray:
        """The map on one operator (d, d), or on each operator of a stack
        (n, d, d) as a single matrix product."""
        if a.ndim not in (2, 3) or a.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(
                f"super-operator acts on {self.dim}x{self.dim}, got {a.shape}"
            )
        # vec() stacks columns, so vec(a) is the row-major flattening of a.T
        images = a.swapaxes(-1, -2).reshape(*a.shape[:-2], -1) @ self.matrix.T
        return images.reshape(a.shape).swapaxes(-1, -2)

    def adjoint(self) -> "SuperOperator":
        return SuperOperator(self.dim, self.matrix.conj().T)


def superop_from_action(dim: int, action: Callable[[np.ndarray], np.ndarray]) -> SuperOperator:
    """Materialize a linear operator map by applying it to all matrix units."""
    d2 = dim * dim
    mat = np.empty((d2, d2), dtype=complex)
    for k in range(d2):
        e = np.zeros(d2, dtype=complex)
        e[k] = 1.0
        mat[:, k] = vectorize(action(unvectorize(e, dim)))
    return SuperOperator(dim, mat)


def assert_density_matrix(rho: np.ndarray, what: str = "state") -> None:
    """Check Hermiticity (HERM_TOL), positivity and unit trace (STATE_TOL);
    raise on violation."""
    require_square(rho, what)
    defect = herm_defect(rho)
    if defect > HERM_TOL:
        raise StateInvariantViolated(f"{what}: Hermiticity defect {defect:.3e} > {HERM_TOL:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > STATE_TOL:
        raise StateInvariantViolated(f"{what}: trace {tr} deviates from 1 by more than {STATE_TOL:.1e}")
    lam_min = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if lam_min < -STATE_TOL:
        raise StateInvariantViolated(f"{what}: eigenvalue {lam_min:.3e} < -{STATE_TOL:.1e}")
