"""Dense complex operator and super-operator algebra.

Operators are plain complex numpy arrays of shape (d, d). Super-operators
act on column-stacked operators: vec(A) stacks the columns of A, so that
vec(A X B) = kron(B.T, A) @ vec(X). All spectral calculus (log, exp) goes
through the Hermitian eigendecomposition; nothing here needs a general
matrix function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NegativeEigenvalue, NotHermitian, StateInvariantViolated

#: Relative eigenvalue cutoff separating true support from float noise.
DEFAULT_EIG_CUT = 1e-12

#: Default tolerance for Hermiticity checks (max entrywise deviation).
HERM_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def herm_defect(a: np.ndarray) -> float:
    """Max absolute entrywise deviation of A from A†."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0

def is_hermitian(a: np.ndarray, tol: float = HERM_TOL) -> bool:
    return herm_defect(a) <= tol


def require_hermitian(a: np.ndarray, tol: float = HERM_TOL, what: str = "operator") -> None:
    defect = herm_defect(a)
    if defect > tol:
        raise NotHermitian(f"{what} deviates from Hermiticity by {defect:.3e} (tol {tol:.1e})")


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


def matrix_log_on_support(a: np.ndarray, eig_cut: float = DEFAULT_EIG_CUT) -> np.ndarray:
    """Natural log of a Hermitian PSD matrix, restricted to its support.

    Eigenvalues below eig_cut (relative to the largest eigenvalue)
    contribute zero. Eigenvalues below -eig_cut raise NegativeEigenvalue.
    """
    require_hermitian(a, what="log argument")
    lam, vecs = np.linalg.eigh(hermitize(a))
    scale = float(lam[-1])
    cut = eig_cut * max(scale, 0.0)
    if float(lam[0]) < -cut:
        raise NegativeEigenvalue(
            f"matrix has eigenvalue {lam[0]:.3e} below -{cut:.1e}; not PSD"
        )
    keep = lam > cut
    if not np.any(keep):
        return np.zeros_like(a, dtype=complex)
    v = vecs[:, keep]
    return (v * np.log(lam[keep])) @ v.conj().T


def matrix_exp_hermitian(a: np.ndarray) -> np.ndarray:
    """exp(A) for Hermitian A via eigendecomposition."""
    require_hermitian(a, what="exp argument")
    lam, vecs = np.linalg.eigh(hermitize(a))
    return (vecs * np.exp(lam)) @ vecs.conj().T


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
        if a.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"super-operator acts on {self.dim}x{self.dim}, got {a.shape}"
            )
        return unvectorize(self.matrix @ vectorize(a), self.dim)

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


def superop_hs_adjoint(s: SuperOperator) -> SuperOperator:
    """Adjoint with respect to hs_inner; conjugate transpose of the matrix."""
    return s.adjoint()


def assert_density_matrix(
    rho: np.ndarray,
    herm_tol: float = 1e-10,
    eig_tol: float = 1e-10,
    trace_tol: float = 1e-10,
    what: str = "state",
) -> None:
    """Check Hermiticity, positivity and unit trace; raise on violation."""
    require_square(rho, what)
    defect = herm_defect(rho)
    if defect > herm_tol:
        raise StateInvariantViolated(f"{what}: Hermiticity defect {defect:.3e} > {herm_tol:.1e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise StateInvariantViolated(f"{what}: trace {tr} deviates from 1 by more than {trace_tol:.1e}")
    lam_min = float(np.linalg.eigvalsh(hermitize(rho))[0])
    if lam_min < -eig_tol:
        raise StateInvariantViolated(f"{what}: eigenvalue {lam_min:.3e} < -{eig_tol:.1e}")


def is_density_matrix(rho: np.ndarray, **tols) -> bool:
    try:
        assert_density_matrix(rho, **tols)
    except (StateInvariantViolated, DimensionMismatch):
        return False
    return True
