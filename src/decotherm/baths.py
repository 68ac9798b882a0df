"""Lindblad generators and their stationary maps.

A bath is a generator plus a strategy for evaluating its stationary map
B(rho) = lim_{t->inf} exp(t L)(rho): pinching for decoherence baths, and
the spectral projector onto ker L for every other bath (thermal relaxation,
whose kernel is spanned by the Gibbs state, and the three-level pump baths,
whose stationary set depends on the initial state). Lindblad generators
have a semisimple kernel (Baumgartner & Narnhofer, J. Phys. A 41, 395303
(2008)), so that projector is exactly the t -> inf limit. The same SVD
null space (`_kernel_basis`) gives the steady state of a full Liouvillian.

Dissipator convention (factor 2, no 1/2 on the anticommutator):

    L(rho) = sum_k rate_k (2 A_k rho A_k† - A_k†A_k rho - rho A_k†A_k)

so a dephasing bath at rate gamma kills off-diagonals at rate 2*gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
    NonPositiveBeta,
    NonPositiveOccupation,
    NotOrthonormal,
)
from .operators import (
    SuperOperator,
    dagger,
    hermitize,
    mul_left,
    mul_right,
    require_square,
)


@dataclass(frozen=True, eq=False)
class JumpTerm:
    rate: float
    jump: np.ndarray

    def __post_init__(self):
        if self.rate < 0:
            raise InvalidParams(f"jump rate must be >= 0, got {self.rate}")
        require_square(self.jump, "jump operator")


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    dim: int
    terms: tuple[JumpTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.jump.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"jump operator shape {t.jump.shape} does not match dim {self.dim}"
                )
        n = len(self.terms)
        jumps = np.zeros((n, self.dim, self.dim), dtype=np.complex128)
        for k, t in enumerate(self.terms):
            jumps[k] = t.jump
        jjs = np.einsum("kji,kjl->kil", jumps.conj(), jumps)
        rates = np.array([t.rate for t in self.terms], dtype=float)
        object.__setattr__(self, "_jumps", jumps)
        object.__setattr__(self, "_jjs", jjs)
        object.__setattr__(self, "_rates", rates)

    # pre-stacked views of the terms
    @property
    def jump_stack(self) -> np.ndarray:
        return self._jumps

    @property
    def jj_stack(self) -> np.ndarray:
        return self._jjs

    @property
    def rate_stack(self) -> np.ndarray:
        return self._rates


def _require_operands(dim: int, a: np.ndarray, what: str) -> None:
    """a must be one (dim, dim) operator or a stack (n, dim, dim) of them."""
    if a.ndim not in (2, 3) or a.shape[-2:] != (dim, dim):
        raise DimensionMismatch(f"{what} shape {a.shape} does not match dim {dim}")


def apply_generator(gen: LindbladGenerator, a: np.ndarray) -> np.ndarray:
    """Schrodinger-picture action: sum_k r_k (2 A a A† - A†A a - a A†A),
    on one operator or on each operator of a stack."""
    _require_operands(gen.dim, a, "operator")
    out = np.zeros(a.shape, dtype=complex)
    jumps, jjs, rates = gen.jump_stack, gen.jj_stack, gen.rate_stack
    for k in range(rates.shape[0]):
        aa = jumps[k]
        out += rates[k] * (
            2.0 * mul_right(mul_left(aa, a), aa.conj().T) - mul_left(jjs[k], a) - mul_right(a, jjs[k])
        )
    return out


def generator_superop(gen: LindbladGenerator) -> SuperOperator:
    """Vectorized matrix of the generator's Schrodinger action, in closed form:

        sum_k r_k (2 conj(A_k) ⊗ A_k - I ⊗ A_k†A_k - (A_k†A_k)ᵀ ⊗ I)

    Terms are accumulated in the order apply_generator uses, so for jumps
    that are matrix units (the device baths) the matrix equals, bit for bit,
    apply_generator applied to every matrix unit.
    """
    eye = np.eye(gen.dim)
    mat = np.zeros((gen.dim * gen.dim,) * 2, dtype=complex)
    for a, jj, rate in zip(gen.jump_stack, gen.jj_stack, gen.rate_stack):
        mat += rate * (2.0 * np.kron(a.conj(), a) - np.kron(eye, jj) - np.kron(jj.T, eye))
    return SuperOperator(gen.dim, mat)


# ---------------------------------------------------------------------------
# stationary-map strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PinchingClosedForm:
    basis: np.ndarray  # unitary matrix whose columns are the preferred basis


@dataclass(frozen=True, eq=False)
class PropagateToFixedPoint:
    """B(rho) as the spectral projector onto ker L applied to vec(rho).

    tol bounds the Frobenius norm of L(B(rho)) for each state, relative to
    ||L||_2; a larger residual raises NoConvergence (with tol = 0, any
    nonzero residual does).
    """

    tol: float = 1e-12


StationaryStrategy = Union[PinchingClosedForm, PropagateToFixedPoint]


@dataclass(frozen=True, eq=False)
class Bath:
    name: str
    generator: LindbladGenerator
    stationary_strategy: StationaryStrategy
    _fp_map: tuple[np.ndarray, float] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.generator.dim


def _kernel_basis(lmat: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Null space of a square super-operator matrix L, from one SVD.

    With L = U S V†, returns (R, N†, ||L||_2): R holds the right and N the
    left null vectors, the columns of V and U whose singular values are at
    or below s[0]·n·eps (numpy's matrix_rank rule), and s[0] = ||L||_2.
    L = 0 has every vector in its kernel.
    """
    u, s, vh = np.linalg.svd(lmat)
    n = lmat.shape[0]
    k = int(np.count_nonzero(s <= s[0] * n * np.finfo(float).eps))
    return vh[n - k:].conj().T, u[:, n - k:].conj().T, float(s[0])


def _fixed_point_map(bath: Bath) -> tuple[np.ndarray, float]:
    """The spectral projector P = R (N†R)⁻¹ N† onto ker L as a d²×d²
    matrix, and ||L||_2, both cached on the bath. L = 0 gives P = I."""
    if bath._fp_map is None:
        r, nh, scale = _kernel_basis(generator_superop(bath.generator).matrix)
        object.__setattr__(bath, "_fp_map", (r @ np.linalg.solve(nh @ r, nh), scale))
    return bath._fp_map


def stationary_map(bath: Bath, rho: np.ndarray) -> np.ndarray:
    """Evaluate B(rho), the infinite-time limit of the bath's dynamical map,
    for one state (d, d) or for each state of a stack (n, d, d)."""
    _require_operands(bath.dim, rho, "state")
    strat = bath.stationary_strategy
    if isinstance(strat, PinchingClosedForm):
        u = strat.basis
        probs = np.diagonal(dagger(u) @ rho @ u, axis1=-2, axis2=-1)
        return (u * probs[..., None, :]) @ dagger(u)
    fp, scale = _fixed_point_map(bath)
    # vec() stacks columns, so vec(rho) is the row-major flattening of rho.T
    images = rho.swapaxes(-1, -2).reshape(*rho.shape[:-2], bath.dim**2) @ fp.T
    out = hermitize(images.reshape(rho.shape).swapaxes(-1, -2))
    del images  # as large as the stack; free it before the residual check
    out /= np.trace(out, axis1=-2, axis2=-1).real[..., None, None]
    resid = np.linalg.norm(apply_generator(bath.generator, out), axis=(-2, -1))
    if (resid > strat.tol * scale).any():
        raise NoConvergence(
            f"stationary_map({bath.name}): kernel projector image has residual "
            f"{np.max(resid):.3e} > tol {strat.tol:.1e} * ||L||_2 {scale:.3e}"
        )
    return out


# ---------------------------------------------------------------------------
# bath constructors
# ---------------------------------------------------------------------------

def thermal_occupation(beta: float, energy: float) -> float:
    """Bose factor 1/(exp(beta*energy) - 1), overflow-safe."""
    if beta <= 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    if energy <= 0:
        raise InvalidParams(f"occupation needs a positive level splitting, got {energy}")
    e = np.exp(-beta * energy)
    return float(e / (1.0 - e))


def dephasing_bath(basis: Sequence[np.ndarray], gamma: float, name: str = "dephasing") -> Bath:
    """Continuous measurement along an orthonormal basis {|j>}.

    One jump |j><j| per basis vector, all at the same rate.
    """
    if gamma <= 0:
        raise InvalidParams(f"dephasing rate must be > 0, got {gamma}")
    u = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in basis])
    d = u.shape[0]
    if u.shape != (d, d):
        raise NotOrthonormal(f"need {d} basis vectors of length {d}, got matrix shape {u.shape}")
    gram = u.conj().T @ u
    if np.max(np.abs(gram - np.eye(d))) > 1e-12:
        raise NotOrthonormal("basis is not orthonormal within 1e-12")
    terms = tuple(JumpTerm(gamma, np.outer(u[:, j], u[:, j].conj())) for j in range(d))
    gen = LindbladGenerator(d, terms)
    return Bath(name, gen, PinchingClosedForm(u))


def thermal_two_level_bath(
    e_excited: float, beta: float, rate_scale: float, name: str = "thermal"
) -> Bath:
    """Two-level relaxation bath whose stationary state is the Gibbs state
    of H = diag(0, E).

    Decay |g><e| at rate_scale*(1+n), excitation |e><g| at rate_scale*n, with
    n = 1/(exp(beta*e_excited) - 1). Basis order (|g>, |e>). The generator's
    kernel is one-dimensional and spanned by diag(1+n, n) ∝ diag(1, e^{-beta E}),
    so the kernel projector maps every state to that Gibbs state.
    """
    if beta <= 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    if rate_scale <= 0:
        raise InvalidParams(f"rate_scale must be > 0, got {rate_scale}")
    n = thermal_occupation(beta, e_excited)
    decay = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e|
    excite = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|
    gen = LindbladGenerator(
        2, (JumpTerm(rate_scale * (1.0 + n), decay), JumpTerm(rate_scale * n, excite))
    )
    return Bath(name, gen, PropagateToFixedPoint())


def _three_level_unit(i: int, j: int) -> np.ndarray:
    m = np.zeros((3, 3), dtype=complex)
    m[i, j] = 1.0
    return m


def left_pump_bath(n_l: float, name: str = "left") -> Bath:
    """Left relaxation bath of the three-level device, basis (|0>, |L>, |R>).

    Pumping term |L><0| carries the (1+n) factor, verbatim from the model
    this implements; the placement is opposite to the usual thermal
    convention and is intentional.
    """
    if n_l <= 0:
        raise NonPositiveOccupation(f"n_l must be > 0, got {n_l}")
    gen = LindbladGenerator(
        3,
        (
            JumpTerm(1.0 + n_l, _three_level_unit(1, 0)),  # |L><0|
            JumpTerm(n_l, _three_level_unit(0, 1)),        # |0><L|
        ),
    )
    return Bath(name, gen, PropagateToFixedPoint())


def right_pump_bath(n_r: float, name: str = "right") -> Bath:
    """Right relaxation bath of the three-level device, basis (|0>, |L>, |R>)."""
    if n_r <= 0:
        raise NonPositiveOccupation(f"n_r must be > 0, got {n_r}")
    gen = LindbladGenerator(
        3,
        (
            JumpTerm(n_r, _three_level_unit(2, 0)),        # |R><0|
            JumpTerm(1.0 + n_r, _three_level_unit(0, 2)),  # |0><R|
        ),
    )
    return Bath(name, gen, PropagateToFixedPoint())


def left_pump_bath_from_beta(beta: float, e_l: float, name: str = "left") -> Bath:
    return left_pump_bath(thermal_occupation(beta, e_l), name=name)


def right_pump_bath_from_beta(beta: float, e_r: float, name: str = "right") -> Bath:
    return right_pump_bath(thermal_occupation(beta, e_r), name=name)
