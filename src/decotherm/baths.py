"""Lindblad generators and their stationary maps.

A bath is a generator. Its stationary map B(rho) = lim_{t->inf} exp(t L)(rho)
is the spectral projector onto ker L, exact because the kernel of a
Lindblad generator is semisimple, and ker L = ⊕_k (M_{n_k} ⊗ omega_k) over
blocks V_k with omega_k faithful (Baumgartner & Narnhofer, J. Phys. A 41,
395303 (2008)). Every bath built here has n_k = 1, so
B(rho) = sum_k Tr[J_k rho] omega_k with conserved J_k, and
`stationary_structure` gives log B(rho) without an eigensolve per state.
The same SVD null space (`_kernel_basis`) gives a Liouvillian's steady state.
Its SVDs run in real arithmetic, on the generator's real matrix in the
orthonormal Hermitian basis of `operators`: a unitary change of basis, so
||L||_2 and the rank rule are unchanged, and every null vector comes out as
an exactly Hermitian operator.

Each generator has one implementation, its closed-form d²×d² matrix
(`generator_superop`); flows, stationary images and residuals all act
through `SuperOperator.apply`.

Dissipator convention (factor 2, no 1/2 on the anticommutator):

    L(rho) = sum_k rate_k (2 A_k rho A_k† - A_k†A_k rho - rho A_k†A_k)

so a dephasing bath at rate gamma kills off-diagonals at rate 2*gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    _herm_operators,
    _real_form,
    dagger,
    hermitize,
    require_square,
)

#: Max entrywise deviation of a dephasing basis' Gram matrix from I.
ORTHONORMAL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JumpTerm:
    rate: float
    jump: np.ndarray

    def __post_init__(self):
        if not 0 <= self.rate < np.inf:
            raise InvalidParams(f"jump rate must be finite and >= 0, got {self.rate}")
        require_square(self.jump, "jump operator")


@dataclass(frozen=True, eq=False)
class LindbladGenerator:
    dim: int
    terms: tuple[JumpTerm, ...]
    # pre-stacked views of the terms
    jump_stack: np.ndarray = field(init=False, repr=False)
    rate_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for t in self.terms:
            if t.jump.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"jump operator shape {t.jump.shape} does not match dim {self.dim}"
                )
        jumps = np.array([t.jump for t in self.terms], dtype=complex)
        jumps = jumps.reshape(-1, self.dim, self.dim)
        if not np.isfinite(jumps).all():
            raise InvalidParams("jump operator has a non-finite entry")
        object.__setattr__(self, "jump_stack", jumps)
        object.__setattr__(self, "rate_stack", np.array([t.rate for t in self.terms], dtype=float))


def apply_generator(gen: LindbladGenerator, a: np.ndarray) -> np.ndarray:
    """Schrodinger-picture action: sum_k r_k (2 A a A† - A†A a - a A†A),
    on one operator or on each operator of a stack."""
    return generator_superop(gen).apply(a)


def generator_superop(gen: LindbladGenerator) -> SuperOperator:
    """The generator as a super-operator, in closed form:

        sum_k 2 r_k conj(A_k) ⊗ A_k - I ⊗ K - Kᵀ ⊗ I,  K = sum_k r_k A_k†A_k

    The kron term is one batched BLAS product, entry (i, j, l, m) the sum
    over k of 2 r_k conj(A_k)[i, l] A_k[j, m], written straight into the
    (i, j, l, m) layout: no d²×d² array but the output. Built on each call
    and never stored: a caller that acts on many operators builds it once
    and applies it to a stack.
    """
    d = gen.dim
    # K from the same products 2 r_k conj(A_k) A_k as the kron term, halved
    # (exact), so that a diagonal entry cancels exactly where it should (a
    # diagonal jump)
    rc = (2.0 * gen.rate_stack)[:, None, None] * gen.jump_stack.conj()
    mat = np.matmul(rc.transpose(1, 2, 0)[:, None], gen.jump_stack.transpose(1, 0, 2))
    k = np.einsum("kji,kjl->il", rc, gen.jump_stack)
    k *= 0.5
    diag = np.arange(d)
    mat[diag, :, diag, :] -= k  # I ⊗ K
    mat[:, diag, :, diag] -= k.T  # Kᵀ ⊗ I
    return SuperOperator(d, mat.reshape(d * d, d * d))


# ---------------------------------------------------------------------------
# stationary structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PropagateToFixedPoint:
    """tol bounds ||L(B(rho))||_F of each image stationary_map returns, and
    ||L(omega_k)||_F of each block's state, relative to ||L||_2; a larger
    residual raises NoConvergence (with tol = 0, any nonzero one does)."""

    tol: float = 1e-12


@dataclass(frozen=True, eq=False)
class Bath:
    name: str
    generator: LindbladGenerator
    fixed_point: PropagateToFixedPoint = PropagateToFixedPoint()
    _structure: StationaryStructure | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.generator.dim


@dataclass(frozen=True, eq=False)
class StationaryStructure:
    """The projector P = R (N†R)⁻¹ N† onto ker L and ||L||_2, and, when
    every n_k = 1, (m, d, d) stacks of the block projectors Pi_k, the
    conserved J_k = P†(Pi_k) and log omega_k on V_k (else None)."""

    projector: SuperOperator
    scale: float
    blocks: np.ndarray | None = None
    conserved: np.ndarray | None = None
    logs: np.ndarray | None = None


def _kernel_basis(lmats: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Null space of each Hermiticity-preserving super-operator matrix L of
    a stack (m, n, n), from one SVD of L equilibrated on both sides, as
    LAPACK's xGEEQU scales a linear solve; each step is one call for the
    whole stack.

    Both SVDs run in real arithmetic, on the real form of L in the
    Hermitian coordinates (`operators._real_form`): the basis change is
    unitary, so it has the singular values of L, and ker L has a Hermitian
    basis. Each row of that matrix is
    divided by its largest entry, then each column of the result by its
    largest, D L C = U S Vᵀ; singular values at or below s[0]·n·eps count as
    zero (numpy's matrix_rank rule). A row at or below ||L||_2·n·eps, or a
    column at or below n·eps, keeps a scale that leaves it that small, so
    what is zero stays zero. Returns, per matrix, the right and left null
    vectors, C V and D U over the null columns, as (k, d, d) stacks of
    Hermitian operators, and ||L||_2 from the singular values of L itself.

    Unscaled, a null vector's entries are resolved only to eps·||L|| over
    the gap to the next singular value: a pump bath at n = 1e-14 has
    coherences decaying at rate n beside a 1e-14 population in its kernel,
    and a device steady state can hold a 1e-12 population beside rates of
    1e5. L = 0 has every vector in its kernel.
    """
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
    null = _herm_operators(np.concatenate(
        [part for i, k in enumerate(ks) for part in (vh[i, n - k:], u[i, :, n - k:].T)]))
    starts = np.cumsum(np.concatenate(([0], 2 * ks)))
    return [(null[at:at + k], null[at + k:at + 2 * k], float(sc))
            for at, k, sc in zip(starts, ks, scale)]


def stationary_structure(bath: Bath) -> StationaryStructure:
    """The bath's stationary structure from the null space of L
    (`_kernel_basis`), cached on it.

    The recurrent space is the support of P(I) under _kernel_basis's rank
    rule. On it P†(G) = sum_k Tr[G omega_k] Pi_k, so for a probe G whose
    expectations differ between blocks its eigenspaces are the blocks V_k.
    Blocks whose expectations lie close mix their eigenvectors, so a second
    pass probes with sum_k k Pi_k from the first pass' labels, whose blocks
    sit 1 apart. If there are dim ker L blocks, every n_k = 1 and
    P(I) = sum_k c_k(I) omega_k gives every log omega_k."""
    if bath._structure is not None:
        return bath._structure
    return _stationary_structure(bath, generator_superop(bath.generator))


def _stationary_structure(
    bath: Bath, gen: SuperOperator, basis: tuple[np.ndarray, np.ndarray, float] | None = None
) -> StationaryStructure:
    """stationary_structure(bath) from gen, the caller's build of
    generator_superop(bath.generator), and from basis, its _kernel_basis
    if the caller solved it already. Private, so that no other matrix can
    end up cached on the bath."""
    if bath._structure is not None:
        return bath._structure
    d = bath.dim
    right, left, scale = basis if basis is not None else _kernel_basis(gen.matrix[None])[0]
    k = len(right)
    # vec(X) of a Hermitian X is the row-major flattening of conj(X), and
    # the row N† of a left null vector that of X
    r, nh = right.conj().reshape(k, d * d).T, left.reshape(k, d * d)
    p = SuperOperator(d, r @ np.linalg.solve(nh @ r, nh))
    p_adj = p.adjoint()
    struct = StationaryStructure(p, scale)
    cut = d * d * np.finfo(float).eps
    p_eye = hermitize(p.apply(np.eye(d)))
    lam, vecs = np.linalg.eigh(p_eye)
    keep = lam > cut * lam[-1]
    support = vecs[:, keep]
    # distinct diagonal and neighbour couplings of phase 1 rad: no basis of
    # rational phases gives two blocks the same expectation
    probe = np.diag(np.arange(1.0, d + 1.0)) + np.diag(np.full(d - 1, np.exp(1j)), 1)
    probe = probe + dagger(probe)
    for _ in range(2):
        g, x = np.linalg.eigh(dagger(support) @ hermitize(p_adj.apply(probe)) @ support)
        label = np.concatenate(([0], np.cumsum(np.diff(g) > cut * np.max(np.abs(g)))))
        w = support @ x
        probe = (w * label) @ dagger(w)  # sum_k k Pi_k
    if label[-1] + 1 == k:
        blocks = (w * (label == np.arange(k)[:, None])[:, None, :]) @ dagger(w)
        images = blocks @ p_eye @ blocks  # c_k(I) omega_k
        weights = np.trace(images, axis1=-2, axis2=-1).real
        resid = np.linalg.norm(gen.apply(images / weights[:, None, None]), axis=(-2, -1))
        _require_residual(bath, resid, scale, "stationary state of a block")
        log_p_eye = (support * np.log(lam[keep])) @ dagger(support)
        logs = blocks @ log_p_eye @ blocks - np.log(weights)[:, None, None] * blocks
        struct = StationaryStructure(p, scale, blocks, hermitize(p_adj.apply(blocks)), logs)
    object.__setattr__(bath, "_structure", struct)
    return struct


def _require_residual(bath: Bath, resid: np.ndarray, scale: float, what: str) -> None:
    """NoConvergence unless every residual is at most tol * scale (NaN fails)."""
    tol = bath.fixed_point.tol
    if not (resid <= tol * scale).all():
        raise NoConvergence(
            f"{bath.name}: {what} has residual {np.max(resid):.3e} "
            f"> tol {tol:.1e} * ||L||_2 {scale:.3e}"
        )


def stationary_map(bath: Bath, rho: np.ndarray) -> np.ndarray:
    """Evaluate B(rho), the infinite-time limit of the bath's dynamical map,
    for one state (d, d) or for each state of a stack (n, d, d). B preserves
    the trace, so each image of an operator with nonzero trace is scaled to
    that trace."""
    struct = stationary_structure(bath)
    out = hermitize(struct.projector.apply(rho))
    tr, tr_out = np.trace(rho, axis1=-2, axis2=-1), np.trace(out, axis1=-2, axis2=-1)
    # a non-finite trace (NaN input) is left to fail the residual check below
    rescale = np.isfinite(tr) & np.isfinite(tr_out) & (tr != 0)
    ratio = np.divide(tr, tr_out, out=np.ones(tr.shape, complex), where=rescale)
    out *= ratio.real[..., None, None]
    resid = np.linalg.norm(apply_generator(bath.generator, out), axis=(-2, -1))
    _require_residual(bath, resid, struct.scale, "kernel projector image")
    return out


# ---------------------------------------------------------------------------
# bath constructors
# ---------------------------------------------------------------------------

def thermal_occupation(beta: float, energy: float) -> float:
    """Bose factor 1/(exp(beta*energy) - 1), overflow-safe."""
    if not beta > 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    if not energy > 0:
        raise InvalidParams(f"occupation needs a positive level splitting, got {energy}")
    e = np.exp(-beta * energy)
    return float(e / (1.0 - e))


def dephasing_bath(basis: Sequence[np.ndarray], gamma: float, name: str = "dephasing") -> Bath:
    """Continuous measurement along an orthonormal basis {|j>}.

    One jump |j><j| per basis vector, all at the same rate.
    """
    if not gamma > 0:
        raise InvalidParams(f"dephasing rate must be > 0, got {gamma}")
    u = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in basis])
    d = u.shape[0]
    if u.shape != (d, d):
        raise NotOrthonormal(f"need {d} basis vectors of length {d}, got matrix shape {u.shape}")
    gram = u.conj().T @ u
    if np.max(np.abs(gram - np.eye(d))) > ORTHONORMAL_TOL:
        raise NotOrthonormal(f"basis is not orthonormal within {ORTHONORMAL_TOL:.0e}")
    terms = tuple(JumpTerm(gamma, np.outer(u[:, j], u[:, j].conj())) for j in range(d))
    return Bath(name, LindbladGenerator(d, terms))


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
    if not beta > 0:
        raise NonPositiveBeta(f"beta must be > 0, got {beta}")
    if not rate_scale > 0:
        raise InvalidParams(f"rate_scale must be > 0, got {rate_scale}")
    n = thermal_occupation(beta, e_excited)
    decay = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e|
    excite = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|
    return Bath(name, LindbladGenerator(
        2, (JumpTerm(rate_scale * (1.0 + n), decay), JumpTerm(rate_scale * n, excite))
    ))


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
    if not n_l > 0:
        raise NonPositiveOccupation(f"n_l must be > 0, got {n_l}")
    return Bath(name, LindbladGenerator(
        3,
        (
            JumpTerm(1.0 + n_l, _three_level_unit(1, 0)),  # |L><0|
            JumpTerm(n_l, _three_level_unit(0, 1)),        # |0><L|
        ),
    ))


def right_pump_bath(n_r: float, name: str = "right") -> Bath:
    """Right relaxation bath of the three-level device, basis (|0>, |L>, |R>)."""
    if not n_r > 0:
        raise NonPositiveOccupation(f"n_r must be > 0, got {n_r}")
    return Bath(name, LindbladGenerator(
        3,
        (
            JumpTerm(n_r, _three_level_unit(2, 0)),        # |R><0|
            JumpTerm(1.0 + n_r, _three_level_unit(0, 2)),  # |0><R|
        ),
    ))

