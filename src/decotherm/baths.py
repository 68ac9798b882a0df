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

There is one structure solver, `_stationary_structures`, and it solves all
the uncached baths of a call in one stacked pass: the projector, the
eigensolve of P(I), both probe passes, the blocks, the residual check,
log omega_k and J_k are each one numpy call for all of them (the products
over the kernel and block indices, one per kernel dimension present),
since at d = 3 a call costs more to dispatch than to compute. Large baths
go one pass each (`_PASS_ENTRIES`), where the stacked work arrays would
cost more than the calls they save. `stationary_structure` is its
one-bath call, and a bath's structure is the same, bit for bit, alone or
in a stack.

Each generator has one implementation, its closed-form d²×d² matrix,
built for a list of generators in one batched product per jump count
(`_generator_matrices`; `generator_superop` is its one-generator call);
flows, stationary images and residuals all act through
`operators._apply_each`, for one matrix as `SuperOperator.apply`.

Dissipator convention (factor 2, no 1/2 on the anticommutator):

    L(rho) = sum_k rate_k (2 A_k rho A_k† - A_k†A_k rho - rho A_k†A_k)

so a dephasing bath at rate gamma kills off-diagonals at rate 2*gamma.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NoConvergence
from .operators import (
    SuperOperator,
    _apply_each,
    _herm_operators,
    _real_form,
    dagger,
    hermitize,
    require_finite,
    require_operator,
)

#: Max entrywise deviation of a dephasing basis' Gram matrix from I.
ORTHONORMAL_TOL = 1e-12

_EPS = float(np.finfo(float).eps)

#: d²×d² matrix entries per stationary-structure pass (2**14 complex
#: entries are 256 KiB per stacked array). Below it a pass is bound by call
#: overhead and stacking pays: three baths took 0.52× their one-by-one time
#: at d = 3 and 0.93× at d = 8. Above it the stacked work arrays fall out
#: of cache (1.09× at d = 10, 1.20× at d = 16), so those go one per pass.
_PASS_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class JumpTerm:
    rate: float
    jump: np.ndarray

    def __post_init__(self):
        if not 0 <= self.rate < np.inf:
            raise InvalidParams(f"jump rate must be finite and >= 0, got {self.rate}")
        require_operator(self.jump, "jump operator")


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
        object.__setattr__(self, "jump_stack", jumps)
        object.__setattr__(self, "rate_stack", np.array([t.rate for t in self.terms], dtype=float))


def apply_generator(gen: LindbladGenerator, a: np.ndarray) -> np.ndarray:
    """Schrodinger-picture action: sum_k r_k (2 A a A† - A†A a - a A†A),
    on one operator or on each operator of a stack."""
    return generator_superop(gen).apply(a)


def generator_superop(gen: LindbladGenerator) -> SuperOperator:
    """The generator as a super-operator, in closed form:

        sum_k 2 r_k conj(A_k) ⊗ A_k - I ⊗ K - Kᵀ ⊗ I,  K = sum_k r_k A_k†A_k

    Built on each call (`_generator_matrices`) and never stored: a caller
    that acts on many operators builds it once and applies it to a stack.
    """
    return SuperOperator(gen.dim, _generator_matrices([gen], gen.dim)[0])


def _generator_matrices(gens: Sequence[LindbladGenerator], d: int) -> np.ndarray:
    """generator_superop's matrix of each generator of dimension d, as one
    stack (m, d², d²): one batched build per jump count.

    The kron term is one batched BLAS product, entry (i, j, l, m) the sum
    over k of 2 r_k conj(A_k)[i, l] A_k[j, m], written straight into the
    (i, j, l, m) layout: no d²×d² array but the output. Each generator's
    matrix is the same, bit for bit, built alone or in a stack.
    """
    out = np.empty((len(gens), d, d, d, d), dtype=complex)
    by_count: dict[int, list[int]] = {}
    for i, g in enumerate(gens):
        by_count.setdefault(len(g.rate_stack), []).append(i)
    diag = np.arange(d)
    for at in by_count.values():
        if len(at) == 1:
            rates, jumps = gens[at[0]].rate_stack[None], gens[at[0]].jump_stack[None]
        else:
            rates = np.array([gens[i].rate_stack for i in at])
            jumps = np.array([gens[i].jump_stack for i in at])
        # K from the same products 2 r_k conj(A_k) A_k as the kron term,
        # halved (exact), so that a diagonal entry cancels exactly where it
        # should (a diagonal jump)
        rc = (2.0 * rates)[..., None, None] * jumps.conj()
        mat = np.matmul(rc.transpose(0, 2, 3, 1)[:, :, None], jumps.transpose(0, 2, 1, 3)[:, None])
        k = np.einsum("gkji,gkjl->gil", rc, jumps)
        k *= 0.5
        mat[:, diag, :, diag, :] -= k  # I ⊗ K
        mat[:, :, diag, :, diag] -= k.swapaxes(-1, -2)  # Kᵀ ⊗ I
        if len(at) == len(gens):
            out = mat
        else:
            out[at] = mat
    return out.reshape(len(gens), d * d, d * d)


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


class _Kernels(NamedTuple):
    """The null spaces of a stack of m matrices (`_kernel_basis`), grouped
    by kernel dimension k, so that a product over the kernel index runs on
    one group at a time with no restacking: groups[k] = (at, right, left),
    the indices of the matrices with a k-dimensional kernel and their right
    and left null vectors, (len(at), k, d, d) stacks of Hermitian operators.
    A BLAS product picks its kernel by shape (a 1×1 N†R is a dot product, a
    padded one a GEMM), so padding to a common k would round a matrix's
    results one way alone and another way in a stack."""

    dims: np.ndarray  # (m,) kernel dimension of each matrix
    scales: np.ndarray  # (m,) ||L||_2 of each matrix
    groups: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]

    def part(self, start: int, stop: int) -> "_Kernels":
        """The kernels of the matrices start..stop - 1, numbered from 0."""
        groups = {}
        for k, (at, right, left) in self.groups.items():
            lo, hi = bisect.bisect_left(at, start), bisect.bisect_left(at, stop)
            if hi > lo:
                groups[k] = (at[lo:hi] - start, right[lo:hi], left[lo:hi])
        return _Kernels(self.dims[start:stop], self.scales[start:stop], groups)


def _kernel_basis(lmats: np.ndarray) -> _Kernels:
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
    what is zero stays zero. Returns the right and left null vectors, C V
    and D U over the null columns, as Hermitian operators grouped by kernel
    dimension, and ||L||_2 from the singular values of L itself.

    Unscaled, a null vector's entries are resolved only to eps·||L|| over
    the gap to the next singular value: a pump bath at n = 1e-14 has
    coherences decaying at rate n beside a 1e-14 population in its kernel,
    and a device steady state can hold a 1e-12 population beside rates of
    1e5. L = 0 has every vector in its kernel.
    """
    real = _real_form(lmats)
    n = real.shape[-1]
    eps = _EPS
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
    order = np.argsort(ks, kind="stable")
    picks, lo = [], 0  # (k, at) of each kernel dimension present
    for k, count in enumerate(np.bincount(ks).tolist()):
        if count:
            picks.append((k, order[lo:lo + count]))
            lo += count
    # only the null vectors become operators: all d² of them are 1 MB at d = 16
    right = _herm_operators(np.concatenate([vh[_rows(at), n - k:].reshape(-1, n) for k, at in picks]))
    left = _herm_operators(np.concatenate(
        [u[_rows(at), :, n - k:].swapaxes(-1, -2).reshape(-1, n) for k, at in picks]))
    groups, lo, d = {}, 0, math.isqrt(n)
    for k, at in picks:
        hi = lo + len(at) * k
        groups[k] = (at, right[lo:hi].reshape(len(at), k, d, d), left[lo:hi].reshape(len(at), k, d, d))
        lo = hi
    return _Kernels(ks, scale, groups)


def stationary_structure(bath: Bath) -> StationaryStructure:
    """The bath's stationary structure from the null space of L
    (`_kernel_basis`), cached on it: the one-bath call of
    `_stationary_structures`.

    The recurrent space is the support of P(I) under _kernel_basis's rank
    rule. On it P†(G) = sum_k Tr[G omega_k] Pi_k, so for a probe G whose
    expectations differ between blocks its eigenspaces are the blocks V_k.
    Blocks whose expectations lie close mix their eigenvectors, so a second
    pass probes with sum_k k Pi_k from the first pass' labels, whose blocks
    sit 1 apart. If there are dim ker L blocks, every n_k = 1 and
    P(I) = sum_k c_k(I) omega_k gives every log omega_k."""
    if bath._structure is not None:
        return bath._structure
    return _stationary_structures([bath], _generator_matrices([bath.generator], bath.dim))[0]


def _stationary_structures(
    baths: Sequence[Bath], gens: np.ndarray, kernels: _Kernels | None = None
) -> list[StationaryStructure]:
    """stationary_structure of each bath, from gens, the stack of their
    generator matrices (`_generator_matrices`), and from kernels, their
    _kernel_basis if the caller solved them already. Private, so that no
    other matrix can end up cached on a bath.

    The baths with no cached structure are solved in one pass, each step one
    numpy call for all of them: at d = 3 the call overhead, not the
    arithmetic, is what a structure costs. A pass takes as many baths as fit
    _PASS_ENTRIES (202 at d = 3, 4 at d = 8, one from d = 10 on), since
    large stacked work arrays cost more than the calls they save, and the
    passes run in list order. The products over the kernel and block indices
    (P = R (N†R)⁻¹ N†, J_k = P†(Pi_k), L(omega_k)) run once per kernel
    dimension present (`_Kernels`); every other step is one call for all
    the baths of the pass. The directions a support of lower rank drops are
    shifted above the probe's spectrum, so they sort last and stay out of
    every block, and blocks a bath does not have are masked. A bath's
    structure is the same, bit for bit, alone or in a stack. NoConvergence
    names the first failing bath in list order, and the baths before it keep
    their structures. The baths share one dimension: the callers check it
    (`dynamics._generators`) or pass one bath, or the device's three."""
    todo = list({id(b): i for i, b in enumerate(baths) if b._structure is None}.values())
    if not todo:
        return [b._structure for b in baths]
    d = baths[todo[0]].dim
    n, m = d * d, len(todo)
    per_pass = max(1, _PASS_ENTRIES // (n * n))
    fresh = baths
    if m < len(baths):  # the given kernels are of all the baths: solve anew
        fresh, gens, kernels = [baths[i] for i in todo], gens[todo], None
    if m > per_pass:
        for lo in range(0, m, per_pass):
            hi = min(lo + per_pass, m)
            _stationary_structures(fresh[lo:hi], gens[lo:hi],
                                   None if kernels is None else kernels.part(lo, hi))
        return [b._structure for b in baths]
    if kernels is None:
        kernels = _kernel_basis(gens)
    ks = kernels.dims
    proj = np.empty((m, n, n), dtype=complex)
    for k, (at, right, left) in kernels.groups.items():
        # vec(X) of a Hermitian X is the row-major flattening of conj(X), and
        # the row N† of a left null vector that of X
        nh = left.reshape(len(at), k, n)
        r = right.reshape(len(at), k, n).conj().swapaxes(-1, -2)
        proj[_rows(at)] = r @ np.linalg.solve(nh @ r, nh)
    proj_conj = proj.conj()
    adj = proj_conj.swapaxes(-1, -2)  # P†
    cut = n * _EPS
    eye = np.eye(d)
    p_eye = hermitize(_apply_each(proj, eye))
    lam, vecs = np.linalg.eigh(p_eye)
    vecs_h = dagger(vecs)
    keep = lam > cut * lam[:, -1:]
    # eigh sorts ascending: a support of rank r is the last r columns of
    # vecs, and once the dropped ones are shifted above the probe's spectrum
    # the first r eigenpairs of each compressed probe are the support's
    ranked = np.arange(d) < keep.sum(axis=1)[:, None]
    inside = keep[:, :, None] & keep[:, None, :]
    # distinct diagonal and neighbour couplings of phase 1 rad: no basis of
    # rational phases gives two blocks the same expectation
    probe = np.zeros((d, d), dtype=complex)
    probe.flat[::d + 1] = np.arange(2.0, 2.0 * d + 1.0, 2.0)
    probe.flat[1::d + 1], probe.flat[d::d + 1] = np.exp(1j), np.exp(1j).conjugate()
    for _ in range(2):
        comp = vecs_h @ hermitize(_apply_each(adj, probe)) @ vecs
        if not inside.all():
            shift = 2.0 * np.linalg.norm(comp, axis=(-2, -1)) + 1.0
            comp = np.where(inside, comp, eye * shift[:, None, None])
        g, x = np.linalg.eigh(comp)
        steps = g[:, 1:] - g[:, :-1] > cut * np.abs(g * ranked).max(axis=-1, keepdims=True)
        label = np.zeros((m, d), dtype=int)
        label[:, 1:] = steps.cumsum(axis=-1)
        label *= ranked
        w = vecs @ x
        probe = (w * label[:, None, :]) @ dagger(w)  # sum_k k Pi_k
    structured = label.max(axis=-1) + 1 == ks
    kmax = int(ks.max())
    member = (label[:, None, :] == np.arange(kmax)[:, None]) & ranked[:, None, :]
    blocks = (w[:, None] * member[:, :, None, :]) @ dagger(w)[:, None]
    images = blocks @ p_eye[:, None] @ blocks  # c_k(I) omega_k
    exists = (np.arange(kmax) < ks[:, None]) & structured[:, None]
    weights = np.where(exists, images.trace(axis1=2, axis2=3).real, 1.0)
    log_lam = np.log(lam, out=np.zeros(lam.shape), where=keep)
    log_p_eye = (vecs * log_lam[:, None, :]) @ vecs_h
    logs = blocks @ log_p_eye[:, None] @ blocks - np.log(weights)[..., None, None] * blocks
    conserved = np.zeros(blocks.shape, dtype=complex)
    for k, (at, _, _) in kernels.groups.items():
        at = at if structured.all() else at[structured[at]]
        if len(at):
            rows = _rows(at)
            adj = proj_conj[rows].swapaxes(-1, -2)
            conserved[rows, :k] = hermitize(_apply_each(adj, blocks[rows, :k]))
    # ||L(omega_k)||_F, 0 for the blocks a bath does not have
    states = _apply_each(gens, images / weights[..., None, None])
    resid = np.sqrt((states.conj() * states).real.sum(axis=(-2, -1)))
    tols = np.array([b.fixed_point.tol for b in fresh])
    # NaN fails
    failed = structured & ~(resid <= (tols * kernels.scales)[:, None]).all(axis=1)
    last = int(np.argmax(failed)) if failed.any() else m
    for i, (k, scale) in enumerate(zip(ks[:last].tolist(), kernels.scales[:last].tolist())):
        p = SuperOperator(d, proj[i])
        if structured[i]:
            struct = StationaryStructure(p, scale, blocks[i, :k], conserved[i, :k], logs[i, :k])
        else:
            struct = StationaryStructure(p, scale)
        object.__setattr__(fresh[i], "_structure", struct)
    if last < m:
        _require_residual(fresh[last], resid[last, :ks[last]], float(kernels.scales[last]),
                          "stationary state of a block")
    return [b._structure for b in baths]


def _rows(at: np.ndarray) -> slice | np.ndarray:
    """The ascending distinct indices at as a slice when they are one run:
    a view and a slice assignment, not a gather and a scatter."""
    return slice(at[0], at[-1] + 1) if len(at) and at[-1] - at[0] + 1 == len(at) else at


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
    require_finite(rho, "state")
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
    """Bose factor 1/(exp(beta*energy) - 1), as exp(-x) / (1 - exp(-x)):
    overflow-safe, and with 1 - exp(-x) from expm1 it keeps full precision
    for hot baths, where beta*energy is small."""
    if not beta > 0:
        raise InvalidParams(f"beta must be > 0, got {beta}")
    if not energy > 0:
        raise InvalidParams(f"occupation needs a positive level splitting, got {energy}")
    x = beta * energy
    return float(np.exp(-x) / -np.expm1(-x))


def dephasing_bath(basis: Sequence[np.ndarray], gamma: float, name: str = "dephasing") -> Bath:
    """Continuous measurement along an orthonormal basis {|j>}.

    One jump |j><j| per basis vector, all at the same rate.
    """
    if not gamma > 0:
        raise InvalidParams(f"dephasing rate must be > 0, got {gamma}")
    u = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in basis])
    d = u.shape[0]
    if u.shape != (d, d):
        raise InvalidParams(f"need {d} basis vectors of length {d}, got matrix shape {u.shape}")
    gram = u.conj().T @ u
    if np.max(np.abs(gram - np.eye(d))) > ORTHONORMAL_TOL:
        raise InvalidParams(f"basis is not orthonormal within {ORTHONORMAL_TOL:.0e}")
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
        raise InvalidParams(f"beta must be > 0, got {beta}")
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
        raise InvalidParams(f"n_l must be > 0, got {n_l}")
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
        raise InvalidParams(f"n_r must be > 0, got {n_r}")
    return Bath(name, LindbladGenerator(
        3,
        (
            JumpTerm(n_r, _three_level_unit(2, 0)),        # |R><0|
            JumpTerm(1.0 + n_r, _three_level_unit(0, 2)),  # |0><R|
        ),
    ))

