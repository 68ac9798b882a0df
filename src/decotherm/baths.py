"""Lindblad generators and their stationary maps.

A bath is a generator. Its stationary map B(rho) = lim_{t->inf} exp(t L)(rho)
is the spectral projector onto ker L, exact because the kernel of a
Lindblad generator is semisimple, and ker L = ⊕_k (M_{n_k} ⊗ omega_k) over
blocks V_k with omega_k faithful (Baumgartner & Narnhofer, J. Phys. A 41,
395303 (2008)). Every bath the constructors build has n_k = 1, so
B(rho) = sum_k Tr[J_k rho] omega_k with conserved J_k, and
`stationary_structure` gives log B(rho) without an eigensolve per state.
A structure keeps B as k pairs of d×d operators and no d²×d² matrix:
(J_k, omega_k), or for a bath with some n_k > 1 the dual rows and the
right null vectors of the kernel solve.
The same SVD null space (`_kernel_basis`) gives a Liouvillian's steady state.
Its one SVD runs in real arithmetic, on the generator's real matrix in the
orthonormal Hermitian basis of `operators`: a unitary change of basis, so
||L||_2 and the rank rule are unchanged, and every null vector comes out as
an exactly Hermitian operator. Every residual bound is still
tol·||L||_2, and one test decides them all (`_first_failure`): from
||L||_F first, which the kernel solve keeps, and with ||L||_2 from a
values-only SVD only where that bound cannot decide.

A call's baths are one stacked set (`_BathSet`): their names, tols,
generator matrices and stationary structures, each built once. A structure
has one form, the block stack `StationaryStructure` (m, rows, kernel,
conserved, blocks, logs): the baths with m blocks at the rows of a set,
with a leading bath axis on each array. The device baths' structures are
known in closed form from their two rates (`_device_structures`): a pump
has two blocks and the dephasing bath is the pinching. The device reports
build them for a report pass with no Bath (`scenarios._device_baths`), and
the device bath constructors cache the same entry on the bath they build
(`_three_level_bath`); either way each block state goes through the block
residual check against its generator (`_require_blocks`). Every other
bath is solved by the structure solver, `_solve_structure`, one bath a
call, the first time a call needs it (`stationary_structure`), and caches
the one entry it returns, rows = slice(0, 1); `_bath_set` relabels the
cached entries to their rows in a set.

Each generator has one implementation, its closed-form d²×d² matrix,
built one generator at a time into one stack (`_generator_matrices`;
`generator_superop` is its one-generator call);
flows, stationary images and residuals all act through
`operators._apply_each`, for one matrix as `SuperOperator.apply`.

Dissipator convention (factor 2, no 1/2 on the anticommutator):

    L(rho) = sum_k rate_k (2 A_k rho A_k† - A_k†A_k rho - rho A_k†A_k)

so a dephasing bath at rate gamma kills off-diagonals at rate 2*gamma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidParams, NoConvergence
from .operators import (
    SuperOperator,
    _apply_each,
    _herm_operators,
    _real_form,
    _require_hermitian,
    dagger,
    hermitize,
    require_finite,
    require_operator,
)

#: Max entrywise deviation of a dephasing basis' Gram matrix from I.
ORTHONORMAL_TOL = 1e-12

_EPS = float(np.finfo(float).eps)

#: Entries per stacked array (2**14 complex entries are 256 KiB), the one
#: stack budget: of the d²×d² matrices of a device report pass
#: (`scenarios._REPORTS_PER_PASS`) and of the sampler's state blocks
#: (`thermo.sample_thermodynamics`), small next to the trajectory they
#: read. Below it a pass is bound by call overhead, so stacking pays; above
#: it the stacked work arrays fall out of cache.
_PASS_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class JumpTerm:
    rate: float
    jump: np.ndarray

    def __post_init__(self):
        _require_rate(self.rate)
        require_operator(self.jump, "jump operator")


def _require_rate(rate: float) -> None:
    """JumpTerm's rate rule: InvalidParams unless finite and >= 0 (NaN fails)."""
    if not 0 <= rate < np.inf:
        raise InvalidParams(f"jump rate must be finite and >= 0, got {rate}")


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
                raise InvalidParams(
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
    stack (m, d², d²), each built on its own into its slot.

    The kron term is one batched BLAS product over the generator's jumps,
    entry (i, j, l, m) the sum over k of 2 r_k conj(A_k)[i, l] A_k[j, m],
    written straight into the (i, j, l, m) layout: no d²×d² array but the
    output. A matrix with an entry past the float range (a rate near the
    float maximum) is refused (InvalidParams).
    """
    out = np.empty((len(gens), d, d, d, d), dtype=complex)
    diag = np.arange(d)
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range: refused below
        for mat, gen in zip(out, gens):
            jumps = gen.jump_stack
            rc = (2.0 * gen.rate_stack)[:, None, None] * jumps.conj()
            np.matmul(rc.transpose(1, 2, 0)[:, None], jumps.transpose(1, 0, 2)[None], out=mat)
            # K from the same products 2 r_k conj(A_k) A_k as the kron term,
            # halved (exact), so that a diagonal entry cancels exactly where
            # it should (a diagonal jump)
            k = np.einsum("kji,kjl->il", rc, jumps)
            k *= 0.5
            mat[diag, :, diag, :] -= k  # I ⊗ K
            mat[:, diag, :, diag] -= k.T  # Kᵀ ⊗ I
    require_finite(out.view(np.float64), "generator matrix")  # the float view: same test, half the cost
    return out.reshape(len(gens), d * d, d * d)


# ---------------------------------------------------------------------------
# stationary structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PropagateToFixedPoint:
    """tol bounds ||L(B(X))||_F of each image stationary_map returns,
    relative to ||L||_2 max(1, ||B(X)||_F), and ||L(omega_k)||_F of each
    block's state, relative to ||L||_2; a larger residual raises
    NoConvergence (with tol = 0, any nonzero one does)."""

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


class StationaryStructure(NamedTuple):
    """The projector onto ker L of one or more baths as k pairs of d×d
    operators each, B(X) = sum_k Tr[conserved_k X] kernel_k: the baths at
    the rows (a slice) of a set, each with m blocks, and their
    (len, k, d, d) stacks. When every n_k = 1 (m = k > 0), kernel_k is the
    block state omega_k and conserved_k is J_k = P†(Pi_k), and blocks and
    logs hold the block projectors Pi_k and log omega_k on V_k; else (m = 0,
    one bath) kernel holds the right null operators R, conserved the rows
    of (N†R)⁻¹ N†, and blocks and logs are None. No d²×d² matrix is kept:
    k d² entries against d⁴, nor ||L||: a residual check needs L itself
    (`_first_failure`). A public bath caches the one entry of its own solve
    or of its closed form, rows = slice(0, 1)."""

    m: int
    rows: slice
    kernel: np.ndarray
    conserved: np.ndarray
    blocks: np.ndarray | None = None
    logs: np.ndarray | None = None


class _BathSet(NamedTuple):
    """A call's baths as one stacked set, each part built once: their names
    (for error messages), their PropagateToFixedPoint tols, their generator
    matrices (m, d², d²) and their stationary structures, whose rows cover
    the baths.
    The device reports build one from rates alone, with no Bath
    (`scenarios._device_baths`); `_bath_set` builds one from public baths."""

    names: Sequence[str]
    tols: np.ndarray
    gens: np.ndarray
    stacks: list[StationaryStructure]


class _Kernels(NamedTuple):
    """The null spaces of a stack of m matrices (`_kernel_basis`): matrix i
    has a dims[i]-dimensional kernel, whose right and left null vectors are
    the last dims[i] of right[i] and of left[i], (m, k_max, d, d) stacks of
    Hermitian operators."""

    dims: np.ndarray  # (m,) kernel dimension of each matrix
    fro: np.ndarray  # (m,) ||L||_F of each matrix, ||L||_2 where that overflows
    right: np.ndarray
    left: np.ndarray


def _kernel_basis(lmats: np.ndarray) -> _Kernels:
    """Null space of each Hermiticity-preserving super-operator matrix L of
    a stack (m, n, n), from one SVD of L equilibrated on both sides, as
    LAPACK's xGEEQU scales a linear solve; each step is one call for the
    whole stack.

    The SVD runs in real arithmetic, on the real form of L in the
    Hermitian coordinates (`operators._real_form`): the basis change is
    unitary, so it has the singular values of L, and ker L has a Hermitian
    basis. Each row of that matrix is divided by its largest entry, then
    each column of the result by its largest, D L C = U S Vᵀ; singular
    values at or below s[0]·n·eps count as zero (numpy's matrix_rank rule).
    A row at or below ||L||_F·n·eps, or a column at or below n·eps, keeps a
    scale that leaves it that small, so what is zero stays zero: ||L||_F
    (one product over the real form) stands in for ||L||_2 there, as it
    does in `_first_failure`, so no second SVD runs for ||L||_2 but where
    the squares overflow (entries past ~1e154). Returns (`_Kernels`) the
    kernel dimensions, ||L||_F (or ||L||_2 where it overflowed), and the
    right and left null vectors, C V and D U
    over the last k_max columns of every matrix, as Hermitian operators:
    only those columns are unscaled, and they become operators in one call
    per side. `_herm_operators` works entry by entry, so a matrix's
    operators are those of its own columns, alone or in a stack.

    Unscaled, a null vector's entries are resolved only to eps·||L|| over
    the gap to the next singular value: a pump bath at n = 1e-14 has
    coherences decaying at rate n beside a 1e-14 population in its kernel,
    and a device steady state can hold a 1e-12 population beside rates of
    1e5. L = 0 has every vector in its kernel.
    """
    real = _real_form(lmats)
    n = real.shape[-1]
    eps = _EPS
    mag = np.abs(real)
    rows = mag.max(axis=2)
    fro = np.sqrt(np.einsum("mij,mij->m", real, real))
    huge = ~(fro < np.inf)  # the squares overflowed: ||L||_2 itself
    if huge.any():
        fro[huge] = np.linalg.svd(real[huge], compute_uv=False)[:, 0]
    rows = np.where(rows <= (fro * (n * eps))[:, None], np.maximum(fro, 1.0)[:, None], rows)
    cols = (mag / rows[:, :, None]).max(axis=1)
    cols[cols <= n * eps] = 1.0
    u, s, vh = np.linalg.svd(real / (rows[:, :, None] * cols[:, None, :]))
    ks = (s <= s[:, :1] * n * eps).sum(axis=1)
    # only the null vectors are unscaled and become operators: all d² of
    # them are 1 MB at d = 16
    k_max = int(ks.max())
    right = _herm_operators(vh[:, n - k_max:] / cols[:, None, :])
    left = _herm_operators((u[:, :, n - k_max:] / rows[:, :, None]).swapaxes(-1, -2))
    return _Kernels(ks, fro, right, left)


def stationary_structure(bath: Bath) -> StationaryStructure:
    """The bath's stationary structure, the one entry (rows = slice(0, 1))
    cached on it: a device bath's is built in closed form from its rates
    when the bath is (`_three_level_bath`), any other's is solved from the
    null space of L (`_solve_structure`) on first use.

    The recurrent space is the support of P(I) under _kernel_basis's rank
    rule. On it P†(G) = sum_k Tr[G omega_k] Pi_k, so for a probe G whose
    expectations differ between blocks its eigenspaces are the blocks V_k.
    Blocks whose expectations lie close mix their eigenvectors, so a second
    pass probes with sum_k k Pi_k from the first pass' labels, whose blocks
    sit 1 apart. If there are dim ker L blocks, every n_k = 1 and
    P(I) = sum_k c_k(I) omega_k gives every log omega_k."""
    if bath._structure is None:
        _bath_set([bath], _generator_matrices([bath.generator], bath.dim))
    return bath._structure


def _bath_set(baths: Sequence[Bath], gens: np.ndarray) -> _BathSet:
    """The public baths as a `_BathSet`, with gens the stack of their
    generator matrices. A bath with no cached structure is solved, in list
    order, and caches its entry, so NoConvergence names the first failing
    bath and the baths before it keep their structures; the set's stacks
    are the cached entries, relabelled to the bath's row.
    The baths share one dimension: the callers check it
    (`dynamics._generators`) or pass one bath."""
    names = [b.name for b in baths]
    tols = np.array([b.fixed_point.tol for b in baths])
    for i, bath in enumerate(baths):
        if bath._structure is None:
            object.__setattr__(bath, "_structure", _solve_structure(names[i], tols[i], gens[i:i + 1]))
    stacks = [b._structure._replace(rows=slice(i, i + 1)) for i, b in enumerate(baths)]
    return _BathSet(names, tols, gens, stacks)


def _solve_structure(name: str, tol: float, gen: np.ndarray) -> StationaryStructure:
    """The stationary structure of one bath, name with tol and generator
    matrix gen (1, d², d²), from the null space of L (`_kernel_basis`): the
    structure solver. Raises NoConvergence naming the bath if a block's
    state fails the residual check (`_require_blocks`) or the kernel's left
    and right null vectors pair to a singular matrix.

    P = R (N†R)⁻¹ N† lives only for the call: the entry keeps operator
    pairs. The directions a support of lower rank drops are shifted above
    the probe's spectrum, so they sort last and stay out of every block. A
    bath without a block structure keeps R and (N†R)⁻¹ N† as d×d
    operators. Only the returned entry has the leading bath axis, of
    length 1."""
    n = gen.shape[-1]
    d = math.isqrt(n)
    kernels = _kernel_basis(gen)
    k = int(kernels.dims[0])
    # vec(X) of a Hermitian X is the row-major flattening of conj(X), and
    # the row N† of a left null vector that of X
    nh = kernels.left[0].reshape(k, n)
    r = kernels.right[0].reshape(k, n).conj().T
    try:
        dual = np.linalg.solve(nh @ r, nh)
    except np.linalg.LinAlgError:
        raise NoConvergence(f"{name}: the null vectors of L pair to a singular matrix") from None
    proj = SuperOperator(d, r @ dual)
    adj = proj.adjoint()  # P†
    cut = n * _EPS
    eye, probe = _pass_constants(d)
    p_eye = hermitize(proj.apply(eye))
    lam, vecs = np.linalg.eigh(p_eye)
    vecs_h = dagger(vecs)
    keep = lam > cut * lam[-1]
    # eigh sorts ascending: a support of rank r is the last r columns of
    # vecs, and once the dropped ones are shifted above the probe's spectrum
    # the first r eigenpairs of each compressed probe are the support's
    ranked = np.arange(d) < keep.sum()
    for final_pass in (False, True):
        comp = vecs_h @ hermitize(adj.apply(probe)) @ vecs
        if not keep.all():
            shift = 2.0 * np.linalg.norm(comp, axis=(-2, -1)) + 1.0
            comp = np.where(keep[:, None] & keep, comp, eye * shift)
        g, x = np.linalg.eigh(comp)
        steps = g[1:] - g[:-1] > cut * np.abs(g * ranked).max()
        label = np.zeros(d, dtype=int)
        label[1:] = steps.cumsum()
        label *= ranked
        w = vecs @ x
        if not final_pass:
            probe = (w * label) @ dagger(w)  # sum_k k Pi_k
    if label.max() + 1 != k:  # some n_k > 1: R and (N†R)⁻¹ N†, as d×d operators
        return StationaryStructure(0, slice(0, 1), kernels.right, dual.reshape(1, k, d, d))
    member = (label == np.arange(k)[:, None]) & ranked
    blocks = (w * member[:, None, :]) @ dagger(w)
    images = blocks @ p_eye @ blocks  # c_k(I) omega_k
    weights = images.trace(axis1=1, axis2=2).real
    log_lam = np.log(lam, out=np.zeros(lam.shape), where=keep)
    log_p_eye = (vecs * log_lam) @ vecs_h
    logs = blocks @ log_p_eye @ blocks - np.log(weights)[:, None, None] * blocks
    conserved = hermitize(adj.apply(blocks))  # J_k = P†(Pi_k)
    entry = StationaryStructure(k, slice(0, 1), *(a[None] for a in (
        images / weights[:, None, None], conserved, blocks, logs)))
    _require_blocks(_BathSet([name], np.array([tol]), gen, [entry]), kernels.fro)
    return entry


def _require_blocks(bset: _BathSet, fro: np.ndarray) -> None:
    """The block residual check of a set whose stacks all have blocks: the
    NoConvergence of its first bath, in row order, with a block state
    omega_k whose residual ||L(omega_k)||_F exceeds tol ||L||_2
    (`_first_failure`); fro is ||L||_F of each of the set's generator
    matrices. Every block structure goes through it, solved or in closed
    form."""
    for _, rows, kernel, *_ in bset.stacks:
        names, tols, gens = bset.names[rows], bset.tols[rows], bset.gens[rows]
        resid = _frobenius(_apply_each(gens, kernel))
        failure = _first_failure(resid, tols[:, None], gens, fro[rows])
        if failure is not None:
            i, norm = failure
            raise _residual_failure(names[i], tols[i], resid[i], norm, "stationary state of a block")


def _frobenius(a: np.ndarray) -> np.ndarray:
    """||a||_F of each matrix of a stack (..., p, q). Where the squares
    overflow (entries past ~1e154; einsum does not warn), from each matrix
    scaled by its largest entry, so that a residual of 1e200 is a number,
    not a warning."""
    squares = np.einsum("...ij,...ij->...", a, a.conj()).real
    if np.isfinite(squares).all():
        return np.sqrt(squares)
    top = np.abs(a).max(axis=(-2, -1))
    # a norm past the float range is inf, and one of an inf entry inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        unit = a / np.where(top > 0, top, 1.0)[..., None, None]
        return top * np.sqrt(np.einsum("...ij,...ij->...", unit, unit.conj()).real)


@functools.lru_cache(maxsize=None)
def _pass_constants(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The identity and the first probe of the structure solver at dimension d,
    read-only. The probe has distinct diagonal and neighbour couplings of
    phase 1 rad: no basis of rational phases gives two blocks the same
    expectation."""
    eye = np.eye(d)
    probe = np.zeros((d, d), dtype=complex)
    probe.flat[::d + 1] = np.arange(2.0, 2.0 * d + 1.0, 2.0)
    probe.flat[1::d + 1], probe.flat[d::d + 1] = np.exp(1j), np.exp(1j).conjugate()
    eye.flags.writeable = probe.flags.writeable = False
    return eye, probe


def _first_failure(resid: np.ndarray, bound: float | np.ndarray, lmats: np.ndarray,
                   fro: np.ndarray) -> tuple[int, float] | None:
    """The one residual test: for each matrix L_i of a stack lmats (m, n, n)
    with ||L_i||_F = fro[i], whether every residual of resid[i] (m, j) is
    at most bound * ||L_i||_2, bound broadcasting against resid (NaN
    fails). Returns None if all pass, else the first failing i and its
    ||L_i||_2. Since ||L||_F / sqrt(n) <= ||L||_2 <= ||L||_F (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 6.2),
    residuals all at most bound * ||L||_F / n pass with a factor sqrt(n)
    to spare for rounding (n = d² >= 4; at d = 1 every generator is 0);
    only the matrices that bound cannot decide run the values-only SVD of
    their real form, the one `_kernel_basis` solves, and get the exact
    test. ||L||_2 itself serves as fro where ||L||_F
    overflows (`_kernel_basis`): fro / n <= ||L||_2 holds for both."""
    ok = resid <= bound * (fro / lmats.shape[-1])[:, None]
    if ok.all():
        return None
    at = np.flatnonzero(~ok.all(axis=1))
    norm = np.linalg.svd(_real_form(lmats[at]), compute_uv=False)[:, 0]
    exact = (resid[at] <= np.broadcast_to(bound, resid.shape)[at] * norm[:, None]).all(axis=1)
    if exact.all():
        return None
    j = int(np.argmin(exact))
    return int(at[j]), float(norm[j])


def _residual_failure(name: str, tol: float, resid: np.ndarray, scale: float, what: str,
                      size: np.ndarray | None = None) -> NoConvergence:
    """The NoConvergence of the residuals resid of the bath name that
    `_first_failure` failed against tol * ||L||_2 (scale), or against
    tol * ||L||_2 * size where the bound scales with the size of each image."""
    if size is None or (size == 1.0).all():
        return NoConvergence(f"{name}: {what} has residual {np.max(resid):.3e} "
                             f"> tol {tol:.1e} * ||L||_2 {scale:.3e}")
    i = np.argmax(resid / size)  # the first NaN, if any
    return NoConvergence(f"{name}: {what} has residual {resid.flat[i]:.3e} > tol {tol:.1e} "
                         f"* ||L||_2 {scale:.3e} * max(1, ||B(X)||_F) {size.flat[i]:.3e}")


def stationary_map(bath: Bath, rho: np.ndarray) -> np.ndarray:
    """Evaluate B(rho), the infinite-time limit of the bath's dynamical map,
    for one state (d, d) or for each state of a stack (n, d, d), as
    B(rho) = sum_k Tr[conserved_k rho] kernel_k from the bath's structure.
    It maps Hermitian operators: one that deviates from its adjoint by more
    than HERM_TOL max(1, max|rho|) is refused (InvalidParams), since the
    image it returns is Hermitian.
    B preserves the trace, so the image of an operator whose trace holds at
    least half its diagonal's weight, sum_i |Re rho_ii| (a state's holds all
    of it), is scaled to that trace. Where the diagonal's signs cancel more
    (a traceless operator), the image's trace is mostly rounding, and
    scaling to it would multiply that rounding by that cancellation.
    Each image's residual ||L(B(rho))||_F must be at most
    tol ||L||_2 max(1, ||B(rho)||_F), decided by `_first_failure` on the
    generator matrix the check builds anyway: a state's image keeps the
    bound tol ||L||_2, and 1e6 rho maps to 1e6 B(rho), whose residual
    rounds at 1e6 times the state's."""
    require_finite(rho, "state")
    d = bath.dim
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise InvalidParams(f"stationary map acts on {d}x{d}, got {rho.shape}")
    _require_hermitian(rho, "state")
    struct = stationary_structure(bath)
    return _project(struct.kernel[0], struct.conserved[0], generator_superop(bath.generator).matrix,
                    bath.name, bath.fixed_point.tol, rho)


def _project(kernel: np.ndarray, conserved: np.ndarray, gen: np.ndarray, name: str, tol: float,
             rho: np.ndarray) -> np.ndarray:
    """stationary_map of a gated operator or stack rho, for the bath name
    with tol, generator matrix gen and the structure's (kernel, conserved)."""
    d = rho.shape[-1]
    k = len(kernel)
    # Tr[C X] = sum_ij C_ij X_ji, one row of coefficients per operator
    coefs = rho.swapaxes(-1, -2).reshape(-1, d * d) @ conserved.reshape(k, d * d).T
    out = hermitize((coefs @ kernel.reshape(k, d * d)).reshape(rho.shape))
    tr, tr_out = np.trace(rho, axis1=-2, axis2=-1), np.trace(out, axis1=-2, axis2=-1)
    weight = np.abs(np.diagonal(rho, axis1=-2, axis2=-1).real).sum(axis=-1)
    # a non-finite trace is left to fail the residual check below
    rescale = np.isfinite(tr) & np.isfinite(tr_out) & (tr != 0) & (2.0 * np.abs(tr) >= weight)
    ratio = np.divide(tr, tr_out, out=np.ones(tr.shape, complex), where=rescale)
    out *= ratio.real[..., None, None]
    resid = _frobenius(_apply_each(gen[None], out[None])[0]).reshape(1, -1)
    size = np.maximum(_frobenius(out), 1.0).reshape(1, -1)
    fro = _frobenius(gen)
    failure = _first_failure(resid, tol * size, gen[None],
                             np.array([fro if fro < np.inf else 0.0]))  # overflowed: no bound
    if failure is not None:
        raise _residual_failure(name, tol, resid, failure[1], "kernel projector image", size)
    return out


# ---------------------------------------------------------------------------
# bath constructors
# ---------------------------------------------------------------------------

def thermal_occupation(beta: float, energy: float) -> float:
    """Bose factor 1/(exp(beta*energy) - 1), as exp(-x) / (1 - exp(-x)):
    overflow-safe, and with 1 - exp(-x) from expm1 it keeps full precision
    for hot baths, where beta*energy is small. Below beta*energy ~ 5.6e-309
    (subnormal, or 0 where the product underflows) the factor is past the
    float range and is refused (InvalidParams)."""
    if not beta > 0:
        raise InvalidParams(f"beta must be > 0, got {beta}")
    if not energy > 0:
        raise InvalidParams(f"occupation needs a positive level splitting, got {energy}")
    x = beta * energy
    with np.errstate(over="ignore", divide="ignore"):  # past the float range: refused below
        n = float(np.exp(-x) / -np.expm1(-x))
    if n == np.inf:
        raise InvalidParams(f"occupation at beta*energy = {x:.3e} is past the float range")
    return n


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
    if not rate_scale > 0:
        raise InvalidParams(f"rate_scale must be > 0, got {rate_scale}")
    n = thermal_occupation(beta, e_excited)
    decay = np.array([[0, 1], [0, 0]], dtype=complex)   # |g><e|
    excite = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|
    return Bath(name, LindbladGenerator(
        2, (JumpTerm(rate_scale * (1.0 + n), decay), JumpTerm(rate_scale * n, excite))
    ))


@functools.lru_cache(maxsize=None)
def _device_units() -> tuple[np.ndarray, np.ndarray]:
    """The three-level device's unit jumps |i><j| by bath, left, right and
    dephasing, in the order of each bath's rates, (3, 2, 3, 3) in the basis
    (|0>, |L>, |R>), and the generator matrix D of each at rate 1,
    (3, 2, 9, 9); built once, read-only. A device bath's jumps are fixed, so
    its generator is linear in its rates, sum_k r_k D_k
    (`scenarios._device_baths`)."""
    jumps = np.zeros((6, 3, 3), dtype=complex)
    jumps[range(6), [1, 0, 2, 0, 1, 2], [0, 1, 0, 2, 1, 2]] = 1.0
    units = _generator_matrices([LindbladGenerator(3, (JumpTerm(1.0, a),)) for a in jumps], 3)
    jumps.flags.writeable = units.flags.writeable = False
    return jumps.reshape(3, 2, 3, 3), units.reshape(3, 2, 9, 9)


def _device_set(names: Sequence[str], kinds: np.ndarray, rates: np.ndarray) -> _BathSet:
    """The device baths of kinds (b,) (0, 1 and 2 for left, right and
    dephasing, ascending) at rates (b, 2), in the order of each bath's
    `_device_units` jumps, as a `_BathSet` with no Bath: each generator is
    linear in its rates, sum_k r_k D_k over the unit generators, one product
    for the stack and the same, bit for bit, as generator_superop of the
    bath its constructor builds; each structure is in closed form
    (`_device_structures`). The caller runs the block residual check
    (`_require_blocks`) where its errors are due."""
    gens = np.einsum("bk,bkij->bij", rates, _device_units()[1][kinds])
    return _BathSet(names, np.full(len(names), PropagateToFixedPoint.tol), gens,
                    _device_structures(kinds, rates))


def _device_structures(kinds: np.ndarray, rates: np.ndarray) -> list[StationaryStructure]:
    """The stationary structures of device baths in closed form from their
    rates, as `_device_set` takes them: one entry for the pumps, the first
    rows, and one for the dephasing baths after them, every J_k = Pi_k,
    the blocks in the order the structure solver finds them.

    A pump between |0> and |x>, at rate a into x and b out of it, has the
    blocks {|0>, |x>} and {|y>}, with omega_1 = (b |0><0| + a |x><x|)/(a + b)
    and omega_2 = |y><y|; a and b are divided by the larger first, so that
    no rate overflows their sum, and log omega_1 is formed from the logs of
    its two populations. A dephasing bath at a rate > 0 is the pinching:
    omega_k = Pi_k = |k><k| and log omega_k = 0."""
    count, pumps = len(kinds), int(np.count_nonzero(kinds < 2))
    at, x = np.arange(pumps), kinds[:pumps] + 1  # |x>: |L> for a left pump, |R> for a right one
    into, out = (rates[:pumps] / rates[:pumps].max(axis=1, keepdims=True)).T
    pops = np.stack([out, into]) / (into + out)
    # the diagonals of Pi_k, omega_k and log omega_k, each matrix diagonal
    diag = np.zeros((3, count, 3, 3))
    diag[:2, :pumps, 0, 0] = diag[:2, at, 0, x] = diag[:2, at, 1, 3 - x] = 1.0
    diag[:2, pumps:] = np.eye(3)
    diag[1, :pumps, 0, 0], diag[1, at, 0, x] = pops
    diag[2, :pumps, 0, 0], diag[2, at, 0, x] = np.log(pops)
    mats = np.zeros((3, count, 3, 9), dtype=complex)
    mats[..., ::4] = diag
    blocks, kernel, logs = mats.reshape(3, count, 3, 3, 3)
    return [StationaryStructure(m, rows, kernel[rows, :m], blocks[rows, :m], blocks[rows, :m], logs[rows, :m])
            for m, rows in ((2, slice(0, pumps)), (3, slice(pumps, count))) if rows.stop > rows.start]


def _three_level_bath(kind: int, rates: tuple[float, float], name: str) -> Bath:
    """The device bath of kind 0, 1 or 2 (left, right, dephasing) with
    `_device_units` jumps at these rates, and its structure in closed form
    (`_device_structures`), checked against its generator matrix
    (`_require_blocks`) as a report checks it, cached on it. Where that
    matrix is not finite, and for a dephasing bath at rate 0, whose
    generator is 0, the structure is left to the structure solver."""
    jumps = _device_units()[0][kind]
    generator = LindbladGenerator(3, tuple(JumpTerm(r, a) for r, a in zip(rates, jumps)))
    bset = _device_set([name], np.array([kind]), np.array([rates], dtype=float))
    # a generator past the float range is refused where it is used
    if not (rates[0] > 0 and np.isfinite(bset.gens).all()):
        return Bath(name, generator)
    _require_blocks(bset, _frobenius(bset.gens))
    return Bath(name, generator, _structure=bset.stacks[0])


def _require_occupation(what: str, n: float) -> None:
    """A pump's occupation rule: InvalidParams unless n > 0 (NaN fails)."""
    if not n > 0:
        raise InvalidParams(f"{what} must be > 0, got {n}")


def left_pump_bath(n_l: float, name: str = "left") -> Bath:
    """Left relaxation bath of the three-level device, basis (|0>, |L>, |R>).

    Pumping term |L><0| carries the (1+n) factor, verbatim from the model
    this implements; the placement is opposite to the usual thermal
    convention and is intentional.
    """
    _require_occupation("n_l", n_l)
    return _three_level_bath(0, (1.0 + n_l, n_l), name)


def right_pump_bath(n_r: float, name: str = "right") -> Bath:
    """Right relaxation bath of the three-level device, basis (|0>, |L>, |R>)."""
    _require_occupation("n_r", n_r)
    return _three_level_bath(1, (n_r, 1.0 + n_r), name)

