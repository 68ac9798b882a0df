"""Time propagation, Liouvillian assembly, and steady-state solving.

    drho/dt = -i [H, rho] + sum_b L_b(rho)

The Hamiltonian is piecewise constant, so propagation is exact: on each
segment the step map is P = expm(L dt) of the vectorized Liouvillian
(Moler & Van Loan, SIAM Rev. 45, 2003), one matrix-vector product per
output step, with no step-size restriction. A switch time between grid
points is reached by partial steps on either side of it, each the action
exp(L tau) v of a truncated Taylor series on the one state it moves
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488, 2011): a few
matrix-vector products instead of a d²×d² expm used once.
expm is numpy only: Higham's scaling and squaring with Pade degrees 3-13
(SIAM J. Matrix Anal. Appl. 26, 1179, 2005), carried as I + E so that the
identity is added once, after the squarings. The dissipator sum_b L_b is
built once per propagate call; each segment adds only its commutator.
The grid is sized before anything is allocated: more than
MAX_GRID_ENTRIES points × d² is refused.
Steady states are the null vector of the vectorized Liouvillian, from the
same SVD null-space helper that gives each bath's kernel projector;
long-time propagation is kept only as a cross-check in the test suite.
The Liouvillian step (`_liouvillian`, each model's generators summed in
bath order by `_by_point`) and the steady-state step (`_steady_states`)
work on stacks of models: `liouvillian` and `steady_state` run them on a
stack of one, `propagate` builds each segment's Liouvillian with the
first, and the steady pass of `thermo` runs both on a stack of many.

Both run in real arithmetic. A Lindblad map sends Hermitian operators to
Hermitian ones, so in the orthonormal Hermitian basis of `operators` it is
a real d²×d² matrix with the same singular values: the step maps, partial
steps and per-step products of `propagate` act on real coordinate
vectors, and the kernel SVDs run on the real matrix. Hamiltonians must be
Hermitian (within HERM_TOL max(1, max|H|)) for that to be the same
dynamics: a spec's `segments` pass each one through
`operators.require_hamiltonian` once, and every caller reads them.
`_generators` checks the baths' dimension. Each refusal is InvalidParams;
a failure on accepted inputs is a NumericalFailure (trace drift is
StateInvariantViolated).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .baths import Bath, _first_failure, _frobenius, _generator_matrices, _kernel_basis
from .errors import (
    DegenerateKernel,
    InvalidParams,
    NoConvergence,
    NonPositiveSolution,
    StateInvariantViolated,
)
from .operators import (
    HERM_TOL,
    STATE_TOL,
    SuperOperator,
    _apply_each,
    _herm_coords,
    _herm_operators,
    _real_form,
    assert_density_matrix,
    hermitize,
    require_finite,
    require_hamiltonian,
    require_operator,
)

#: Step-size safety factor; dt = DT_SAFETY / stiffness. Chosen so that the
#: centered-difference first-law residual stays below 1e-6 on every scenario
#: trajectory (the binding constraint is finite-difference truncation, not
#: integrator stability).
DT_SAFETY = 0.0025

#: Max trace drift of a propagated trajectory.
TRACE_DRIFT_TOL = 1e-8

#: Max |Tr m| / ||m||_F at which a kernel vector m counts as traceless.
TRACELESS_TOL = 1e-10

#: Max steady-state residual ||L(nu)||, relative to ||L||_2.
STEADY_RESID_TOL = 1e-12

#: Max grid points × d² of one propagate call. A `decotherm run` trajectory
#: holds about 1 KB per point at d = 3 (states, sampled columns, the output
#: table), so the cap, 2e6 points at d = 3, keeps a run under ~2 GB.
MAX_GRID_ENTRIES = 18_000_000

Schedule = Sequence[tuple[float, np.ndarray]]


@dataclass(frozen=True, eq=False)
class EvolutionSpec:
    """Hamiltonian (static array or piecewise-constant [(t_start, H), ...]),
    baths, and integrator controls."""

    hamiltonian: Union[np.ndarray, Schedule]
    baths: tuple[Bath, ...]
    t_max: float | None = None
    dt: float | None = None  # None: default_timestep()

    @property
    def dim(self) -> int:
        return self.segments[0][1].shape[0]

    @property
    def is_schedule(self) -> bool:
        return not isinstance(self.hamiltonian, np.ndarray)

    @functools.cached_property
    def segments(self) -> tuple[tuple[float, np.ndarray], ...]:
        """Normalized schedule ((t_start, H), ...) starting at t = 0, made
        once per spec: sorted by start time, and a copy of every H passed
        through operators.require_hamiltonian with the first one's dimension."""
        schedule = self.hamiltonian if self.is_schedule else [(0.0, self.hamiltonian)]
        segs = sorted(((float(t), np.array(h, dtype=complex)) for t, h in schedule),
                      key=lambda th: th[0])
        if not segs:
            raise InvalidParams("empty Hamiltonian schedule")
        for t, _ in segs:  # sorted() leaves a NaN wherever it was listed
            if not math.isfinite(t):
                raise InvalidParams(f"Hamiltonian schedule start time must be finite, got {t}")
        if segs[0][0] != 0.0:
            raise InvalidParams("Hamiltonian schedule must start at t = 0")
        d = None
        for _, h in segs:
            d = require_hamiltonian(h, "Hamiltonian", d)
        return tuple(segs)


@dataclass(frozen=True, eq=False)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n+1, d, d)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return self.times.shape[0]


def default_timestep(hamiltonian: Union[np.ndarray, Schedule], baths: Sequence[Bath]) -> float:
    """DT_SAFETY / max(segments' ||H||_2, dissipator stiffness bound 4*sum r_k ||A_k||²);
    a bound past the float range is refused (InvalidParams)."""
    return _default_timestep(EvolutionSpec(hamiltonian, baths).segments, baths)


def _default_timestep(segs: Sequence[tuple[float, np.ndarray]], baths: Sequence[Bath]) -> float:
    """default_timestep of a spec's checked segments."""
    h_norm = max(float(np.linalg.norm(h, 2)) for _, h in segs)
    with np.errstate(over="ignore"):  # past the float range: refused below
        stiff = sum((4.0 * r * np.linalg.norm(a, 2)**2 for b in baths
                     for r, a in zip(b.generator.rate_stack, b.generator.jump_stack)), 0.0)
    if not stiff < np.inf:
        raise InvalidParams("dissipator stiffness bound 4*sum r_k ||A_k||² is past the float range")
    scale = max(h_norm, stiff)
    if scale <= 0.0:
        return 1.0  # free evolution of nothing; any step is exact
    return DT_SAFETY / scale


def liouvillian(spec: EvolutionSpec) -> SuperOperator:
    """Vectorized matrix of the full right-hand side (static H only):
    -i(I ⊗ H - Hᵀ ⊗ I) plus each bath's generator_superop; the spec's
    segments check H before anything is built, and a sum that overflows is
    refused (InvalidParams)."""
    if spec.is_schedule:
        raise InvalidParams("liouvillian needs a static Hamiltonian; propagate the schedule instead")
    gens = _generators(spec.baths, spec.dim)
    return SuperOperator(spec.dim, _liouvillian(spec.segments[0][1][None], gens, np.zeros(len(gens), int))[0])


def _generators(baths: Sequence[Bath], d: int) -> np.ndarray:
    """Each bath's generator matrix, built once, as one stack (m, d², d²),
    after the one bath-list check: InvalidParams unless every bath has
    dimension d, or for a name given twice (results key by name)."""
    names = set()
    for b in baths:
        if b.dim != d:
            raise InvalidParams(f"bath {b.name} dim {b.dim} does not match dim {d}")
        if b.name in names:
            raise InvalidParams(f"bath name {b.name!r} is given twice; each bath needs its own name")
        names.add(b.name)
    return _generator_matrices([b.generator for b in baths], d)


def _liouvillian(hams: np.ndarray, gens: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The Liouvillian matrix of each model p of a stack: -i(I ⊗ H - Hᵀ ⊗ I)
    of its Hamiltonian hams[p] plus the built generator matrices gens[b] of
    its baths, those with point[b] = p, in bath order (`_by_point`);
    InvalidParams if a sum overflows (rates near the float maximum)."""
    with np.errstate(over="ignore"):  # require_finite refuses what overflows
        lmats = _by_point(_commutator(hams), gens, point)
    require_finite(lmats, "Liouvillian")
    return lmats


def _by_point(out: np.ndarray, a: np.ndarray, point: np.ndarray) -> np.ndarray:
    """out[p] plus the entries a[b] of the baths b with point[b] = p, added
    in bath order, in place; returns out. Scalars go through ufunc.at,
    which adds them one by one in index order; a run of matrices on
    consecutive points p0, p0 + 1, ... is one slice add (three for a device
    pass, whose baths are stacked by kind). The one sum over each model's
    baths: of its Liouvillian (`_liouvillian`) and of its entropy
    production (`thermo._point_production`). A model's sum is the same, bit
    for bit, whatever other models share the stack."""
    if a.ndim == 1:
        np.add.at(out, point, a)
        return out
    pts = point.tolist()
    starts = [b for b in range(len(pts)) if b == 0 or pts[b] != pts[b - 1] + 1]  # each run's first bath
    for b0, b1 in zip(starts, [*starts[1:], len(pts)]):
        out[pts[b0]:pts[b0] + b1 - b0] += a[b0:b1]
    return out


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i(I ⊗ H - Hᵀ ⊗ I), the vectorized -i[H, .], written into the
    (d, d, d, d) index layout of generator_superop; of one H or of each H
    of a stack (m, d, d)."""
    d = h.shape[-1]
    mat = np.zeros((*h.shape[:-2], d, d, d, d), dtype=complex)
    diag = np.arange(d)
    mat[..., diag, :, diag, :] = h  # I ⊗ H
    mat[..., :, diag, :, diag] -= h.swapaxes(-1, -2)  # Hᵀ ⊗ I
    mat *= -1j
    return mat.reshape(*h.shape[:-2], d * d, d * d)


#: Higham (2005), Table 2.3: the largest ||A||_1 at which the [m/m] Pade
#: approximant, applied without scaling, is exp(A) to double precision.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 5.371920351148152e0}


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a finite square matrix by scaling and squaring (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179, 2005).

    The [m/m] Pade approximant (V - U)⁻¹(V + U) is kept as I + E with
    E = 2 (V - U)⁻¹ U, squared as E <- 2E + E·E, and I is added once at the
    end: a step map is I plus a small E, and forming I + E before squaring
    rounds E to the spacing of 1 every time.
    """
    n = a.shape[0]
    norm = float(np.abs(a).sum(axis=0).max())
    m = next((deg for deg in (3, 5, 7, 9) if norm <= _PADE_THETA[deg]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    if s:
        a = a * 2.0**-s
    fact = math.factorial
    b = [fact(2 * m - j) / (fact(j) * fact(m - j)) for j in range(m + 1)]  # Pade coefficients
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
        del a4, a6
    else:
        u, v, p = b[3] * a2, b[2] * a2, a2
        for j in range(4, m + 1, 2):
            p = p @ a2
            u += b[j + 1] * p
            v += b[j] * p
        del p
    del a2  # the powers are dead; free them before the solve's copies
    diag = np.arange(n)
    u[diag, diag] += b[1]
    v[diag, diag] += b[0]
    u = a @ u
    v -= u
    e = np.linalg.solve(v, u)
    e *= 2.0
    for _ in range(s):
        sq = e @ e
        e *= 2.0
        e += sq
    e[diag, diag] += 1.0
    return e


#: Al-Mohy & Higham (2011), Table 3.1: the largest ||A||_1 at which the
#: degree-m Taylor polynomial of exp(A), in one step, has backward error at
#: most 2^-53. Degrees 35-55 (theta up to 9.9) are left out: in one step
#: the terms (tA)^j v / j! grow to ~e^||A|| / sqrt(2 pi ||A||) times the
#: result before they fall, and on a d = 2 Lindblad L at ||A||_1 = 9.9 that
#: cancellation cost 2.4e-13 relative, where the Pade expm keeps 1e-15.
_TAYLOR_THETA = {5: 2.4e-3, 10: 1.4e-1, 15: 6.4e-1, 20: 1.4e0, 25: 2.4e0, 30: 3.5e0}


def _expm_action(a: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(t a) v for one vector v.

    One step of the degree-m Taylor series sum_j (t a)^j v / j!, with m the
    smallest degree of _TAYLOR_THETA whose theta bounds ||t a||_1 (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 488, 2011): m matrix-vector products
    with a itself, and no scaled copy of it. Past the table's last theta,
    _expm(t a) @ v.
    """
    norm = t * float(np.abs(a).sum(axis=0).max())
    m = next((deg for deg, theta in _TAYLOR_THETA.items() if norm <= theta), None)
    if m is None:
        return _expm(a * t) @ v
    out = v.copy()
    term = v
    for j in range(1, m + 1):
        term = a @ term
        term *= t / j
        out += term
    return out


def propagate(rho0: np.ndarray, spec: EvolutionSpec) -> Trajectory:
    """Exact trajectory on the grid t_k = k dt, k = 0..ceil(t_max / dt).

    The state is carried as its real coordinates in the orthonormal
    Hermitian basis (`operators._herm_coords`), on which each Liouvillian
    acts as a real d²×d² matrix (`operators._real_form`), and turned into
    the complex (n, d, d) stack once, at the end: every state is exactly
    Hermitian. The dissipator sum_b L_b is built once; each Hamiltonian
    segment adds its commutator and, if it holds a full step, gets one
    step map P = expm(L dt), each step's P x written in place into the
    coordinate array; a switch time off the grid is reached by partial
    steps on either side, each the action exp(L tau) v on the current
    state (`_expm_action`), with no d²×d² expm.
    The spec's segments check its Hamiltonians first. Raises InvalidParams
    for a non-finite Liouvillian or default step's stiffness bound
    (overflowing rates) and, before allocating
    anything, for a grid of more than MAX_GRID_ENTRIES points × d²;
    StateInvariantViolated if the trace drifts by more than TRACE_DRIFT_TOL.
    """
    d = spec.dim
    require_operator(rho0, "initial state", d)
    assert_density_matrix(rho0, what="initial state")
    if spec.t_max is None or not 0 < spec.t_max < np.inf:
        raise InvalidParams(f"propagate needs a finite t_max > 0, got {spec.t_max}")
    segs = spec.segments
    dt = spec.dt if spec.dt is not None else _default_timestep(segs, spec.baths)
    if not 0 < dt < np.inf:
        raise InvalidParams(f"dt must be finite and > 0, got {dt}")
    if dt >= spec.t_max:
        raise InvalidParams(f"dt = {dt} must be smaller than t_max = {spec.t_max}")
    n_steps = float(np.ceil(spec.t_max / dt - 1e-9))
    if (n_steps + 1) * d * d > MAX_GRID_ENTRIES:
        raise InvalidParams(
            f"dt = {dt:.3e} over t_max = {spec.t_max} gives {n_steps + 1:.4g} grid points of "
            f"dimension {d}, over MAX_GRID_ENTRIES = {MAX_GRID_ENTRIES:.2g} points × d²; "
            f"set a larger integrator.dt or a smaller t_max"
        )
    n_total = int(n_steps)
    times = np.arange(n_total + 1) * dt

    # The dissipator sum_b L_b is the Liouvillian of H = 0.
    diss = _liouvillian(np.zeros((1, d, d), dtype=complex), _generators(spec.baths, d),
                        np.zeros(len(spec.baths), int))[0]
    coords = np.empty((n_total + 1, d * d))
    coords[0] = _herm_coords(rho0)
    v = coords[0]
    k, t_now = 0, 0.0  # v is the state at t_now; times[k] is the last grid point <= t_now
    for i, (_, h) in enumerate(segs):
        if t_now >= times[-1]:
            break
        t_next = segs[i + 1][0] if i + 1 < len(segs) else np.inf
        lr = _real_form(_liouvillian(h[None], diss[None], np.zeros(1, int))[0])
        k_last = int(np.searchsorted(times, t_next, side="right")) - 1
        if k_last > k:
            if t_now > times[k]:  # resume off the grid, just after a switch
                k += 1
                coords[k] = _expm_action(lr, times[k] - t_now, v)
            if k_last > k:
                p = _expm(lr * dt)
                for j in range(k + 1, k_last + 1):
                    np.dot(p, coords[j - 1], out=coords[j])
            k, t_now = k_last, times[k_last]
            v = coords[k]
        if t_now < t_next < times[-1]:  # partial step up to the switch
            v = _expm_action(lr, t_next - t_now, v)
            t_now = t_next

    states = _herm_operators(coords)
    drift = abs(float(np.trace(states[-1]).real) - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise StateInvariantViolated(f"trace drifted by {drift:.3e} over the trajectory")
    return Trajectory(times, states)


def steady_state(liouv: SuperOperator) -> np.ndarray:
    """Kernel vector of the Liouvillian as a density matrix.

    The kernel comes from one SVD of L's real matrix in the Hermitian
    coordinates (baths._kernel_basis), so the kernel vector is an exactly
    Hermitian operator. That matrix is L only if L preserves Hermiticity,
    so L[(ij),(kl)] must equal conj(L[(ji),(lk)]) within HERM_TOL max|L|,
    else InvalidParams. Raises DegenerateKernel when the kernel is not
    one-dimensional (e.g. L = 0, or pure dephasing, whose stationary set is
    a manifold), NonPositiveSolution when the kernel vector cannot be
    normalized to a state, and NoConvergence when the residual ||L(nu)||
    exceeds STEADY_RESID_TOL ||L||_2; InvalidParams for a non-finite
    Liouvillian.
    """
    _require_liouvillian(liouv.matrix)
    dims, *solved = _steady_states(liouv.matrix[None])
    if dims[0] != 1:
        raise _degenerate_kernel(dims[0])
    return solved[0][0]


def _require_liouvillian(lmat: np.ndarray) -> None:
    """InvalidParams for a non-finite Liouvillian matrix L, or for one that
    does not preserve Hermiticity within HERM_TOL max|L|."""
    require_finite(lmat, "Liouvillian")
    d = math.isqrt(lmat.shape[0])
    m4 = lmat.reshape(d, d, d, d)  # m4[j, i, m, l] = L[(i, j), (l, m)]
    defect = np.abs(m4 - m4.transpose(1, 0, 3, 2).conj()).max()
    if defect > HERM_TOL * np.abs(lmat).max():
        raise InvalidParams(
            f"Liouvillian does not preserve Hermiticity: L[(ij),(kl)] deviates from "
            f"conj(L[(ji),(lk)]) by {defect:.3e}, over {HERM_TOL:.1e} * max|L|"
        )


def _degenerate_kernel(k: int) -> DegenerateKernel:
    return DegenerateKernel(f"Liouvillian kernel has dimension {k}; stationary set is not unique")


def _steady_states(lmats: np.ndarray) -> tuple[np.ndarray, ...]:
    """The steady-state step of a stack of finite Liouvillian matrices
    (m, n, n): one kernel solve (`_kernel_basis`), then, if every kernel is
    one-dimensional, steady_state of each matrix, from its kernel vector
    and ||L||_F, which decides the residual check where it can
    (`baths._first_failure`), with each state's eigensolve (ascending),
    which serves both the positivity check and, through Spectrum.of_eigh,
    its log. Each check runs on the whole stack and raises for the first
    state that fails it. Returns every matrix's kernel dimension, then
    (nu, eigs, vecs) in stack order; the dimensions alone if one is not 1,
    the DegenerateKernel being the caller's."""
    kernels = _kernel_basis(lmats)
    if (kernels.dims != 1).any():
        return kernels.dims,
    kernel = kernels.right[:, -1]
    tr = kernel.trace(axis1=1, axis2=2).real  # Hermitian, so the trace is real
    if (np.abs(tr) < TRACELESS_TOL * _frobenius(kernel)).any():
        raise NonPositiveSolution("kernel vector is traceless; no stationary state")
    nu = kernel / tr[:, None, None]
    nu /= nu.trace(axis1=1, axis2=2).real[:, None, None]
    eigs, vecs = np.linalg.eigh(hermitize(nu))  # as Spectrum.of(nu)
    low = eigs[:, 0]
    if (low < -STATE_TOL).any():
        lam_min = low[np.argmax(low < -STATE_TOL)]
        raise NonPositiveSolution(f"kernel vector has eigenvalue {lam_min:.3e} < -{STATE_TOL:.0e}")
    resid = _frobenius(_apply_each(lmats, nu))
    failure = _first_failure(resid[:, None], STEADY_RESID_TOL, lmats, kernels.fro)
    if failure is not None:
        i, norm = failure
        raise NoConvergence(
            f"steady-state residual {resid[i]:.3e} exceeds {STEADY_RESID_TOL:.0e} * ||L||_2 {norm:.3e}"
        )
    return kernels.dims, nu, eigs, vecs

