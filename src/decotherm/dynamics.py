"""Time propagation, Liouvillian assembly, and steady-state solving.

    drho/dt = -i [H, rho] + sum_b L_b(rho)

The Hamiltonian is piecewise constant, so propagation is exact: on each
segment the step map is P = expm(L dt) of the vectorized Liouvillian
(Moler & Van Loan, SIAM Rev. 45, 2003), one matrix-vector product per
output step, with no step-size restriction. A switch time between grid
points is reached by partial steps expm(L tau) on either side of it.
expm is numpy only: Higham's scaling and squaring with Pade degrees 3-13
(SIAM J. Matrix Anal. Appl. 26, 1179, 2005), carried as I + E so that the
identity is added once, after the squarings. The dissipator sum_b L_b is
built once per propagate call; each segment adds only its commutator.
Steady states are the null vector of the vectorized Liouvillian, from the
same SVD null-space helper that gives each bath's kernel projector;
long-time propagation is kept only as a cross-check in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .baths import Bath, _kernel_basis, generator_superop
from .errors import (
    DegenerateKernel,
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
    NonPositiveSolution,
    StateInvariantViolated,
    TimeDependentHamiltonian,
)
from .operators import (
    STATE_TOL,
    SuperOperator,
    assert_density_matrix,
    hermitize,
    require_square,
    unvectorize,
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
        return require_square(self._first_hamiltonian())

    def _first_hamiltonian(self) -> np.ndarray:
        if self.is_schedule:
            return np.asarray(self.hamiltonian[0][1])
        return np.asarray(self.hamiltonian)

    @property
    def is_schedule(self) -> bool:
        return not isinstance(self.hamiltonian, np.ndarray)

    def segments(self) -> list[tuple[float, np.ndarray]]:
        """Normalized schedule: [(t_start, H), ...] starting at t = 0."""
        if not self.is_schedule:
            return [(0.0, np.asarray(self.hamiltonian, dtype=complex))]
        segs = [(float(t), np.asarray(h, dtype=complex)) for t, h in self.hamiltonian]
        if not segs:
            raise InvalidParams("empty Hamiltonian schedule")
        segs.sort(key=lambda th: th[0])
        if segs[0][0] != 0.0:
            raise InvalidParams("Hamiltonian schedule must start at t = 0")
        return segs


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
    """DT_SAFETY / max(||H||_2, dissipator stiffness bound 4*sum r_k ||A_k||²)."""
    if isinstance(hamiltonian, np.ndarray):
        hs = [hamiltonian]
    else:
        hs = [h for _, h in hamiltonian]
    h_norm = max((float(np.linalg.norm(h, 2)) for h in hs), default=0.0)
    stiff = 0.0
    for b in baths:
        for k in range(b.generator.rate_stack.shape[0]):
            a_norm = float(np.linalg.norm(b.generator.jump_stack[k], 2))
            stiff += 4.0 * b.generator.rate_stack[k] * a_norm**2
    scale = max(h_norm, stiff)
    if scale <= 0.0:
        return 1.0  # free evolution of nothing; any step is exact
    return DT_SAFETY / scale


def liouvillian(spec: EvolutionSpec) -> SuperOperator:
    """Vectorized matrix of the full right-hand side (static H only):
    -i(I ⊗ H - Hᵀ ⊗ I) plus each bath's generator_superop. Raises
    InvalidParams for a non-finite Hamiltonian."""
    if spec.is_schedule:
        raise TimeDependentHamiltonian(
            "liouvillian needs a static Hamiltonian; propagate the schedule instead"
        )
    h = np.asarray(spec.hamiltonian, dtype=complex)
    gens = _generators(spec.baths, require_square(h, "hamiltonian"))
    if not np.isfinite(h).all():
        raise InvalidParams("Hamiltonian has a non-finite entry")
    return _liouvillian(h, gens)


def _generators(baths: Sequence[Bath], d: int) -> list[SuperOperator]:
    """Each bath's generator_superop, built once; DimensionMismatch unless
    every bath has dimension d."""
    for b in baths:
        if b.dim != d:
            raise DimensionMismatch(f"bath {b.name} dim {b.dim} does not match dim {d}")
    return [generator_superop(b.generator) for b in baths]


def _liouvillian(h: np.ndarray, gens: Sequence[SuperOperator]) -> SuperOperator:
    """-i(I ⊗ H - Hᵀ ⊗ I) plus the built generator matrices gens."""
    mat = _commutator(h)
    for g in gens:
        mat += g.matrix
    return SuperOperator(h.shape[0], mat)


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i(I ⊗ H - Hᵀ ⊗ I), the vectorized -i[H, .], written into the
    (d, d, d, d) index layout of generator_superop."""
    d = h.shape[0]
    mat = np.zeros((d, d, d, d), dtype=complex)
    diag = np.arange(d)
    mat[diag, :, diag, :] = h  # I ⊗ H
    mat[:, diag, :, diag] -= h.T  # Hᵀ ⊗ I
    mat *= -1j
    return mat.reshape(d * d, d * d)


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


def propagate(rho0: np.ndarray, spec: EvolutionSpec) -> Trajectory:
    """Exact trajectory on the grid t_k = k dt, k = 0..ceil(t_max / dt).

    The dissipator sum_b L_b is built once; each Hamiltonian segment adds
    its commutator and gets one step map expm(L dt); a switch time off the
    grid is reached by partial steps expm(L tau) on either side. Raises
    InvalidParams for a non-finite Hamiltonian or generator, and
    StateInvariantViolated if the trace drifts by more than TRACE_DRIFT_TOL.
    """
    d = spec.dim
    if rho0.shape != (d, d):
        raise DimensionMismatch(f"initial state shape {rho0.shape} does not match dim {d}")
    assert_density_matrix(rho0, what="initial state")
    if spec.t_max is None or not 0 < spec.t_max < np.inf:
        raise InvalidParams(f"propagate needs a finite t_max > 0, got {spec.t_max}")
    segs = spec.segments()
    for _, h in segs:
        if h.shape != (d, d):
            raise DimensionMismatch(f"Hamiltonian shape {h.shape} does not match dim {d}")
        if not np.isfinite(h).all():
            raise InvalidParams("Hamiltonian has a non-finite entry")
    dt = spec.dt if spec.dt is not None else default_timestep(spec.hamiltonian, spec.baths)
    if not 0 < dt < np.inf:
        raise InvalidParams(f"dt must be finite and > 0, got {dt}")
    if dt >= spec.t_max:
        raise InvalidParams(f"dt = {dt} must be smaller than t_max = {spec.t_max}")
    n_total = int(np.ceil(spec.t_max / dt - 1e-9))
    times = np.arange(n_total + 1) * dt

    # Row-major storage: states[k].reshape(-1) is vec(rho_kᵀ), which evolves
    # under conj(L) because the generator commutes with taking adjoints.
    # The dissipator sum_b L_b is the Liouvillian of H = 0.
    diss = _liouvillian(np.zeros((d, d), dtype=complex), _generators(spec.baths, d)).matrix
    np.conj(diss, out=diss)
    states = np.empty((n_total + 1, d, d), dtype=np.complex128)
    states[0] = rho0
    flat = states.reshape(n_total + 1, d * d)
    v = flat[0]
    k, t_now = 0, 0.0  # v is the state at t_now; times[k] is the last grid point <= t_now
    for i, (_, h) in enumerate(segs):
        if t_now >= times[-1]:
            break
        t_next = segs[i + 1][0] if i + 1 < len(segs) else np.inf
        lc = np.conj(_commutator(h))
        lc += diss
        if not np.isfinite(lc).all():
            raise InvalidParams("Liouvillian has a non-finite entry")
        k_last = int(np.searchsorted(times, t_next, side="right")) - 1
        if k_last > k:
            if t_now > times[k]:  # resume off the grid, just after a switch
                k += 1
                flat[k] = _expm(lc * (times[k] - t_now)) @ v
            if k_last > k:
                p = _expm(lc * dt)
                for j in range(k + 1, k_last + 1):
                    flat[j] = p @ flat[j - 1]
            k, t_now = k_last, times[k_last]
            v = flat[k]
        if t_now < t_next < times[-1]:  # partial step up to the switch
            v = _expm(lc * (t_next - t_now)) @ v
            t_now = t_next

    drift = abs(float(np.trace(states[-1]).real) - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise StateInvariantViolated(f"trace drifted by {drift:.3e} over the trajectory")
    return Trajectory(times, states)


def steady_state(liouv: SuperOperator) -> np.ndarray:
    """Kernel vector of the Liouvillian as a density matrix.

    The kernel comes from one SVD (baths._kernel_basis). Raises
    DegenerateKernel when it is not one-dimensional (e.g. L = 0, or pure
    dephasing, whose stationary set is a manifold), NonPositiveSolution when
    the kernel vector cannot be normalized to a state, and NoConvergence
    when the residual ||L(nu)|| exceeds STEADY_RESID_TOL ||L||_2; InvalidParams
    for a non-finite Liouvillian.
    """
    if not np.isfinite(liouv.matrix).all():
        raise InvalidParams("Liouvillian has a non-finite entry")
    r, _, scale = _kernel_basis(liouv.matrix)
    if r.shape[1] != 1:
        raise DegenerateKernel(
            f"Liouvillian kernel has dimension {r.shape[1]}; stationary set is not unique"
        )
    m = unvectorize(r[:, 0], liouv.dim)
    tr = complex(np.trace(m))
    if abs(tr) < TRACELESS_TOL * float(np.linalg.norm(m)):
        raise NonPositiveSolution("kernel vector is traceless; no stationary state")
    nu = hermitize(m / tr)
    nu /= np.trace(nu).real
    lam_min = float(np.linalg.eigvalsh(nu)[0])
    if lam_min < -STATE_TOL:
        raise NonPositiveSolution(f"kernel vector has eigenvalue {lam_min:.3e} < -{STATE_TOL:.0e}")
    resid = float(np.linalg.norm(liouv.apply(nu)))
    if not resid <= STEADY_RESID_TOL * scale:
        raise NoConvergence(
            f"steady-state residual {resid:.3e} exceeds {STEADY_RESID_TOL:.0e} * ||L||_2 {scale:.3e}"
        )
    return nu
