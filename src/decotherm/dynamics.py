"""Time propagation, Liouvillian assembly, and steady-state solving.

    drho/dt = -i [H, rho] + sum_b L_b(rho)

The Hamiltonian is piecewise constant, so propagation is exact: on each
segment the step map is P = expm(L dt) of the vectorized Liouvillian
(Moler & Van Loan, SIAM Rev. 45, 2003), one matrix-vector product per
output step, with no step-size restriction. A switch time between grid
points is reached by partial steps expm(L tau) on either side of it.
Steady states are the null vector of the vectorized Liouvillian, from the
same SVD null-space helper that gives each bath's kernel projector;
long-time propagation is kept only as a cross-check in the test suite.
"""

from __future__ import annotations

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
    -i(I ⊗ H - Hᵀ ⊗ I) plus each bath's generator_superop."""
    if spec.is_schedule:
        raise TimeDependentHamiltonian(
            "liouvillian needs a static Hamiltonian; propagate the schedule instead"
        )
    h = np.asarray(spec.hamiltonian, dtype=complex)
    d = require_square(h, "hamiltonian")
    for b in spec.baths:
        if b.dim != d:
            raise DimensionMismatch(f"bath {b.name} dim {b.dim} does not match H dim {d}")
    eye = np.eye(d)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for b in spec.baths:
        mat += generator_superop(b.generator).matrix
    return SuperOperator(d, mat)


def propagate(rho0: np.ndarray, spec: EvolutionSpec) -> Trajectory:
    """Exact trajectory on the grid t_k = k dt, k = 0..ceil(t_max / dt).

    Each Hamiltonian segment gets one step map expm(L dt); a switch time
    off the grid is reached by partial steps expm(L tau) on either side.
    Raises StateInvariantViolated if the trace drifts by more than
    TRACE_DRIFT_TOL.
    """
    # Imported here, its only user: loading scipy.linalg costs ~0.25 s, most of
    # a run that never propagates.
    import scipy.linalg

    d = spec.dim
    if rho0.shape != (d, d):
        raise DimensionMismatch(f"initial state shape {rho0.shape} does not match dim {d}")
    assert_density_matrix(rho0, what="initial state")
    if spec.t_max is None or not 0 < spec.t_max < np.inf:
        raise InvalidParams(f"propagate needs a finite t_max > 0, got {spec.t_max}")
    dt = spec.dt if spec.dt is not None else default_timestep(spec.hamiltonian, spec.baths)
    if not 0 < dt < np.inf:
        raise InvalidParams(f"dt must be finite and > 0, got {dt}")
    if dt >= spec.t_max:
        raise InvalidParams(f"dt = {dt} must be smaller than t_max = {spec.t_max}")
    n_total = int(np.ceil(spec.t_max / dt - 1e-9))
    times = np.arange(n_total + 1) * dt

    segs = spec.segments()
    states = np.empty((n_total + 1, d, d), dtype=np.complex128)
    states[0] = rho0
    # Row-major storage: states[k].reshape(-1) is vec(rho_kᵀ), which evolves
    # under conj(L) because the generator commutes with taking adjoints.
    flat = states.reshape(n_total + 1, d * d)
    v = flat[0]
    k, t_now = 0, 0.0  # v is the state at t_now; times[k] is the last grid point <= t_now
    for i, (_, h) in enumerate(segs):
        if t_now >= times[-1]:
            break
        t_next = segs[i + 1][0] if i + 1 < len(segs) else np.inf
        lc = np.conj(liouvillian(EvolutionSpec(h, spec.baths)).matrix)
        k_last = int(np.searchsorted(times, t_next, side="right")) - 1
        if k_last > k:
            if t_now > times[k]:  # resume off the grid, just after a switch
                k += 1
                flat[k] = scipy.linalg.expm(lc * (times[k] - t_now)) @ v
            if k_last > k:
                p = scipy.linalg.expm(lc * dt)
                for j in range(k + 1, k_last + 1):
                    flat[j] = p @ flat[j - 1]
            k, t_now = k_last, times[k_last]
            v = flat[k]
        if t_now < t_next < times[-1]:  # partial step up to the switch
            v = scipy.linalg.expm(lc * (t_next - t_now)) @ v
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
    when the residual ||L(nu)|| exceeds STEADY_RESID_TOL ||L||_2.
    """
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
