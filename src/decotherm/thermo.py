"""Thermodynamic observables: energy/work/heat rates, entropies, fluxes,
and entropy production.

All entropic quantities are in nats. Sign conventions:

  * heat rate Q_b = Tr[H L_b(rho)]; positive means energy flowing into
    the system;
  * entropy flux Phi_b = -Tr[L_b(rho) log B_b(rho)]; for a thermal bath
    in the commuting case Phi = beta * Q, i.e. positive into the system;
  * entropy production P = sum_b Tr[L_b(rho) (log B_b(rho) - log rho)],
    which is >= 0 and satisfies the balance  dS/dt = sum_b Phi_b + P.

Relative entropy to a bath's stationary set returns +inf when the state
has support outside the support of its stationary image; that is a
legitimate thermodynamic answer, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baths import Bath, apply_generator, stationary_map
from .dynamics import EvolutionSpec, Trajectory
from .errors import NegativeEigenvalue, SupportViolation
from .operators import (
    DEFAULT_EIG_CUT,
    hermitize,
    matrix_log_on_support,
    require_hermitian,
    require_same_dim,
)

#: Max weight a state may carry on the numerical kernel of a reference
#: state before the support condition is declared violated.
SUPPORT_TOL = 1e-10


def energy(h: np.ndarray, rho: np.ndarray) -> float:
    """E = Tr[H rho]."""
    require_same_dim(h, rho)
    require_hermitian(h, what="hamiltonian")
    return float(np.trace(h @ rho).real)


def work_rate(h_dot: np.ndarray, rho: np.ndarray) -> float:
    """W' = Tr[dH/dt rho]; identically zero for a static Hamiltonian."""
    require_same_dim(h_dot, rho)
    require_hermitian(h_dot, what="hamiltonian derivative")
    return float(np.trace(h_dot @ rho).real)


def heat_rate(h: np.ndarray, bath: Bath, rho: np.ndarray) -> float:
    """Q_b = Tr[H L_b(rho)], positive into the system."""
    require_same_dim(h, rho)
    require_hermitian(h, what="hamiltonian")
    return float(np.trace(h @ apply_generator(bath.generator, rho)).real)


class _Spectral:
    """Support-restricted log, kernel projector, and entropy of one
    Hermitian PSD matrix, from a single eigendecomposition."""

    def __init__(self, m: np.ndarray, eig_cut: float):
        lam, u = np.linalg.eigh(hermitize(m))
        cut = eig_cut * max(float(lam[-1]), 0.0)
        if float(lam[0]) < -cut:
            raise NegativeEigenvalue(f"matrix has eigenvalue {lam[0]:.3e} below -{cut:.1e}")
        keep = lam > cut
        self.support = u[:, keep]
        self.kernel = u[:, ~keep]
        self.eigs = lam[keep]
        if keep.any():
            self.log = (self.support * np.log(self.eigs)) @ self.support.conj().T
        else:
            self.log = np.zeros_like(np.asarray(m), dtype=complex)

    def entropy(self) -> float:
        if self.eigs.size == 0:
            return 0.0
        return float(-(self.eigs * np.log(self.eigs)).sum())

    def leak_of(self, rho: np.ndarray) -> float:
        """Weight of rho on this matrix's numerical kernel."""
        if self.kernel.shape[1] == 0:
            return 0.0
        return float(np.einsum("ik,ij,jk->", self.kernel.conj(), rho, self.kernel).real)


def von_neumann_entropy(rho: np.ndarray, eig_cut: float = DEFAULT_EIG_CUT) -> float:
    """S = -sum lambda ln lambda over the spectrum above the support cut."""
    return _Spectral(rho, eig_cut).entropy()


def relative_entropy_to_bath(rho: np.ndarray, bath: Bath, eig_cut: float = DEFAULT_EIG_CUT) -> float:
    """R = Tr[rho log rho] - Tr[rho log B(rho)]; zero exactly at equilibrium.

    Returns +inf when supp(rho) is not contained in supp(B(rho)).
    """
    b = _Spectral(stationary_map(bath, rho), eig_cut)
    if b.leak_of(rho) > SUPPORT_TOL:
        return math.inf
    log_rho = matrix_log_on_support(hermitize(rho), eig_cut)
    return float(np.trace(rho @ (log_rho - b.log)).real)


def entropy_flux(bath: Bath, rho: np.ndarray, eig_cut: float = DEFAULT_EIG_CUT) -> float:
    """Phi_b = -Tr[L_b(rho) log B_b(rho)], positive into the system."""
    b = _Spectral(stationary_map(bath, rho), eig_cut)
    leak = b.leak_of(rho)
    if leak > SUPPORT_TOL:
        raise SupportViolation(
            f"state has weight {leak:.3e} outside supp(B(rho)) for bath {bath.name}"
        )
    return float(-np.trace(apply_generator(bath.generator, rho) @ b.log).real)


def entropy_production(rho: np.ndarray, baths, eig_cut: float = DEFAULT_EIG_CUT) -> float:
    """P = sum_b Tr[L_b(rho) (log B_b(rho) - log rho)] >= 0."""
    log_rho = matrix_log_on_support(hermitize(rho), eig_cut)
    total = 0.0
    for bath in baths:
        b = _Spectral(stationary_map(bath, rho), eig_cut)
        leak = b.leak_of(rho)
        if leak > SUPPORT_TOL:
            raise SupportViolation(
                f"state has weight {leak:.3e} outside supp(B(rho)) for bath {bath.name}"
            )
        flow = apply_generator(bath.generator, rho)
        total += float(np.trace(flow @ (b.log - log_rho)).real)
    return total


@dataclass(frozen=True, eq=False)
class ThermoSample:
    t: float
    energy: float
    work_rate: float
    heat_rates: dict[str, float]
    entropy: float
    entropy_flux: dict[str, float]
    entropy_production: float
    relative_entropies: dict[str, float]
    support_ok: bool = True


def sample_thermodynamics(traj: Trajectory, spec: EvolutionSpec) -> list[ThermoSample]:
    """One ThermoSample per trajectory point.

    The work rate reflects the piecewise-constant schedule: zero except at
    the first grid point at or after a switch, where the impulsive energy
    jump Tr[(H+ - H-) rho] is spread over one step. A SupportViolation at a
    point flags the sample (support_ok=False, nan entries) instead of
    aborting the sweep.
    """
    segs = spec.segments()
    dt = traj.dt
    samples: list[ThermoSample] = []
    seg_idx = 0
    for k, t in enumerate(traj.times):
        rho = traj.states[k]
        prev_idx = seg_idx
        while seg_idx + 1 < len(segs) and segs[seg_idx + 1][0] <= float(t) + 1e-15:
            seg_idx += 1
        h = segs[seg_idx][1]
        w = 0.0
        if seg_idx != prev_idx:
            w = float(np.trace((h - segs[prev_idx][1]) @ rho).real) / dt
        own = _Spectral(rho, DEFAULT_EIG_CUT)
        heats: dict[str, float] = {}
        fluxes: dict[str, float] = {}
        rel: dict[str, float] = {}
        prod = 0.0
        ok = True
        for bath in spec.baths:
            flow = apply_generator(bath.generator, rho)
            heats[bath.name] = float(np.trace(h @ flow).real)
            b = _Spectral(stationary_map(bath, rho), DEFAULT_EIG_CUT)
            if b.leak_of(rho) > SUPPORT_TOL:
                rel[bath.name] = math.inf
                fluxes[bath.name] = math.nan
                prod = math.nan
                ok = False
                continue
            rel[bath.name] = float(np.trace(rho @ (own.log - b.log)).real)
            fluxes[bath.name] = float(-np.trace(flow @ b.log).real)
            if not math.isnan(prod):
                prod += float(np.trace(flow @ (b.log - own.log)).real)
        samples.append(
            ThermoSample(
                t=float(t),
                energy=float(np.trace(h @ rho).real),
                work_rate=w,
                heat_rates=heats,
                entropy=own.entropy(),
                entropy_flux=fluxes,
                entropy_production=prod,
                relative_entropies=rel,
                support_ok=ok,
            )
        )
    return samples


def first_law_residuals(samples: list[ThermoSample]) -> np.ndarray:
    """|dE/dt - W' - sum_b Q_b| by centered differences at interior points.

    Endpoints and points adjacent to a Hamiltonian switch (where the work
    rate is distributional) are nan.
    """
    n = len(samples)
    out = np.full(n, np.nan)
    if n < 3:
        return out
    dt = samples[1].t - samples[0].t
    e = np.array([s.energy for s in samples])
    switchy = {k for k, s in enumerate(samples) if s.work_rate != 0.0}
    for k in range(1, n - 1):
        if {k - 1, k, k + 1} & switchy:
            continue
        de = (e[k + 1] - e[k - 1]) / (2.0 * dt)
        out[k] = abs(de - samples[k].work_rate - sum(samples[k].heat_rates.values()))
    return out
