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

One per-bath kernel, `_bath_terms`, gives the flux, relative entropy and P
pairing of one state or a stack to the scalar functions, `onsager`,
`device_report` and `sample_thermodynamics`; every heat is `_traces(H, flow)`.
Each of those callers first solves all its baths' stationary structures in
one stacked pass (`baths._stationary_structures`), so the kernel solves
nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baths import (
    Bath,
    _stationary_structures,
    apply_generator,
    generator_superop,
    stationary_map,
    stationary_structure,
)
from .dynamics import EvolutionSpec, Trajectory
from .errors import NonRealPairing, SupportViolation
from .operators import (
    DEFAULT_EIG_CUT,
    Spectrum,
    SuperOperator,
    require_hermitian,
    require_same_dim,
    require_square,
)

#: Max weight a state may carry on the numerical kernel of a reference
#: state before the support condition is declared violated.
SUPPORT_TOL = 1e-10

#: Max imaginary part the entropy-production pairing may pick up.
IMAG_TOL = 1e-10

#: Matrix entries per stacked block of the sampler: 2**14 complex entries
#: are 256 KiB per stacked array, which keeps the sampler's working set
#: small next to the trajectory it reads (64 points at d = 16).
_BLOCK_ENTRIES = 2**14


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


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[a b] for each pair of a stack."""
    return np.einsum("...ij,...ji->...", a, b).real


def heat_rate(h: np.ndarray, bath: Bath, rho: np.ndarray) -> float:
    """Q_b = Tr[H L_b(rho)], positive into the system."""
    require_same_dim(h, rho)
    require_hermitian(h, what="hamiltonian")
    return float(_traces(h, apply_generator(bath.generator, rho)))


def _stationary_log(bath: Bath, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log B(rho) on the support of B(rho), and the weight rho carries off
    that support, for one state or a stack of states.

    With every n_k = 1, B(rho) = sum_k c_k omega_k with c_k = Tr[J_k rho], so
    log B(rho) = sum of (log c_k Pi_k + log omega_k) over the c_k above
    DEFAULT_EIG_CUT * max c, with no eigensolve per state. Otherwise the
    image is eigensolved per state.
    """
    struct = stationary_structure(bath)
    if struct.blocks is None:
        spec = Spectrum.of(stationary_map(bath, rho))
        return spec.log, spec.leak_of(rho)
    m, d2 = struct.blocks.shape[0], bath.dim**2
    flat = rho.reshape(*rho.shape[:-2], d2)
    blocks = struct.blocks.reshape(m, d2)
    # Tr[X rho] = sum_ij conj(X)_ij rho_ij for Hermitian X
    c = (flat @ struct.conserved.reshape(m, d2).conj().T).real
    keep = c > DEFAULT_EIG_CUT * c.max(axis=-1, keepdims=True)
    log_c = np.log(c, out=np.zeros(c.shape), where=keep)
    log_b = log_c @ blocks + keep.astype(float) @ struct.logs.reshape(m, d2)
    kept = ((flat @ blocks.conj().T).real * keep).sum(axis=-1)
    leak = np.trace(rho, axis1=-2, axis2=-1).real - kept
    return log_b.reshape(rho.shape), leak


class _BathTerms(NamedTuple):
    """One bath's terms over one state (scalars) or a stack (arrays)."""

    flow: np.ndarray  # L_b(rho)
    force: np.ndarray  # X_b = log B_b(rho) - log rho
    flux: np.ndarray  # -Tr[L_b(rho) log B_b(rho)], where ok
    relative_entropy: np.ndarray  # Tr[rho (log rho - log B_b(rho))], where ok
    pairing: np.ndarray  # Tr[L_b(rho) X_b], complex: _production checks it
    leak: np.ndarray  # weight of rho off supp(B_b(rho))
    ok: np.ndarray  # leak <= SUPPORT_TOL


def _bath_terms(
    bath: Bath, gen: SuperOperator, rho: np.ndarray, log_rho: np.ndarray
) -> _BathTerms:
    """The per-bath kernel: one flow L_b(rho) from gen, the caller's build
    of generator_superop(bath.generator), one log B_b(rho) from the bath's
    stationary structure, which the caller has solved, and one support
    leak, over one state or a stack of states with their support logs
    log_rho."""
    flow = gen.apply(rho)
    log_b, leak = _stationary_log(bath, rho)
    force = log_b - log_rho
    flux = -_traces(flow, log_b)
    relative_entropy = _traces(rho, log_rho - log_b)
    pairing = np.einsum("...ij,...ji->...", flow, force)
    return _BathTerms(flow, force, flux, relative_entropy, pairing, leak, leak <= SUPPORT_TOL)


def _state_terms(
    baths, gens: list[SuperOperator], rho: np.ndarray, log_rho: np.ndarray
) -> list[_BathTerms]:
    """_bath_terms of one state for each bath and its built generator
    matrix, after one pass solves the baths' stationary structures;
    SupportViolation if the state leaks off a bath's support."""
    _stationary_structures(baths, gens)
    out = []
    for bath, gen in zip(baths, gens):
        terms = _bath_terms(bath, gen, rho, log_rho)
        if not terms.ok:
            raise SupportViolation(
                f"state has weight {terms.leak:.3e} outside supp(B(rho)) for bath {bath.name}"
            )
        out.append(terms)
    return out


def _production(pairing: np.ndarray) -> np.ndarray:
    """P, the real part of the summed pairing sum_b Tr[L_b(rho) X_b] of one
    state or of a stack; NonRealPairing if its imaginary part exceeds
    IMAG_TOL at a point."""
    imag = abs(pairing.imag)
    if (imag > IMAG_TOL).any():
        raise NonRealPairing(f"entropy production picked up imaginary part {np.max(imag):.3e}")
    return pairing.real


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S = -sum lambda ln lambda over the spectrum above the support cut."""
    return float(Spectrum.of(rho).entropy())


def relative_entropy_to_bath(rho: np.ndarray, bath: Bath) -> float:
    """R = Tr[rho log rho] - Tr[rho log B(rho)]; zero exactly at equilibrium.

    Returns +inf when supp(rho) is not contained in supp(B(rho)).
    """
    gen, log_rho = generator_superop(bath.generator), Spectrum.of(rho).log
    _stationary_structures([bath], [gen])
    terms = _bath_terms(bath, gen, rho, log_rho)
    return float(terms.relative_entropy) if terms.ok else math.inf


def entropy_flux(bath: Bath, rho: np.ndarray) -> float:
    """Phi_b = -Tr[L_b(rho) log B_b(rho)], positive into the system."""
    gens = [generator_superop(bath.generator)]
    return float(_state_terms([bath], gens, rho, Spectrum.of(rho).log)[0].flux)


def entropy_production(rho: np.ndarray, baths) -> float:
    """P = sum_b Tr[L_b(rho) X_b] >= 0, with the force
    X_b = log B_b(rho) - log rho."""
    require_square(rho, "state")
    gens = [generator_superop(b.generator) for b in baths]
    terms = _state_terms(baths, gens, rho, Spectrum.of(rho).log)
    return float(_production(sum(t.pairing for t in terms)))


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


@dataclass(frozen=True, eq=False)
class ThermoSamples:
    """The observables of every trajectory point, one array per column
    (per-bath columns keyed by bath name). Indexing and iteration give a
    ThermoSample view of one point."""

    t: np.ndarray
    energy: np.ndarray
    work_rate: np.ndarray
    heat_rates: dict[str, np.ndarray]
    entropy: np.ndarray
    entropy_flux: dict[str, np.ndarray]
    entropy_production: np.ndarray
    relative_entropies: dict[str, np.ndarray]
    support_ok: np.ndarray  # bool

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getitem__(self, k: int) -> ThermoSample:
        k = range(len(self))[k]
        return ThermoSample(
            t=float(self.t[k]),
            energy=float(self.energy[k]),
            work_rate=float(self.work_rate[k]),
            heat_rates={n: float(v[k]) for n, v in self.heat_rates.items()},
            entropy=float(self.entropy[k]),
            entropy_flux={n: float(v[k]) for n, v in self.entropy_flux.items()},
            entropy_production=float(self.entropy_production[k]),
            relative_entropies={n: float(v[k]) for n, v in self.relative_entropies.items()},
            support_ok=bool(self.support_ok[k]),
        )

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def _entropy_and_log(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and support logs of a block of states. Only these leave
    the call, so the block-sized eigenvectors are freed on return: with the
    kernel's flows and images they set the sampler's memory peak at d = 16."""
    own = Spectrum.of(rho)
    return own.entropy(), own.log


def sample_thermodynamics(traj: Trajectory, spec: EvolutionSpec) -> ThermoSamples:
    """The thermodynamic observables at every trajectory point.

    The states are processed in blocks of _BLOCK_ENTRIES // d² points:
    one stacked eigensolve of the states, one stacked stationary image
    and one stacked flow per bath, and traces as einsums. Each bath's
    generator matrix is built once per call, and the baths' stationary
    structures are solved in one pass before the first block.

    The work rate reflects the piecewise-constant schedule: zero except at
    the first grid point at or after a switch, where the impulsive energy
    jump Tr[(H+ - H-) rho] is spread over one step. A point whose state
    leaks off the support of a stationary image is flagged (support_ok
    False, nan flux and production, infinite relative entropy) instead of
    aborting the sweep; at the other points an entropy production whose
    pairing is not real to IMAG_TOL raises NonRealPairing.
    """
    segs = spec.segments()
    hams = np.stack([h for _, h in segs])
    times, states = traj.times, traj.states
    n, d = states.shape[0], states.shape[1]
    seg = np.searchsorted([t for t, _ in segs], times + 1e-15, side="right") - 1
    prev = np.concatenate(([0], seg[:-1]))
    work = np.zeros(n)
    switch = np.flatnonzero(seg != prev)
    work[switch] = _traces(hams[seg[switch]] - hams[prev[switch]], states[switch]) / traj.dt

    names = [b.name for b in spec.baths]
    energy_, entropy = np.empty(n), np.empty(n)
    pairing = np.zeros(n, dtype=complex)
    ok = np.ones(n, dtype=bool)
    heats = {name: np.empty(n) for name in names}
    fluxes = {name: np.empty(n) for name in names}
    rel = {name: np.empty(n) for name in names}
    gens = [generator_superop(b.generator) for b in spec.baths]
    _stationary_structures(spec.baths, gens)
    block = max(1, _BLOCK_ENTRIES // (d * d))
    for lo in range(0, n, block):
        sl = slice(lo, lo + block)
        rho, h = states[sl], hams[seg[sl]]
        energy_[sl] = _traces(h, rho)
        entropy[sl], log_rho = _entropy_and_log(rho)
        for bath, gen in zip(spec.baths, gens):
            terms = _bath_terms(bath, gen, rho, log_rho)
            heats[bath.name][sl] = _traces(h, terms.flow)
            fluxes[bath.name][sl] = np.where(terms.ok, terms.flux, math.nan)
            rel[bath.name][sl] = np.where(terms.ok, terms.relative_entropy, math.inf)
            pairing[sl] += terms.pairing
            ok[sl] &= terms.ok
    production = _production(np.where(ok, pairing, math.nan))
    return ThermoSamples(
        t=times.astype(float),
        energy=energy_,
        work_rate=work,
        heat_rates=heats,
        entropy=entropy,
        entropy_flux=fluxes,
        entropy_production=production,
        relative_entropies=rel,
        support_ok=ok,
    )


def first_law_residuals(samples: ThermoSamples) -> np.ndarray:
    """|dE/dt - W' - sum_b Q_b| by centered differences at interior points.

    Endpoints and points adjacent to a Hamiltonian switch (where the work
    rate is distributional) are nan.
    """
    heat = sum(samples.heat_rates.values(), 0.0)
    return _centered_residuals(samples, samples.energy, samples.work_rate, heat)


def entropy_balance_residuals(samples: ThermoSamples) -> np.ndarray:
    """|dS/dt - sum_b Phi_b - P| by centered differences at interior points:
    the entropy balance, as first_law_residuals is the energy balance.

    The same points are nan: the endpoints and the points adjacent to a
    Hamiltonian switch; so is any residual that reads a point whose flux
    and production a support violation left nan.
    """
    flux = sum(samples.entropy_flux.values(), 0.0)
    return _centered_residuals(samples, samples.entropy, flux, samples.entropy_production)


def _centered_residuals(samples: ThermoSamples, y: np.ndarray, *rates) -> np.ndarray:
    """|dy/dt - sum of rates| by centered differences at interior points,
    each rate (a column, or 0.0) subtracted in turn; nan at the endpoints
    and next to a switch."""
    n = len(samples)
    out = np.full(n, np.nan)
    if n < 3:
        return out
    dt = samples.t[1] - samples.t[0]
    resid = (y[2:] - y[:-2]) / (2.0 * dt)
    for rate in rates:
        resid = resid - np.broadcast_to(rate, (n,))[1:-1]
    switchy = samples.work_rate != 0.0
    near = switchy[:-2] | switchy[1:-1] | switchy[2:]
    out[1:-1] = np.where(near, np.nan, np.abs(resid))
    return out
