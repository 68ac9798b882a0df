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
pairing to the scalar functions, `onsager`, the device reports and
`sample_thermodynamics`, for all of a call's baths at once: each bath with
its own state (a device report's (bath, nu) pairs) or all of them with one
state or one stack of states; every heat is `_traces(H, flow)`. Each of
those callers first solves all its baths' stationary structures in one
stacked pass (`baths._stationary_structures`), so the kernel solves
nothing. The scalar functions and `onsager.force_flow_pairs` share one
one-state entry, `_state_terms`: the state checks, its support log, one
build of the generator matrices, that pass and the kernel; each caller
then decides what a support leak means. Every state or Hamiltonian
argument goes through one of the two gates of `operators`
(`require_operator`, `require_hamiltonian`) before any numerics; a spec's
Hamiltonians are checked by its `segments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .baths import (
    Bath,
    _rows,
    _stationary_structures,
    apply_generator,
    stationary_map,
    stationary_structure,
)
from .dynamics import EvolutionSpec, Trajectory, _generators
from .errors import DimensionMismatch, NonRealPairing, SupportViolation
from .operators import (
    DEFAULT_EIG_CUT,
    Spectrum,
    _apply_each,
    require_hamiltonian,
    require_operator,
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
    require_operator(rho, "state", require_hamiltonian(h, "hamiltonian"))
    return float(np.trace(h @ rho).real)


def work_rate(h_dot: np.ndarray, rho: np.ndarray) -> float:
    """W' = Tr[dH/dt rho]; identically zero for a static Hamiltonian."""
    require_operator(rho, "state", require_hamiltonian(h_dot, "hamiltonian derivative"))
    return float(np.trace(h_dot @ rho).real)


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[a b] for each pair of a stack."""
    return np.einsum("...ij,...ji->...", a, b).real


def heat_rate(h: np.ndarray, bath: Bath, rho: np.ndarray) -> float:
    """Q_b = Tr[H L_b(rho)], positive into the system."""
    require_operator(rho, "state", require_hamiltonian(h, "hamiltonian"))
    return float(_traces(h, apply_generator(bath.generator, rho)))


def _stationary_log(baths, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log B_b(rho) on the support of B_b(rho), and the weight rho carries
    off that support, for each bath b of baths with its own state or state
    stack rho[b], shape (len(baths), [j,] d, d); a leading axis of length 1
    shares the states between the baths.

    With every n_k = 1, B(rho) = sum_k c_k omega_k with c_k = Tr[J_k rho], so
    log B(rho) = sum of (log c_k Pi_k + log omega_k) over the c_k above
    DEFAULT_EIG_CUT * max c, with no eigensolve per state: one stacked call
    per block count for all the baths that have it. Otherwise the image is
    eigensolved per state.
    """
    structs = [stationary_structure(b) for b in baths]
    d2 = rho.shape[-1] ** 2
    shape = (len(baths), *rho.shape[1:])
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(structs):
        groups.setdefault(0 if s.blocks is None else len(s.blocks), []).append(i)
    if len(groups) != 1:
        log_b, leak = np.empty(shape, dtype=complex), np.empty(shape[:-2])
    for m, at in groups.items():
        rows = _rows(np.array(at))
        own = rho if len(rho) == 1 else rho[rows]
        if not m:  # no block structure: each image eigensolved
            shared = np.broadcast_to(own, (len(at), *own.shape[1:]))
            specs = [Spectrum.of(stationary_map(baths[i], x)) for i, x in zip(at, shared)]
            part = np.array([spec.log for spec in specs])
            lost = np.array([spec.leak_of(x) for spec, x in zip(specs, shared)])
        else:
            blocks = np.array([structs[i].blocks for i in at]).reshape(len(at), m, d2)
            flat = own.reshape(len(own), -1, d2)
            # Tr[X rho] = sum_ij conj(X)_ij rho_ij for Hermitian X
            conserved = np.array([structs[i].conserved for i in at]).reshape(len(at), m, d2)
            c = (flat @ conserved.conj().swapaxes(-1, -2)).real
            keep = c > DEFAULT_EIG_CUT * c.max(axis=-1, keepdims=True)
            log_c = np.log(c, out=np.zeros(c.shape), where=keep)
            logs = np.array([structs[i].logs for i in at]).reshape(len(at), m, d2)
            part = (log_c @ blocks + keep.astype(float) @ logs).reshape(len(at), *shape[1:])
            kept = ((flat @ blocks.conj().swapaxes(-1, -2)).real * keep).sum(axis=-1)
            lost = own.trace(axis1=-2, axis2=-1).real - kept.reshape(len(at), *shape[1:-2])
        if len(groups) == 1:
            return part, lost
        log_b[rows], leak[rows] = part, lost
    return log_b, leak


class _BathTerms(NamedTuple):
    """Each bath's terms over its state (scalars) or state stack (arrays),
    stacked along a leading bath axis; the flux and relative entropy are
    formed when read."""

    flow: np.ndarray  # L_b(rho)
    force: np.ndarray  # X_b = log B_b(rho) - log rho
    pairing: np.ndarray  # Tr[L_b(rho) X_b], complex: _production checks it
    leak: np.ndarray  # weight of rho off supp(B_b(rho))
    ok: np.ndarray  # leak <= SUPPORT_TOL
    rho: np.ndarray
    log_rho: np.ndarray
    log_b: np.ndarray  # log B_b(rho)

    @property
    def flux(self) -> np.ndarray:
        """-Tr[L_b(rho) log B_b(rho)], where ok."""
        return -_traces(self.flow, self.log_b)

    @property
    def relative_entropy(self) -> np.ndarray:
        """Tr[rho (log rho - log B_b(rho))], where ok."""
        return _traces(self.rho, self.log_rho - self.log_b)


def _bath_terms(baths, gens: np.ndarray, rho: np.ndarray, log_rho: np.ndarray) -> _BathTerms:
    """The per-bath kernel, for all the baths at once: one flow L_b(rho)
    from gens, the stack of their generator matrices, one log B_b(rho) from
    each bath's stationary structure, which the caller has solved, and one
    support leak. Each bath b has its own state or state stack rho[b], with
    its support log log_rho[b] (a leading axis of length 1 shares them);
    bath b's terms are the same, bit for bit, as in a call for b alone."""
    flow = _apply_each(gens, rho)
    log_b, leak = _stationary_log(baths, rho)
    force = log_b - log_rho
    pairing = np.einsum("...ij,...ji->...", flow, force)
    return _BathTerms(flow, force, pairing, leak, leak <= SUPPORT_TOL, rho, log_rho, log_b)


def _state_terms(baths, rho: np.ndarray) -> _BathTerms:
    """_bath_terms of one state rho for each of the baths: the one-state
    entry of the scalar functions and `onsager.force_flow_pairs`. It gates
    rho, checks that the baths have its dimension, builds their generator
    matrices once, takes the support log of rho and solves their stationary
    structures in one pass; the caller decides what a support leak means."""
    gens = _generators(baths, require_operator(rho, "state"))
    log_rho = Spectrum.of(rho).log
    _stationary_structures(baths, gens)
    return _bath_terms(baths, gens, rho[None], log_rho[None])


def _require_support(baths, terms: _BathTerms) -> None:
    """SupportViolation for the first bath whose state leaks off its support."""
    bad = np.flatnonzero(~terms.ok)
    if len(bad):
        raise SupportViolation(
            f"state has weight {terms.leak[bad[0]]:.3e} outside supp(B(rho)) for bath {baths[bad[0]].name}"
        )


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
    require_operator(rho, "state")
    return float(Spectrum.of(rho).entropy())


def relative_entropy_to_bath(rho: np.ndarray, bath: Bath) -> float:
    """R = Tr[rho log rho] - Tr[rho log B(rho)]; zero exactly at equilibrium.

    Returns +inf when supp(rho) is not contained in supp(B(rho)).
    """
    terms = _state_terms([bath], rho)
    return float(terms.relative_entropy[0]) if terms.ok[0] else math.inf


def entropy_flux(bath: Bath, rho: np.ndarray) -> float:
    """Phi_b = -Tr[L_b(rho) log B_b(rho)], positive into the system."""
    terms = _state_terms([bath], rho)
    _require_support([bath], terms)
    return float(terms.flux[0])


def entropy_production(rho: np.ndarray, baths) -> float:
    """P = sum_b Tr[L_b(rho) X_b] >= 0, with the force
    X_b = log B_b(rho) - log rho."""
    terms = _state_terms(baths, rho)
    _require_support(baths, terms)
    # from a complex zero: an empty pairing sums to 0.0, not to the int 0
    return float(_production(sum(terms.pairing, np.complex128(0))))


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
    one stacked eigensolve of the states, one _bath_terms call for all the
    baths, and traces as einsums. The baths' generator matrices are built
    once per call, and their stationary structures are solved in one pass
    before the first block.

    The work rate reflects the piecewise-constant schedule: zero except at
    the first grid point at or after a switch, where the impulsive energy
    jump Tr[(H+ - H-) rho] is spread over one step. A point whose state
    leaks off the support of a stationary image is flagged (support_ok
    False, nan flux and production, infinite relative entropy) instead of
    aborting the sweep; at the other points an entropy production whose
    pairing is not real to IMAG_TOL raises NonRealPairing. A spec of
    another dimension than the states raises DimensionMismatch first.
    """
    segs = spec.segments
    times, states = traj.times, traj.states
    n, d = states.shape[0], states.shape[1]
    if spec.dim != d:
        raise DimensionMismatch(f"spec dim {spec.dim} does not match trajectory dim {d}")
    hams = np.stack([h for _, h in segs])
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
    gens = _generators(spec.baths, d)
    _stationary_structures(spec.baths, gens)
    block = max(1, _BLOCK_ENTRIES // (d * d))
    for lo in range(0, n, block):
        sl = slice(lo, lo + block)
        rho, h = states[sl], hams[seg[sl]]
        energy_[sl] = _traces(h, rho)
        entropy[sl], log_rho = _entropy_and_log(rho)
        for i, (bath, name) in enumerate(zip(spec.baths, names)):
            # one bath at a time: a block's flows and logs for every bath at
            # once would not fit the cache at d = 3
            terms = _bath_terms([bath], gens[i:i + 1], rho[None], log_rho[None])
            bath_ok = terms.ok[0]
            heats[name][sl] = _traces(h, terms.flow[0])
            fluxes[name][sl] = np.where(bath_ok, terms.flux[0], math.nan)
            rel[name][sl] = np.where(bath_ok, terms.relative_entropy[0], math.inf)
            pairing[sl] += terms.pairing[0]
            ok[sl] &= bath_ok
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
