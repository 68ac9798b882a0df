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

The steady-state bookkeeping of any stack of models is one private pass,
`_steady_pass`: the Liouvillians and steady states of `dynamics`, then
each bath's terms at its model's steady state, its heat, and each model's
P, summed over the model's baths by `dynamics._by_point` as
`entropy_production` sums it. The device reports run it between their own
steps (`scenarios._device_pass`).

One per-bath kernel, `_bath_terms`, gives the flux, relative entropy and P
pairing to the scalar functions, `onsager`, the steady pass and
`sample_thermodynamics`, for all the baths of a stacked bath set
(`baths._BathSet`: names, generator matrices and stationary structures)
at once: each bath with its own state (a device report's (bath, nu)
pairs) or all of them with one state or one stack of states; every heat
is `_traces(H, flow)`. The device reports build their set from rates
(`scenarios._device_baths`); the other callers build theirs from public
baths (`baths._bath_set`), which solves each uncached structure on its
own and caches it on its bath (a device bath carries its structure from
its construction), so the kernel solves nothing. The
scalar functions and `onsager.force_flow_pairs` share one one-state
entry, `_state_terms`: the state checks, Hermiticity among them, its
support log, one build of the generator matrices, the set and the
kernel; each caller then decides what a support leak means.
Every state or Hamiltonian
argument goes through one of the two gates of `operators`
(`require_operator`, `require_hamiltonian`) before any numerics, a state
of the one-state entries also through `operators._require_hermitian`; a
spec's Hamiltonians are checked by its `segments`. A refused argument is
InvalidParams; a support leak where a finite answer is needed
(SupportViolation) and an imaginary P (NonRealPairing) are NumericalFailures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .baths import (
    _PASS_ENTRIES,
    Bath,
    _bath_set,
    _BathSet,
    _project,
    apply_generator,
)
from .dynamics import EvolutionSpec, Trajectory, _by_point, _generators, _liouvillian, _steady_states
from .errors import InvalidParams, NonRealPairing, SupportViolation
from .operators import (
    DEFAULT_EIG_CUT,
    Spectrum,
    _apply_each,
    _require_hermitian,
    require_hamiltonian,
    require_operator,
)

#: Max weight a state may carry on the numerical kernel of a reference
#: state before the support condition is declared violated.
SUPPORT_TOL = 1e-10

#: Max imaginary part the entropy-production pairing may pick up, relative
#: to the scale of its rounding, the summed _BathTerms.magnitude.
IMAG_TOL = 1e-10


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
    """Q_b = Tr[H L_b(rho)], positive into the system. InvalidParams where
    it is not finite: H and the bath's rates overflow it (or the
    generator matrix) past the float range."""
    require_operator(rho, "state", require_hamiltonian(h, "hamiltonian"))
    heat = float(_traces(h, apply_generator(bath.generator, rho)))
    if not math.isfinite(heat):
        raise InvalidParams(f"heat rate {heat} of bath {bath.name} is past the float range")
    return heat


def _stationary_log(bset: _BathSet, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log B_b(rho) on the support of B_b(rho), and the weight rho carries
    off that support, for each bath b of the set with its own state or state
    stack rho[b], shape (len(baths), [j,] d, d); a leading axis of length 1
    shares the states between the baths.

    With every n_k = 1, B(rho) = sum_k c_k omega_k with c_k = Tr[J_k rho], so
    log B(rho) = sum of (log c_k Pi_k + log omega_k) over the c_k above
    DEFAULT_EIG_CUT * max c, with no eigensolve per state: one stacked call
    per block stack of the set (`baths.StationaryStructure`). Otherwise the
    image is eigensolved per state.
    """
    d2 = rho.shape[-1] ** 2
    shape = (len(bset.names), *rho.shape[1:])
    stacks = bset.stacks
    if len(stacks) != 1:
        log_b, leak = np.empty(shape, dtype=complex), np.empty(shape[:-2])
    for m, rows, kernel, conserved, blocks, logs in stacks:
        own = rho if len(rho) == 1 else rho[rows]
        if not m:  # no block structure, one bath: its image eigensolved
            _require_hermitian(own, "state")  # as stationary_map
            i = rows.start
            image = _project(kernel[0], conserved[0], bset.gens[i], bset.names[i], bset.tols[i], own[0])
            spec = Spectrum.of(image)
            part, lost = spec.log[None], np.array([spec.leak_of(own[0])])
        else:
            count = len(blocks)
            blocks = blocks.reshape(count, m, d2)
            flat = own.reshape(len(own), -1, d2)
            # Tr[X rho] = sum_ij conj(X)_ij rho_ij for Hermitian X
            c = (flat @ conserved.reshape(count, m, d2).conj().swapaxes(-1, -2)).real
            keep = c > DEFAULT_EIG_CUT * c.max(axis=-1, keepdims=True)
            log_c = np.log(c, out=np.zeros(c.shape), where=keep)
            logs = logs.reshape(count, m, d2)
            part = (log_c @ blocks + keep.astype(float) @ logs).reshape(count, *shape[1:])
            kept = ((flat @ blocks.conj().swapaxes(-1, -2)).real * keep).sum(axis=-1)
            # the traces as one einsum: ndarray.trace is ~5x slower on a stack
            lost = np.einsum("...ii->...", own).real - kept.reshape(count, *shape[1:-2])
        if len(stacks) == 1:
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

    @property
    def magnitude(self) -> np.ndarray:
        """sum_ij |L_b(rho)_ij| (|log B_b(rho)|_ji + |log rho|_ji), the scale
        of the pairing's rounding: X_b's two logs are each Hermitian only to
        their own rounding, which a small X_b (rho near B_b(rho)) keeps."""
        mag = np.abs(self.log_b) + np.abs(self.log_rho)
        return np.einsum("...ij,...ji->...", np.abs(self.flow), mag)


def _bath_terms(bset: _BathSet, rho: np.ndarray, log_rho: np.ndarray) -> _BathTerms:
    """The per-bath kernel, for all the baths of a set at once: one flow
    L_b(rho) from the set's generator matrices, one log B_b(rho) from its
    block stacks, and one support leak. Each bath b has its own state or
    state stack rho[b], with its support log log_rho[b] (a leading axis of
    length 1 shares them); bath b's terms are the same, bit for bit, as in
    a call for b alone."""
    flow = _apply_each(bset.gens, rho)
    log_b, leak = _stationary_log(bset, rho)
    force = log_b - log_rho
    pairing = np.einsum("...ij,...ji->...", flow, force)
    return _BathTerms(flow, force, pairing, leak, leak <= SUPPORT_TOL, rho, log_rho, log_b)


def _state_terms(baths, rho: np.ndarray) -> _BathTerms:
    """_bath_terms of one state rho for each of the baths: the one-state
    entry of the scalar functions and `onsager.force_flow_pairs`. It gates
    rho, Hermitian to `operators._require_hermitian` whatever the baths'
    structures, checks that the baths have its dimension, builds their
    generator matrices once, takes the support log of rho and builds their
    set (`baths._bath_set`), which solves each uncached structure on its
    own; the caller decides what a support leak means."""
    d = require_operator(rho, "state")
    _require_hermitian(rho, "state")
    gens = _generators(baths, d)
    log_rho = Spectrum.of(rho).log
    return _bath_terms(_bath_set(baths, gens), rho[None], log_rho[None])


def _require_support(names, terms: _BathTerms) -> None:
    """SupportViolation for the first bath, by names, whose state leaks off its support."""
    bad = np.flatnonzero(~terms.ok)
    if len(bad):
        raise SupportViolation(
            f"state has weight {terms.leak[bad[0]]:.3e} outside supp(B(rho)) for bath {names[bad[0]]}"
        )


def _can_bind(pairing: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Where _production's bound can bind: |Im P| > IMAG_TOL size / 2."""
    return abs(pairing.imag) > 0.5 * IMAG_TOL * size


def _production(pairing: np.ndarray, size: np.ndarray, magnitude: Callable[[], np.ndarray]) -> np.ndarray:
    """P, the real part of the summed pairing sum_b Tr[L_b(rho) X_b] of one
    state or of a stack; NonRealPairing if its imaginary part exceeds
    IMAG_TOL times the summed _BathTerms.magnitude at a point.

    That magnitude bounds size, the summed |Tr[L_b(rho) X_b]|, so it is
    formed only where it can bind (`_can_bind`): magnitude() is called only
    if some point has |Im P| > IMAG_TOL size / 2, and only its entries at
    those points are read. The half keeps the rounding of size and of the
    magnitude from clearing a point that the full bound refuses."""
    imag = abs(pairing.imag)
    near = _can_bind(pairing, size)
    if near.any():
        mag = magnitude()
        bad = near & (imag > IMAG_TOL * mag)
        if bad.any():
            at = np.ravel(np.where(bad, imag, 0.0)).argmax()
            raise NonRealPairing(f"entropy production picked up imaginary part {np.ravel(imag)[at]:.3e} "
                                 f"> tol {IMAG_TOL:.1e} * {np.ravel(mag)[at]:.3e}")
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
    _require_support([bath.name], terms)
    return float(terms.flux[0])


def entropy_production(rho: np.ndarray, baths) -> float:
    """P = sum_b Tr[L_b(rho) X_b] >= 0, with the force
    X_b = log B_b(rho) - log rho."""
    terms = _state_terms(baths, rho)
    _require_support([b.name for b in baths], terms)
    return float(_point_production(terms, np.zeros(len(baths), int), 1)[0])


def _point_production(terms: _BathTerms, point: np.ndarray, n: int) -> np.ndarray:
    """P of each of n models from its baths' terms, those with point[b] = p:
    `_production` of their pairings, of the pairings' moduli and of their
    magnitudes, each summed from 0 in bath order (`dynamics._by_point`), so
    that no baths sum to 0.0."""
    pairing, size = (_by_point(np.zeros(n, a.dtype), a, point) for a in (terms.pairing, abs(terms.pairing)))
    return _production(pairing, size, lambda: _by_point(np.zeros(n), terms.magnitude, point))


def _steady_pass(hams: np.ndarray, bset: _BathSet, point: np.ndarray) -> tuple[np.ndarray, ...]:
    """The steady-state bookkeeping of a stack of n models, whatever their
    baths: model p has the Hamiltonian hams[p] and the baths b of the set
    with point[b] = p, in set order. Each step runs once for the stack:
    the Liouvillians (`dynamics._liouvillian`), one kernel solve and the
    steady states nu (`dynamics._steady_states`), log nu from each steady
    state's eigensolve, one `_bath_terms` call on the (bath, nu) pairs,
    the support check, each bath's heat Tr[H L_b(nu)] and each model's P
    (`_point_production`). Returns every model's kernel dimension, then
    (nu, log_nu, heats, production): the steady state, its log and P of
    each model, in stack order, and the heat of each bath, in set order.

    If a model's kernel is not one-dimensional the pass stops after the
    kernel solve and returns the dimensions alone: the caller sets those
    models aside (DegenerateKernel) and runs the pass again without them.
    Any other failure raises the error of the first failing model, or bath
    in set order, at the earliest failing step. Each model's entries are
    the same, bit for bit, alone or in a stack."""
    dims, *solved = _steady_states(_liouvillian(hams, bset.gens, point))
    if not solved:
        return dims,
    nu, log_nu = solved[0], Spectrum.of_eigh(*solved[1:]).log
    terms = _bath_terms(bset, nu[point], log_nu[point])
    _require_support(bset.names, terms)
    return dims, nu, log_nu, _traces(hams[point], terms.flow), _point_production(terms, point, len(hams))


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

    The states are processed in blocks of baths._PASS_ENTRIES // d² points:
    one stacked eigensolve of the states, one _bath_terms call for all the
    baths, and traces as einsums. The baths' generator matrices are built
    once per call, and each uncached stationary structure is solved on its
    own before the first block. Only a bath without blocks gates
    the states' Hermiticity (`_stationary_log`): `propagate` returns them
    exactly Hermitian.

    The work rate reflects the piecewise-constant schedule: zero except at
    the first grid point at or after a switch, where the impulsive energy
    jump Tr[(H+ - H-) rho] is spread over one step. A point whose state
    leaks off the support of a stationary image is flagged (support_ok
    False, nan flux and production, infinite relative entropy) instead of
    aborting the sweep; at the other points an entropy production whose
    pairing is not real to IMAG_TOL (relative) raises NonRealPairing. A spec of
    another dimension than the states raises InvalidParams first.
    """
    segs = spec.segments
    times, states = traj.times, traj.states
    n, d = states.shape[0], states.shape[1]
    if spec.dim != d:
        raise InvalidParams(f"spec dim {spec.dim} does not match trajectory dim {d}")
    hams = np.stack([h for _, h in segs])
    seg = np.searchsorted([t for t, _ in segs], times + 1e-15, side="right") - 1
    prev = np.concatenate(([0], seg[:-1]))
    work = np.zeros(n)
    switch = np.flatnonzero(seg != prev)
    work[switch] = _traces(hams[seg[switch]] - hams[prev[switch]], states[switch]) / traj.dt

    names = [b.name for b in spec.baths]
    energy_, entropy = np.empty(n), np.empty(n)
    pairing = np.zeros(n, dtype=complex)
    size, magnitude = np.zeros(n), np.zeros(n)
    ok = np.ones(n, dtype=bool)
    heats = {name: np.empty(n) for name in names}
    fluxes = {name: np.empty(n) for name in names}
    rel = {name: np.empty(n) for name in names}
    gens = _generators(spec.baths, d)
    sets = [_bath_set([bath], gens[i:i + 1]) for i, bath in enumerate(spec.baths)]  # once, not per block
    block = max(1, _PASS_ENTRIES // (d * d))
    for lo in range(0, n, block):
        sl = slice(lo, lo + block)
        rho, h = states[sl], hams[seg[sl]]
        energy_[sl] = _traces(h, rho)
        entropy[sl], log_rho = _entropy_and_log(rho)
        held = []  # the block's terms, until its pairing is known
        for i, name in enumerate(names):
            # one bath at a time: a block's flows and logs for every bath at
            # once would not fit the cache at d = 3
            terms = _bath_terms(sets[i], rho[None], log_rho[None])
            bath_ok = terms.ok[0]
            heats[name][sl] = _traces(h, terms.flow[0])
            fluxes[name][sl] = np.where(bath_ok, terms.flux[0], math.nan)
            rel[name][sl] = np.where(bath_ok, terms.relative_entropy[0], math.inf)
            pairing[sl] += terms.pairing[0]
            size[sl] += abs(terms.pairing[0])
            ok[sl] &= bath_ok
            held.append(terms)
        if _can_bind(pairing[sl], size[sl]).any():
            for terms in held:
                magnitude[sl] += terms.magnitude[0]
    production = _production(np.where(ok, pairing, math.nan), size, lambda: magnitude)
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
