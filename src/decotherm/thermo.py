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

The scalar functions take one state. `sample_thermodynamics` evaluates the
same quantities along a whole trajectory, a block of states at a time,
with the stacked forms of the same helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baths import (
    Bath,
    _stationary_structure,
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
    hermitize,
    hs_inner,
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


def heat_rate(h: np.ndarray, bath: Bath, rho: np.ndarray) -> float:
    """Q_b = Tr[H L_b(rho)], positive into the system."""
    require_same_dim(h, rho)
    require_hermitian(h, what="hamiltonian")
    return float(np.trace(h @ apply_generator(bath.generator, rho)).real)


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


def _supported_log(bath: Bath, rho: np.ndarray) -> np.ndarray:
    """log B(rho) of one state; SupportViolation if rho leaks off its support."""
    log_b, leak = _stationary_log(bath, rho)
    if leak > SUPPORT_TOL:
        raise SupportViolation(
            f"state has weight {leak:.3e} outside supp(B(rho)) for bath {bath.name}"
        )
    return log_b


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S = -sum lambda ln lambda over the spectrum above the support cut."""
    return float(Spectrum.of(rho).entropy())


def relative_entropy_to_bath(rho: np.ndarray, bath: Bath) -> float:
    """R = Tr[rho log rho] - Tr[rho log B(rho)]; zero exactly at equilibrium.

    Returns +inf when supp(rho) is not contained in supp(B(rho)).
    """
    log_b, leak = _stationary_log(bath, rho)
    if leak > SUPPORT_TOL:
        return math.inf
    log_rho = Spectrum.of(rho).log
    return float(np.trace(rho @ (log_rho - log_b)).real)


def entropy_flux(bath: Bath, rho: np.ndarray) -> float:
    """Phi_b = -Tr[L_b(rho) log B_b(rho)], positive into the system."""
    log_b = _supported_log(bath, rho)
    return float(-np.trace(apply_generator(bath.generator, rho) @ log_b).real)


def entropy_production(rho: np.ndarray, baths) -> float:
    """P = sum_b Tr[J_b X_b] >= 0, with the flow J_b the Hermitian part of
    L_b(rho) and the force X_b = log B_b(rho) - log rho."""
    require_square(rho, "state")
    gens = [generator_superop(b.generator) for b in baths]
    return _production(_flows_and_forces(baths, gens, rho, Spectrum.of(rho).log))


def _flows_and_forces(
    baths, gens: list[SuperOperator], rho: np.ndarray, log_rho: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(L_b(rho), J_b, X_b) of each bath from its built generator matrix,
    which also gives the bath's stationary structure."""
    out = []
    for bath, gen in zip(baths, gens):
        image = gen.apply(rho)
        _stationary_structure(bath, gen)
        out.append((image, hermitize(image), _supported_log(bath, rho) - log_rho))
    return out


def _production(terms) -> float:
    """sum_b Tr[J_b X_b] over _flows_and_forces terms; NonRealPairing if the
    sum picks up an imaginary part above IMAG_TOL."""
    total = sum((hs_inner(j, x) for _, j, x in terms), 0j)
    if abs(total.imag) > IMAG_TOL:
        raise NonRealPairing(f"entropy production picked up imaginary part {total.imag:.3e}")
    return float(total.real)


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


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr[a b] for each pair of a stack."""
    return np.einsum("...ij,...ji->...", a, b).real


# The two helpers below return only per-point values and the log, so the
# block-sized eigenvectors, flows and images they make are freed on return:
# these temporaries set the sampler's memory peak at d = 16.

def _entropy_and_log(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropies and support logs of a block of states."""
    own = Spectrum.of(rho)
    return own.entropy(), own.log


def _bath_terms(
    bath: Bath, gen: SuperOperator, rho: np.ndarray, h: np.ndarray, log_rho: np.ndarray
):
    """Heat, entropy flux, relative entropy, entropy-production term and
    support leak of one bath, with generator gen, over a block of states."""
    flow = gen.apply(rho)
    _stationary_structure(bath, gen)
    log_b, leak = _stationary_log(bath, rho)
    return (
        _traces(h, flow),
        -_traces(flow, log_b),
        _traces(rho, log_rho - log_b),
        _traces(flow, log_b - log_rho),
        leak,
    )


def sample_thermodynamics(traj: Trajectory, spec: EvolutionSpec) -> ThermoSamples:
    """The thermodynamic observables at every trajectory point.

    The states are processed in blocks of _BLOCK_ENTRIES // d² points:
    one stacked eigensolve of the states, one stacked stationary image
    and one stacked flow per bath, and traces as einsums. Each bath's
    generator matrix is built once per call.

    The work rate reflects the piecewise-constant schedule: zero except at
    the first grid point at or after a switch, where the impulsive energy
    jump Tr[(H+ - H-) rho] is spread over one step. A point whose state
    leaks off the support of a stationary image is flagged (support_ok
    False, nan flux and production, infinite relative entropy) instead of
    aborting the sweep.
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
    production = np.zeros(n)
    ok = np.ones(n, dtype=bool)
    heats = {name: np.empty(n) for name in names}
    fluxes = {name: np.empty(n) for name in names}
    rel = {name: np.empty(n) for name in names}
    gens = [generator_superop(b.generator) for b in spec.baths]
    block = max(1, _BLOCK_ENTRIES // (d * d))
    for lo in range(0, n, block):
        sl = slice(lo, lo + block)
        rho, h = states[sl], hams[seg[sl]]
        energy_[sl] = _traces(h, rho)
        entropy[sl], log_rho = _entropy_and_log(rho)
        for bath, gen in zip(spec.baths, gens):
            heats[bath.name][sl], fluxes[bath.name][sl], rel[bath.name][sl], prod, leak = (
                _bath_terms(bath, gen, rho, h, log_rho)
            )
            production[sl] += prod
            off = leak > SUPPORT_TOL
            ok[sl] &= ~off
            fluxes[bath.name][sl][off] = math.nan
            rel[bath.name][sl][off] = math.inf
    production[~ok] = math.nan
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
    n = len(samples)
    out = np.full(n, np.nan)
    if n < 3:
        return out
    dt = samples.t[1] - samples.t[0]
    e, w = samples.energy, samples.work_rate
    q = 0.0
    for col in samples.heat_rates.values():
        q = q + col
    resid = np.abs((e[2:] - e[:-2]) / (2.0 * dt) - w[1:-1] - np.broadcast_to(q, (n,))[1:-1])
    switchy = w != 0.0
    near = switchy[:-2] | switchy[1:-1] | switchy[2:]
    out[1:-1] = np.where(near, np.nan, resid)
    return out
