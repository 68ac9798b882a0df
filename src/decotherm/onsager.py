"""Steady-state flows and forces, linear-response super-operators, and
reciprocal transport/decoherence coefficients.

At a non-equilibrium steady state nu, each bath b carries a flow
J_b = L_b(nu) and a force X_b = log B_b(nu) - log nu; their Hilbert-
Schmidt pairing sums to the entropy production rate. The linear-response
map M_{b,a} = c * L_b . L_a† predicts flows from forces and satisfies the
reciprocity M_{b,a} = M_{a,b}† exactly by construction. The constant c is
an explicit parameter (default 1); reciprocity and the coefficient
equality below do not depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .baths import Bath, apply_generator, generator_superop
from .errors import DimensionMismatch, MissingPair, ZeroCoherence
from .operators import Spectrum, SuperOperator, hermitize, hs_inner, require_square
from .thermo import _flows_and_forces, _supported_log, entropy_production

#: Max |nu_LR| at which the device steady state counts as incoherent.
COHERENCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ForceFlowPair:
    bath_name: str
    flow: np.ndarray
    force: np.ndarray


def flow(bath: Bath, nu: np.ndarray) -> np.ndarray:
    """J_b = L_b(nu), hermitized."""
    if nu.shape != (bath.dim, bath.dim):
        raise DimensionMismatch(f"state shape {nu.shape} does not match bath dim {bath.dim}")
    return hermitize(apply_generator(bath.generator, nu))


def force(bath: Bath, nu: np.ndarray) -> np.ndarray:
    """X_b = log B_b(nu) - log nu, logs taken on the support."""
    if nu.shape != (bath.dim, bath.dim):
        raise DimensionMismatch(f"state shape {nu.shape} does not match bath dim {bath.dim}")
    log_nu = Spectrum.of(nu).log
    return _supported_log(bath, nu) - log_nu


def force_flow_pairs(baths: Sequence[Bath], nu: np.ndarray) -> list[ForceFlowPair]:
    require_square(nu, "state")
    gens = [generator_superop(b.generator) for b in baths]
    terms = _flows_and_forces(baths, gens, nu, Spectrum.of(nu).log)
    return [ForceFlowPair(b.name, j, x) for b, (_, j, x) in zip(baths, terms)]


def ness_entropy_production(baths: Sequence[Bath], nu: np.ndarray) -> float:
    """P = sum_b Tr[J_b X_b]: thermo.entropy_production, with the baths first."""
    return entropy_production(nu, baths)


def onsager_superop(b: Bath, a: Bath, c: float = 1.0) -> SuperOperator:
    """M_{b,a}: X -> c * L_b(L_a†(X)), with L_a† the Heisenberg adjoint."""
    if b.dim != a.dim:
        raise DimensionMismatch(f"bath dims differ: {b.dim} vs {a.dim}")
    sb = generator_superop(b.generator)
    sa = generator_superop(a.generator)
    return SuperOperator(b.dim, c * (sb.matrix @ sa.matrix.conj().T))


@dataclass(frozen=True, eq=False)
class LinearResponse:
    pairs: dict[tuple[str, str], SuperOperator]
    coupling_constant: float


def linear_response(baths: Sequence[Bath], c: float = 1.0) -> LinearResponse:
    """M_{b,a} of every ordered pair, from one generator_superop per bath;
    each pair equals onsager_superop(b, a, c). Each unordered pair is one
    product, and its mirror is the adjoint, so M_{a,b} = M_{b,a}† holds
    exactly."""
    dims = {b.dim for b in baths}
    if len(dims) > 1:
        raise DimensionMismatch(f"bath dims differ: {sorted(dims)}")
    mats = [generator_superop(b.generator).matrix for b in baths]
    prods = {(i, j): c * (mats[i] @ mats[j].conj().T)
             for i in range(len(mats)) for j in range(i, len(mats))}
    pairs = {
        (b.name, a.name): SuperOperator(b.dim, prods[i, j] if i <= j else prods[j, i].conj().T)
        for i, b in enumerate(baths)
        for j, a in enumerate(baths)
    }
    return LinearResponse(pairs, c)


def linear_flow_prediction(
    lr: LinearResponse, forces: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """J_b ~ sum_a M_{b,a}(X_a) over the named baths."""
    out: dict[str, np.ndarray] = {}
    for b_name in forces:
        total = None
        for a_name, x_a in forces.items():
            key = (b_name, a_name)
            if key not in lr.pairs:
                raise MissingPair(f"linear response has no entry for pair {key}")
            term = lr.pairs[key].apply(x_a)
            total = term if total is None else total + term
        out[b_name] = total
    return out


class ForceParameters(NamedTuple):
    x_d: float
    x_l: float


def force_parameters(nu: np.ndarray) -> ForceParameters:
    """Scalar force parameters of the three-level device steady state.

    x_l = <L|log nu|R> + <R|log nu|L> (real for Hermitian nu). x_d is the
    L-R off-diagonal content of the dephasing force X_d = log B_d(nu) -
    log nu; since the pinched state's log is diagonal, x_d = -x_l.
    """
    if nu.shape != (3, 3):
        raise DimensionMismatch(f"force parameters need a 3x3 device state, got {nu.shape}")
    if abs(nu[1, 2]) <= COHERENCE_TOL:
        raise ZeroCoherence("state has no L-R coherence; x_d is undefined")
    return _force_parameters(Spectrum.of(nu).log)


def _force_parameters(log_nu: np.ndarray) -> ForceParameters:
    """force_parameters from log nu of a coherent device steady state."""
    x_l = float((log_nu[1, 2] + log_nu[2, 1]).real)
    return ForceParameters(x_d=-x_l, x_l=x_l)


class ReciprocalCoefficients(NamedTuple):
    m_ld: float
    m_dl: float


def reciprocal_coefficients(
    hamiltonian: np.ndarray,
    left_bath: Bath,
    dephasing_bath: Bath,
    c: float = 1.0,
) -> ReciprocalCoefficients:
    """Coefficients coupling H to the (|L><R| + |R><L|) sector of the two
    cross compositions L_d†(L_l(H)) and L_l†(L_d(H)).

    Both equal c * gamma * n_L * V; their equality is the reciprocity of
    decoherence and transport. Each is taken in the Schrodinger picture,
    <coh, L_a†(L_b(H))> = <L_a(coh), L_b(H)>.
    """
    gens = [generator_superop(b.generator) for b in (left_bath, dephasing_bath)]
    return _reciprocal_coefficients(hamiltonian, *gens, c)


def _reciprocal_coefficients(
    hamiltonian: np.ndarray, left: SuperOperator, dephasing: SuperOperator, c: float
) -> ReciprocalCoefficients:
    """reciprocal_coefficients from the two baths' built generator matrices."""
    coh = np.zeros((3, 3), dtype=complex)
    coh[1, 2] = coh[2, 1] = 1.0
    pair = np.stack([coh, hamiltonian])
    l_coh, l_h = left.apply(pair)
    d_coh, d_h = dephasing.apply(pair)
    m_ld = c * float(hs_inner(d_coh, l_h).real) / 2.0
    m_dl = c * float(hs_inner(l_coh, d_h).real) / 2.0
    return ReciprocalCoefficients(m_ld=m_ld, m_dl=m_dl)
