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

from .baths import Bath, apply_generator
from .dynamics import _generators
from .errors import InvalidParams
from .operators import (
    Spectrum,
    SuperOperator,
    _apply_each,
    hermitize,
    require_hamiltonian,
    require_operator,
)
from .thermo import _require_support, _state_terms, entropy_production

#: Max |nu_LR| at which the device steady state counts as incoherent.
COHERENCE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ForceFlowPair:
    bath_name: str
    flow: np.ndarray
    force: np.ndarray


def flow(bath: Bath, nu: np.ndarray) -> np.ndarray:
    """J_b = L_b(nu), hermitized."""
    require_operator(nu, "state", bath.dim)
    return hermitize(apply_generator(bath.generator, nu))


def force(bath: Bath, nu: np.ndarray) -> np.ndarray:
    """X_b = log B_b(nu) - log nu, logs taken on the support."""
    return force_flow_pairs([bath], nu)[0].force


def force_flow_pairs(baths: Sequence[Bath], nu: np.ndarray) -> list[ForceFlowPair]:
    """(J_b, X_b) of each bath, with J_b the Hermitian part of L_b(nu)."""
    terms = _state_terms(baths, nu)
    _require_support(baths, terms)
    flows = hermitize(terms.flow)
    return [ForceFlowPair(b.name, j, x) for b, j, x in zip(baths, flows, terms.force)]


def ness_entropy_production(baths: Sequence[Bath], nu: np.ndarray) -> float:
    """P = sum_b Tr[L_b(nu) X_b]: thermo.entropy_production, with the baths first."""
    return entropy_production(nu, baths)


@dataclass(frozen=True, eq=False)
class LinearResponse:
    pairs: dict[tuple[str, str], SuperOperator]
    coupling_constant: float


def linear_response(baths: Sequence[Bath], c: float = 1.0) -> LinearResponse:
    """M_{b,a} = c * L_b . L_a† of every ordered pair, from one batched
    build of the baths' generator matrices (`dynamics._generators`, which
    refuses baths of different dimensions). Each unordered pair is one
    product, and its mirror is the adjoint, so M_{a,b} = M_{b,a}† holds
    exactly."""
    mats = _generators(baths, baths[0].dim if baths else 0)
    adjoints = mats.conj().swapaxes(-1, -2)
    prods = {}
    for i in range(len(mats)):
        for j in range(i, len(mats)):
            prods[i, j] = mats[i] @ adjoints[j]
            prods[i, j] *= c
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
                raise InvalidParams(f"linear response has no entry for pair {key}")
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
    require_operator(nu, "device state", 3)
    if abs(nu[1, 2]) <= COHERENCE_TOL:
        raise InvalidParams("state has no L-R coherence; x_d is undefined")
    log_nu = Spectrum.of(nu).log
    x_l = float((log_nu[1, 2] + log_nu[2, 1]).real)
    return ForceParameters(x_d=-x_l, x_l=x_l)


#: |L><R| + |R><L| in the device basis (|0>, |L>, |R>).
_COHERENCE = np.zeros((3, 3), dtype=complex)
_COHERENCE[1, 2] = _COHERENCE[2, 1] = 1.0


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
    gens = _generators([left_bath, dephasing_bath], require_hamiltonian(hamiltonian, "hamiltonian", 3))
    m_ld, m_dl = _reciprocal_coefficients(hamiltonian[None], gens[:1], gens[1:], c)
    return ReciprocalCoefficients(m_ld=float(m_ld[0]), m_dl=float(m_dl[0]))


def _reciprocal_coefficients(
    hams: np.ndarray, lefts: np.ndarray, dephasings: np.ndarray, c: float
) -> tuple[np.ndarray, np.ndarray]:
    """reciprocal_coefficients (m_ld, m_dl) of each device of a stack: its
    Hamiltonian hams[i] and the built generator matrices of its left and
    dephasing baths, lefts[i] and dephasings[i]; the four images of each
    device are one stacked apply."""
    n = len(hams)
    pairs = np.empty((2 * n, 2, 3, 3), dtype=complex)
    pairs[:, 0] = _COHERENCE
    pairs[:n, 1] = pairs[n:, 1] = hams
    images = _apply_each(np.concatenate([lefts, dephasings]), pairs)
    l_coh, l_h, d_coh, d_h = images[:n, 0], images[:n, 1], images[n:, 0], images[n:, 1]
    m_ld = c * np.einsum("...ij,...ij->...", d_coh.conj(), l_h).real / 2.0
    m_dl = c * np.einsum("...ij,...ij->...", l_coh.conj(), d_h).real / 2.0
    return m_ld, m_dl

