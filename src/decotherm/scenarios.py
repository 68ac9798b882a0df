"""Preassembled model scenarios: two-level decoherence heat and the
three-level transport device with reciprocal transport/decoherence
coefficients.

Two-level conventions: basis order (|0>, |1>), sigma_x = |0><1| + |1><0|,
sigma_z = |0><0| - |1><1|, state rho = (I + x sigma_x + z sigma_z)/2. The
scenario Hamiltonian is H = E |E><E| with |E> = (|0> + |1>)/sqrt(2), the
preferred basis of the dephasing bath is the computational basis; the
resulting heat rate is -gamma*E*x (magnitude gamma*E*|x|, independent
of z).

Device conventions: basis order (|0>, |L>, |R>), E_0 = 0, H = E_L |L><L|
+ E_R |R><R| + (V/2)(|L><R| + |R><L|). The dephasing bath acts on the
|L>, |R> projectors only; its stationary map is still the full pinching
in the device basis.

Device reports have one implementation, `device_reports`, which runs each
step once for all the baths of all its points; `device_report` is its
one-point call and `gamma_sweep` one call over the sweep's points. The
steady-state steps (Liouvillians, kernel solve, steady states, per-bath
terms, heats and P) are the one steady pass of any model,
`thermo._steady_pass`; a device pass keeps only its own steps around it.
Before it: the points' baths as one stacked set (`baths._BathSet`) with
no Bath, generator matrices linear in the rates over the device's cached
unit generators and stationary structures in closed form from the same
rates (`_device_baths`), and the block residual check of those
structures. After it: x_l from log nu and the reciprocal coefficients.
The public constructors (`build_device`, `left_pump_bath`, ...) build the
same baths, and cache the same structures, bit for bit, for callers that
want Bath objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .baths import (
    _PASS_ENTRIES,
    Bath,
    _BathSet,
    _device_set,
    _frobenius,
    _require_blocks,
    _require_occupation,
    _require_rate,
    _three_level_bath,
    dephasing_bath,
    left_pump_bath,
    right_pump_bath,
)
from .dynamics import _degenerate_kernel
from .errors import DegenerateKernel, InvalidParams
from .onsager import COHERENCE_TOL, _reciprocal_coefficients
from .thermo import _steady_pass, heat_rate

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Max excess of a Bloch vector's squared length over 1.
BLOCH_TOL = 1e-12


def bloch_state(x: float, y: float = 0.0, z: float = 0.0) -> np.ndarray:
    r2 = x * x + y * y + z * z
    if not r2 <= 1.0 + BLOCH_TOL:
        raise InvalidParams(f"Bloch vector length {math.sqrt(r2):.6f} exceeds 1")
    return 0.5 * (np.eye(2, dtype=complex) + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


# ---------------------------------------------------------------------------
# two-level decoherence heat
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TwoLevelDecoherenceParams:
    gamma: float
    e_level: float
    x: float
    z: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0:
            raise InvalidParams(f"gamma must be > 0, got {self.gamma}")
        if not math.isfinite(self.e_level):
            raise InvalidParams(f"e_level must be finite, got {self.e_level}")
        if not self.x * self.x + self.z * self.z <= 1.0 + BLOCH_TOL:
            raise InvalidParams(
                f"(x, z) = ({self.x}, {self.z}) lies outside the Bloch ball"
            )


def two_level_hamiltonian(e_level: float) -> np.ndarray:
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    return e_level * np.outer(plus, plus.conj())


def two_level_dephasing_assembly(p: TwoLevelDecoherenceParams) -> tuple[np.ndarray, Bath, np.ndarray]:
    """(H, z-basis dephasing bath, initial state) for the two-level scenario."""
    h = two_level_hamiltonian(p.e_level)
    bath = dephasing_bath([np.array([1.0, 0.0]), np.array([0.0, 1.0])], p.gamma)
    rho = bloch_state(p.x, 0.0, p.z)
    return h, bath, rho


def two_level_decoherence_heat(p: TwoLevelDecoherenceParams) -> float:
    """Heat rate of the dephasing bath on rho(x, z); equals -gamma*E*x.
    InvalidParams where that is past the float range (heat_rate)."""
    h, bath, rho = two_level_dephasing_assembly(p)
    return heat_rate(h, bath, rho)


# ---------------------------------------------------------------------------
# three-level transport device
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeviceParams:
    e_l: float
    e_r: float
    v: float
    n_l: float
    n_r: float
    gamma: float

    def __post_init__(self):
        for name in ("e_l", "e_r", "v"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(f"{name} must be finite, got {getattr(self, name)}")
        if not self.e_l > self.e_r:
            raise InvalidParams(f"device requires e_l > e_r, got {self.e_l} <= {self.e_r}")
        if not self.gamma >= 0:
            raise InvalidParams(f"gamma must be >= 0, got {self.gamma}")
        # occupations validated by the bath constructors


#: Regression preset used throughout the tests; the parameter values are
#: artifact choices, every number derived from them is pinned by this
#: package's own oracles.
DEFAULT_DEVICE = dict(e_l=1.5, e_r=1.0, v=0.4, n_l=0.6, n_r=0.2, gamma=0.3)


@dataclass(frozen=True, eq=False)
class DeviceAssembly:
    hamiltonian: np.ndarray
    baths: tuple[Bath, ...]  # (left, right[, dephasing])

    @property
    def left(self) -> Bath:
        return self.baths[0]

    @property
    def right(self) -> Bath:
        return self.baths[1]

    @property
    def dephasing(self) -> Bath | None:
        return self.baths[2] if len(self.baths) > 2 else None


def device_hamiltonian(p: DeviceParams) -> np.ndarray:
    h = np.zeros((3, 3), dtype=complex)
    h[1, 1] = p.e_l
    h[2, 2] = p.e_r
    h[1, 2] = h[2, 1] = p.v / 2.0
    return h


def device_dephasing_bath(gamma: float, name: str = "dephasing") -> Bath:
    """L-R dephasing of the device: projector jumps on |L> and |R> only.

    The |0> level carries no projector, yet every diagonal state is still
    stationary, so the stationary map is the full device-basis pinching:
    the bath's structure has three rank-1 blocks.
    """
    return _three_level_bath(2, (gamma, gamma), name)


def build_device(p: DeviceParams) -> DeviceAssembly:
    """Hamiltonian plus (left, right[, dephasing]) baths; gamma = 0 yields
    the two-bath assembly."""
    baths: list[Bath] = [left_pump_bath(p.n_l), right_pump_bath(p.n_r)]
    if p.gamma > 0:
        baths.append(device_dephasing_bath(p.gamma))
    return DeviceAssembly(device_hamiltonian(p), tuple(baths))


@dataclass(frozen=True, eq=False)
class DeviceReport:
    nu: np.ndarray
    coherence: complex
    heat_l: float
    heat_r: float
    heat_d: float
    x_l: float
    x_d: float
    m_ld: float
    m_dl: float
    entropy_production: float


def device_report(p: DeviceParams, c: float = 1.0) -> DeviceReport:
    """Solve the steady state and compute all device observables: the
    one-point call of device_reports, which raises its DegenerateKernel
    as any other error.

    x_l and x_d are nan when the steady coherence vanishes (V = 0), where
    the force parameters are undefined. Without a dephasing bath (gamma = 0)
    m_ld = m_dl = c * gamma * n_L * V = 0.
    """
    report = device_reports([p], c)[0]
    if isinstance(report, DegenerateKernel):
        raise report
    return report


#: Reports per stacked pass: a report holds at most four d²×d² matrices
#: (its Liouvillian and three baths), 50 reports to a pass at d = 3.
_REPORTS_PER_PASS = max(1, _PASS_ENTRIES // (4 * 9 * 9))


def device_reports(params: Sequence[DeviceParams], c: float = 1.0) -> list[DeviceReport | DegenerateKernel]:
    """device_report of each point, every step run once for all the baths
    of all the points of a pass of _REPORTS_PER_PASS reports: one batched
    build of the generator matrices and the closed-form structures from the
    rates (`_device_baths`), one block residual check of the structures
    (baths._require_blocks), the steady pass (`thermo._steady_pass`: the
    Liouvillians, one _kernel_basis call on them alone, one eigensolve of
    each steady state for its positivity check and log nu, one _bath_terms
    call on the (bath, nu) pairs, whose flows give both the heats and the
    entropy production), and one stacked apply for the reciprocal
    coefficients.
    Each report is the same, bit for bit, alone or in a stack.

    A point whose Liouvillian kernel is not one-dimensional has no unique
    steady state: its entry is that DegenerateKernel instead of a report,
    and the other points are still solved. Any other failure raises for the
    whole call: the earliest step at which a point fails raises the error
    that point's one-point call gives (in the block residual check and the
    support check, for the first failing bath in the order left baths,
    right baths, dephasing baths). The block residual check comes before
    the kernel solve, so a degenerate point whose bath fails it raises.
    """
    params = list(params)
    out: list[DeviceReport | DegenerateKernel] = []
    for lo in range(0, len(params), _REPORTS_PER_PASS):
        out += _device_pass(params[lo:lo + _REPORTS_PER_PASS], c)
    return out


def _device_pass(params: list[DeviceParams], c: float) -> list[DeviceReport | DegenerateKernel]:
    """device_reports of one pass, with no Bath: the device steps around
    the one steady pass of `thermo._steady_pass`. The points' baths are one
    `baths._BathSet` (`_device_baths`), stacked by kind, every left bath,
    every right bath, then the dephasing baths, so that a step reads each
    kind as one slice; their closed-form structures go through the block
    residual check (`baths._require_blocks`) first. Where the pass stops at
    a degenerate kernel, the other points run again without those. After
    the pass come the device's own columns: x_l from log nu and the
    reciprocal coefficients."""
    bset = _device_baths(params)
    if np.isfinite(bset.gens).all():  # else the pass refuses the Liouvillian first
        _require_blocks(bset, _frobenius(bset.gens))
    n = len(params)
    dephased = np.flatnonzero([p.gamma > 0 for p in params])
    hams = np.array([device_hamiltonian(p) for p in params])
    point = np.array([*range(n), *range(n), *dephased])  # the point of each bath
    dims, *solved = _steady_pass(hams, bset, point)
    if not solved:  # the points with a one-dimensional kernel solved again alone
        alive = [p for p, k in zip(params, dims.tolist()) if k == 1]
        reports = iter(_device_pass(alive, c) if alive else ())
        return [next(reports) if k == 1 else _degenerate_kernel(k) for k in dims.tolist()]
    nu, log_nu, heats, production = solved
    heat_d, m_ld, m_dl = np.zeros((3, n))
    heat_d[dephased] = heats[2 * n:]
    if len(dephased):
        m_ld[dephased], m_dl[dephased] = _reciprocal_coefficients(
            hams[dephased], bset.gens[dephased], bset.gens[2 * n:], c)
    coherence = nu[:, 1, 2]
    x_l = np.where(np.abs(coherence) <= COHERENCE_TOL, math.nan,
                   (log_nu[:, 1, 2] + log_nu[:, 2, 1]).real)
    columns = zip(nu, coherence.tolist(), heats[:n].tolist(), heats[n:2 * n].tolist(),
                  heat_d.tolist(), x_l.tolist(), m_ld.tolist(), m_dl.tolist(), production.tolist())
    return [DeviceReport(nu_i, coh, q_l, q_r, q_d, xl, -xl, mld, mdl, prod)
            for nu_i, coh, q_l, q_r, q_d, xl, mld, mdl, prod in columns]


def _device_baths(params: Sequence[DeviceParams]) -> _BathSet:
    """The points' device baths as one `baths._BathSet` (`_device_set`),
    stacked left, right, dephasing (the points with gamma > 0), with no
    Bath: generator matrices linear in the rates, and the stationary
    structures in closed form from them. Each point's occupations and rates
    are checked first, in the order and with the refusals of its baths'
    constructors."""
    for p in params:
        for what, occupation in (("n_l", p.n_l), ("n_r", p.n_r)):
            _require_occupation(what, occupation)
            _require_rate(occupation)  # the pump's other rate, 1 + n, is finite with n
        _require_rate(p.gamma)
    n = len(params)
    # each point's (left, right, dephasing) rates, in each bath's order
    rates = np.array([(1.0 + p.n_l, p.n_l, p.n_r, 1.0 + p.n_r, p.gamma, p.gamma) for p in params],
                     dtype=float).reshape(n, 3, 2)
    dephased = np.flatnonzero(rates[:, 2, 0] > 0)
    names = ["left"] * n + ["right"] * n + ["dephasing"] * len(dephased)
    kinds = np.repeat([0, 1, 2], [n, n, len(dephased)])
    rates = np.concatenate([rates[:, 0], rates[:, 1], rates[dephased, 2]])
    return _device_set(names, kinds, rates)


@dataclass(frozen=True, eq=False)
class SweepPoint:
    gamma: float
    report: DeviceReport | None
    failure: str | None = None


def gamma_sweep(p: DeviceParams, gammas, c: float = 1.0) -> list[SweepPoint]:
    """One device report per dephasing rate, all from one device_reports
    call; a point whose steady state is not unique (DegenerateKernel) is
    flagged and the sweep continues. Any other failure, a NoConvergence of
    a bath's stationary structure among them, raises for the whole sweep,
    naming the first failing bath."""
    gammas = list(gammas)
    if not all(g >= 0 for g in gammas):
        raise InvalidParams("sweep rates must be >= 0")
    if gammas != sorted(gammas):
        raise InvalidParams("sweep rates must be sorted ascending")
    reports = device_reports([DeviceParams(p.e_l, p.e_r, p.v, p.n_l, p.n_r, g) for g in gammas], c)
    return [SweepPoint(g, r) if isinstance(r, DeviceReport) else SweepPoint(g, None, failure=str(r))
            for g, r in zip(gammas, reports)]
