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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baths import (
    Bath,
    JumpTerm,
    LindbladGenerator,
    _kernel_basis,
    _stationary_structures,
    dephasing_bath,
    left_pump_bath,
    right_pump_bath,
)
from .dynamics import _generators, _liouvillian, _require_liouvillian, _steady_state
from .errors import DegenerateKernel, InvalidBlochVector, InvalidParams
from .onsager import (
    COHERENCE_TOL,
    ReciprocalCoefficients,
    _force_parameters,
    _reciprocal_coefficients,
)
from .operators import Spectrum
from .thermo import _production, _state_terms, _traces, heat_rate

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Max excess of a Bloch vector's squared length over 1.
BLOCH_TOL = 1e-12


def bloch_state(x: float, y: float = 0.0, z: float = 0.0) -> np.ndarray:
    r2 = x * x + y * y + z * z
    if not r2 <= 1.0 + BLOCH_TOL:
        raise InvalidBlochVector(f"Bloch vector length {math.sqrt(r2):.6f} exceeds 1")
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
            raise InvalidBlochVector(
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
    """Heat rate of the dephasing bath on rho(x, z); equals -gamma*E*x."""
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
    proj_l = np.zeros((3, 3), dtype=complex)
    proj_l[1, 1] = 1.0
    proj_r = np.zeros((3, 3), dtype=complex)
    proj_r[2, 2] = 1.0
    gen = LindbladGenerator(3, (JumpTerm(gamma, proj_l), JumpTerm(gamma, proj_r)))
    return Bath(name, gen)


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
    """Solve the steady state and compute all device observables.

    One pass over the baths: each generator matrix is built once, the
    kernels of the Liouvillian and of each bath are solved as one stack
    (each of _kernel_basis's steps is one numpy call for all of them), the
    baths' stationary structures follow from those kernels in one stacked
    pass (baths._stationary_structures), each flow L_b(nu) gives both the
    heat and the entropy-production term, and one log nu serves every
    force; the values are those of the public functions.

    x_l and x_d are nan when the steady coherence vanishes (V = 0), where
    the force parameters are undefined. Without a dephasing bath (gamma = 0)
    m_ld = m_dl = c * gamma * n_L * V = 0.
    """
    assembly = build_device(p)
    h, baths = assembly.hamiltonian, assembly.baths
    gens = _generators(baths, 3)
    liouv = _liouvillian(h, gens)
    _require_liouvillian(liouv)
    bases = _kernel_basis(np.stack([liouv.matrix] + [g.matrix for g in gens]))
    nu = _steady_state(liouv, bases[0])
    log_nu = Spectrum.of(nu).log
    _stationary_structures(baths, gens, bases[1:])
    terms = _state_terms(baths, gens, nu, log_nu)
    heats = {b.name: float(_traces(h, t.flow)) for b, t in zip(baths, terms)}
    if abs(nu[1, 2]) <= COHERENCE_TOL:
        x_d = x_l = math.nan
    else:
        x_d, x_l = _force_parameters(log_nu)
    if assembly.dephasing is None:
        coeffs = ReciprocalCoefficients(0.0, 0.0)
    else:
        coeffs = _reciprocal_coefficients(h, gens[0], gens[2], c)
    return DeviceReport(
        nu=nu,
        coherence=complex(nu[1, 2]),
        heat_l=heats["left"],
        heat_r=heats["right"],
        heat_d=heats.get("dephasing", 0.0),
        x_l=x_l,
        x_d=x_d,
        m_ld=coeffs.m_ld,
        m_dl=coeffs.m_dl,
        entropy_production=float(_production(sum(t.pairing for t in terms))),
    )


@dataclass(frozen=True, eq=False)
class SweepPoint:
    gamma: float
    report: DeviceReport | None
    failure: str | None = None


def gamma_sweep(p: DeviceParams, gammas, c: float = 1.0) -> list[SweepPoint]:
    """One device report per dephasing rate; a DegenerateKernel at a point
    is flagged and the sweep continues."""
    gammas = list(gammas)
    if not all(g >= 0 for g in gammas):
        raise InvalidParams("sweep rates must be >= 0")
    if gammas != sorted(gammas):
        raise InvalidParams("sweep rates must be sorted ascending")
    points: list[SweepPoint] = []
    for g in gammas:
        pg = DeviceParams(p.e_l, p.e_r, p.v, p.n_l, p.n_r, g)
        try:
            points.append(SweepPoint(g, device_report(pg, c)))
        except DegenerateKernel as exc:
            points.append(SweepPoint(g, None, failure=str(exc)))
    return points
