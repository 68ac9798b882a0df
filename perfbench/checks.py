"""Physical identities the benchmark checks on every workload's outputs.

The oracles here are written from the conventions in the package
documentation (column-stacking vec, dissipator with factor 2 and no 1/2),
not from library calls, so a defect in the library cannot hide behind
the same defect in its check. Each function returns a residual; the
`check_*` tolerances next to them are relative to the generator's scale
where the identity allows it.
"""

from __future__ import annotations

import numpy as np

#: centered-difference first-law and entropy-balance residuals at
#: interior trajectory points (the committed configs measure <= 2.1e-7)
TRAJECTORY_TOL = 1e-6
#: ||L vec(nu)|| / ||L||
STEADY_TOL = 1e-10
#: ||L_b vec(B_b(rho))|| / max rate of bath b
STATIONARY_TOL = 1e-9
#: |Tr[X (B_b(rho) - rho)]| over conserved X of bath b, ||X||_F = 1
CONSERVATION_TOL = 1e-9
#: |sum_b Q_b| / (||H|| ||L||) and -P / ||L|| at the steady state
BALANCE_TOL = 1e-9
#: |m_ld - c gamma n_L V| and |m_dl - c gamma n_L V| over c (1 + gamma)(1 + n_L)(1 + |V|)
RECIPROCAL_TOL = 1e-12
#: |Q + gamma E x| over gamma |E|
TWO_LEVEL_TOL = 1e-12
#: ||M_{b,a} - M_{a,b}^dagger|| / max ||M||
ADJOINT_TOL = 1e-12
#: singular values below this share of the largest span a generator's kernel
KERNEL_CUT = 1e-13


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).reshape(-1, order="F")


def superop(h: np.ndarray | None, terms, dim: int) -> np.ndarray:
    """-i[H, .] + sum r (2 A . A^dag - A^dag A . - . A^dag A) as a d^2 x d^2 matrix."""
    eye = np.eye(dim)
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    if h is not None:
        out += -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for rate, a in terms:
        aa = a.conj().T @ a
        out += rate * (2.0 * np.kron(a.conj(), a) - np.kron(eye, aa) - np.kron(aa.T, eye))
    return out


def steady_residual(lmat: np.ndarray, nu: np.ndarray) -> float:
    return float(np.linalg.norm(lmat @ vec(nu)) / np.linalg.norm(lmat, 2))


def stationary_residual(lbath: np.ndarray, image: np.ndarray, rate_max: float) -> float:
    return float(np.linalg.norm(lbath @ vec(image)) / rate_max)


def conservation_defect(lbath: np.ndarray, rho: np.ndarray, image: np.ndarray) -> float:
    """Largest change B_b makes to a quantity bath b conserves.

    Conserved observables X satisfy L_b^dagger(X) = 0; they are the left
    singular vectors of the generator matrix with zero singular value.
    """
    u, s, _ = np.linalg.svd(lbath)
    left_kernel = u[:, s <= KERNEL_CUT * s[0]]
    return float(np.max(np.abs(left_kernel.conj().T @ (vec(image) - vec(rho))), initial=0.0))


def heat_balance(heats, h: np.ndarray, lmat: np.ndarray) -> float:
    return abs(float(sum(heats))) / (np.linalg.norm(h, 2) * np.linalg.norm(lmat, 2))


def production_deficit(p: float, lmat: np.ndarray) -> float:
    """How far P falls below zero, relative to ||L||; 0 when P >= 0."""
    return max(0.0, -p) / float(np.linalg.norm(lmat, 2))


def reciprocal_defect(m_ld: float, m_dl: float, c: float, gamma: float, n_l: float, v: float) -> float:
    expected = c * gamma * n_l * v
    scale = c * (1.0 + gamma) * (1.0 + n_l) * (1.0 + abs(v))
    return max(abs(m_ld - expected), abs(m_dl - expected)) / scale


def two_level_heat_defect(heat, gamma: float, e_level: float, x) -> float:
    """|Q + gamma E x| / (gamma |E|), largest over the given points."""
    heat, x = np.atleast_1d(heat), np.atleast_1d(x)
    return float(np.max(np.abs(heat + gamma * e_level * x))) / (gamma * abs(e_level))


def adjoint_defect(pairs: dict) -> float:
    """max ||M_{b,a} - M_{a,b}^dagger|| / max ||M|| over bath pairs."""
    scale = max(float(np.linalg.norm(m)) for m in pairs.values())
    worst = 0.0
    for (b, a), m in pairs.items():
        worst = max(worst, float(np.linalg.norm(m - pairs[(a, b)].conj().T)))
    return worst / scale


def balance_residuals(t: np.ndarray, y: np.ndarray, rate: np.ndarray, switch: np.ndarray) -> np.ndarray:
    """|dy/dt - rate| by centered differences at interior points.

    Points next to a step with nonzero work rate (`switch`), where the
    work impulse makes dy/dt distributional, are left out: the same rule
    as `decotherm.thermo.first_law_residuals`.
    """
    n = len(t)
    if n < 3:
        return np.zeros(0)
    dt = t[1] - t[0]
    near = switch[:-2] | switch[1:-1] | switch[2:]
    resid = np.abs((y[2:] - y[:-2]) / (2.0 * dt) - rate[1:-1])
    return resid[~near]


def trajectory_failures(table: dict[str, np.ndarray], bath_names) -> list[str]:
    """First law, entropy balance and P >= 0 on one trajectory table."""
    t = table["t"]
    work = table["work_rate"]
    switch = work != 0.0
    heats = sum(table[f"heat_{b}"] for b in bath_names)
    fluxes = sum(table[f"flux_{b}"] for b in bath_names)
    prod = table["entropy_production"]
    failed = []
    first = balance_residuals(t, table["energy"], work + heats, switch)
    if not np.all(first <= TRAJECTORY_TOL):
        failed.append("check_first_law")
    second = balance_residuals(t, table["entropy"], fluxes + prod, switch)
    if not np.all(second <= TRAJECTORY_TOL):
        failed.append("check_entropy_balance")
    if not np.all(prod >= -TRAJECTORY_TOL):
        failed.append("check_entropy_production")
    return failed


def stationary_failures(lbath: np.ndarray, rate_max: float, rho: np.ndarray, image: np.ndarray) -> list[str]:
    failed = []
    if not stationary_residual(lbath, image, rate_max) <= STATIONARY_TOL:
        failed.append("check_stationary_residual")
    if not conservation_defect(lbath, rho, image) <= CONSERVATION_TOL:
        failed.append("check_stationary_conservation")
    return failed


def steady_failures(lmat: np.ndarray, h: np.ndarray, nu: np.ndarray, heats, production: float) -> list[str]:
    """Steady-state residual, sum_b Q_b = 0 and P >= 0 at the NESS."""
    failed = []
    if not steady_residual(lmat, nu) <= STEADY_TOL:
        failed.append("check_steady_residual")
    if not heat_balance(heats, h, lmat) <= BALANCE_TOL:
        failed.append("check_energy_balance")
    if not production_deficit(production, lmat) <= BALANCE_TOL:
        failed.append("check_entropy_production")
    return failed


#: every label a check can report, in a fixed order
CHECK_NAMES = (
    "check_two_level_heat",
    "check_reciprocal",
    "check_energy_balance",
    "check_entropy_production",
    "check_steady_residual",
    "check_stationary_residual",
    "check_stationary_conservation",
    "check_first_law",
    "check_entropy_balance",
    "check_onsager_adjoint",
)
