"""Shared test helpers: random states, Paulis, and brute-force oracles."""

import numpy as np
import pytest

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: device grid: cold to hot occupations (1e-14 is beta E ≈ 32) and no
#: dephasing up to the Zeno regime
GRID_OCCUPATIONS = (1e-14, 1.3e-14, 3e-14, 1e-13, 1e-12, 1e-9, 1e-3, 0.6, 1e3, 1e6)
GRID_GAMMAS = (0.0, 1e-2, 0.3, 1e2, 1e4, 1e6)


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d):
    a = random_complex(rng, d)
    return 0.5 * (a + a.conj().T)


def ginibre_state(rng, d, mix=0.0):
    """Random full-rank density matrix; mix > 0 blends in the maximally
    mixed state to keep the spectrum away from zero."""
    x = random_complex(rng, d)
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    if mix:
        rho = (1.0 - mix) * rho + mix * np.eye(d) / d
    return rho


def dissipator_oracle(rho, terms):
    """Direct per-term arithmetic: sum r (2 A rho A† - A†A rho - rho A†A)."""
    out = np.zeros_like(rho, dtype=complex)
    for rate, a in terms:
        ad = a.conj().T
        out = out + rate * (2.0 * a @ rho @ ad - ad @ a @ rho - rho @ ad @ a)
    return out


def unitary_evolution_oracle(h, rho0, t):
    """Closed-form e^{-iHt} rho e^{+iHt} through the eigenbasis of H."""
    lam, u = np.linalg.eigh(h)
    phases = np.exp(-1j * lam * t)
    prop = (u * phases) @ u.conj().T
    return prop @ rho0 @ prop.conj().T


def trace_distance(a, b):
    lam = np.linalg.eigvalsh(a - b)
    return 0.5 * float(np.sum(np.abs(lam)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
