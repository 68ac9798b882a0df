"""Reference kernel that turns measured seconds into reference seconds.

The machines this benchmark runs on share their cores with other
tenants, and their speed drifts by up to 2x over tens of seconds: the
same 0.3 s pass of `steady_sweep` measured 0.16 s to 0.24 s in
consecutive 10 s windows. Raw medians over a 20 s run therefore spread
by ~25% between runs of identical code. The drift slows this fixed
kernel by the same factor (correlation 0.78 per pass), so the benchmark
reads it between items and scales each item's time by

    REFERENCE_S / (median of the readings around the item)

which cut the spread of 20 s medians to ~3% in the same windows. The
kernel mixes what the workloads do: Python-level calls on 3x3 complex
arrays, eig and expm of a 9x9 generator, 16x16 products and eigensolves
and 128x128 products. It calls numpy and scipy only, on fixed inputs,
so the library under test cannot change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

#: the kernel's time on the machine the bounds were tuned on (2 vCPU,
#: Python 3.11, numpy 2.4, scipy 1.17, OpenBLAS 0.3.31, 1 BLAS thread)
REFERENCE_S = 0.03

_rng = np.random.default_rng(0)
_B3 = _rng.normal(size=(3, 3)) + 1j * _rng.normal(size=(3, 3))
_L9 = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9)) - 3.0 * np.eye(9)
_B16 = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H16 = _B16 + _B16.conj().T
_B128 = _rng.normal(size=(128, 128)) + 1j * _rng.normal(size=(128, 128))


def reading() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = time.perf_counter()
    for k in range(400):
        m = np.zeros((3, 3), dtype=complex)
        m[k % 3, (k + 1) % 3] = 1.0
        x = _B3 @ m @ _B3.conj().T - 0.5 * (m @ _B3 + _B3 @ m)
        v = x.reshape(-1, order="F")
        entry = {"trace": float(np.trace(x).real), "first": complex(v[0])}
        np.linalg.eigh(0.5 * (x + x.conj().T))
    for _ in range(25):
        np.linalg.eig(_L9)
        scipy.linalg.expm(0.1 * _L9)
    y = _H16
    for _ in range(300):
        y = 2.0 * (_B16 @ y @ _B16.conj().T) - _H16 @ y - y @ _H16
        y /= np.abs(y).max()
    for _ in range(5):
        np.linalg.eigh(_H16)
        _B128 @ _B128
    del entry
    return time.perf_counter() - t0
