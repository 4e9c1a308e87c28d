"""Machine-speed reference for timings on a shared machine.

The speed of a shared machine changes within seconds, by a third or
more, as other tenants come and go.  The benchmark therefore times a
fixed reference kernel right before and right after every op and
reports each op's latency in seconds at the reference speed:

    calibrated = raw * REFERENCE_S / mean(kernel before, kernel after)

The kernel is this file's own code, independent of the program, so a
change to the program cannot change it.  It mixes the two kinds of work
the simulator does: Python calls, a validating frozen dataclass and
numpy on 2- and 4-element arrays, and a dense Fourier matrix.  Raw timings
are reported next to the calibrated ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

ITERATIONS = 60
# About the time of one sample on a quiet 2.1 GHz x86-64 core (Python
# 3.11, numpy 2.4, one BLAS thread); calibrated times are raw times at
# that speed.
REFERENCE_S = 0.004


@dataclass(frozen=True)
class _Amplitudes:
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(values)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "values", values)


_U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_GRID = np.arange(128)
_COLUMNS = np.ones((128, 2), dtype=complex)


def sample() -> float:
    """Seconds one run of the reference kernel takes right now.

    Two parts: a loop of small operations, which is limited by the
    interpreter like the IPEA rounds, and a dense 128-point Fourier
    matrix applied to two columns, which moves memory like the
    full-register engine.
    """
    start = time.perf_counter()
    v = np.array([1.0, 0.0], dtype=complex)
    acc = 0.0
    for _ in range(ITERATIONS):
        v = _U @ v
        w = np.tensordot(_U, np.kron(v, v).reshape(2, 2), axes=(1, 0))
        acc += float(np.sum(np.abs(_Amplitudes(w).values) ** 2))
        acc += sum(k * k for k in range(8))
    for _ in range(2):
        q = np.exp(-2j * np.pi * np.outer(_GRID, _GRID) / _GRID.size) / np.sqrt(_GRID.size)
        acc += float(np.sum(np.abs(q @ _COLUMNS) ** 2))
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel diverged")
    return elapsed


def calibrated(raw: float, before: float, after: float) -> float:
    """``raw`` seconds expressed at the reference speed."""
    return raw * REFERENCE_S / ((before + after) / 2.0)
