"""Complex linear algebra substrate for small qubit-register simulations.

Validated states, operators and density matrices, the batch norm check
the engines apply to whole arrays of states, the fidelity measure, and
the per-trial random streams shared by the estimation, photonics, and
tomography layers.  Everything here is a pure function over immutable
values; randomness enters only through explicitly passed generators.

Conventions
-----------
* Qubit 0 is the most significant bit of an amplitude index.
* States that agree up to a global phase are compared through the
  overlap magnitude ``|<a|b>|``, never entrywise.
* Construction tolerances are 1e-10.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONSTRUCTION_TOL",
    "ContractError",
    "CapacityError",
    "Unitary",
    "StateVector",
    "DensityMatrix",
    "max_qubits",
    "as_complex_matrix",
    "basis_state",
    "state_from_amplitudes",
    "check_normalized",
    "check_density",
    "derive_rng",
    "fidelity",
    "fidelities",
    "density_from_state",
    "overlap_magnitude",
]

CONSTRUCTION_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-8

DEFAULT_MAX_QUBITS = 20
MAX_QUBITS_ENV = "IPEA_SIM_MAX_QUBITS"


class ContractError(ValueError):
    """An operation was invoked outside its stated contract."""


class CapacityError(ContractError):
    """A register or operator would exceed the configured size cap."""


def max_qubits() -> int:
    """Register size cap in qubits.

    Override with the ``IPEA_SIM_MAX_QUBITS`` environment variable.
    The cap bounds allocations: state vectors may hold at most
    ``2**max_qubits()`` amplitudes and square operators at most that
    many entries.
    """
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ContractError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ContractError(f"{MAX_QUBITS_ENV} must be >= 1, got {value}")
    return value


def _check_capacity(count: int, what: str) -> None:
    cap = 1 << max_qubits()
    if count > cap:
        raise CapacityError(
            f"{what} needs {count} amplitudes, cap is {cap} "
            f"(raise {MAX_QUBITS_ENV} to override)"
        )


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a finite, at least 1x1, complex 2-D array."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ContractError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ContractError(f"matrix must be at least 1x1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError("matrix entries must be finite")
    return m


@dataclass(frozen=True, eq=False)
class Unitary:
    """A square matrix U with max |U†U - I| <= 1e-10, immutable."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ContractError(f"unitary must be square, got shape {m.shape}")
        _check_capacity(m.size, "operator")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if dev > CONSTRUCTION_TOL:
            raise ContractError(f"matrix is not unitary: max |U†U - I| = {dev:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized amplitudes over ``2**num_qubits`` basis labels."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = int(self.num_qubits)
        if n < 1:
            raise ContractError(f"num_qubits must be >= 1, got {n}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_capacity(amps.size, "state")
        if amps.size != 1 << n:
            raise ContractError(
                f"expected {1 << n} amplitudes for {n} qubits, got {amps.size}"
            )
        check_normalized(amps)
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    dimension: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        d = int(self.dimension)
        if m.shape != (d, d):
            raise ContractError(f"expected shape ({d}, {d}), got {m.shape}")
        _check_capacity(m.size, "density operator")
        check_density(m)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        m = as_complex_matrix(matrix)
        return cls(m.shape[0], m)


def check_normalized(amplitudes: np.ndarray, live=True) -> None:
    """Finiteness and norm checks for one state or a batch of states.

    Every state along the last axis of ``amplitudes`` must be finite
    with sum |a|^2 within 1e-10 of 1; ``live`` (a boolean mask over the
    leading axes) exempts states that stand for events that never occur.
    """
    norm_sq = (np.abs(amplitudes) ** 2).sum(axis=-1)
    # A non-finite amplitude makes its norm non-finite, which fails too.
    off = ~(np.abs(norm_sq - 1.0) <= CONSTRUCTION_TOL) & live
    if off.any():
        worst = float(norm_sq[off][0])
        if not np.isfinite(worst):
            raise ContractError("amplitudes must be finite")
        raise ContractError(f"state is not normalized: sum |a|^2 = {worst!r}")


def check_density(matrices: np.ndarray) -> None:
    """Every matrix along the last two axes is finite, Hermitian and of
    unit trace within 1e-10, with no eigenvalue below -1e-8."""
    if not np.all(np.isfinite(matrices)):
        raise ContractError("matrix entries must be finite")
    adjoint = matrices.conj().swapaxes(-1, -2)
    if np.max(np.abs(matrices - adjoint)) > CONSTRUCTION_TOL:
        raise ContractError("density matrix must be Hermitian within 1e-10")
    tr = np.trace(matrices, axis1=-2, axis2=-1).reshape(-1)
    off = tr[np.abs(tr - 1.0) > CONSTRUCTION_TOL]
    if off.size:
        raise ContractError(f"density matrix trace must be 1, got {complex(off[0])!r}")
    lo = float(np.min(np.linalg.eigvalsh((matrices + adjoint) / 2.0)))
    if lo < EIGENVALUE_FLOOR:
        raise ContractError(f"density matrix has eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}")


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``num_qubits`` qubits."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ContractError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def state_from_amplitudes(amplitudes) -> StateVector:
    """Build a StateVector, inferring the qubit count from the length."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    n = int(amps.size).bit_length() - 1
    if amps.size != 1 << n:
        raise ContractError(f"amplitude count {amps.size} is not a power of two")
    return StateVector(n, amps)


def derive_rng(master_seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for the stream (master_seed, *stream).

    Every sampling site receives one of these; a (seed, trial_index)
    pair always maps to the same bit stream, so trials are independent
    and individually reproducible.
    """
    seq = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=tuple(int(s) for s in stream)
    )
    return np.random.Generator(np.random.Philox(seq))


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """<target| rho |target>, clamped to [0, 1]."""
    return float(fidelities(rho.matrix, target))


def fidelities(matrices: np.ndarray, target: StateVector) -> np.ndarray:
    """``fidelity`` of each matrix along the last two axes, one dot product each."""
    if matrices.shape[-1] != target.dim:
        raise ContractError(
            f"dimension mismatch: rho is {matrices.shape[-1]}, target is {target.dim}"
        )
    t = target.amplitudes
    val = ((t.conj() @ matrices)[..., None, :] @ t[:, None])[..., 0, 0]
    off = val[np.abs(val.imag) > CONSTRUCTION_TOL]
    if off.size:
        raise ContractError(f"fidelity came out non-real: {complex(off[0])!r}")
    # min(1, max(0, v)) by Python's rules, so a zero stays +0.0
    clamped = np.where(val.real > 0.0, val.real, 0.0)
    return np.where(clamped < 1.0, clamped, 1.0)


def density_from_state(state: StateVector) -> DensityMatrix:
    """Rank-one density operator |s><s|."""
    amps = state.amplitudes
    return DensityMatrix(state.dim, np.outer(amps, amps.conj()))


def overlap_magnitude(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, the global-phase-insensitive comparison of pure states."""
    if a.dim != b.dim:
        raise ContractError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
