"""Complex linear algebra substrate for small qubit-register simulations.

States, operators, tensor products, projective measurement, and the
fidelity measure shared by the estimation, photonics, and tomography
layers.  Everything here is a pure function over immutable values;
randomness enters only through explicitly passed generators.

Conventions
-----------
* Qubit 0 is the most significant bit of an amplitude index, so
  ``tensor(a, b)`` puts ``a``'s qubits in front.
* States that agree up to a global phase are compared through the
  overlap magnitude ``|<a|b>|``, never entrywise.
* Construction tolerances are 1e-10; per-operation drift is held to
  1e-12.  Post-measurement states are renormalized explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONSTRUCTION_TOL",
    "DRIFT_TOL",
    "COMPUTATIONAL",
    "PLUS_MINUS",
    "ContractError",
    "CapacityError",
    "Unitary",
    "StateVector",
    "DensityMatrix",
    "MeasurementOutcome",
    "max_qubits",
    "max_amplitudes",
    "as_complex_matrix",
    "basis_state",
    "state_from_amplitudes",
    "check_normalized",
    "derive_rng",
    "tensor",
    "apply",
    "outcome_probabilities",
    "measure",
    "condition",
    "fidelity",
    "density_from_state",
    "overlap_magnitude",
]

CONSTRUCTION_TOL = 1e-10
DRIFT_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-8

DEFAULT_MAX_QUBITS = 20
MAX_QUBITS_ENV = "IPEA_SIM_MAX_QUBITS"

COMPUTATIONAL = "computational"
PLUS_MINUS = "plus_minus"

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_BASIS_VECTORS = {
    COMPUTATIONAL: (
        np.array([1.0, 0.0], dtype=complex),
        np.array([0.0, 1.0], dtype=complex),
    ),
    PLUS_MINUS: (
        np.array([_SQRT1_2, _SQRT1_2], dtype=complex),
        np.array([_SQRT1_2, -_SQRT1_2], dtype=complex),
    ),
}


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


def max_amplitudes() -> int:
    return 1 << max_qubits()


def _check_capacity(count: int, what: str) -> None:
    cap = max_amplitudes()
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
        if not np.all(np.isfinite(amps)):
            raise ContractError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > CONSTRUCTION_TOL:
            raise ContractError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
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
        if np.max(np.abs(m - m.conj().T)) > CONSTRUCTION_TOL:
            raise ContractError("density matrix must be Hermitian within 1e-10")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > CONSTRUCTION_TOL:
            raise ContractError(f"density matrix trace must be 1, got {tr!r}")
        lo = float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)))
        if lo < EIGENVALUE_FLOOR:
            raise ContractError(f"density matrix has eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix) -> "DensityMatrix":
        m = as_complex_matrix(matrix)
        return cls(m.shape[0], m)


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One projective measurement result on a full register.

    ``outcome_index`` is 0/1 in the requested basis (for the +/- basis,
    0 means "+").  ``probability`` is the Born-rule weight of that
    outcome and ``post_state`` the renormalized projected register.
    """

    outcome_index: int
    probability: float
    post_state: StateVector

    def __post_init__(self):
        if self.outcome_index not in (0, 1):
            raise ContractError(f"outcome_index must be 0 or 1, got {self.outcome_index}")
        if not (-DRIFT_TOL <= self.probability <= 1.0 + DRIFT_TOL):
            raise ContractError(f"probability out of range: {self.probability!r}")


def check_normalized(amplitudes: np.ndarray, live=True) -> None:
    """StateVector's finiteness and norm checks for a batch of states.

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


def tensor(a, b):
    """Kronecker product of two states or two operators (same kind)."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        _check_capacity(a.dim * b.dim, "tensor state")
        return StateVector(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Unitary) and isinstance(b, Unitary):
        _check_capacity(a.dim * b.dim * a.dim * b.dim, "tensor operator")
        return Unitary(np.kron(a.matrix, b.matrix))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        out = np.kron(as_complex_matrix(a), as_complex_matrix(b))
        _check_capacity(out.size, "tensor matrix")
        return out
    raise ContractError(
        f"tensor arguments must be two StateVectors, two Unitaries, or two arrays, "
        f"got {type(a).__name__} and {type(b).__name__}"
    )


def _validated_targets(state: StateVector, target_qubits) -> list[int]:
    targets = [int(q) for q in target_qubits]
    if len(targets) == 0:
        raise ContractError("target_qubits must be non-empty")
    if len(set(targets)) != len(targets):
        raise ContractError(f"target_qubits must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < state.num_qubits:
            raise ContractError(f"qubit {q} out of range for {state.num_qubits}-qubit state")
    return targets


def apply(u: Unitary, state: StateVector, target_qubits) -> StateVector:
    """Apply ``u`` to the listed qubits, identity elsewhere."""
    targets = _validated_targets(state, target_qubits)
    t = len(targets)
    if u.dim != 1 << t:
        raise ContractError(f"operator dim {u.dim} does not match {t} target qubit(s)")
    n = state.num_qubits
    psi = state.amplitudes.reshape((2,) * n)
    ut = u.matrix.reshape((2,) * (2 * t))
    res = np.tensordot(ut, psi, axes=(list(range(t, 2 * t)), targets))
    res = np.moveaxis(res, list(range(t)), targets)
    return StateVector(n, res.reshape(-1))


def _basis_pair(basis: str):
    try:
        return _BASIS_VECTORS[basis]
    except KeyError:
        raise ContractError(
            f"basis must be {COMPUTATIONAL!r} or {PLUS_MINUS!r}, got {basis!r}"
        ) from None


def _component(state: StateVector, qubit: int, vector: np.ndarray) -> np.ndarray:
    # Partial inner product <v|_qubit psi; remaining axes keep their order.
    psi = state.amplitudes.reshape((2,) * state.num_qubits)
    return np.tensordot(vector.conj(), psi, axes=(0, qubit))


def outcome_probabilities(state: StateVector, qubit: int, basis: str) -> tuple[float, float]:
    """Exact Born-rule pair for measuring one qubit in the given basis."""
    (qubit,) = _validated_targets(state, [qubit])
    v0, v1 = _basis_pair(basis)
    p0 = float(np.sum(np.abs(_component(state, qubit, v0)) ** 2))
    p1 = float(np.sum(np.abs(_component(state, qubit, v1)) ** 2))
    return p0, p1


def measure(
    state: StateVector, qubit: int, basis: str, rng: np.random.Generator
) -> MeasurementOutcome:
    """Sample one projective single-qubit measurement.

    Deterministic for a fixed generator state.  The post state spans
    the full register, renormalized after projection.
    """
    (qubit,) = _validated_targets(state, [qubit])
    v0, v1 = _basis_pair(basis)
    p0, p1 = outcome_probabilities(state, qubit, basis)
    idx = 0 if rng.random() < p0 else 1
    vec = v0 if idx == 0 else v1
    prob = p0 if idx == 0 else p1
    comp = _component(state, qubit, vec)
    post = np.tensordot(vec, comp, axes=0)
    post = np.moveaxis(post, 0, qubit).reshape(-1)
    post = post / np.sqrt(prob)
    return MeasurementOutcome(idx, prob, StateVector(state.num_qubits, post))


def condition(state: StateVector, qubit: int, basis: str, outcome: int):
    """Project one qubit onto a basis outcome and drop it from the register.

    Returns ``(probability, reduced_state)``; the reduced state is None
    when the outcome has (numerically) zero weight.
    """
    (qubit,) = _validated_targets(state, [qubit])
    if state.num_qubits < 2:
        raise ContractError("condition needs at least a 2-qubit register")
    if outcome not in (0, 1):
        raise ContractError(f"outcome must be 0 or 1, got {outcome}")
    vec = _basis_pair(basis)[outcome]
    comp = _component(state, qubit, vec)
    prob = float(np.sum(np.abs(comp) ** 2))
    if prob <= 1e-24:
        return 0.0, None
    reduced = (comp / np.sqrt(prob)).reshape(-1)
    return prob, StateVector(state.num_qubits - 1, reduced)


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """<target| rho |target>, clamped to [0, 1]."""
    if rho.dimension != target.dim:
        raise ContractError(
            f"dimension mismatch: rho is {rho.dimension}, target is {target.dim}"
        )
    val = target.amplitudes.conj() @ rho.matrix @ target.amplitudes
    if abs(val.imag) > CONSTRUCTION_TOL:
        raise ContractError(f"fidelity came out non-real: {val!r}")
    return float(min(1.0, max(0.0, val.real)))


def density_from_state(state: StateVector) -> DensityMatrix:
    """Rank-one density operator |s><s|."""
    amps = state.amplitudes
    return DensityMatrix(state.dim, np.outer(amps, amps.conj()))


def overlap_magnitude(a: StateVector, b: StateVector) -> float:
    """|<a|b>|, the global-phase-insensitive comparison of pure states."""
    if a.dim != b.dim:
        raise ContractError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))
