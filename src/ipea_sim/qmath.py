"""Complex linear algebra substrate for small qubit-register simulations.

Validated states, operators and density matrices; the batch checks that
the containers and the engines apply to whole arrays (``check_normalized``
for states, ``check_unitary`` for operators, ``check_density`` for
density matrices); the fidelity measure; and the per-trial random
streams shared by the estimation, photonics, and tomography layers.
Everything but ``TrialStreams``, which keeps an offset and buffered
words, is an immutable value or a pure function; randomness enters
only through explicitly passed generators and trial streams.

Conventions
-----------
* Qubit 0 is the most significant bit of an amplitude index.
* States that agree up to a global phase are compared through the
  overlap magnitude ``|<a|b>|``, never entrywise.
* Construction tolerances are 1e-10.
* A register holds at most ``2**MAX_QUBITS`` amplitudes (an operator that
  many entries), and a phase estimate at most ``MAX_BITS`` bits; both are
  constants.
"""

from __future__ import annotations

import copy
import functools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CONSTRUCTION_TOL",
    "NEVER_OCCURS",
    "MAX_QUBITS",
    "MAX_BITS",
    "ContractError",
    "CapacityError",
    "Unitary",
    "StateVector",
    "DensityMatrix",
    "as_complex_matrix",
    "basis_state",
    "state_from_amplitudes",
    "check_normalized",
    "check_density",
    "check_unitary",
    "derive_rng",
    "TrialStreams",
    "fidelity",
    "fidelities",
    "density_from_state",
    "overlap_magnitude",
]

CONSTRUCTION_TOL = 1e-10
# An event of at most this probability never occurs: a port pattern, a
# register outcome or a fig5 panel's outcome.
NEVER_OCCURS = 1e-24
EIGENVALUE_FLOOR = -1e-8

# The register size cap in qubits, read at call time, and the bits of a
# phase estimate that every engine and the ``bits`` directive accept.
MAX_QUBITS = 20
MAX_BITS = 16


class ContractError(ValueError):
    """An operation was invoked outside its stated contract."""


class CapacityError(ContractError):
    """A register or operator would exceed the size cap."""


def _check_capacity(count: int, what: str) -> None:
    cap = 1 << MAX_QUBITS
    if count > cap:
        raise CapacityError(f"{what} needs {count} amplitudes, cap is {cap}")


def _check_bits(m: int) -> None:
    if not 1 <= m <= MAX_BITS:
        raise ContractError(f"bit count m must lie in 1..{MAX_BITS}, got {m}")


def _check_dims(unitary_dim: int, target_dim: int) -> None:
    if unitary_dim != target_dim:
        raise ContractError(f"unitary dim {unitary_dim} does not match target dim {target_dim}")


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
        _check_capacity(m.size, "operator")
        check_unitary(m)
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
    hermitian = (matrices + adjoint) / 2.0
    if matrices.shape[-1] == 2:  # the smaller root of the characteristic polynomial
        a, d = hermitian[..., 0, 0].real, hermitian[..., 1, 1].real
        eigenvalues = (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(hermitian[..., 0, 1]))
    else:
        eigenvalues = np.linalg.eigvalsh(hermitian)
    lo = float(np.min(eigenvalues))
    if lo < EIGENVALUE_FLOOR:
        raise ContractError(f"density matrix has eigenvalue {lo:.3e} < {EIGENVALUE_FLOOR}")


def check_unitary(matrices: np.ndarray) -> None:
    """Every matrix along the last two axes is square with max |U†U - I|
    within 1e-10; a failing matrix of a stack is named by its flat index
    over the leading axes.  Callers refuse non-finite entries first."""
    shape = matrices.shape
    if len(shape) < 2 or shape[-1] != shape[-2] or not shape[-1]:
        raise ContractError(f"unitary must be square and at least 1x1, got shape {shape}")
    dev = np.abs(matrices.swapaxes(-1, -2).conj() @ matrices - np.eye(shape[-1]))
    dev = dev.max(axis=(-2, -1))
    if not (dev <= CONSTRUCTION_TOL).all():
        t = int(np.argmax(~(dev <= CONSTRUCTION_TOL)))
        of = "" if len(shape) == 2 else f" of trial {t}"
        raise ContractError(f"matrix{of} is not unitary: max |U†U - I| = {dev.flat[t]:.3e}")


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
    and individually reproducible.  A negative seed or stream is refused.
    """
    seq = np.random.SeedSequence(
        entropy=_non_negative(int(master_seed)),
        spawn_key=tuple(_non_negative(int(s)) for s in stream),
    )
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence constants (O'Neill's seed_seq_fe with a 4-word pool).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4


def _chain(const: int, mult: int, steps: int) -> np.ndarray:
    # The constants of ``steps`` successive word hashes and the one after, as
    # (steps + 1, 1) uint32 rows: hash i xors with row i and multiplies by row i + 1.
    chain = [const]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


# Every key walks the same constants; chain A covers up to 10 shared words.
_CHAIN_A = _chain(_INIT_A, _MULT_A, 64)
_CHAIN_B = _chain(_INIT_B, _MULT_B, _POOL)


def _integer(name: str, value) -> int:
    """``operator.index(value)``, or a ContractError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {value!r}") from None


def _non_negative(value: int) -> int:
    if value < 0:
        raise ContractError(f"seeds, streams and trial indices must be >= 0, got {value}")
    return value


def _words32(value: int) -> list[int]:
    # An integer as SeedSequence splits it: 32-bit words, least significant first.
    words = [_non_negative(value) & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_rows(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    # SeedSequence's word hash on uint32 arrays: hash i of ``chain`` rows
    # i..i+POOL on row i of ``values``, or on every row's copy of a 1-D one.
    values = (values ^ chain[:-1]) * chain[1:]
    return values ^ values >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # SeedSequence's pool mix on uint32 arrays, which wrap as its 32-bit words do.
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> _SHIFT


def _spawn_keys(master_seed: int, stream: tuple, trials) -> np.ndarray:
    """(T, 2) Philox keys of ``derive_rng(master_seed, *stream, t)`` for each trial t.

    The arithmetic of ``SeedSequence.mix_entropy`` and
    ``generate_state(2, np.uint64)``.  Every trial shares the run entropy
    and the stream prefix, so one ``SeedSequence(master_seed,
    spawn_key=stream)`` absorbs those into its pool; each pool word then
    absorbs a trial's index words on its own, continuing the hash chain,
    so the rest is a few array steps over every trial and pool word at
    once, with constants read from chains computed once at import.
    """
    try:
        trials = np.asarray(trials, dtype=np.uint64).reshape(-1)
    except OverflowError as exc:
        raise ContractError(f"trial indices must lie in 0..2^64-1: {exc}") from exc
    # the run entropy's words past the pool size, then the stream's, precede a trial's
    shared = max(0, len(_words32(int(master_seed))) - _POOL)
    shared += sum(len(_words32(int(s))) for s in stream)
    pool = np.random.SeedSequence(int(master_seed), spawn_key=tuple(map(int, stream))).pool
    # the pool's fill and cross-mix take POOL * POOL hashes, each shared word POOL more
    start = _POOL * _POOL + _POOL * shared
    chain = _CHAIN_A
    if start + 2 * _POOL >= len(chain):
        chain = _chain(_INIT_A, _MULT_A, start + 2 * _POOL)

    def keys(words) -> np.ndarray:
        mixed = pool[:, None]
        for j, word in enumerate(words):
            at = start + _POOL * j
            mixed = _mix(mixed, _hash_rows(word, chain[at : at + _POOL + 1]))
        state = _hash_rows(mixed, _CHAIN_B)
        # generate_state reads the uint32 words as little-endian uint64 pairs
        return np.ascontiguousarray(state.T).astype("<u4").view("<u8")

    out = keys((trials.astype(np.uint32),))  # the low words
    # An index below 2^32 is one spawn-key word, a larger one two.
    wide = trials > _MASK32
    if wide.any():
        high = (trials[wide] >> np.uint64(32)).astype(np.uint32)
        out[wide] = keys((trials[wide].astype(np.uint32), high))
    return out


@functools.cache
def _philox() -> np.random.Philox:
    # One per process, built on first use; each refill sets its whole state.
    return np.random.Philox(key=0)


class TrialStreams:
    """The streams ``derive_rng(master_seed, *stream, t)`` of a run of trials.

    Every trial's Philox key comes from one vectorised pass of
    SeedSequence's uint32 hash, whose constant chains are precomputed at
    import, since ``Philox(seq)`` is
    ``Philox(key=seq.generate_state(2, np.uint64))`` with counter 0.  Words
    are then drawn with one shared ``Philox`` set to each trial's key, so
    trial t reads exactly the 64-bit words its own ``derive_rng`` generator
    would.  Every request takes the same number of words from every trial,
    so one word offset is the whole position of the run in its streams.

    A request that runs past the buffered words refills every trial, 8
    bytes a word: ``max(count, length - offset)`` words for a run that
    states ``length``, the words each trial reads in all, so each trial's
    key is set once and the run buffers ``T * length`` words, and exactly
    ``count`` words for any other run.
    """

    def __init__(self, master_seed: int, stream, trials, length: int | None = None):
        self.keys = _spawn_keys(master_seed, tuple(stream), trials)
        self.length = length or 0
        self.offset = 0
        self._buffer = np.empty((len(self.keys), 0), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self.keys)

    def rows(self, start: int, stop: int) -> "TrialStreams":
        """Trials ``start:stop`` at the same offset, drawing apart from this run."""
        part = copy.copy(self)
        part.keys, part._buffer = self.keys[start:stop], self._buffer[start:stop]
        return part

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` raw 64-bit words of every trial, shape (T, count)."""
        if count > self._buffer.shape[1]:
            self._refill(max(count, self.length - self.offset))
        out, self._buffer = self._buffer[:, :count], self._buffer[:, count:]
        self.offset += count
        return out

    def uniforms(self, count: int) -> np.ndarray:
        """Each trial's next ``rng.random(count)``: one word per double, its top 53 bits."""
        return (self.words(count) >> np.uint64(11)) * (1.0 / (1 << 53))

    def integers(self, bits: int) -> np.ndarray:
        """Each trial's next ``rng.integers(0, 2**bits)``, one word each.

        numpy's Lemire draw never rejects on a power-of-two range: up to 32
        bits it is the word's low half shifted right by 32 - bits, above
        that the whole word shifted right by 64 - bits.  A 32-bit draw
        leaves the word's high half buffered in the generator for the next
        one, so this matches the first such call on each stream only.
        """
        if not 1 <= bits <= 63:
            raise ContractError(f"integers(0, 2^bits) needs bits in 1..63, got {bits}")
        word = self.words(1)[:, 0]
        if bits <= 32:
            return (word & np.uint64(_MASK32)) >> np.uint64(32 - bits)
        return word >> np.uint64(64 - bits)

    def _refill(self, size: int) -> None:
        # Words 4j..4j+3 of a key come from its block at counter j + 1.
        skip, bitgen = self.offset % 4, _philox()
        state = {"bit_generator": "Philox", "buffer": [0] * 4, "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0,
                 "state": {"counter": [self.offset // 4, 0, 0, 0], "key": None}}
        self._buffer = np.empty((len(self.keys), size), dtype=np.uint64)
        for row, key in zip(self._buffer, self.keys.tolist()):
            state["state"]["key"] = key
            bitgen.state = state
            row[:] = bitgen.random_raw(skip + size)[skip:]


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """<target| rho |target>, clamped to [0, 1]."""
    return float(fidelities(rho.matrix, target.amplitudes))


def fidelities(matrices: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``fidelity`` of each matrix along the last two axes, one dot product
    each, against the target amplitudes along the last axis of
    ``targets``: one target for every matrix, or one per matrix
    (broadcast over the leading axes)."""
    if matrices.shape[-1] != targets.shape[-1]:
        raise ContractError(
            f"dimension mismatch: rho is {matrices.shape[-1]}, target is {targets.shape[-1]}"
        )
    bra, ket = targets.conj()[..., None, :], targets[..., :, None]
    val = ((bra @ matrices) @ ket)[..., 0, 0]
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
