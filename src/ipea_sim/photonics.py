"""Dual-rail photonic realization of black-box controlled-unitary powers.

The control photon's polarization is entangled with the spatial rail of
every target photon: horizontally polarized control rides with targets
in the red rails, vertically polarized control with targets in the blue
rails.  Only the blue rails traverse the unitary, cascaded 2^(k-1)
times.  Balanced beamsplitters then remix red and blue into output
ports, and post-selecting on which ports fired projects back onto the
polarization space.  Even-parity port patterns (branch P) leave exactly
the controlled gate; odd-parity patterns (branch Q) leave the same gate
up to a sign that is absorbed by flipping the measured bit, so no
events need to be discarded.

Waveplate convention: a half waveplate at angle theta is the real
matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]] (determinant -1), and a
quarter waveplate at angle 0 is diag(1, i); neither carries a global
phase prefactor.  Angles are degrees everywhere.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from itertools import cycle, islice, product

import numpy as np

from . import qmath
from .qmath import ContractError, StateVector, Unitary

__all__ = [
    "DegeneracyError",
    "PhotonicState",
    "WaveplateSpec",
    "ParityBranch",
    "NoiseSpec",
    "POLARIZATION_STATES",
    "polarization_state",
    "hwp",
    "qwp",
    "compose_waveplates",
    "oracle_eigenphase",
    "prepare_entangled_input",
    "apply_blue_unitary",
    "beamsplitter_mix",
    "parity_cases",
    "postselect",
    "PhotonicProvider",
    "jitter_waveplates",
]

STAGE_RAILS = "rails"  # before the beamsplitters: rail 0 = red, 1 = blue
STAGE_PORTS = "ports"  # after: rail 0 = upper port, 1 = lower port

_SQRT1_2 = 1.0 / np.sqrt(2.0)

POLARIZATION_STATES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQRT1_2, _SQRT1_2], dtype=complex),
    "A": np.array([_SQRT1_2, -_SQRT1_2], dtype=complex),
    "R": np.array([_SQRT1_2, _SQRT1_2 * 1j], dtype=complex),
    "L": np.array([_SQRT1_2, -_SQRT1_2 * 1j], dtype=complex),
}


class DegeneracyError(ContractError):
    """The eigenvector selector cannot break a spectral tie."""


def polarization_state(label: str) -> StateVector:
    """Single-photon polarization state for a letter label, built once per label."""
    try:
        return _polarization_state(label)
    except (KeyError, TypeError):  # unknown, or unhashable so never a label
        raise ContractError(
            f"unknown polarization {label!r}, expected one of "
            f"{sorted(POLARIZATION_STATES)}"
        ) from None


@functools.cache
def _polarization_state(label: str) -> StateVector:
    return StateVector(1, POLARIZATION_STATES[label])


@dataclass(frozen=True, eq=False)
class PhotonicState:
    """Control polarization x per-target (polarization, rail) amplitudes.

    The flat index orders the control bit first (H=0, V=1), then for
    each target its polarization bit followed by its rail bit, so a
    state over n targets has 2^(2n+1) amplitudes.  ``stage`` records
    whether rails still mean red/blue or already mean output ports.
    """

    num_targets: int
    amplitudes: np.ndarray
    stage: str = STAGE_RAILS

    def __post_init__(self):
        n = int(self.num_targets)
        if n < 1:
            raise ContractError(f"num_targets must be >= 1, got {n}")
        if self.stage not in (STAGE_RAILS, STAGE_PORTS):
            raise ContractError(f"unknown stage {self.stage!r}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        expected = 1 << (2 * n + 1)
        if amps.size != expected:
            raise ContractError(
                f"expected {expected} amplitudes for {n} target(s), got {amps.size}"
            )
        qmath.check_normalized(amps)
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "num_targets", n)
        object.__setattr__(self, "amplitudes", amps)

    def _tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * (2 * self.num_targets + 1))


@dataclass(frozen=True)
class WaveplateSpec:
    """One waveplate: kind HWP or QWP, fast axis angle in degrees."""

    kind: str
    angle_deg: float

    def __post_init__(self):
        if self.kind not in ("HWP", "QWP"):
            raise ContractError(f"kind must be 'HWP' or 'QWP', got {self.kind!r}")
        angle = float(self.angle_deg) % 180.0
        if not np.isfinite(angle):
            raise ContractError(f"angle must be finite, got {self.angle_deg!r}")
        object.__setattr__(self, "angle_deg", angle)

    def _matrix(self) -> np.ndarray:
        # The raw Jones matrix, unchecked.
        return (_hwp if self.kind == "HWP" else _qwp)(self.angle_deg)


@dataclass(frozen=True)
class ParityBranch:
    """A single output-port pattern, labeled by the parity of its
    lower-port count: P for even (the clean controlled gate), Q for odd
    (same gate with a sign on the control's V component)."""

    label: str
    case_pattern: tuple[int, ...]

    def __post_init__(self):
        pattern = tuple(int(r) for r in self.case_pattern)
        if len(pattern) < 1 or any(r not in (0, 1) for r in pattern):
            raise ContractError(f"case_pattern must be nonempty bits, got {pattern}")
        expected = "P" if sum(pattern) % 2 == 0 else "Q"
        if self.label != expected:
            raise ContractError(
                f"pattern {pattern} has {'even' if expected == 'P' else 'odd'} "
                f"parity and must be labeled {expected!r}, got {self.label!r}"
            )
        object.__setattr__(self, "case_pattern", pattern)


@dataclass(frozen=True)
class NoiseSpec:
    """Distinguishability and waveplate-setting jitter of a real run.

    ``distinguishability`` is the surviving fraction p of coherence
    between the control's H and V components (p = 1 is noiseless);
    ``angle_jitter_sigma_deg`` is the standard deviation of a Gaussian
    perturbation applied to each waveplate angle.
    """

    distinguishability: float = 0.95
    angle_jitter_sigma_deg: float = 0.25

    def __post_init__(self):
        p, sigma = float(self.distinguishability), float(self.angle_jitter_sigma_deg)
        if not 0.0 <= p <= 1.0:
            raise ContractError(
                f"distinguishability must lie in [0, 1], got {self.distinguishability!r}"
            )
        if not 0.0 <= sigma < np.inf:
            raise ContractError(
                "angle_jitter_sigma_deg must be finite and >= 0, "
                f"got {self.angle_jitter_sigma_deg!r}"
            )
        object.__setattr__(self, "distinguishability", p)
        object.__setattr__(self, "angle_jitter_sigma_deg", sigma)


def _hwp(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(float(theta_deg))
    c, s = np.cos(2.0 * t), np.sin(2.0 * t)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _qwp(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(float(theta_deg))
    c, s = np.cos(t), np.sin(t)
    return np.array(
        [
            [c * c + 1j * s * s, (1.0 - 1j) * s * c],
            [(1.0 - 1j) * s * c, s * s + 1j * c * c],
        ],
        dtype=complex,
    )


def hwp(theta_deg: float) -> Unitary:
    """Half waveplate with fast axis at ``theta_deg`` degrees."""
    return Unitary(_hwp(theta_deg))


def qwp(theta_deg: float) -> Unitary:
    """Quarter waveplate with fast axis at ``theta_deg`` degrees."""
    return Unitary(_qwp(theta_deg))


def compose_waveplates(plates) -> Unitary:
    """Product of a waveplate train; the first listed plate acts first.

    Specs enter as raw Jones matrices, so only the product is checked."""
    return Unitary(_train_matrix(plates))


def _train_matrix(plates) -> np.ndarray:
    """The unchecked Jones product of ``compose_waveplates``."""
    plates = list(plates)
    if not plates:
        raise ContractError("waveplate train must contain at least one plate")
    matrix = np.eye(2, dtype=complex)
    for plate in plates:
        if isinstance(plate, WaveplateSpec):
            jones = plate._matrix()
        elif isinstance(plate, Unitary):
            if plate.dim != 2:
                raise ContractError("waveplate matrices must be 2x2")
            jones = plate.matrix
        else:
            raise ContractError(
                f"expected WaveplateSpec or Unitary, got {type(plate).__name__}"
            )
        matrix = jones @ matrix
    return matrix


_SPECTRAL_GAP_TOL = 1e-8
_OVERLAP_TIE_TOL = 1e-6


def oracle_eigenphase(unitary: Unitary, selector: str = "R") -> float:
    """Phase (as a fraction of a turn) of the eigenvector a polarization
    letter picks: the eigenvector with the largest overlap wins.

    If a different eigenvalue's eigenvector ties for that overlap the
    choice is meaningless and a DegeneracyError is raised.  A fully
    degenerate spectrum (all eigenvalues equal) is fine: every vector
    is an eigenvector and the phase is unambiguous.
    """
    vec = polarization_state(selector).amplitudes
    if unitary.dim != vec.size:
        raise ContractError(
            f"selector dim {vec.size} does not match unitary dim {unitary.dim}"
        )
    values, vectors = np.linalg.eig(unitary.matrix)
    overlaps = np.abs(vectors.conj().T @ vec)
    best = int(np.argmax(overlaps))
    for i in range(values.size):
        if i == best:
            continue
        distinct = abs(values[i] - values[best]) > _SPECTRAL_GAP_TOL
        if distinct and overlaps[best] - overlaps[i] < _OVERLAP_TIE_TOL:
            raise DegeneracyError(
                f"selector overlaps eigenvalues {values[best]:.6f} and "
                f"{values[i]:.6f} equally; cannot pick an eigenphase"
            )
    phase = (float(np.angle(values[best])) / (2.0 * np.pi)) % 1.0
    return 0.0 if phase == 1.0 else phase


# Stage kernels.  Each takes a batch: a leading trial axis, then the
# control axis, then every target's polarization and rail axes (the
# layout of PhotonicState, one row per trial).  The provider runs them on
# a whole batch of trials; the public stage functions below run them on a
# batch of one, so each stage's arithmetic exists once.


def _rails(n: int, rail: int) -> tuple:
    # The block where the control (H=0, V=1) rides with every target in
    # rail ``rail`` (0 = red, 1 = blue).
    return (slice(None), rail) + (slice(None), rail) * n


def _num_targets(arr: np.ndarray) -> int:
    return (arr.ndim - 2) // 2


def _prepare(target: np.ndarray, count: int) -> np.ndarray:
    # ``count`` trials sharing the target amplitudes ``target``.
    n = target.size.bit_length() - 1
    arr = np.zeros((count, 2) + (2, 2) * n, dtype=complex)
    half = target.reshape((2,) * n) * _SQRT1_2
    arr[_rails(n, 0)] = half
    arr[_rails(n, 1)] = half
    return arr


def _blue_ladder(arr: np.ndarray, unitaries: np.ndarray, m: int) -> np.ndarray:
    """The rung-major state of a (T, ...) batch's cascade: row (k - 1) * T + t
    is trial t's row of ``arr`` with its blue rails after 2^(k-1) passes
    through ``unitaries[t]``, k = 1..m.  One literal cascade makes one
    product per pass, never a precomputed power, and each pass writes the
    other of two reused buffers.  One trial steps by 2-D ``dot``, which
    reaches the BLAS zgemv of the stacked product with less overhead and
    the same bits; more trials step by one stacked ``matmul``."""
    # Also the bound on the cascade's length: PhotonicProvider.rounds is public,
    # and m = 40 would otherwise start 2^39 passes.
    qmath._check_bits(m)
    count = arr.shape[0]
    n = _num_targets(arr)
    qmath._check_dims(unitaries.shape[-1], 1 << n)
    if count == 1:
        step, shape = unitaries[0].dot, (-1,)
    else:
        step, shape = functools.partial(np.matmul, unitaries), (count, -1, 1)
    out = np.repeat(arr[None], m, axis=0)
    rungs = out[(slice(None),) + _rails(n, 1)]  # a view; rungs[k] sits 2^k passes in
    src = np.array(arr[_rails(n, 1)]).reshape(shape)
    bufs = (src, np.empty_like(src))
    # Pass i reads bufs[i % 2] and writes the other buffer; ``map`` drives a
    # rung's passes at C level, and each rung is copied into its row block.
    srcs, dsts = cycle(bufs), cycle(bufs[::-1])
    consume, done = deque(maxlen=0).extend, 0
    for k in range(m):
        consume(map(step, islice(srcs, (1 << k) - done), islice(dsts, (1 << k) - done)))
        done = 1 << k
        rungs[k] = bufs[done % 2].reshape(rungs.shape[1:])
    return out.reshape((m * count,) + arr.shape[1:])


_BS = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)


def _mix(arr: np.ndarray) -> np.ndarray:
    for target in range(_num_targets(arr)):
        axis = 3 + 2 * target  # rail axis of this target
        rails = np.moveaxis(arr, axis, 0)
        mixed = _BS @ rails.reshape(2, -1)  # the product np.tensordot would form
        arr = np.moveaxis(mixed.reshape(rails.shape), 0, axis)
    return arr


def _postselect_all(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every port pattern's normalized state and probability, per trial.

    Returns (T, 2^n, 2^(n+1)) control+target polarization states and
    (T, 2^n) probabilities, patterns in ``parity_cases`` order (the
    ports read as a binary number, first target most significant).  A
    pattern of probability <= ``qmath.NEVER_OCCURS`` never fires: its
    probability is 0 and its state all zeros.
    """
    count = arr.shape[0]
    n = _num_targets(arr)
    order = (0,) + tuple(range(3, arr.ndim, 2)) + (1,) + tuple(range(2, arr.ndim, 2))
    blocks = np.ascontiguousarray(arr.transpose(order)).reshape(count, 1 << n, -1)
    probs = (np.abs(blocks) ** 2).sum(axis=2)
    dead = probs <= qmath.NEVER_OCCURS
    probs[dead] = 0.0
    states = blocks / np.sqrt(np.where(dead, 1.0, probs))[..., None]
    states[dead] = 0.0
    return states, probs


def prepare_entangled_input(psi: StateVector) -> PhotonicState:
    """Entangle control polarization with the rails of the target state.

    Produces (|H>|psi across red rails> + |V>|psi across blue rails>)
    divided by sqrt(2); rails are perfectly correlated across targets.
    """
    arr = _prepare(psi.amplitudes, 1)
    return PhotonicState(psi.num_qubits, arr.reshape(-1), STAGE_RAILS)


def apply_blue_unitary(state: PhotonicState, unitary: Unitary, k: int) -> PhotonicState:
    """Pass the blue rails through the unitary 2^(k-1) times, one literal
    copy at a time, k ≤ 16: the last row of a one-trial cascade, so bit for
    bit that trial's row in a stacked provider chunk.
    A state that is not rail-correlated (as ``prepare_entangled_input``
    builds it) is refused."""
    if state.stage != STAGE_RAILS:
        raise ContractError("blue rails no longer exist after the beamsplitters")
    arr = state._tensor()[None]
    # All of a caller's state must sit where H rides in red and V in blue.
    correlated = sum((np.abs(arr[_rails(state.num_targets, r)]) ** 2).sum() for r in (0, 1))
    if abs(correlated - 1.0) > 1e-12:
        raise ContractError("state is not rail-correlated; build it with prepare_entangled_input")
    return PhotonicState(state.num_targets, _blue_ladder(arr, unitary.matrix[None], k)[-1])


def beamsplitter_mix(state: PhotonicState) -> PhotonicState:
    """Remix every target's rails on a balanced beamsplitter.

    Red feeds (upper + lower)/sqrt(2) and blue (upper - lower)/sqrt(2),
    after which the rail axes index output ports.
    """
    if state.stage == STAGE_PORTS:
        raise ContractError("rails were already mixed into ports")
    arr = _mix(state._tensor()[None])
    return PhotonicState(state.num_targets, arr.reshape(-1), STAGE_PORTS)


def parity_cases(n: int, label: str | None = None) -> tuple[ParityBranch, ...]:
    """All port patterns for n targets, optionally filtered by label."""
    n = qmath._integer("n", n)
    if n < 1:
        raise ContractError(f"need at least one target, got {n}")
    if label not in (None, "P", "Q"):
        raise ContractError(f"label must be 'P', 'Q', or None, got {label!r}")
    branches = _parity_cases(n)
    return branches if label is None else tuple(b for b in branches if b.label == label)


@functools.cache
def _parity_cases(n: int) -> tuple[ParityBranch, ...]:
    return tuple(
        ParityBranch("P" if sum(pattern) % 2 == 0 else "Q", pattern)
        for pattern in product((0, 1), repeat=n)
    )


def postselect(
    state: PhotonicState, branch: ParityBranch
) -> tuple[StateVector | None, float]:
    """Project onto one port pattern and strip the rail labels.

    Returns the normalized control+target polarization state and the
    pattern's probability; a branch with zero weight yields
    ``(None, 0.0)`` rather than an exception.
    """
    if state.stage != STAGE_PORTS:
        raise ContractError("postselect only applies after beamsplitter_mix")
    if len(branch.case_pattern) != state.num_targets:
        raise ContractError(
            f"pattern covers {len(branch.case_pattern)} target(s), "
            f"state has {state.num_targets}"
        )
    states, probs = _postselect_all(state._tensor()[None])
    index = int("".join(str(rail) for rail in branch.case_pattern), 2)
    prob = float(probs[0, index])
    if prob == 0.0:
        return None, 0.0
    return StateVector(state.num_targets + 1, states[0, index]), prob


class PhotonicProvider:
    """Controlled-power provider backed by the dual-rail pipeline.

    A chunk of T trials runs each stage once on its whole stack: it
    prepares T rows, cascades their blue rails into the m * T rung-major
    rows of ``_blue_ladder`` (row (k - 1) * T + t is trial t at rung k),
    and remixes and post-selects all of them at once into one branch per
    port pattern, labeled by its parity ("P" even, "Q" odd); ``qpe``
    documents the arrays ``rounds`` returns.
    ``branch_counts`` tallies the branches drawn in sampled runs.
    """

    name = "photonic"

    def __init__(self):
        self.branch_counts = {"P": 0, "Q": 0}

    def rounds(self, unitaries: np.ndarray, target: StateVector, m: int):
        count = len(unitaries)
        # The target is a checked StateVector, so the prepared input needs no
        # norm check; _mix is unitary, so one check after it also covers the cascade.
        arr = _mix(_blue_ladder(_prepare(target.amplitudes, count), unitaries, m))
        qmath.check_normalized(arr.reshape(m * count, -1))
        states, weight = _postselect_all(arr)
        labels = tuple(branch.label for branch in parity_cases(target.num_qubits))
        return states.reshape((m, count) + states.shape[1:]), weight.reshape(m, count, -1), labels


def jitter_waveplates(
    plates, noise: NoiseSpec, rng: np.random.Generator
) -> tuple[WaveplateSpec, ...]:
    """Perturb each plate angle by a Gaussian of the configured sigma."""
    sigma = noise.angle_jitter_sigma_deg
    out = []
    for plate in plates:
        if not isinstance(plate, WaveplateSpec):
            raise ContractError(
                f"expected WaveplateSpec, got {type(plate).__name__}"
            )
        delta = float(rng.normal(0.0, sigma)) if sigma > 0.0 else 0.0
        out.append(WaveplateSpec(plate.kind, plate.angle_deg + delta))
    return tuple(out)
