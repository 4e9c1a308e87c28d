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
matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]] (determinant -1).  The
physically normalized convention that multiplies each plate by -i is
available through ``convention="physical"``; it shifts the eigenphase
of a two-plate composite by one half.  Angles are degrees everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import qmath, qpe
from .qmath import ContractError, StateVector, Unitary

__all__ = [
    "MAX_CASCADE_K",
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
    "q_branch_relabel",
    "photonic_controlled_power",
    "PhotonicProvider",
    "apply_noise",
    "jitter_waveplates",
]

MAX_CASCADE_K = 16

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
    """Single-photon polarization state for a letter label."""
    try:
        vec = POLARIZATION_STATES[label]
    except KeyError:
        raise ContractError(
            f"unknown polarization {label!r}, expected one of "
            f"{sorted(POLARIZATION_STATES)}"
        ) from None
    return StateVector(1, vec)


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
        if not np.all(np.isfinite(amps)):
            raise ContractError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > qmath.CONSTRUCTION_TOL:
            raise ContractError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
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

    def jones(self, convention: str = "real") -> Unitary:
        if self.kind == "HWP":
            return hwp(self.angle_deg, convention)
        return qwp(self.angle_deg, convention)


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
        if not 0.0 <= float(self.distinguishability) <= 1.0:
            raise ContractError(
                f"distinguishability must lie in [0, 1], got {self.distinguishability!r}"
            )
        if not float(self.angle_jitter_sigma_deg) >= 0.0:
            raise ContractError(
                f"angle_jitter_sigma_deg must be >= 0, got {self.angle_jitter_sigma_deg!r}"
            )


def _check_convention(convention: str) -> None:
    if convention not in ("real", "physical"):
        raise ContractError(
            f"convention must be 'real' or 'physical', got {convention!r}"
        )


def hwp(theta_deg: float, convention: str = "real") -> Unitary:
    """Half waveplate with fast axis at ``theta_deg`` degrees."""
    _check_convention(convention)
    t = np.deg2rad(float(theta_deg))
    c, s = np.cos(2.0 * t), np.sin(2.0 * t)
    m = np.array([[c, s], [s, -c]], dtype=complex)
    if convention == "physical":
        m = -1j * m
    return Unitary(m)


def qwp(theta_deg: float, convention: str = "real") -> Unitary:
    """Quarter waveplate with fast axis at ``theta_deg`` degrees."""
    _check_convention(convention)
    t = np.deg2rad(float(theta_deg))
    c, s = np.cos(t), np.sin(t)
    m = np.array(
        [
            [c * c + 1j * s * s, (1.0 - 1j) * s * c],
            [(1.0 - 1j) * s * c, s * s + 1j * c * c],
        ],
        dtype=complex,
    )
    if convention == "physical":
        m = np.exp(-1j * np.pi / 4.0) * m
    return Unitary(m)


def compose_waveplates(plates, convention: str = "real") -> Unitary:
    """Product of a waveplate train; the first listed plate acts first."""
    plates = list(plates)
    if not plates:
        raise ContractError("waveplate train must contain at least one plate")
    matrix = np.eye(2, dtype=complex)
    for plate in plates:
        if isinstance(plate, WaveplateSpec):
            u = plate.jones(convention)
        elif isinstance(plate, Unitary):
            if plate.dim != 2:
                raise ContractError("waveplate matrices must be 2x2")
            u = plate
        else:
            raise ContractError(
                f"expected WaveplateSpec or Unitary, got {type(plate).__name__}"
            )
        matrix = u.matrix @ matrix
    return Unitary(matrix)


_SPECTRAL_GAP_TOL = 1e-8
_OVERLAP_TIE_TOL = 1e-6


def oracle_eigenphase(unitary: Unitary, selector="R") -> float:
    """Phase (as a fraction of a turn) of the eigenvector a selector picks.

    The selector is a polarization letter, a StateVector, or a raw
    amplitude vector; the eigenvector with the largest overlap wins.
    If a different eigenvalue's eigenvector ties for that overlap the
    choice is meaningless and a DegeneracyError is raised.  A fully
    degenerate spectrum (all eigenvalues equal) is fine: every vector
    is an eigenvector and the phase is unambiguous.
    """
    if isinstance(selector, str):
        vec = POLARIZATION_STATES.get(selector)
        if vec is None:
            raise ContractError(f"unknown selector {selector!r}")
    elif isinstance(selector, StateVector):
        vec = selector.amplitudes
    else:
        vec = np.asarray(selector, dtype=complex).reshape(-1)
        norm = np.linalg.norm(vec)
        if norm <= 0:
            raise ContractError("selector vector must be nonzero")
        vec = vec / norm
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


def prepare_entangled_input(psi: StateVector) -> PhotonicState:
    """Entangle control polarization with the rails of the target state.

    Produces (|H>|psi across red rails> + |V>|psi across blue rails>)
    divided by sqrt(2); rails are perfectly correlated across targets.
    """
    n = psi.num_qubits
    target = psi.amplitudes.reshape((2,) * n)
    arr = np.zeros((2,) + (2, 2) * n, dtype=complex)
    red = (0,) + (slice(None), 0) * n
    blue = (1,) + (slice(None), 1) * n
    arr[red] = target * _SQRT1_2
    arr[blue] = target * _SQRT1_2
    return PhotonicState(n, arr.reshape(-1), STAGE_RAILS)


def _rail_blocks(state: PhotonicState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = state._tensor()
    n = state.num_targets
    red = arr[(0,) + (slice(None), 0) * n]
    blue = arr[(1,) + (slice(None), 1) * n]
    return arr, red, blue


def apply_blue_unitary(state: PhotonicState, unitary: Unitary, k: int) -> PhotonicState:
    """Pass the blue rails through the unitary 2^(k-1) times.

    The cascade is literal: the blue polarization amplitudes are
    multiplied by the matrix once per copy, never by a precomputed
    power.  k is capped at 16.
    """
    if state.stage != STAGE_RAILS:
        raise ContractError("blue rails no longer exist after the beamsplitters")
    if not 1 <= k <= MAX_CASCADE_K:
        raise ContractError(f"need 1 <= k <= {MAX_CASCADE_K}, got {k}")
    n = state.num_targets
    if unitary.dim != 1 << n:
        raise ContractError(
            f"unitary dim {unitary.dim} does not match {n} target(s)"
        )
    arr, red, blue = _rail_blocks(state)
    correlated = float(np.sum(np.abs(red) ** 2) + np.sum(np.abs(blue) ** 2))
    if abs(correlated - 1.0) > 1e-12:
        raise ContractError(
            "state is not rail-correlated; build it with prepare_entangled_input"
        )
    vec = blue.reshape(-1)
    for _ in range(1 << (k - 1)):
        vec = unitary.matrix @ vec
    out = arr.copy()
    out[(1,) + (slice(None), 1) * n] = vec.reshape((2,) * n)
    return PhotonicState(n, out.reshape(-1), STAGE_RAILS)


_BS = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)


def beamsplitter_mix(state: PhotonicState) -> PhotonicState:
    """Remix every target's rails on a balanced beamsplitter.

    Red feeds (upper + lower)/sqrt(2) and blue (upper - lower)/sqrt(2),
    after which the rail axes index output ports.
    """
    if state.stage != STAGE_PORTS:
        arr = state._tensor()
        for target in range(state.num_targets):
            axis = 2 + 2 * target  # rail axis of this target
            arr = np.moveaxis(np.tensordot(_BS, arr, axes=(1, axis)), 0, axis)
        return PhotonicState(state.num_targets, arr.reshape(-1), STAGE_PORTS)
    raise ContractError("rails were already mixed into ports")


def parity_cases(n: int, label: str | None = None) -> tuple[ParityBranch, ...]:
    """All port patterns for n targets, optionally filtered by label."""
    if n < 1:
        raise ContractError(f"need at least one target, got {n}")
    if label not in (None, "P", "Q"):
        raise ContractError(f"label must be 'P', 'Q', or None, got {label!r}")
    branches = []
    for pattern in product((0, 1), repeat=n):
        tag = "P" if sum(pattern) % 2 == 0 else "Q"
        if label is None or tag == label:
            branches.append(ParityBranch(tag, pattern))
    return tuple(branches)


def _projected_block(state: PhotonicState, pattern: tuple[int, ...]) -> np.ndarray:
    arr = state._tensor()
    idx: list = [slice(None)]
    for rail in pattern:
        idx.extend([slice(None), rail])
    return arr[tuple(idx)].reshape(-1)


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
    block = _projected_block(state, branch.case_pattern)
    prob = float(np.sum(np.abs(block) ** 2))
    if prob <= 1e-24:
        return None, 0.0
    return StateVector(state.num_targets + 1, block / np.sqrt(prob)), prob


def q_branch_relabel(bit: int) -> int:
    """Salvage an odd-parity event by flipping the measured bit."""
    if bit not in (0, 1):
        raise ContractError(f"bit must be 0 or 1, got {bit}")
    return 1 - bit


def _pipeline(unitary: Unitary, target: StateVector, k: int) -> PhotonicState:
    ph = prepare_entangled_input(target)
    ph = apply_blue_unitary(ph, unitary, k)
    return beamsplitter_mix(ph)


def photonic_controlled_power(unitary: Unitary, k: int) -> Unitary:
    """Effective control+target operator of the post-selected pipeline.

    Reconstructs the induced map column by column from the first
    even-parity pattern (all upper ports) and asserts it matches the
    direct block matrix diag(I, U^(2^(k-1))) up to global phase.
    """
    n = int(np.log2(unitary.dim))
    if 1 << n != unitary.dim:
        raise ContractError(f"unitary dim {unitary.dim} is not a power of two")
    dim = unitary.dim
    first_case = (0,) * n
    scale = np.sqrt(float(1 << (n + 1)))
    columns = []
    for j in range(dim):
        ports = _pipeline(unitary, qmath.basis_state(n, j), k)
        block = _projected_block(ports, first_case)
        columns.append(block * scale)
    induced = np.stack(columns, axis=1)  # maps psi -> |0>psi + |1>W psi
    top, bottom = induced[:dim], induced[dim:]
    if np.max(np.abs(top - np.eye(dim))) > qmath.CONSTRUCTION_TOL:
        raise ContractError("post-selected pipeline does not act as identity on |H>")
    effective = np.zeros((2 * dim, 2 * dim), dtype=complex)
    effective[:dim, :dim] = np.eye(dim)
    effective[dim:, dim:] = bottom
    direct = np.linalg.matrix_power(unitary.matrix, 1 << (k - 1))
    rng = qmath.derive_rng(0x1DEA, k, dim)
    for _ in range(4):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = raw / np.linalg.norm(raw)
        via_pipeline = np.concatenate([psi, bottom @ psi]) * _SQRT1_2
        via_direct = np.concatenate([psi, direct @ psi]) * _SQRT1_2
        if abs(np.vdot(via_direct, via_pipeline)) < 1.0 - 1e-10:
            raise ContractError(
                "post-selected pipeline deviates from the direct controlled power"
            )
    return Unitary(effective)


class PhotonicProvider:
    """Controlled-power provider backed by the dual-rail pipeline.

    Each round prepares the entangled input, cascades the blue rails,
    remixes, and post-selects every port pattern once; the table holds
    one row per pattern with its exact probability.  Odd-parity (Q)
    rows are kept and relabeled by flipping the measured bit.
    ``branch_counts`` tallies the branches drawn in sampled runs so
    callers can report the even/odd split.
    """

    name = "photonic"

    def __init__(self):
        self.branch_counts = {"P": 0, "Q": 0}

    def round_table(
        self, unitary: Unitary, target: StateVector, k: int, omega: float
    ) -> tuple[qpe.BranchRow, ...]:
        ports = _pipeline(unitary, target, k)
        rows = []
        for branch in parity_cases(ports.num_targets):
            sv, prob = postselect(ports, branch)
            if sv is None:
                continue
            plus, minus = qpe.ancilla_bit_distribution(sv, omega)
            if branch.label == "Q":
                plus, minus = minus, plus
            rows.append(qpe.BranchRow(prob, plus, minus, branch.label))
        return tuple(rows)


def apply_noise(
    state: StateVector, noise: NoiseSpec, rng: np.random.Generator | None = None
) -> qmath.DensityMatrix:
    """Degrade a control+target pure state by partial distinguishability.

    Keeps a ``noise.distinguishability`` fraction of the coherent
    projector and replaces the rest with its control-dephased version
    (coherences between the control's H and V blocks zeroed).  The rng
    argument exists for signature symmetry with the sampled runs and is
    unused here.
    """
    del rng
    p = float(noise.distinguishability)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    half = state.dim // 2
    dephased = rho.copy()
    dephased[:half, half:] = 0.0
    dephased[half:, :half] = 0.0
    return qmath.DensityMatrix.from_matrix(p * rho + (1.0 - p) * dephased)


def jitter_waveplates(
    plates, noise: NoiseSpec, rng: np.random.Generator
) -> tuple[WaveplateSpec, ...]:
    """Perturb each plate angle by a Gaussian of the configured sigma."""
    sigma = float(noise.angle_jitter_sigma_deg)
    out = []
    for plate in plates:
        if not isinstance(plate, WaveplateSpec):
            raise ContractError(
                f"expected WaveplateSpec, got {type(plate).__name__}"
            )
        delta = float(rng.normal(0.0, sigma)) if sigma > 0.0 else 0.0
        out.append(WaveplateSpec(plate.kind, plate.angle_deg + delta))
    return tuple(out)
