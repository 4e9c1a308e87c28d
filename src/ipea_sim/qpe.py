"""Phase estimation engines over a black-box controlled unitary.

Two complementary engines live here:

* the iterative engine extracts an m-bit phase one bit per round with a
  single control qubit, least significant bit first, threading every
  measured bit into the feedback rotation of the next round;
* the full-register engine prepares m control qubits at once, applies
  the controlled powers, inverts the Fourier transform on the register
  with an FFT, and reads the whole register, which is also what drives
  eigenstate generation from non-eigenstate inputs.  One readout serves
  the register table and both collapse functions; its ``coherence``
  parameter selects the coherent circuit (None) or one whose control
  keeps only that fraction of its coherence.

Bit convention: measuring the control in the +/- basis maps "+" to bit
0 and "-" to bit 1.  An estimate ``bits = (b1, ..., bm)`` denotes the
binary fraction 0.b1...bm.

Controlled-power providers
--------------------------
``ipea_run`` and ``ipea_run_exact`` are generic over how the gate
C-U^(2^(k-1)) is realized.  Every repetition of a round starts from a
freshly prepared target, so the state just before the control is
measured is the same for all of them.  A provider therefore builds each
round once and returns its branch table::

    round_table(unitary, target, k, omega) -> tuple[BranchRow, ...]

Each row holds a branch weight, the bit pair (P(bit 0), P(bit 1)) after
the feedback rotation ``omega``, and the branch label.  ``MatrixProvider``
below applies the explicit block matrix and returns one unlabeled row of
weight 1.  The photonics module supplies a dual-rail optical realization
with parity post-selection and returns one row per port pattern; its
odd-parity rows (label ``"Q"``) are salvaged by flipping the measured
bit, so their pair is stored already swapped.

Exact mode takes the weighted sum of the rows.  Sampled mode draws each
repetition from the table: first a uniform for the branch, searched in
the cdf of the normalized weights exactly as ``Generator.choice`` does
(skipped when the table is a single unlabeled row), then a uniform for
the control outcome, "+" when it falls below P(+).  So a matrix
repetition takes one uniform and a photonic repetition two, and a
round's uniforms come from one ``rng.random(n)`` call, which yields the
same values as n single draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath
from .qmath import (
    CapacityError,
    ContractError,
    StateVector,
    Unitary,
    max_qubits,
)

__all__ = [
    "EigenproblemSpec",
    "PhaseEstimate",
    "CollapseResult",
    "ExactIpeaResult",
    "BranchRow",
    "MatrixProvider",
    "resolve_provider",
    "feedback_angle",
    "ancilla_bit_distribution",
    "ipea_run",
    "ipea_run_exact",
    "qpe_full_distribution",
    "collapse_run",
    "collapse_project",
    "circular_distance",
    "bits_of",
]

_SQRT1_2 = 1.0 / np.sqrt(2.0)


def _validated_bits(bits) -> tuple[int, ...]:
    out = []
    for b in bits:
        b = int(b)
        if b not in (0, 1):
            raise ContractError(f"bits must be 0 or 1, got {b}")
        out.append(b)
    return tuple(out)


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """Binary digits of ``value``, most significant first."""
    if not 0 <= value < 1 << width:
        raise ContractError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def feedback_angle(k: int, measured_bits) -> float:
    """Feedback rotation angle for round k, in radians.

    ``measured_bits`` are the already-extracted lower bits, ordered
    from position k+1 up to m.  The angle is -2*pi times the binary
    fraction 0.0 b_{k+1} ... b_m, evaluated in exact dyadic arithmetic;
    the final round (no measured bits yet) gets angle 0.
    """
    if k < 1:
        raise ContractError(f"iteration index k must be >= 1, got {k}")
    bits = _validated_bits(measured_bits)
    numerator = 0
    for b in bits:
        numerator = (numerator << 1) | b
    xi = numerator / (1 << (len(bits) + 1))
    return -2.0 * np.pi * xi


@dataclass(frozen=True)
class PhaseEstimate:
    """An m-bit phase: bits (b1..bm) and the value 0.b1...bm."""

    bits: tuple[int, ...]
    value: float

    def __post_init__(self):
        bits = _validated_bits(self.bits)
        if len(bits) < 1:
            raise ContractError("estimate needs at least one bit")
        object.__setattr__(self, "bits", bits)
        numerator = 0
        for b in bits:
            numerator = (numerator << 1) | b
        exact = numerator / (1 << len(bits))
        if self.value != exact:
            raise ContractError(f"value {self.value!r} does not equal 0.{bits} = {exact!r}")

    @classmethod
    def from_bits(cls, bits) -> "PhaseEstimate":
        bits = _validated_bits(bits)
        numerator = 0
        for b in bits:
            numerator = (numerator << 1) | b
        return cls(bits=bits, value=numerator / (1 << len(bits)))

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True, eq=False)
class EigenproblemSpec:
    """A unitary together with the prepared target state."""

    unitary: Unitary
    input_state: StateVector

    def __post_init__(self):
        if self.unitary.dim != self.input_state.dim:
            raise ContractError(
                f"unitary dim {self.unitary.dim} does not match "
                f"target dim {self.input_state.dim}"
            )


class BranchRow(NamedTuple):
    """One branch of a round's table.

    ``weight`` is the branch's (unnormalized) probability; ``p0`` and
    ``p1`` are the probabilities of bit 0 and bit 1 within the branch,
    already swapped on a relabeled ``"Q"`` branch; ``label`` names the
    post-selected branch, or is None for an unbranched realization.
    """

    weight: float
    p0: float
    p1: float
    label: str | None = None


@dataclass(frozen=True, eq=False)
class CollapseResult:
    """Full-register run on an arbitrary input: estimate plus collapse.

    ``collapsed_target`` is a StateVector for the coherent circuit and a
    DensityMatrix for a run with degraded control coherence.
    """

    estimate: PhaseEstimate
    collapsed_target: "StateVector | qmath.DensityMatrix"
    outcome_probability: float


@dataclass(frozen=True)
class ExactIpeaResult:
    """Deterministic run: bit choices plus their analytic posteriors.

    ``bit_posteriors[i]`` is the probability of the bit chosen at round
    k = m - i (rounds are ordered as executed, last bit first).
    """

    estimate: PhaseEstimate
    bit_posteriors: tuple[float, ...]


def _phase_on_control(state: StateVector, omega: float) -> StateVector:
    # diag(1, e^{i*omega}) on qubit 0; only the relative phase matters.
    amps = state.amplitudes.copy()
    half = amps.size // 2
    amps[half:] *= np.exp(1j * omega)
    return StateVector(state.num_qubits, amps)


def ancilla_bit_distribution(state: StateVector, omega: float) -> tuple[float, float]:
    """(P(+), P(-)) on the control qubit after the feedback rotation."""
    rotated = _phase_on_control(state, omega)
    return qmath.outcome_probabilities(rotated, 0, qmath.PLUS_MINUS)


def _unitary_power_matrix(unitary: Unitary, k: int) -> np.ndarray:
    if k < 1:
        raise ContractError(f"iteration index k must be >= 1, got {k}")
    if k > 63:
        raise ContractError(f"iteration index k={k} is out of range")
    return np.linalg.matrix_power(unitary.matrix, 1 << (k - 1))


class MatrixProvider:
    """Realize C-U^(2^(k-1)) as the explicit block matrix diag(I, W)."""

    name = "matrix"

    def round_table(
        self, unitary: Unitary, target: StateVector, k: int, omega: float
    ) -> tuple[BranchRow, ...]:
        w = _unitary_power_matrix(unitary, k)
        if w.shape[0] != target.dim:
            raise ContractError(
                f"unitary dim {w.shape[0]} does not match target dim {target.dim}"
            )
        amps = np.concatenate([target.amplitudes, w @ target.amplitudes]) * _SQRT1_2
        plus, minus = ancilla_bit_distribution(
            StateVector(target.num_qubits + 1, amps), omega
        )
        return (BranchRow(1.0, plus, minus),)


def resolve_provider(provider):
    """Accept 'matrix', 'photonic', or any provider-shaped object."""
    if isinstance(provider, str):
        if provider == "matrix":
            return MatrixProvider()
        if provider == "photonic":
            from .photonics import PhotonicProvider

            return PhotonicProvider()
        raise ContractError(f"unknown provider {provider!r}")
    if hasattr(provider, "round_table"):
        return provider
    raise ContractError(f"object {provider!r} does not implement the provider interface")


# Generator.choice rejects probabilities whose sum misses 1 by more than this.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _branch_cdf(rows) -> np.ndarray:
    """Cumulative branch distribution, checked and built as Generator.choice does."""
    weights = np.array([row.weight for row in rows], dtype=float)
    total = sum(row.weight for row in rows)
    p = weights / total if total > 0 else weights
    if p.size == 0 or np.any(p < 0) or not abs(p.sum() - 1.0) <= _CHOICE_ATOL:
        raise ContractError(
            "branch probabilities must be non-negative and sum to 1, "
            f"got weights {weights.tolist()}"
        )
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _sample_ones(rows, reps: int, rng: np.random.Generator, tally) -> int:
    """Number of 1 bits among ``reps`` repetitions drawn from one table.

    A table that is a single unlabeled row takes one uniform per
    repetition, for the control outcome.  Any other table takes two per
    repetition: the branch, then the control outcome.  ``tally`` (a
    label -> count dict, or None) counts the drawn branches.
    """
    flip = np.array([row.label == "Q" for row in rows])
    # P(+) as measured, before a Q row's relabeling swapped the pair.
    plus = np.array([row.p1 if f else row.p0 for row, f in zip(rows, flip)])
    if len(rows) == 1 and rows[0].label is None:
        picks = np.zeros(reps, dtype=np.intp)
        u_bit = rng.random(reps)
    else:
        cdf = _branch_cdf(rows)
        u = rng.random(2 * reps)
        picks = cdf.searchsorted(u[0::2], side="right")
        u_bit = u[1::2]
        if tally is not None:
            for row, count in zip(rows, np.bincount(picks, minlength=len(rows))):
                tally[row.label] += int(count)
    # "+" (bit 0 before relabeling) when the uniform falls below P(+).
    bits = (u_bit >= plus[picks]) ^ flip[picks]
    return int(np.count_nonzero(bits))


def _bit_posterior(rows) -> tuple[float, float]:
    """(P(bit 0), P(bit 1)) of a round: the weighted sum over its rows."""
    total = sum(row.weight for row in rows)
    p0 = 0.0
    p1 = 0.0
    for row in rows:
        p0 += row.weight * row.p0
        p1 += row.weight * row.p1
    return p0 / total, p1 / total


def _check_reps(reps_per_bit: int) -> None:
    if reps_per_bit < 1 or reps_per_bit % 2 == 0:
        raise ContractError(
            f"reps_per_bit must be odd and >= 1 so majority votes are decisive, "
            f"got {reps_per_bit}"
        )


def ipea_run(
    spec: EigenproblemSpec,
    m: int,
    reps_per_bit: int = 11,
    provider="matrix",
    rng: np.random.Generator | None = None,
) -> PhaseEstimate:
    """Iterative m-bit estimate with per-bit majority voting.

    Rounds run k = m down to 1; each round repeats ``reps_per_bit``
    times (odd, so the vote is decisive) and the majority bit feeds the
    next round's rotation.  The caller asserts the input is an
    eigenstate.  Every repetition of a round starts from the same
    freshly prepared state, so the provider builds the round's branch
    table once and all repetitions are drawn from it (see the module
    docstring for the draw pattern).  A provider with a
    ``branch_counts`` dict has it incremented once per repetition.
    """
    if m < 1:
        raise ContractError(f"bit count m must be >= 1, got {m}")
    _check_reps(reps_per_bit)
    if rng is None:
        raise ContractError("ipea_run samples and therefore needs an explicit rng")
    provider = resolve_provider(provider)
    tally = getattr(provider, "branch_counts", None)
    tail: list[int] = []
    for k in range(m, 0, -1):
        omega = feedback_angle(k, tail)
        rows = provider.round_table(spec.unitary, spec.input_state, k, omega)
        ones = _sample_ones(rows, reps_per_bit, rng, tally)
        tail.insert(0, 1 if ones > reps_per_bit // 2 else 0)
    return PhaseEstimate.from_bits(tail)


def ipea_run_exact(spec: EigenproblemSpec, m: int, provider="matrix") -> ExactIpeaResult:
    """Deterministic variant: each bit is the argmax of its posterior.

    No sampling happens; each round's posterior is the weighted sum of
    its branch table (for the optical provider, the average over all
    parity branches with odd branches already relabeled).  Ties resolve
    to bit 0.
    """
    if m < 1:
        raise ContractError(f"bit count m must be >= 1, got {m}")
    provider = resolve_provider(provider)
    tail: list[int] = []
    posteriors: list[float] = []
    for k in range(m, 0, -1):
        omega = feedback_angle(k, tail)
        rows = provider.round_table(spec.unitary, spec.input_state, k, omega)
        p0, p1 = _bit_posterior(rows)
        bit = 1 if p1 > p0 else 0
        posteriors.append(p1 if bit else p0)
        tail.insert(0, bit)
    return ExactIpeaResult(PhaseEstimate.from_bits(tail), tuple(posteriors))


def _controlled_stage(unitary: Unitary, input_state: StateVector, m: int) -> np.ndarray:
    """Register x target amplitudes after H^m and all controlled powers.

    Rows are register values (qubit 0 of the register is the most
    significant bit), columns are target basis labels.
    """
    if m < 1:
        raise ContractError(f"register size m must be >= 1, got {m}")
    t = input_state.num_qubits
    if unitary.dim != input_state.dim:
        raise ContractError(
            f"unitary dim {unitary.dim} does not match target dim {input_state.dim}"
        )
    if m + t > max_qubits():
        raise CapacityError(
            f"{m}-qubit register plus {t}-qubit target exceeds the "
            f"{max_qubits()}-qubit cap"
        )
    dim = 1 << m
    stage = np.outer(np.full(dim, 1.0 / np.sqrt(dim)), input_state.amplitudes)
    # squares[e] = U^(2^e); register qubit j controls U^(2^(m-1-j)).
    squares = [unitary.matrix]
    for _ in range(m - 1):
        squares.append(squares[-1] @ squares[-1])
    x = np.arange(dim)
    for j in range(m):
        w = squares[m - 1 - j]
        rows = (x >> (m - 1 - j)) & 1 == 1
        stage[rows] = stage[rows] @ w.T
    return stage


def _register_readout(
    unitary: Unitary, input_state: StateVector, m: int, coherence: float | None
):
    """Outcome weights of the register and the conditional target of one outcome.

    The inverse Fourier transform on the register, entries
    2^(-m/2) e^{-2i pi jk / 2^m}, is exactly the orthonormal FFT along
    the register axis.  With ``coherence`` None the circuit is coherent
    and outcome x leaves the target in the pure state ``rotated[x]``.  A
    number c in [0, 1] keeps a c fraction of that coherent term and
    replaces the rest with the register-dephased mixture (coherences
    between register values zeroed before the final rotation).  Every
    Fourier entry has modulus 2^(-m/2), so that mixture is the same for
    every outcome: 2^-m sum_y |s_y><s_y| over the stage rows s_y.

    Returns the unnormalized weights and ``target(x)``, the target
    conditioned on outcome x (a StateVector, or a DensityMatrix when
    ``coherence`` is a number).
    """
    if coherence is not None and not 0.0 <= coherence <= 1.0:
        raise ContractError(f"coherence must lie in [0, 1], got {coherence!r}")
    stage = _controlled_stage(unitary, input_state, m)
    rotated = np.fft.fft(stage, axis=0, norm="ortho")
    weights = np.sum(np.abs(rotated) ** 2, axis=1)
    if coherence is None:

        def target(x: int) -> StateVector:
            return StateVector(input_state.num_qubits, rotated[x] / np.sqrt(weights[x]))

        return weights, target

    c = coherence
    dephased = stage.T @ stage.conj() / stage.shape[0]
    weights = c * weights + (1.0 - c) * np.trace(dephased).real

    def target(x: int) -> qmath.DensityMatrix:
        block = c * np.outer(rotated[x], rotated[x].conj()) + (1.0 - c) * dephased
        return qmath.DensityMatrix.from_matrix(block / weights[x])

    return weights, target


def qpe_full_distribution(spec: EigenproblemSpec, m: int) -> np.ndarray:
    """Exact register distribution of the full m-qubit circuit.

    Entry x is the probability of reading the register value x, whose
    binary digits (most significant first) are the phase bits.  The
    target is traced out, so the table is exact for any input.
    """
    probs, _ = _register_readout(spec.unitary, spec.input_state, m, None)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"distribution does not sum to 1: {total!r}")
    return probs


def collapse_project(
    unitary: Unitary,
    input_state: StateVector,
    m: int,
    outcome: int,
    coherence: float | None = None,
) -> tuple[float, "StateVector | qmath.DensityMatrix | None"]:
    """Probability and conditional target for one register outcome.

    The target is a StateVector for the coherent circuit (``coherence``
    None) and a DensityMatrix when only a ``coherence`` fraction of the
    control's coherence survives; it is None for an outcome that never
    occurs.
    """
    weights, target = _register_readout(unitary, input_state, m, coherence)
    if not 0 <= outcome < weights.size:
        raise ContractError(f"outcome {outcome} out of range for m={m}")
    prob = float(weights[outcome])
    if prob <= 1e-24:
        return 0.0, None
    return prob, target(outcome)


def collapse_run(
    unitary: Unitary,
    input_state: StateVector,
    m: int,
    rng: np.random.Generator,
    coherence: float | None = None,
) -> CollapseResult:
    """Run the full-register circuit and read every control.

    For a superposition of eigenstates the coherent circuit picks one
    eigenphase (with probability given by the input's weight on that
    eigenvector) and the target collapses onto the matching eigenstate.
    ``coherence`` degrades the control as in ``collapse_project``.
    """
    weights, target = _register_readout(unitary, input_state, m, coherence)
    probs = weights / weights.sum()
    x = int(rng.choice(probs.size, p=probs))
    return CollapseResult(PhaseEstimate.from_bits(bits_of(x, m)), target(x), float(probs[x]))


def circular_distance(a: float, b: float) -> float:
    """Distance between two phases on the unit circle, in [0, 0.5]."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)
