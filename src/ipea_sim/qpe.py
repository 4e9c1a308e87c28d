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
The iterative engine is generic over how the gate C-U^(2^(k-1)) is
realized, and it runs a batch of trials together: a stack of T
unitaries, one shared target and one generator per trial.  Every
repetition of a round starts from a freshly prepared target, so the
state just before the control is measured is the same for all of them.
A provider therefore builds each round once for the whole batch and
returns its branch table::

    round_table(unitaries, target, k, omegas) -> RoundTable

``unitaries`` is a (T, d, d) stack and ``omegas`` holds the T feedback
rotations.  The table holds (T, B) arrays: each branch's weight and its
bit pair (P(bit 0), P(bit 1)) after the rotation, plus the B branch
labels.  ``MatrixProvider`` below applies the explicit block matrix and
returns one unlabeled branch of weight 1.  The photonics module supplies
a dual-rail optical realization with parity post-selection and returns
one branch per port pattern.  Its odd-parity branches (label ``"Q"``)
are salvaged by flipping the measured bit, so their pair is stored
already swapped; a pattern that (numerically) never fires has weight 0.

Exact mode takes the weighted sum of a one-trial table.  Sampled mode
draws each trial's repetitions from its own row of the table with its
own generator: first a uniform for the branch, searched in the cdf of
the normalized weights exactly as ``Generator.choice`` does (skipped
when the table is a single unlabeled branch), then a uniform for the
control outcome, "+" when it falls below P(+).  So a matrix repetition
takes one uniform and a photonic repetition two, and a trial's uniforms
for one round come from one ``rng.random(n)`` call, which yields the
same values as n single draws.  A trial's estimate thus depends only on
its own unitary and generator, never on the batch it ran in.  The
engine runs a batch in chunks of ``batch_trials(reps)`` trials, so a
round never holds more than ``MAX_ROUND_UNIFORMS`` uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qmath
from .qmath import (
    CONSTRUCTION_TOL,
    CapacityError,
    ContractError,
    StateVector,
    Unitary,
    max_qubits,
)

__all__ = [
    "MAX_ROUND_UNIFORMS",
    "EigenproblemSpec",
    "PhaseEstimate",
    "CollapseResult",
    "ExactIpeaResult",
    "RoundTable",
    "BatchEstimate",
    "MatrixProvider",
    "resolve_provider",
    "feedback_angle",
    "control_pairs",
    "ancilla_bit_distribution",
    "batch_trials",
    "ipea_batch",
    "ipea_run",
    "ipea_run_exact",
    "qpe_full_distribution",
    "collapse_run",
    "collapse_project",
    "circular_distance",
    "bits_of",
]

# A round of one chunk of trials draws at most this many uniforms.
MAX_ROUND_UNIFORMS = 1 << 16

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_PLUS = np.array([_SQRT1_2, _SQRT1_2], dtype=complex)
_MINUS = np.array([_SQRT1_2, -_SQRT1_2], dtype=complex)


def _validated_bits(bits) -> tuple[int, ...]:
    out = []
    for b in bits:
        b = int(b)
        if b not in (0, 1):
            raise ContractError(f"bits must be 0 or 1, got {b}")
        out.append(b)
    return tuple(out)


def _numerator(bits: tuple[int, ...]) -> int:
    # The integer b1 b2 ... bm, b1 most significant.
    numerator = 0
    for b in bits:
        numerator = (numerator << 1) | b
    return numerator


def bits_of(value: int, width: int) -> tuple[int, ...]:
    """Binary digits of ``value``, most significant first."""
    if not 0 <= value < 1 << width:
        raise ContractError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def _feedback_angles(numerators, width: int) -> np.ndarray:
    # -2 pi times 0.0 b_{k+1} ... b_m, where each numerator holds the
    # ``width`` = m - k measured bits with b_{k+1} most significant; the
    # quotient by a power of two is exact.
    return -2.0 * np.pi * (np.asarray(numerators) / float(1 << (width + 1)))


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
    return float(_feedback_angles(_numerator(bits), len(bits)))


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
        exact = _numerator(bits) / (1 << len(bits))
        if self.value != exact:
            raise ContractError(f"value {self.value!r} does not equal 0.{bits} = {exact!r}")

    @classmethod
    def from_bits(cls, bits) -> "PhaseEstimate":
        bits = _validated_bits(bits)
        return cls(bits=bits, value=_numerator(bits) / (1 << len(bits)))

    @classmethod
    def from_numerator(cls, numerator: int, m: int) -> "PhaseEstimate":
        """The m-bit estimate numerator / 2^m."""
        return cls.from_bits(bits_of(int(numerator), m))

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


class RoundTable(NamedTuple):
    """One round's branch table for a batch of T trials and B branches.

    ``weight[t, b]`` is the (unnormalized) probability of branch b in
    trial t, 0 for a branch that never occurs; ``p0`` and ``p1`` are the
    probabilities of bit 0 and bit 1 within the branch, already swapped
    on a relabeled ``"Q"`` branch; ``labels`` names the post-selected
    branches, or is ``(None,)`` for an unbranched realization.
    """

    weight: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    labels: tuple


class BatchEstimate(NamedTuple):
    """Sampled estimates of a batch of trials.

    Trial t's estimate is ``numerators[t] / 2^m``; ``branch_tally`` maps
    each drawn branch label to its per-trial count (empty for an
    unbranched provider).
    """

    numerators: np.ndarray
    branch_tally: dict


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


def control_pairs(amplitudes: np.ndarray, omegas) -> tuple[np.ndarray, np.ndarray]:
    """(P(+), P(-)) on the control qubit after each feedback rotation.

    ``amplitudes`` holds control+target states along its last axis
    (control first, so the second half carries |1>); ``omegas`` holds
    one angle per state (its shape is the leading shape of
    ``amplitudes``, or broadcasts to it).  The rotation is
    diag(1, e^{i omega}) on the control; only the relative phase
    matters.
    """
    half = amplitudes.shape[-1] // 2
    rotated = np.array(amplitudes, dtype=complex)
    rotated[..., half:] *= np.exp(1j * np.asarray(omegas))[..., None]
    pairs = rotated.reshape(rotated.shape[:-1] + (2, half))
    plus = (np.abs(_PLUS @ pairs) ** 2).sum(axis=-1)
    minus = (np.abs(_MINUS @ pairs) ** 2).sum(axis=-1)
    return plus, minus


def ancilla_bit_distribution(state: StateVector, omega: float) -> tuple[float, float]:
    """(P(+), P(-)) on the control qubit after the feedback rotation."""
    plus, minus = control_pairs(state.amplitudes[None], [omega])
    return float(plus[0]), float(minus[0])


def _unitary_powers(unitaries: np.ndarray, k: int) -> np.ndarray:
    if k < 1:
        raise ContractError(f"iteration index k must be >= 1, got {k}")
    if k > 63:
        raise ContractError(f"iteration index k={k} is out of range")
    # k - 1 squarings: np.linalg.matrix_power's arithmetic for 2^(k-1).
    for _ in range(k - 1):
        unitaries = unitaries @ unitaries
    return unitaries


class MatrixProvider:
    """Realize C-U^(2^(k-1)) as the explicit block matrix diag(I, W)."""

    name = "matrix"

    def round_table(
        self, unitaries: np.ndarray, target: StateVector, k: int, omegas
    ) -> RoundTable:
        w = _unitary_powers(unitaries, k)
        if w.shape[-1] != target.dim:
            raise ContractError(
                f"unitary dim {w.shape[-1]} does not match target dim {target.dim}"
            )
        count, dim = len(w), target.dim
        states = np.empty((count, 2 * dim), dtype=complex)
        states[:, :dim] = target.amplitudes
        states[:, dim:] = (w @ target.amplitudes[:, None])[..., 0]
        states *= _SQRT1_2
        qmath.check_normalized(states)
        plus, minus = control_pairs(states, omegas)
        return RoundTable(np.ones((count, 1)), plus[:, None], minus[:, None], (None,))


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


def _branch_cdfs(weight: np.ndarray) -> np.ndarray:
    """Each trial's cumulative branch distribution, checked and built as
    Generator.choice does."""
    total = np.zeros(len(weight))
    for column in weight.T:  # in branch order, as the builtin sum adds them
        total += column
    p = weight / np.where(total > 0, total, 1.0)[:, None]
    bad = (p < 0).any(axis=1) | ~(np.abs(p.sum(axis=1) - 1.0) <= _CHOICE_ATOL)
    if bad.any():
        t = int(np.argmax(bad))
        raise ContractError(
            "branch probabilities must be non-negative and sum to 1, "
            f"got weights {weight[t].tolist()}"
        )
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def _draw_round(table: RoundTable, reps: int, rngs) -> tuple[np.ndarray, dict]:
    """Majority bit of every trial's ``reps`` repetitions, and the drawn branches.

    A table that is a single unlabeled branch takes one uniform per
    repetition, for the control outcome.  Any other table takes two per
    repetition: the branch, then the control outcome.  Returns the
    trials' bits and a label -> per-trial count dict of drawn branches.
    """
    weight, p0, p1, labels = table
    count = len(rngs)
    if weight.shape != (count, len(labels)) or not p0.shape == p1.shape == weight.shape:
        raise ContractError(
            f"round table of shape {weight.shape} does not cover {count} trial(s) "
            f"and {len(labels)} branch(es)"
        )
    single = len(labels) == 1 and labels[0] is None
    cdf = None if single else _branch_cdfs(weight)
    u = np.empty((count, reps if single else 2 * reps))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    if single:
        # "+" (bit 0) when the uniform falls below P(+).
        return (u >= p0).sum(axis=1) > reps // 2, {}
    # searchsorted(cdf, u, side="right"): the number of cdf entries <= u,
    # so a zero-width branch is never picked.
    picks = (cdf[:, None, :] <= u[:, 0::2, None]).sum(axis=2)
    flip = np.array([label == "Q" for label in labels], dtype=bool)[picks]
    # "+" (bit 0 before relabeling) when the uniform falls below P(+) as
    # measured, i.e. before a Q branch's relabeling swapped the pair.
    trial = np.arange(count)[:, None]
    plus = np.where(flip, p1[trial, picks], p0[trial, picks])
    bits = (u[:, 1::2] >= plus) ^ flip
    drawn: dict = {}
    for b, label in enumerate(labels):
        drawn[label] = drawn.get(label, 0) + (picks == b).sum(axis=1)
    return bits.sum(axis=1) > reps // 2, drawn


def _check_reps(reps_per_bit: int) -> None:
    if reps_per_bit < 1 or reps_per_bit % 2 == 0:
        raise ContractError(
            f"reps_per_bit must be odd and >= 1 so majority votes are decisive, "
            f"got {reps_per_bit}"
        )


def _checked_stack(unitaries, dim: int) -> np.ndarray:
    """A contiguous complex (T, dim, dim) stack whose every matrix is unitary."""
    stack = np.ascontiguousarray(unitaries, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        raise ContractError(
            f"expected a stack of {dim}x{dim} unitaries, got shape {stack.shape}"
        )
    gram = np.conj(np.swapaxes(stack, 1, 2)) @ stack
    gram -= np.eye(dim)
    dev = np.abs(gram).max(axis=(1, 2))
    # A non-finite entry makes its deviation NaN or inf, which fails too.
    bad = ~(dev <= CONSTRUCTION_TOL)
    if bad.any():
        t = int(np.argmax(bad))
        raise ContractError(
            f"matrix of trial {t} is not unitary: max |U†U - I| = {dev[t]:.3e}"
        )
    return stack


def batch_trials(reps_per_bit: int) -> int:
    """Trials per chunk, so that one round draws at most MAX_ROUND_UNIFORMS uniforms."""
    _check_reps(reps_per_bit)
    return max(1, MAX_ROUND_UNIFORMS // (2 * reps_per_bit))


def ipea_batch(
    unitaries,
    target: StateVector,
    m: int,
    reps_per_bit: int,
    provider,
    rngs,
) -> BatchEstimate:
    """Iterative m-bit estimates of a batch of trials, with per-bit majority voting.

    Trial t estimates the phase of ``unitaries[t]`` (a (T, d, d) stack)
    on ``target``, drawing from its own generator ``rngs[t]``, and gets
    exactly the estimate it would get alone.  Rounds run k = m down to
    1; each round repeats ``reps_per_bit`` times (odd, so the vote is
    decisive) and every trial's majority bit feeds its next rotation.
    The caller asserts the target is an eigenstate.  Each round's
    branch table is built once for a chunk of ``batch_trials(reps)``
    trials and every repetition of every trial is drawn from it (see the
    module docstring for the draw pattern).  A provider with a
    ``branch_counts`` dict has every drawn branch added to it.
    """
    if m < 1:
        raise ContractError(f"bit count m must be >= 1, got {m}")
    _check_reps(reps_per_bit)
    provider = resolve_provider(provider)
    rngs = list(rngs)
    if len(rngs) != len(unitaries):
        raise ContractError(f"{len(unitaries)} unitaries but {len(rngs)} generators")
    numerators = np.zeros(len(rngs), dtype=np.int64)
    tally: dict = {}
    step = batch_trials(reps_per_bit)
    for start in range(0, len(rngs), step):
        chunk = slice(start, start + step)
        stack = _checked_stack(unitaries[chunk], target.dim)
        for k in range(m, 0, -1):
            omegas = _feedback_angles(numerators[chunk], m - k)
            table = provider.round_table(stack, target, k, omegas)
            bits, drawn = _draw_round(table, reps_per_bit, rngs[chunk])
            numerators[chunk] |= bits.astype(np.int64) << (m - k)
            for label, counts in drawn.items():
                if label not in tally:
                    tally[label] = np.zeros(len(rngs), dtype=np.int64)
                tally[label][chunk] += counts
    branch_counts = getattr(provider, "branch_counts", None)
    if branch_counts is not None:
        for label, counts in tally.items():
            branch_counts[label] = branch_counts.get(label, 0) + int(counts.sum())
    return BatchEstimate(numerators, tally)


def ipea_run(
    spec: EigenproblemSpec,
    m: int,
    reps_per_bit: int = 11,
    provider="matrix",
    rng: np.random.Generator | None = None,
) -> PhaseEstimate:
    """Iterative m-bit estimate with per-bit majority voting.

    The one-trial case of ``ipea_batch``: rounds run k = m down to 1,
    each repeated ``reps_per_bit`` times (odd), and the majority bit
    feeds the next round's rotation.  The caller asserts the input is
    an eigenstate.  A provider with a ``branch_counts`` dict has it
    incremented once per repetition.
    """
    if rng is None:
        raise ContractError("ipea_run samples and therefore needs an explicit rng")
    batch = ipea_batch(
        spec.unitary.matrix[None], spec.input_state, m, reps_per_bit, provider, [rng]
    )
    return PhaseEstimate.from_numerator(batch.numerators[0], m)


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
    stack = spec.unitary.matrix[None]
    numerator = 0
    posteriors: list[float] = []
    for k in range(m, 0, -1):
        table = provider.round_table(
            stack, spec.input_state, k, _feedback_angles([numerator], m - k)
        )
        weight, p0, p1 = (column[0].tolist() for column in table[:3])
        total = sum(weight)
        post0 = sum(w * p for w, p in zip(weight, p0)) / total
        post1 = sum(w * p for w, p in zip(weight, p1)) / total
        bit = 1 if post1 > post0 else 0
        posteriors.append(post1 if bit else post0)
        numerator |= bit << (m - k)
    return ExactIpeaResult(PhaseEstimate.from_numerator(numerator, m), tuple(posteriors))


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
