"""Phase estimation engines over a black-box controlled unitary.

* The iterative engine (``ipea_batch``, ``ipea_run``, ``ipea_run_exact``)
  reads an m-bit phase one bit per round with a single control qubit,
  least significant bit first, each measured bit feeding the next
  round's feedback rotation; both modes run one chunk loop, ``_ipea_engine``.
* The full-register engine prepares m control qubits, applies the
  controlled powers and reads the register through an orthonormal FFT,
  coherent (``coherence`` None) or with that fraction of the control's
  coherence kept.  One readout takes a ``(T, d, d)`` stack of unitaries,
  each on its own input row or all on one shared row, and each row has
  the bits of its matrix read alone on its input: the register table and
  a collapse study read a one-matrix stack, and fig5 reads its nine
  panels as one stack.

Bit convention: "+" reads bit 0 and "-" bit 1; ``bits = (b1, ..., bm)``
is the binary fraction 0.b1...bm.

A controlled-power provider answers ``rounds(stack, target, m)`` for a
``(T, d, d)`` chunk with ``(states, weight, labels)``: round k's
``(T, B, 2d)`` branch states (control first) at ``states[k - 1]``, their
``(T, B)`` weights (0 for a branch that never occurs) and the B labels,
``(None,)`` or "P"/"Q" (a Q branch's measured bit is flipped).  The
engine checks them once per chunk and runs every round on them
(``_ipea_engine``, ``_majority_votes``).  A trial's estimate depends only
on its own unitary and stream, never on its batch or chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import qmath
from .qmath import CapacityError, ContractError, StateVector, Unitary

__all__ = [
    "MAX_ROUND_UNIFORMS",
    "EigenproblemSpec",
    "PhaseEstimate",
    "CollapseResult",
    "ExactIpeaResult",
    "BatchEstimate",
    "MatrixProvider",
    "resolve_provider",
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

# A round of one chunk of trials reads at most this many uniforms; a chunk
# draws its m rounds' uniforms in one request, at most m times this many.
MAX_ROUND_UNIFORMS = 1 << 16
# The most repetitions whose draws, two uniforms each, fit one trial's round.
MAX_REPS = MAX_ROUND_UNIFORMS // 2 - 1
# Majority votes per bit when a run names none (the ``reps`` directive's default).
DEFAULT_REPS = 11

_SQRT1_2 = 1.0 / np.sqrt(2.0)
# <+| and <-| stacked to meet a (T, B, 2, d) rung as (2, T, B, 1, d) products.
_PLUS_MINUS = (_SQRT1_2 * np.array([[1, 1], [1, -1]], dtype=complex)).reshape(2, 1, 1, 1, 2)


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
    # ``width`` = m - k measured bits with b_{k+1} most significant.  Scaling
    # by a power of two is exact, so this one product rounds once, exactly
    # as -2 pi * (numerator / 2^(width + 1)) does.
    return np.asarray(numerators) * (-2.0 * np.pi / float(1 << (width + 1)))


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
    def from_numerator(cls, numerator: int, m: int) -> "PhaseEstimate":
        """The m-bit estimate numerator / 2^m."""
        numerator = int(numerator)
        return cls(bits=bits_of(numerator, m), value=numerator / (1 << m))

    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True, eq=False)
class EigenproblemSpec:
    """A unitary together with the prepared target state."""

    unitary: Unitary
    input_state: StateVector

    def __post_init__(self):
        qmath._check_dims(self.unitary.dim, self.input_state.dim)


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


def ancilla_bit_distribution(state: StateVector, omega: float) -> tuple[float, float]:
    """(P(+), P(-)) on the control qubit after the feedback rotation
    diag(1, e^{i omega}): one trial's one-branch round of ``_round_pairs``."""
    plus, minus = _round_pairs((state.amplitudes[None, None, None],), 1, np.array([omega]))
    return float(plus[0, 0]), float(minus[0, 0])


def _squaring_ladder(unitaries: np.ndarray, m: int) -> list[np.ndarray]:
    """[U, U^2, ..., U^(2^(m-1))] by m - 1 squarings, as np.linalg.matrix_power does."""
    ladder = [unitaries]
    for _ in range(m - 1):
        ladder.append(ladder[-1] @ ladder[-1])
    return ladder


class MatrixProvider:
    """Realize C-U^(2^(k-1)) as the explicit block matrix diag(I, W)."""

    name = "matrix"
    labels = (None,)  # one branch, unlabeled

    def rounds(self, unitaries: np.ndarray, target: StateVector, m: int):
        qmath._check_bits(m)
        qmath._check_dims(unitaries.shape[-1], target.dim)
        count, dim = len(unitaries), target.dim
        # Round k's rung is every trial's U^(2^(k-1)) applied to the target.
        powered = np.stack(_squaring_ladder(unitaries, m)) @ target.amplitudes[:, None]
        states = np.empty((m, count, 1, 2 * dim), dtype=complex)
        states[..., 0, :dim] = target.amplitudes
        states[..., 0, dim:] = powered[..., 0]
        states *= _SQRT1_2
        return states, np.ones((m, count, 1)), self.labels


def resolve_provider(provider):
    """Accept 'matrix', 'photonic', or any provider-shaped object."""
    if isinstance(provider, str):
        if provider == "matrix":
            return MatrixProvider()
        if provider == "photonic":
            from .photonics import PhotonicProvider

            return PhotonicProvider()
        raise ContractError(f"unknown provider {provider!r}")
    if hasattr(provider, "rounds"):
        return provider
    raise ContractError(f"object {provider!r} does not implement the provider interface")


def _branch_totals(weight: np.ndarray) -> np.ndarray:
    total = np.zeros(weight.shape[:-1])
    for b in range(weight.shape[-1]):  # left to right, the order exact posteriors are pinned to
        total += weight[..., b]
    return total


def _check_weights(weight: np.ndarray) -> None:
    """Refuse any rung of ``(m, T, B)`` branch weights that cannot be
    normalized: one with a negative weight, or whose sum is not positive
    and finite.  Normalized, any other rung sums to 1 within a few ulps,
    well inside Generator.choice's tolerance."""
    total = _branch_totals(weight)
    bad = ~((total > 0) & (total < np.inf)) | (weight < 0).any(axis=-1)
    if bad.any():
        k, t = np.unravel_index(np.argmax(bad), bad.shape)
        raise ContractError(
            "branch probabilities must be non-negative and sum to 1, "
            f"got weights {weight[k, t].tolist()} in round {k + 1} of trial {t}"
        )


def _branch_cdfs(weight: np.ndarray) -> np.ndarray:
    """Each row's cumulative branch distribution over the last axis, built
    from checked weights as Generator.choice builds it."""
    cdf = np.cumsum(weight / _branch_totals(weight)[..., None], axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _rep_uniforms(labels) -> int:
    """The uniforms one repetition reads: one, the control outcome, for an
    unbranched round (labels ``(None,)``, the matrix provider's); two, the
    branch and then the outcome, for any other."""
    return 1 if labels == (None,) else 2


def _majority_votes(reps: int, draws, tally: dict, rounds, chunk: slice):
    """The sampled decider of ``_ipea_engine``: the part of a chunk's
    sampled rounds that no measured bit affects, every uniform drawn and
    every branch picked and tallied, once.

    A repetition reads ``_rep_uniforms(labels)`` uniforms.  Each trial's m
    rounds come from one ``uniforms(m * n)`` request on its row of
    ``draws``, which reads what m requests of n would, round m first.
    Returns ``vote(k, pairs)``, every trial's majority bit in round k from
    its measured pairs; ``tally`` maps each picked branch's label to its
    per-trial count over all of ``draws``' trials.
    """
    _, weight, labels = rounds
    m, count, width = weight.shape
    per = _rep_uniforms(labels)
    u = draws.rows(chunk.start, chunk.stop).uniforms(m * reps * per).reshape(count, m, reps, per)
    # Rung-major like the rounds: u[k - 1] holds round k's (T, reps, per) uniforms.
    u = u.swapaxes(0, 1)[::-1]
    outcome = u[..., -1]
    if per == 1:

        def vote(k: int, pairs: np.ndarray) -> np.ndarray:
            # "+" (bit 0) when the uniform falls below P(+).
            return (outcome[k - 1] >= pairs[0]).sum(axis=1) > reps // 2

        return vote
    # searchsorted(cdf, u, side="right"): the number of cdf entries <= u, so
    # a zero-width branch is never picked.  The last entry is exactly 1.0 and
    # every uniform is below 1, so only the first B - 1 entries are compared.
    cdf, first = _branch_cdfs(weight), u[..., 0]
    picks = np.zeros(first.shape, dtype=np.intp)
    for b in range(width - 1):
        picks += cdf[:, :, b, None] <= first
    q = np.array([label == "Q" for label in labels], dtype=bool)
    flip = q[picks]
    picks += width * np.arange(count)[:, None]  # flat indices into a (T, B) table
    table = np.bincount(picks.reshape(-1), minlength=count * width).reshape(count, width)
    for b, label in enumerate(labels):
        counts = tally.setdefault(label, np.zeros(len(draws), dtype=np.int64))
        counts[chunk] += table[:, b]

    def vote(k: int, pairs: np.ndarray) -> np.ndarray:
        # "+" as measured when the uniform falls below the picked branch's
        # P(+); a Q pick flips that outcome's bit.
        plus = pairs[0].take(picks[k - 1])
        return ((outcome[k - 1] >= plus) ^ flip[k - 1]).sum(axis=1) > reps // 2

    return vote


def _check_reps(reps_per_bit: int) -> None:
    if not 1 <= reps_per_bit <= MAX_REPS or reps_per_bit % 2 == 0:
        raise ContractError(
            f"reps_per_bit must be odd, so majority votes are decisive, and in 1..{MAX_REPS}, "
            f"got {reps_per_bit}"
        )


def batch_trials(reps_per_bit: int) -> int:
    """Trials per chunk, so that one round reads at most MAX_ROUND_UNIFORMS uniforms."""
    _check_reps(reps_per_bit)
    return MAX_ROUND_UNIFORMS // (2 * reps_per_bit)


def _round_pairs(rounds, k: int, omegas) -> np.ndarray:
    """Round k's ``(2, T, B)`` measured pairs: P(+) and P(-) of every branch
    of rung k after each trial's feedback rotation diag(1, e^{i omega}).

    Only rung k is copied, and its |1> half rotated in place.  Both
    projections come from one stacked product, in a layout that reads the
    bits of one <+| and one <-| product per state (pinned by the tests);
    no Q branch is relabeled here.
    """
    rung = rounds[0][k - 1].copy()
    half = rung.shape[-1] // 2
    rung[..., half:] *= np.exp(1j * omegas)[:, None, None]
    pairs = rung.reshape(rung.shape[:-1] + (2, half))
    return np.add.reduce(np.abs(_PLUS_MINUS @ pairs[None]) ** 2, axis=-1)[..., 0]


def _chunk_rounds(provider, stack: np.ndarray, target: StateVector, m: int):
    """The provider's rounds for one chunk of trials, checked once: their
    shapes, every live state's norm and every rung's branch weights."""
    states, weight, labels = provider.rounds(stack, target, m)
    states, weight, labels = np.asarray(states, complex), np.asarray(weight), tuple(labels)
    shape = (m, len(stack), len(labels))
    if weight.shape != shape or states.shape != shape + (2 * target.dim,):
        raise ContractError(
            f"rounds of shapes {states.shape} and {weight.shape} do not cover {m} round(s), "
            f"{len(stack)} trial(s) and {len(labels)} branch(es) of {2 * target.dim} amplitudes"
        )
    qmath.check_normalized(states, live=weight > 0)
    _check_weights(weight)
    return states, weight, labels


class _GeneratorDraws:
    """A one-trial uniform source that draws each request from a caller's generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def __len__(self) -> int:
        return 1

    def rows(self, start: int, stop: int) -> "_GeneratorDraws":
        return self

    def uniforms(self, count: int) -> np.ndarray:
        return self.rng.random(count)[None]


def _entry_unitaries(unitaries, target: StateVector, m: int, trials: int):
    """A caller's unitaries, checked where they enter an IPEA engine: one
    ``Unitary`` (checked when built) of the target's dimension, or a
    finite array of ``trials`` unitaries of that dimension, returned
    C-ordered, as a stacked matmul's bits depend on its operands' layout."""
    qmath._check_bits(m)
    if isinstance(unitaries, Unitary):
        qmath._check_dims(unitaries.dim, target.dim)
        return unitaries
    stack = np.ascontiguousarray(unitaries, dtype=complex)
    if not np.isfinite(stack).all():
        raise ContractError("matrix entries must be finite")
    qmath.check_unitary(stack)
    if stack.ndim != 3 or stack.shape[-1] != target.dim:
        raise ContractError(
            f"expected a stack of {target.dim}x{target.dim} unitaries, got shape {stack.shape}"
        )
    if trials != len(stack):
        raise ContractError(f"{len(stack)} unitaries but {trials} trial stream(s)")
    return stack


def _ipea_engine(
    unitaries, target: StateVector, m: int, provider, trials: int, step: int, decider
) -> np.ndarray:
    """The numerators of a batch of ``trials`` IPEA trials, run chunk by
    chunk: the one round engine of sampled and exact mode.

    Trial t estimates the phase of ``unitaries[t]`` (a C-ordered (T, d, d)
    stack whose rounds are built chunk by chunk, or one ``Unitary`` shared
    by every trial, whose rounds are built once; either checked where it
    entered) on ``target``, which the caller asserts is an eigenstate,
    with a resolved ``provider``, and gets exactly the estimate it would
    get alone.  A chunk holds at most ``step`` trials, and
    ``decider(rounds, chunk)`` turns its checked rounds into
    ``decide(k, pairs)`` for the trials of the ``chunk`` slice.  Rounds run
    k = m down to 1, and ``decide`` turns round k's measured pairs
    (``_round_pairs``) into every trial's bit, which feeds that trial's
    next feedback rotation.
    """
    shared = None
    if isinstance(unitaries, Unitary):
        # Built once, for one trial: a stacked product computes each matrix
        # alone, so these are the bits of every trial's rounds in a stack.
        shared = _chunk_rounds(provider, unitaries.matrix[None], target, m)
    numerators = np.zeros(trials, dtype=np.int64)
    for start in range(0, trials, step):
        chunk = slice(start, start + step)
        out = numerators[chunk]  # a view, which each round's bits are or-ed into
        if shared is None:
            rounds = _chunk_rounds(provider, unitaries[chunk], target, m)
        else:  # the one matrix's rounds, as read-only views over the chunk
            lead = (m, len(out))
            rounds = *(np.broadcast_to(a, lead + a.shape[2:]) for a in shared[:2]), shared[2]
        decide = decider(rounds, chunk)
        for k in range(m, 0, -1):
            out |= decide(k, _round_pairs(rounds, k, _feedback_angles(out, m - k))) << (m - k)
    return numerators


def ipea_batch(
    unitaries,
    target: StateVector,
    m: int,
    reps_per_bit: int,
    provider,
    draws,
) -> BatchEstimate:
    """Iterative m-bit estimates of a batch of trials, with per-bit majority
    voting: ``_ipea_engine``'s sampled mode.

    Trial t draws its uniforms from row t of ``draws``, a
    ``qmath.TrialStreams`` over the T trials, read from its current offset
    (every chunk starts there), or, for one trial, a caller's generator,
    advanced by exactly the uniforms drawn.  Each round repeats
    ``reps_per_bit`` times (odd, so the vote is decisive).  A provider
    with a ``branch_counts`` dict has every drawn branch added to it.
    """
    step = batch_trials(reps_per_bit)
    provider = resolve_provider(provider)
    if isinstance(draws, np.random.Generator):
        draws = _GeneratorDraws(draws)
    elif not isinstance(draws, qmath.TrialStreams):
        raise ContractError(f"draws must be qmath.TrialStreams or a Generator, not {draws!r:.60}")
    unitaries = _entry_unitaries(unitaries, target, m, len(draws))
    tally: dict = {}
    votes = partial(_majority_votes, reps_per_bit, draws, tally)
    numerators = _ipea_engine(unitaries, target, m, provider, len(draws), step, votes)
    _count_branches(provider, tally)
    return BatchEstimate(numerators, tally)


def _count_branches(provider, tally: dict) -> None:
    # Every drawn branch is added to a provider's ``branch_counts`` dict, if it has one.
    branch_counts = getattr(provider, "branch_counts", None)
    if branch_counts is not None:
        for label, counts in tally.items():
            branch_counts[label] = branch_counts.get(label, 0) + int(counts.sum())


def _vote_groups(stack: np.ndarray, target: StateVector, m: int, provider, groups) -> np.ndarray:
    """Sampled numerators of groups of trials run as one chunk: one
    provider call, one rounds check and one m-round loop for all of them.

    Group ``(reps, draws)`` takes the next ``len(draws)`` rows of ``stack``
    and votes at its own ``reps`` on its own ``qmath.TrialStreams``, as
    ``ipea_batch`` would run it alone.  The caller keeps a round within
    ``MAX_ROUND_UNIFORMS``, resolves ``provider`` and builds ``stack``
    C-ordered and unitary, so it is not checked again.  Picked branches
    are added to the provider's ``branch_counts``, if it has one.
    """
    tallies = [{} for _ in groups]
    edges = list(accumulate((len(draws) for _, draws in groups), initial=0))
    parts = [slice(a, b) for a, b in zip(edges, edges[1:])]

    def decider(rounds, chunk: slice):
        states, weight, labels = rounds
        votes = [
            _majority_votes(reps, draws, tally, (states[:, rows], weight[:, rows], labels),
                            slice(0, len(draws)))
            for (reps, draws), tally, rows in zip(groups, tallies, parts)
        ]
        if len(votes) == 1:
            return votes[0]

        def decide(k: int, pairs: np.ndarray) -> np.ndarray:
            return np.concatenate([vote(k, pairs[:, rows]) for vote, rows in zip(votes, parts)])

        return decide

    numerators = _ipea_engine(stack, target, m, provider, len(stack), len(stack), decider)
    for tally in tallies:
        _count_branches(provider, tally)
    return numerators


def _exact_batch(unitaries, target: StateVector, m: int, provider):
    """``ipea_run_exact`` over one trial per matrix of a stack (one for a
    ``Unitary``): the numerators and the ``(T, m)`` posteriors, row t in the
    order trial t's rounds ran.  A chunk holds as many trials as a reps-1
    sampled one."""
    trials = 1 if isinstance(unitaries, Unitary) else len(unitaries)
    provider = resolve_provider(provider)
    unitaries = _entry_unitaries(unitaries, target, m, trials)
    posteriors = np.empty((trials, m))

    def argmax(rounds, chunk: slice):
        _, weight, labels = rounds
        q = np.array([label == "Q" for label in labels])
        totals = _branch_totals(weight)
        chosen = posteriors[chunk]  # a view, which each round's column is written into

        def decide(k: int, pairs: np.ndarray) -> np.ndarray:
            # (P(bit 0), P(bit 1)) of every branch, a Q branch's pair swapped
            table = np.where(q, pairs[::-1], pairs)
            post = _branch_totals(weight[k - 1] * table) / totals[k - 1]
            # the chosen bit's posterior: the larger, as both are finite
            np.maximum(post[0], post[1], out=chosen[:, m - k])
            return post[1] > post[0]

        return decide

    numerators = _ipea_engine(unitaries, target, m, provider, trials, batch_trials(1), argmax)
    return numerators, posteriors


def ipea_run(
    spec: EigenproblemSpec,
    m: int,
    reps_per_bit: int = DEFAULT_REPS,
    provider="matrix",
    rng: np.random.Generator | None = None,
) -> PhaseEstimate:
    """Iterative m-bit estimate with per-bit majority voting: the
    one-trial case of ``ipea_batch``."""
    if rng is None:
        raise ContractError("ipea_run samples and therefore needs an explicit rng")
    batch = ipea_batch(spec.unitary, spec.input_state, m, reps_per_bit, provider, rng)
    return PhaseEstimate.from_numerator(batch.numerators[0], m)


def ipea_run_exact(spec: EigenproblemSpec, m: int, provider="matrix") -> ExactIpeaResult:
    """Deterministic variant: each bit is the argmax of its posterior, the
    weighted sum of its branches' bit probabilities added in branch order
    (for the optical provider, over all parity branches, each odd one's
    pair swapped, since its measured bit is flipped).  Ties resolve to bit
    0.  The one-trial case of ``_exact_batch``."""
    numerators, posteriors = _exact_batch(spec.unitary, spec.input_state, m, provider)
    return ExactIpeaResult(
        PhaseEstimate.from_numerator(numerators[0], m), tuple(posteriors[0].tolist())
    )


def _controlled_stage(unitaries: np.ndarray, inputs: np.ndarray, m: int) -> np.ndarray:
    """Register x target amplitudes after H^m and all controlled powers,
    one ``(2^m, d)`` stage per unitary of a ``(T, d, d)`` stack.

    ``inputs`` holds row t's input amplitudes as ``(T, d)``, or one
    ``(1, d)`` row shared by the whole stack.  Rows of a stage are
    register values (qubit 0 of the register is the most significant
    bit), columns are target basis labels.
    """
    qmath._check_bits(m)
    count, dim, d = len(unitaries), 1 << m, inputs.shape[-1]
    qmath._check_dims(unitaries.shape[-1], d)
    t = d.bit_length() - 1
    if m + t > qmath.MAX_QUBITS:
        raise CapacityError(
            f"{m}-qubit register plus {t}-qubit target exceeds the {qmath.MAX_QUBITS}-qubit cap"
        )
    stage = np.empty((count, dim, d), dtype=complex)
    np.multiply(np.full((dim, 1), 1.0 / np.sqrt(dim)), inputs[:, None], out=stage)
    # squares[e] = U^(2^e); register qubit j controls U^(2^(m-1-j)).
    squares = _squaring_ladder(unitaries, m)
    for j in range(m):
        # the rows whose register qubit j reads 1, as a view; the product
        # runs on a C-ordered copy, since matmul bits follow operand layout
        ones = stage.reshape(count, 1 << j, 2, -1, d)[:, :, 1]
        power = squares[m - 1 - j].swapaxes(-1, -2)
        ones[...] = (ones.copy().reshape(count, -1, d) @ power).reshape(ones.shape)
    return stage


def _register_readout(unitaries: np.ndarray, inputs: np.ndarray, m: int, coherence: float | None):
    """Outcome weights of the register and its conditional targets, for
    each unitary of a ``(T, d, d)`` stack on its row of ``inputs``
    (``(T, d)`` amplitudes, or one ``(1, d)`` row shared by the stack).

    The inverse Fourier transform on the register, entries
    2^(-m/2) e^{-2i pi jk / 2^m}, is exactly the orthonormal FFT along
    the register axis.  With ``coherence`` None the circuit is coherent
    and outcome x leaves the target in the pure state ``rotated[x]``.  A
    number c in [0, 1] keeps a c fraction of that coherent term and
    replaces the rest with the register-dephased mixture (coherences
    between register values zeroed before the final rotation).  Every
    Fourier entry has modulus 2^(-m/2), so that mixture is the same for
    every outcome: 2^-m sum_y |s_y><s_y| over the stage rows s_y.

    Returns the ``(T, 2^m)`` unnormalized weights and ``targets(xs)``:
    row t's target conditioned on outcome ``xs[t]``, normalized and not
    yet checked, as ``(T, d)`` amplitudes, or ``(T, d, d)`` density
    matrices when ``coherence`` is a number.  Each row has the bits of
    its unitary read alone on its input row, as a one-row stack.
    """
    if coherence is not None and not 0.0 <= coherence <= 1.0:
        raise ContractError(f"coherence must lie in [0, 1], got {coherence!r}")
    stage = _controlled_stage(unitaries, inputs, m)
    rotated = np.fft.fft(stage, axis=1, norm="ortho")
    weights = np.sum(np.abs(rotated) ** 2, axis=-1)
    rows = np.arange(len(stage))
    if coherence is None:

        def targets(xs) -> np.ndarray:
            return rotated[rows, xs] / np.sqrt(weights[rows, xs])[:, None]

        return weights, targets

    c = coherence
    dephased = stage.swapaxes(-1, -2) @ stage.conj() / stage.shape[1]
    weights = c * weights + (1.0 - c) * np.trace(dephased, axis1=-2, axis2=-1).real[:, None]

    def targets(xs) -> np.ndarray:
        amps = rotated[rows, xs]
        block = c * (amps[:, :, None] * amps.conj()[:, None, :]) + (1.0 - c) * dephased
        return block / weights[rows, xs][:, None, None]

    return weights, targets


def _readout(unitary: Unitary, input_state: StateVector, m: int, coherence: float | None):
    """``_register_readout`` of one matrix on one input: the ``(2^m,)``
    weights, refused unless they sum to 1 within 1e-9, and ``target(x)``,
    outcome x's conditional target, validated: a StateVector when
    ``coherence`` is None, a DensityMatrix otherwise."""
    weights, targets = _register_readout(
        unitary.matrix[None], input_state.amplitudes[None], m, coherence
    )
    total = float(weights[0].sum())
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"distribution does not sum to 1: {total!r}")

    def target(x: int):
        state = targets([x])[0]
        if coherence is None:
            return StateVector(input_state.num_qubits, state)
        return qmath.DensityMatrix.from_matrix(state)

    return weights[0], target


def qpe_full_distribution(spec: EigenproblemSpec, m: int) -> np.ndarray:
    """Exact register distribution of the full m-qubit circuit.

    Entry x is the probability of reading the register value x, whose
    binary digits (most significant first) are the phase bits.  The
    target is traced out, so the table is exact for any input.
    """
    return _readout(spec.unitary, spec.input_state, m, None)[0]


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
    weights, target = _readout(unitary, input_state, m, coherence)
    if not 0 <= outcome < weights.size:
        raise ContractError(f"outcome {outcome} out of range for m={m}")
    prob = float(weights[outcome])
    if prob <= qmath.NEVER_OCCURS:
        return 0.0, None
    return prob, target(outcome)


def _collapse_draws(
    unitary: Unitary, input_state: StateVector, m: int, draws, coherence: float | None
):
    """One register readout and every trial's outcome, drawn as
    ``Generator.choice(2^m, p=probs)`` draws it from that trial's stream.

    ``probs`` are the readout's weights over their sum: squared moduli of
    a finite stage, or their mix with the dephased trace, so finite,
    non-negative and, as ``_readout`` checks, summing to 1 within 1e-9.
    Each trial takes one uniform from its row of ``draws`` and its
    outcome is the number of entries of
    ``cdf = cumsum(probs) / cumsum(probs)[-1]`` at or below it, so a
    zero-width outcome is never drawn.  Returns the outcomes, ``probs``
    and the readout's ``target``.
    """
    weights, target = _readout(unitary, input_state, m, coherence)
    probs = weights / weights.sum()
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return cdf.searchsorted(draws.uniforms(1)[:, 0], side="right"), probs, target


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
    ``coherence`` degrades the control as in ``collapse_project``.  The
    outcome is ``rng.choice(2^m, p=probs)``, the one-trial case of a
    collapse table's draw.
    """
    xs, probs, target = _collapse_draws(unitary, input_state, m, _GeneratorDraws(rng), coherence)
    x = int(xs[0])
    return CollapseResult(PhaseEstimate.from_numerator(x, m), target(x), float(probs[x]))


def circular_distance(a, b):
    """Distance between two phases on the unit circle, in [0, 0.5]: a float
    for two floats, a list for arrays or lists (elementwise, broadcast)."""
    d = np.abs(np.subtract(a, b)) % 1.0
    return np.minimum(d, 1.0 - d).tolist()
