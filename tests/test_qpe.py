"""Engine checks: feedback arithmetic, iterative and full-register runs."""

import math
import operator
import re
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    control_pairs,
    haar_unitary,
    inverse_qft,
    phase_unitary,
    random_state,
    reference_collapse_blocks,
    reference_controlled_stage,
    reference_feedback_angle,
    reference_ipea_run,
    reference_register,
)
from ipea_sim import photonics, qmath, qpe
from ipea_sim.photonics import (
    apply_blue_unitary,
    beamsplitter_mix,
    compose_waveplates,
    hwp,
    parity_cases,
    polarization_state,
    postselect,
    prepare_entangled_input,
)
from ipea_sim.qmath import (
    CapacityError,
    ContractError,
    DensityMatrix,
    StateVector,
    TrialStreams,
    Unitary,
    basis_state,
    derive_rng,
    state_from_amplitudes,
)
from ipea_sim.qpe import (
    EigenproblemSpec,
    MatrixProvider,
    PhaseEstimate,
    bits_of,
    circular_distance,
    collapse_project,
    collapse_run,
    ipea_batch,
    ipea_run,
    ipea_run_exact,
    qpe_full_distribution,
    resolve_provider,
)
from ipea_sim.qpe import _controlled_stage, _feedback_angles, _register_readout, _round_pairs

# Born probability for a control phase of 0.625 turns, frozen from
# cos^2(pi * 0.625) evaluated independently.
COS2_0625 = 0.1464466094067262


class TestFeedbackArithmetic:
    # _feedback_angles(numerator, width): the measured bits b_{k+1}..b_m as
    # one integer, b_{k+1} most significant, and their count m - k.
    def test_final_round_angle_is_zero(self):
        assert _feedback_angles(0, 0) == 0.0

    def test_single_bit(self):
        # one known bit contributes 1/4 of a turn
        assert _feedback_angles(1, 1) == pytest.approx(-2 * np.pi * 0.25, abs=0)

    def test_three_bits(self):
        # bits (1,0,1) -> fraction 0.0101 in binary = 0.3125, exactly
        assert _feedback_angles(0b101, 3) == -2 * np.pi * 0.3125

    def test_bits_of_round_trip(self):
        assert bits_of(5, 3) == (1, 0, 1)
        assert bits_of(0, 4) == (0, 0, 0, 0)
        with pytest.raises(ContractError):
            bits_of(8, 3)


class TestPhaseEstimate:
    def test_from_numerator(self):
        est = PhaseEstimate.from_numerator(6, 3)
        assert est.bits == (1, 1, 0)
        assert est.value == 0.75
        assert est.as_string() == "110"
        assert est == PhaseEstimate(bits=(1, 1, 0), value=0.75)

    def test_rejects_inconsistent_value(self):
        with pytest.raises(ContractError):
            PhaseEstimate(bits=(1, 0), value=0.3)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            PhaseEstimate.from_numerator(0, 0)
        with pytest.raises(ContractError):
            PhaseEstimate(bits=(), value=0.0)


class Custom:
    """A provider that hands the engine the same branches every round: weights
    ``weights``, each state ``amplitude`` |0> (``dead`` |0> where the weight is
    0), its states cut to ``states[cut]``."""

    def __init__(self, weights, labels, amplitude=1.0, dead=1.0, cut=()):
        self.weights, self.labels = np.array(weights, dtype=float), labels
        self.amplitude, self.dead, self.cut = amplitude, dead, cut

    def rounds(self, unitaries, target, m):
        weight = np.tile(self.weights, (m, len(unitaries), 1))
        states = np.zeros(weight.shape + (2 * target.dim,), dtype=complex)
        states[..., 0] = np.where(weight > 0, self.amplitude, self.dead)
        return states[self.cut], weight, self.labels


class TestProviders:
    def test_matrix_provider_doubles(self):
        u = phase_unitary(0.125).matrix
        # k=3 applies U^4: the control picks up half a turn, so "-" is
        # certain unless the feedback rotation takes the half turn back;
        # every trial of the batch gets its own rotation
        states, weight, labels = MatrixProvider().rounds(np.stack([u, u]), basis_state(1, 1), 3)
        assert (states.shape, weight.shape, labels) == ((3, 2, 1, 4), (3, 2, 1), (None,))
        assert (weight == 1.0).all()
        pairs = _round_pairs((states, weight, labels), 3, np.array([0.0, -np.pi]))
        assert pairs.shape == (2, 2, 1)
        np.testing.assert_allclose(pairs[0], [[0.0], [1.0]], atol=1e-12)
        np.testing.assert_allclose(pairs[1], [[1.0], [0.0]], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @example(seed=7, num_qubits=2, m=12, provider="photonic")
    @example(seed=7, num_qubits=2, m=12, provider="matrix")
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 2),
        m=st.integers(1, 12),
        provider=st.sampled_from(("matrix", "photonic")),
    )
    def test_shared_unitary_is_squared_once(self, seed, num_qubits, m, provider):
        # A batch of one Unitary builds its rounds once, for one trial, on
        # either provider, and hands every chunk read-only views of them:
        # bit for bit the rounds of a stack of every trial's copy.
        rng = derive_rng(seed)
        d = 1 << num_qubits
        u, target = haar_unitary(d, rng), random_state(num_qubits, rng)
        built, seen = [], []
        chunk_rounds, majority_votes = qpe._chunk_rounds, qpe._majority_votes

        def counting_rounds(prov, stack, target, m):
            built.append(stack.shape)
            return chunk_rounds(prov, stack, target, m)

        def kept_rounds(reps, draws, tally, rounds, chunk):
            seen.append(rounds)
            return majority_votes(reps, draws, tally, rounds, chunk)

        with (
            mock.patch.object(qpe, "MAX_ROUND_UNIFORMS", 6),  # chunks of 3, 3 and 1 trials
            mock.patch.object(qpe, "_chunk_rounds", counting_rounds),
            mock.patch.object(qpe, "_majority_votes", kept_rounds),
        ):
            ipea_batch(u, target, m, 1, provider, TrialStreams(seed, (), range(7)))
        assert built == [(1, d, d)]
        assert [rounds[1].shape[1] for rounds in seen] == [3, 3, 1]
        stack = np.ascontiguousarray(np.broadcast_to(u.matrix, (7, d, d)))
        states, weight, labels = chunk_rounds(resolve_provider(provider), stack, target, m)
        assert all(rounds[2] == labels for rounds in seen)
        for i, want in enumerate((states, weight)):
            assert not any(rounds[i].flags.writeable for rounds in seen)
            assert np.array_equal(np.concatenate([rounds[i] for rounds in seen], axis=1), want)

    def test_ancilla_distribution_frozen_value(self):
        rounds = MatrixProvider().rounds(phase_unitary(0.625).matrix[None], basis_state(1, 1), 1)
        plus, minus = _round_pairs(rounds, 1, np.array([0.0]))
        assert plus[0, 0] == pytest.approx(COS2_0625, abs=1e-12)
        assert minus[0, 0] == pytest.approx(1.0 - COS2_0625, abs=1e-12)

    def test_resolve_provider_names(self):
        assert resolve_provider("matrix").name == "matrix"
        assert resolve_provider("photonic").name == "photonic"
        with pytest.raises(ContractError):
            resolve_provider("abacus")

    def test_resolve_provider_duck_type(self):
        prov = MatrixProvider()
        assert resolve_provider(prov) is prov
        with pytest.raises(ContractError):
            resolve_provider(object())

    @pytest.mark.parametrize("exact", [False, True])
    def test_branch_weights_must_normalize(self, exact):
        # weights that are negative or cannot be normalized are refused once
        # per chunk in both modes, a lone unlabeled branch's too, as a
        # contract violation rather than numpy's ValueError, a
        # ZeroDivisionError or a meaningless posterior
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        cases = [
            (np.zeros(0), ()),
            ([0.0, 0.0], ("P", "Q")),
            ([2.0, -1.0], ("P", "Q")),
            ([-1.0, -1.0], ("P", "Q")),
            ([0.0], (None,)),
            ([-1.0], (None,)),
        ]
        for weights, labels in cases:
            prov = Custom(weights, labels)
            with pytest.raises(ContractError, match="sum to 1"):
                if exact:
                    ipea_run_exact(spec, 2, prov)
                else:
                    ipea_run(spec, 2, 3, prov, derive_rng(0))

    @pytest.mark.parametrize("exact", [False, True])
    def test_custom_rounds_are_checked(self, exact):
        # the round engine checks every provider's arrays once per chunk,
        # in both modes: their shapes, and the norm of every live state
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))

        def run(prov):
            if exact:
                return ipea_run_exact(spec, 2, prov).estimate
            return ipea_run(spec, 2, 3, prov, derive_rng(0))

        with pytest.raises(ContractError, match=re.escape("not normalized: sum |a|^2 = 4.0")):
            run(Custom([1.0], (None,), amplitude=2.0))
        # a branch that never occurs is exempt, whatever its norm
        assert len(run(Custom([1.0, 0.0], ("P", "Q"), dead=3.0)).bits) == 2
        # no branch axis, a round short, a state short, no trials
        for cut in (np.s_[:, :, 0], np.s_[1:], np.s_[..., 1:], np.s_[:, :0]):
            with pytest.raises(ContractError, match="do not cover 2 round"):
                run(Custom([1.0], (None,), cut=cut))


class TestIterativeRuns:
    def test_dyadic_phase_recovered(self):
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        est = ipea_run(spec, 3, 1, "matrix", derive_rng(0))
        assert est.as_string() == "011"

    def test_exact_run_posteriors_saturate(self):
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        res = ipea_run_exact(spec, 3)
        assert res.estimate.as_string() == "011"
        for p in res.bit_posteriors:
            assert p == pytest.approx(1.0, abs=1e-9)

    def test_exact_run_tie_resolves_to_zero(self):
        # phi = 1/4 at m = 1 puts both ancilla outcomes at probability 1/2
        spec = EigenproblemSpec(phase_unitary(0.25), basis_state(1, 1))
        res = ipea_run_exact(spec, 1)
        assert res.estimate.bits == (0,)
        assert res.bit_posteriors[0] == pytest.approx(0.5, abs=1e-12)

    def test_run_requires_rng(self):
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        with pytest.raises(ContractError):
            ipea_run(spec, 3, 1, "matrix")

    def test_run_rejects_even_reps(self):
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        with pytest.raises(ContractError):
            ipea_run(spec, 3, 4, "matrix", derive_rng(0))

    def test_reps_past_one_round_of_uniforms_are_refused(self):
        # qpe.MAX_REPS = 32,767 repetitions, two uniforms each, fit one round
        # of MAX_ROUND_UNIFORMS; the next odd count is refused by both entries
        assert qpe.MAX_REPS == qpe.MAX_ROUND_UNIFORMS // 2 - 1 == 32767
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        refusal = "in 1..32767, got 32769$"
        with pytest.raises(ContractError, match=refusal):
            ipea_batch(spec.unitary, spec.input_state, 2, 32769, "photonic",
                       TrialStreams(0, (), [0]))
        with pytest.raises(ContractError, match=refusal):
            ipea_run(spec, 2, 32769, "photonic", derive_rng(0))

    def test_run_rejects_bad_m(self):
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        with pytest.raises(ContractError):
            ipea_run(spec, 0, 1, "matrix", derive_rng(0))

    @pytest.mark.parametrize("m", [0, 17])
    def test_every_engine_refuses_m_outside_one_to_sixteen(self, m):
        # one bits limit, qmath.MAX_BITS, checked on entry by both engines on
        # both providers, for a shared Unitary and for a stack
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        refusal = f"m must lie in 1..16, got {m}$"
        for provider in ("matrix", "photonic"):
            for unitaries in (spec.unitary, spec.unitary.matrix[None]):
                draws = TrialStreams(0, (), [0])
                with pytest.raises(ContractError, match=refusal):
                    ipea_batch(unitaries, spec.input_state, m, 1, provider, draws)
            with pytest.raises(ContractError, match=refusal):
                ipea_run_exact(spec, m, provider)
        with pytest.raises(ContractError, match=refusal):
            qpe_full_distribution(spec, m)
        with pytest.raises(ContractError, match=refusal):
            collapse_run(spec.unitary, spec.input_state, m, derive_rng(0))

    def test_seed_determinism(self):
        spec = EigenproblemSpec(phase_unitary(1 / 3), basis_state(1, 1))
        a = ipea_run(spec, 4, 5, "matrix", derive_rng(42))
        b = ipea_run(spec, 4, 5, "matrix", derive_rng(42))
        assert a.bits == b.bits

    def test_multiqubit_target(self):
        # two-qubit unitary with |11> eigenstate of phase 0.75
        u = Unitary(np.diag([1.0, 1.0, 1.0, np.exp(2j * np.pi * 0.75)]))
        spec = EigenproblemSpec(u, basis_state(2, 3))
        res = ipea_run_exact(spec, 2)
        assert res.estimate.as_string() == "11"


class TestFourierRegister:
    def test_inverse_entries(self):
        # the dense oracle has the inverse transform's sign convention,
        # and so does the FFT the engine applies along the register axis
        m = 2
        fi = inverse_qft(m)
        j, k = 3, 2
        expected = np.exp(-2j * np.pi * j * k / 4) / 2
        assert fi[j, k] == pytest.approx(expected, abs=1e-12)
        fft = np.fft.fft(np.eye(1 << m), axis=0, norm="ortho")
        np.testing.assert_allclose(fft, fi, atol=1e-15)

    def test_register_capacity(self, monkeypatch):
        # the register and the target share the qubit cap: 4 + 1 > 4
        monkeypatch.setattr(qmath, "MAX_QUBITS", 4)
        spec = EigenproblemSpec(phase_unitary(0.25), basis_state(1, 1))
        qpe_full_distribution(spec, 3)
        with pytest.raises(CapacityError):
            qpe_full_distribution(spec, 4)
        with pytest.raises(CapacityError):
            collapse_run(spec.unitary, spec.input_state, 4, derive_rng(0), 0.5)

    def test_distribution_peaks_on_dyadic_phase(self):
        spec = EigenproblemSpec(phase_unitary(0.625), basis_state(1, 1))
        probs = qpe_full_distribution(spec, 3)
        assert probs[5] == pytest.approx(1.0, abs=1e-12)

    def test_distribution_superposition_input(self):
        # equal weight on eigenphases 0.25 and 0.75
        u = Unitary(np.diag([np.exp(2j * np.pi * 0.25), np.exp(2j * np.pi * 0.75)]))
        s = state_from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2))
        probs = qpe_full_distribution(EigenproblemSpec(u, s), 2)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)

    def test_nondyadic_frozen_distribution(self):
        # phi = 1/3 at m = 3: argmax at register value 3, frozen oracle
        spec = EigenproblemSpec(phase_unitary(1 / 3), basis_state(1, 1))
        probs = qpe_full_distribution(spec, 3)
        assert int(np.argmax(probs)) == 3
        assert probs[3] == pytest.approx(0.6878376625896213, abs=1e-12)


class TestCollapse:
    def setup_method(self):
        # hwp(30 deg)-like reflector: eigenvectors at 30 deg and 120 deg
        c, s = np.cos(np.deg2rad(60)), np.sin(np.deg2rad(60))
        self.u = Unitary(np.array([[c, s], [s, -c]]))
        t = np.deg2rad(30)
        self.v_plus = np.array([np.cos(t), np.sin(t)])
        self.v_minus = np.array([-np.sin(t), np.cos(t)])
        amps = 0.6 * self.v_plus + 0.8 * self.v_minus
        self.mixed_input = state_from_amplitudes(amps)

    def test_project_weights(self):
        prob0, s0 = collapse_project(self.u, self.mixed_input, 1, 0)
        prob1, s1 = collapse_project(self.u, self.mixed_input, 1, 1)
        assert prob0 == pytest.approx(0.36, abs=1e-12)
        assert prob1 == pytest.approx(0.64, abs=1e-12)
        assert abs(np.vdot(s0.amplitudes, self.v_plus)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(s1.amplitudes, self.v_minus)) == pytest.approx(1.0, abs=1e-12)

    def test_project_null_branch(self):
        prob, state = collapse_project(self.u, StateVector(1, self.v_plus), 1, 1)
        assert prob == 0.0
        assert state is None

    def test_run_samples_register(self):
        res = collapse_run(self.u, self.mixed_input, 1, derive_rng(5))
        assert res.estimate.bits in ((0,), (1,))
        assert res.outcome_probability in (
            pytest.approx(0.36, abs=1e-12),
            pytest.approx(0.64, abs=1e-12),
        )

    def test_mixed_project_full_coherence_matches_pure(self):
        prob_pure, pure = collapse_project(self.u, self.mixed_input, 1, 0)
        prob_mixed, rho = collapse_project(self.u, self.mixed_input, 1, 0, 1.0)
        assert prob_mixed == pytest.approx(prob_pure, abs=1e-12)
        expected = np.outer(pure.amplitudes, pure.amplitudes.conj())
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_mixed_project_rejects_bad_coherence(self):
        with pytest.raises(ContractError):
            collapse_project(self.u, self.mixed_input, 1, 0, 1.5)
        with pytest.raises(ContractError):
            collapse_run(self.u, self.mixed_input, 1, derive_rng(6), -0.1)

    def test_project_rejects_bad_outcome(self):
        for coherence in (None, 0.5):
            with pytest.raises(ContractError):
                collapse_project(self.u, self.mixed_input, 1, 2, coherence)

    def test_run_returns_state_or_density(self):
        pure = collapse_run(self.u, self.mixed_input, 1, derive_rng(6))
        assert isinstance(pure.collapsed_target, StateVector)
        mixed = collapse_run(self.u, self.mixed_input, 1, derive_rng(6), 1.0)
        assert isinstance(mixed.collapsed_target, DensityMatrix)
        assert mixed.estimate == pure.estimate

    def test_mixed_run_returns_density(self):
        res = collapse_run(self.u, self.mixed_input, 1, derive_rng(6), 0.9)
        assert res.collapsed_target.dimension == 2
        assert 0.0 < res.outcome_probability < 1.0

    def test_dephasing_flattens_probabilities_but_keeps_eigenstate(self):
        # full dephasing erases the phase record: outcomes go uniform,
        # yet the conditional state of an eigenstate input is untouched
        spec_state = StateVector(1, self.v_plus)
        p_coh, _ = collapse_project(self.u, spec_state, 1, 0, 1.0)
        p_deph, rho = collapse_project(self.u, spec_state, 1, 0, 0.0)
        assert p_coh == pytest.approx(1.0, abs=1e-12)
        assert p_deph == pytest.approx(0.5, abs=1e-12)
        expected = np.outer(self.v_plus, self.v_plus.conj())
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)


class TestCircularDistance:
    def test_wraparound(self):
        assert circular_distance(0.95, 0.05) == pytest.approx(0.1, abs=1e-12)

    def test_symmetric(self):
        assert circular_distance(0.25, 0.75) == circular_distance(0.75, 0.25) == 0.5
        assert circular_distance(0.2, 0.7) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 15))
def test_dyadic_phases_exact_for_all_m(m, j):
    j = j % (1 << m)
    spec = EigenproblemSpec(phase_unitary(j / (1 << m)), basis_state(1, 1))
    res = ipea_run_exact(spec, m)
    assert res.estimate.value == j / (1 << m)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 5),
    st.sampled_from((1, 3, 11)),
    st.sampled_from(("matrix", "photonic")),
)
def test_ipea_run_matches_per_repetition_reference(seed, num_qubits, m, reps, provider):
    # ipea_run draws every repetition of a round from one branch table;
    # the reference rebuilds and measures the state for each repetition.
    # Both must consume the generator identically: same bits, same tally.
    rng = derive_rng(seed)
    u = haar_unitary(1 << num_qubits, rng)
    spec = EigenproblemSpec(u, random_state(num_qubits, rng))
    want_rng, got_rng = derive_rng(seed, 1), derive_rng(seed, 1)
    want_bits, want_counts = reference_ipea_run(spec, m, reps, provider, want_rng)
    prov = resolve_provider(provider)
    got = ipea_run(spec, m, reps, prov, got_rng)
    assert got.bits == want_bits
    # exactly the reference's draws, so a reused generator goes on alike
    assert got_rng.random() == want_rng.random()
    if provider == "photonic":
        assert prov.branch_counts == want_counts
        assert sum(want_counts.values()) == m * reps


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 2),
    st.integers(1, 5),
    st.sampled_from((1, 3)),
    st.sampled_from(("matrix", "photonic")),
)
def test_ipea_batch_matches_per_trial_reference(seed, trials, num_qubits, m, reps, provider):
    # A batch of distinct unitaries runs every round once for all its
    # trials; each trial must still get exactly what the per-repetition
    # reference gets on its own unitary with its own generator: the same
    # bits and the same drawn branches.
    rng = derive_rng(seed)
    unitaries = [haar_unitary(1 << num_qubits, rng) for _ in range(trials)]
    target = random_state(num_qubits, rng)
    prov = resolve_provider(provider)
    batch = ipea_batch(
        np.stack([u.matrix for u in unitaries]),
        target,
        m,
        reps,
        prov,
        TrialStreams(seed, (1,), range(trials)),
    )
    total = {"P": 0, "Q": 0}
    for t, u in enumerate(unitaries):
        want_bits, want_counts = reference_ipea_run(
            EigenproblemSpec(u, target), m, reps, provider, derive_rng(seed, 1, t)
        )
        assert bits_of(int(batch.numerators[t]), m) == want_bits
        if provider == "photonic":
            got = {label: int(counts[t]) for label, counts in batch.branch_tally.items()}
            assert got == want_counts
            for label, count in want_counts.items():
                total[label] += count
    if provider == "photonic":
        assert prov.branch_counts == total
    else:
        assert batch.branch_tally == {}


@pytest.mark.parametrize("provider, per_rep", [("matrix", 1), ("photonic", 2)])
def test_ipea_run_advances_the_callers_generator_by_its_uniforms(provider, per_rep):
    # A run of m rounds of reps repetitions draws exactly m * reps uniforms
    # (matrix: the outcome) or m * 2 * reps (photonic: the branch, then the
    # outcome) from the caller's generator, so the caller's next draw is
    # that of a twin that drew them itself.
    m, reps = 5, 3
    spec = EigenproblemSpec(compose_waveplates([hwp(10.0), hwp(47.0)]), polarization_state("R"))
    rng, twin = derive_rng(12), derive_rng(12)
    ipea_run(spec, m, reps, provider, rng)
    twin.random(m * per_rep * reps)
    assert rng.random(4).tolist() == twin.random(4).tolist()


def test_ipea_batch_needs_one_stream_per_trial():
    stack = np.array([phase_unitary(0.25).matrix] * 2)
    # a caller's generator feeds a one-trial batch only
    for draws in (derive_rng(0), TrialStreams(0, (), range(3))):
        with pytest.raises(ContractError, match="2 unitaries but"):
            ipea_batch(stack, basis_state(1, 1), 2, 1, "matrix", draws)
    with pytest.raises(ContractError, match="draws must be"):
        ipea_batch(stack, basis_state(1, 1), 2, 1, "matrix", [derive_rng(0), derive_rng(1)])


@pytest.mark.parametrize("provider", ["matrix", "photonic"])
def test_batch_rounds_stay_under_the_uniform_bound(monkeypatch, provider):
    # However many trials and repetitions a batch has, one round of one
    # chunk draws at most MAX_ROUND_UNIFORMS uniforms and its pairs cover
    # no more trials than that chunk; each chunk builds its rounds once,
    # and the chunks change no trial's result.
    seen = []
    tables = []

    class Recording:
        def __init__(self):
            self.inner = resolve_provider(provider)

        def rounds(self, unitaries, target, m):
            seen.append(len(unitaries))
            return self.inner.rounds(unitaries, target, m)

    def recorded(rounds, k, omegas):
        assert len(omegas) == seen[-1]
        tables.append((len(seen), k))
        return _round_pairs(rounds, k, omegas)

    phases = derive_rng(9).random(70)
    stack = np.array([phase_unitary(phi).matrix for phi in phases])
    for trials, reps in ((7, 11), (70, 1), (3, 31)):
        args = (stack[:trials], basis_state(1, 1), 3, reps)
        whole = ipea_batch(*args, provider, TrialStreams(9, (), range(trials)))
        with monkeypatch.context() as patch:
            patch.setattr(qpe, "MAX_ROUND_UNIFORMS", 64)
            patch.setattr(qpe, "MAX_REPS", 31)  # the largest reps that bound admits
            patch.setattr(qpe, "_round_pairs", recorded)
            seen.clear()
            tables.clear()
            chunked = ipea_batch(*args, Recording(), TrialStreams(9, (), range(trials)))
        assert max(seen) * 2 * reps <= 64
        assert sum(seen) == trials  # every trial in exactly one chunk
        assert len(seen) > 1  # the bound did split the batch
        # one rounds call per chunk, then its rounds k = 3, 2, 1 in turn
        assert tables == [(c, k) for c in range(1, len(seen) + 1) for k in (3, 2, 1)]
        np.testing.assert_array_equal(chunked.numerators, whole.numerators)
        assert chunked.branch_tally.keys() == whole.branch_tally.keys()
        for label, counts in whole.branch_tally.items():
            np.testing.assert_array_equal(chunked.branch_tally[label], counts)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(0.0, 1.0, allow_nan=False, exclude_max=True),
    st.floats(0.0, 1.0, allow_nan=False, exclude_max=True),
)
def test_circular_distance_bounds(a, b):
    d = circular_distance(a, b)
    assert 0.0 <= d <= 0.5
    assert circular_distance(a, a) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_full_register_matches_exact_iteration_on_random_eigenstates(seed):
    rng = derive_rng(seed)
    u = haar_unitary(2, rng)
    values, vectors = np.linalg.eig(u.matrix)
    idx = int(rng.integers(0, 2))
    phi = (np.angle(values[idx]) / (2 * np.pi)) % 1.0
    eigvec = StateVector(1, vectors[:, idx] / np.linalg.norm(vectors[:, idx]))
    spec = EigenproblemSpec(u, eigvec)
    m = 3
    probs = qpe_full_distribution(spec, m)
    argmax = int(np.argmax(probs))
    est = ipea_run_exact(spec, m).estimate
    # both should land on a best m-bit approximation of phi
    assert circular_distance(est.value, phi) <= 2.0 ** -m
    assert circular_distance(argmax / (1 << m), phi) <= 2.0 ** -m


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 8),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
    st.integers(0, 255),
)
def test_register_engine_matches_dense_fourier_oracle(seed, num_qubits, m, coherence, outcome):
    # The FFT readout against the dense inverse Fourier matrix applied to
    # an independently built stage: the register table, one outcome's
    # probability and conditional target, and a sampled run.
    rng = derive_rng(seed)
    u = haar_unitary(1 << num_qubits, rng)
    target = random_state(num_qubits, rng)
    outcome %= 1 << m
    _, rotated = reference_register(u, target, m)
    np.testing.assert_allclose(
        qpe_full_distribution(EigenproblemSpec(u, target), m),
        np.sum(np.abs(rotated) ** 2, axis=1),
        rtol=0,
        atol=1e-12,
    )
    blocks = reference_collapse_blocks(u, target, m, coherence)
    if coherence is None:
        weights = np.sum(np.abs(blocks) ** 2, axis=1)
    else:
        weights = np.trace(blocks, axis1=1, axis2=2).real

    def unnormalized(state, weight):
        if coherence is None:
            return state.amplitudes * np.sqrt(weight)
        return state.matrix * weight

    prob, state = collapse_project(u, target, m, outcome, coherence)
    assert abs(prob - weights[outcome]) <= 1e-12
    np.testing.assert_allclose(unnormalized(state, prob), blocks[outcome], rtol=0, atol=1e-12)

    probs = weights / weights.sum()
    x = int(derive_rng(seed, 1).choice(probs.size, p=probs))
    res = collapse_run(u, target, m, derive_rng(seed, 1), coherence)
    assert res.estimate.bits == bits_of(x, m)
    assert abs(res.outcome_probability - probs[x]) <= 1e-12
    np.testing.assert_allclose(
        unnormalized(res.collapsed_target, weights[x]), blocks[x], rtol=0, atol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2),
    st.integers(1, 10),
    st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_controlled_stage_equals_the_masked_reference(seed, num_qubits, m, coherence):
    # Each register qubit's rows are a view of the stage, multiplied as a
    # C-ordered copy: the same bits as picking them with a boolean mask,
    # in the stage and in the readout's weights and most likely outcome's
    # conditional target.
    rng = derive_rng(seed)
    u = haar_unitary(1 << num_qubits, rng)
    target = random_state(num_qubits, rng)
    stack = u.matrix[None]
    inputs = target.amplitudes[None]
    reference = reference_controlled_stage(u, target, m)
    assert np.array_equal(_controlled_stage(stack, inputs, m)[0], reference)
    weights, conditional = _register_readout(stack, inputs, m, coherence)
    with mock.patch.object(qpe, "_controlled_stage", lambda *args: reference[None]):
        ref_weights, ref_conditional = _register_readout(stack, inputs, m, coherence)
    assert np.array_equal(weights, ref_weights)
    x = [int(np.argmax(weights))]
    assert np.array_equal(conditional(x), ref_conditional(x))


@settings(max_examples=60, deadline=None)
@example(seed=3, count=4, num_qubits=2, m=5, coherence=None, shared=False)
@example(seed=4, count=9, num_qubits=1, m=1, coherence=0.5, shared=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 9),
    num_qubits=st.integers(1, 2),
    m=st.integers(1, 10),
    coherence=st.one_of(st.none(), st.floats(0.0, 1.0)),
    shared=st.booleans(),
)
def test_stacked_readout_equals_one_matrix_readouts(seed, count, num_qubits, m, coherence, shared):
    # fig5 reads a stack of unitaries, each on its own input row, in one
    # readout; a collapse table reads one unitary on one shared row.  Each
    # row's stage, weights and conditional target must have the bits of
    # that unitary read alone on that input, as a one-matrix stack.
    rng = derive_rng(seed)
    stack = np.stack([haar_unitary(1 << num_qubits, rng).matrix for _ in range(count)])
    rows = 1 if shared else count
    inputs = np.stack([random_state(num_qubits, rng).amplitudes for _ in range(rows)])
    xs = rng.integers(0, 1 << m, size=count)
    stage = _controlled_stage(stack, inputs, m)
    weights, targets = _register_readout(stack, inputs, m, coherence)
    conditional = targets(xs)
    for t in range(count):
        one, row = Unitary(stack[t]).matrix[None], inputs[t % rows][None]
        assert np.array_equal(stage[t], _controlled_stage(one, row, m)[0])
        one_weights, one_targets = _register_readout(one, row, m, coherence)
        assert np.array_equal(weights[t], one_weights[0])
        assert np.array_equal(conditional[t], one_targets(xs[t : t + 1])[0])


def _literal_blue(target: StateVector, unitary: np.ndarray, k: int) -> np.ndarray:
    # The blue rails of the prepared input after 2^(k-1) single passes,
    # in the (trials, d, 1) shape the provider multiplies in.
    blue = (target.amplitudes * (1.0 / np.sqrt(2.0)))[None, :, None]
    for _ in range(1 << (k - 1)):
        blue = unitary[None] @ blue
    return blue[0, :, 0]


@settings(max_examples=40, deadline=None)
@example(seed=7, trials=3, num_qubits=2, m=12, provider="matrix")
@example(seed=7, trials=3, num_qubits=2, m=12, provider="photonic")
@given(
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 3),
    num_qubits=st.integers(1, 2),
    m=st.integers(1, 12),
    provider=st.sampled_from(("matrix", "photonic")),
)
def test_chunk_rounds_equal_the_literal_per_round_build(seed, trials, num_qubits, m, provider):
    # A chunk builds every round's branch states once, for its longest
    # round m.  Round k of that stack must be exactly what a build that
    # stops at round k gives, and exactly a per-trial build: for matrix,
    # the block state of np.linalg.matrix_power; for photonic, the public
    # pipeline whose cascade passes the blue rails through U one copy at a
    # time.
    rng = derive_rng(seed)
    stack = np.stack([haar_unitary(1 << num_qubits, rng).matrix for _ in range(trials)])
    target = random_state(num_qubits, rng)
    prov = resolve_provider(provider)
    rounds = prov.rounds(stack, target, m)
    for k in range(m, 0, -1):
        omegas = -2.0 * np.pi * rng.random(trials)
        stopped = prov.rounds(stack, target, k)
        for built, alone in zip(rounds[:2], stopped[:2]):
            np.testing.assert_array_equal(built[k - 1], alone[k - 1])
        assert rounds[2] == stopped[2]
        got = _round_pairs(rounds, k, omegas)
        np.testing.assert_array_equal(got, _round_pairs(stopped, k, omegas))
        if provider == "matrix":
            for t in range(trials):
                w = np.linalg.matrix_power(stack[t], 1 << (k - 1))
                state = np.concatenate([target.amplitudes, (w @ target.amplitudes[:, None])[:, 0]])
                plus, minus = control_pairs(state[None] * (1.0 / np.sqrt(2.0)), [omegas[t]])
                assert (got[0, t, 0], got[1, t, 0]) == (plus[0], minus[0])
            continue
        for t in range(trials):
            rails = apply_blue_unitary(prepare_entangled_input(target), Unitary(stack[t]), k)
            blue = (1,) + (slice(None), 1) * num_qubits
            np.testing.assert_array_equal(
                rails.amplitudes.reshape((2,) * (2 * num_qubits + 1))[blue].reshape(-1),
                _literal_blue(target, stack[t], k),
            )
            ports = beamsplitter_mix(rails)
            for b, branch in enumerate(parity_cases(num_qubits)):
                state, prob = postselect(ports, branch)
                assert rounds[1][k - 1, t, b] == prob
                if state is None:
                    continue
                # as measured: a Q branch is relabeled where its bit is read
                plus, minus = control_pairs(state.amplitudes[None], [omegas[t]])
                assert (got[0, t, b], got[1, t, b]) == (plus[0], minus[0])


class Given:
    """A provider that hands the engine the rounds it was given, one chunk
    of trials after another in trial order."""

    def __init__(self, rounds):
        self.given, self.start = rounds, 0

    def rounds(self, unitaries, target, m):
        chunk = slice(self.start, self.start + len(unitaries))
        self.start = chunk.stop
        states, weight, labels = self.given
        return states[:, chunk], weight[:, chunk], labels


def _random_rounds(rng, m: int, trials: int, branches: int, dim: int):
    # Normalized random branch states, some branches dead (weight 0, state
    # 0), every rung with a live branch, and random labels.
    weight = rng.random((m, trials, branches)) * (rng.random((m, trials, branches)) > 0.3)
    weight[..., 0] = np.where(weight.sum(axis=-1) > 0, weight[..., 0], 1.0)
    states = rng.standard_normal((m, trials, branches, 4 * dim)).view(complex)
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    states[weight == 0] = 0.0
    if branches == 1:
        labels = ((None,), ("P",), ("Q",))[int(rng.integers(3))]
    else:
        labels = tuple(rng.choice(["P", "Q"], size=branches).tolist())
    return states, weight, labels


def _reference_round_tables(rounds, k: int, numerators, m: int):
    # The parent's per-round table: control_pairs on rung k, then every Q
    # branch's pair swapped.  Returns the measured pair and the swapped one.
    states, _, labels = rounds
    omegas = np.array([reference_feedback_angle(int(n), m - k) for n in numerators])
    plus, minus = control_pairs(states[k - 1], omegas[:, None])
    p0, p1 = plus, minus
    if "Q" in labels:
        q = np.array([label == "Q" for label in labels])
        p0, p1 = np.where(q, minus, plus), np.where(q, plus, minus)
    return (plus, minus), (p0, p1)


def _reference_sampled(rounds, reps: int, rngs):
    """The parent's sampled round loop, one trial and repetition at a time:
    the branch from the cdf of the normalized weights, then "+" when the
    outcome uniform falls below P(+) as measured (the swapped table's p1 on
    a Q branch), that bit flipped on a Q pick."""
    _, weight, labels = rounds
    m, count, _ = weight.shape
    per = 1 if labels == (None,) else 2
    u = [rng.random(m * reps * per).reshape(m, reps, per) for rng in rngs]
    numerators = [0] * count
    tally = {} if per == 1 else {label: [0] * count for label in labels}
    measured = []
    for k in range(m, 0, -1):
        pair, (p0, p1) = _reference_round_tables(rounds, k, numerators, m)
        measured.append(pair)
        for t in range(count):
            ones = 0
            for r in range(reps):
                b = 0
                if per == 2:
                    w = weight[k - 1, t].tolist()
                    cdf = np.cumsum(np.array(w) / _left_to_right(w))
                    cdf /= cdf[-1]
                    b = int(np.searchsorted(cdf, u[t][m - k, r, 0], side="right"))
                    tally[labels[b]][t] += 1
                q = labels[b] == "Q"
                plus = p1[t, b] if q else p0[t, b]
                ones += int(u[t][m - k, r, -1] >= plus) ^ q
            numerators[t] |= int(ones > reps // 2) << (m - k)
    return numerators, tally, measured


def _left_to_right(terms) -> float:
    # Python floats added in order, as the builtin sum did before 3.12
    return reduce(operator.add, terms, 0.0)


def _reference_exact(rounds, add=_left_to_right):
    # The parent's exact loop, one trial at a time: the argmax of the
    # swapped table's weighted sums, added in branch order as Python floats.
    # Returns every trial's numerator and posteriors.
    _, weight, _ = rounds
    m, count = weight.shape[:2]
    numerators, posteriors = [0] * count, [[] for _ in range(count)]
    for k in range(m, 0, -1):
        _, (p0, p1) = _reference_round_tables(rounds, k, numerators, m)
        for t in range(count):
            w = weight[k - 1, t].tolist()
            post0, post1 = (add([a * b for a, b in zip(w, ps[t].tolist())]) / add(w)
                            for ps in (p0, p1))
            posteriors[t].append(post1 if post1 > post0 else post0)
            numerators[t] |= int(post1 > post0) << (m - k)
    return numerators, posteriors


@settings(max_examples=100, deadline=None)
@example(seed=3, source="photonic", dim=4, branches=4, m=12, trials=3, reps=3)
@example(seed=5, source="matrix", dim=4, branches=1, m=12, trials=4, reps=1)
@example(seed=4, source="random", dim=4, branches=2, m=12, trials=4, reps=3)
@given(
    seed=st.integers(0, 2**32 - 1),
    source=st.sampled_from(("matrix", "photonic", "random")),
    dim=st.sampled_from((2, 4)),
    branches=st.sampled_from((1, 2, 4)),
    m=st.integers(1, 12),
    trials=st.integers(1, 4),
    reps=st.sampled_from((1, 3)),
)
def test_round_loop_matches_the_per_round_reference(seed, source, dim, branches, m, trials, reps):
    # The round loop takes each round's measured (P(+), P(-)) from one
    # stacked product and relabels a Q branch only where its bit is read.
    # Against the parent's loop (control_pairs per round, Q pairs swapped
    # in the table): every round's pairs, the exact posteriors and the
    # sampled numerators and branch tally must be identical.  Providers
    # give B = 1 (matrix) or B = d (photonic); random rounds cover every B.
    rng = derive_rng(seed)
    target = random_state(dim.bit_length() - 1, rng)
    if source == "random":
        rounds = _random_rounds(rng, m, trials, branches, dim)
        stack, provider = np.stack([np.eye(dim)] * trials), Given(rounds)
    else:
        stack = np.stack([haar_unitary(dim, rng).matrix for _ in range(trials)])
        provider = resolve_provider(source)
        rounds = provider.rounds(stack, target, m)
    seen = []

    def recording(rounds, k, omegas):
        seen.append(_round_pairs(rounds, k, omegas))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpe, "_round_pairs", recording)
        streams = TrialStreams(seed, (1,), range(trials))
        batch = ipea_batch(stack, target, m, reps, provider, streams)
    numerators, tally, measured = _reference_sampled(
        rounds, reps, [derive_rng(seed, 1, t) for t in range(trials)]
    )
    assert len(seen) == len(measured) == m
    for got, want in zip(seen, measured):
        assert got.shape == (2,) + rounds[1].shape[1:]
        assert np.array_equal(got, np.stack(want))
    assert batch.numerators.tolist() == numerators
    assert {label: counts.tolist() for label, counts in batch.branch_tally.items()} == tally

    # Exact mode on every trial, in chunks of two (the last one short for an
    # odd count), against the reference one trial at a time; then the
    # public one-trial case on trial 0.
    exact_provider = Given(rounds) if source == "random" else provider
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpe, "MAX_ROUND_UNIFORMS", 4)
        assert qpe.batch_trials(1) == 2
        got, posteriors = qpe._exact_batch(stack, target, m, exact_provider)
    numerators, want = _reference_exact(rounds)
    assert got.tolist() == numerators
    assert posteriors.shape == (trials, m)
    assert posteriors.tolist() == want
    first = provider
    if source == "random":
        first = Given((rounds[0][:, :1], rounds[1][:, :1], rounds[2]))
    exact = ipea_run_exact(EigenproblemSpec(Unitary(stack[0]), target), m, first)
    assert exact.estimate == PhaseEstimate.from_numerator(numerators[0], m)
    assert all(type(p) is float for p in exact.bit_posteriors)
    assert exact.bit_posteriors == tuple(want[0])


def test_exact_posteriors_add_in_branch_order():
    # Branch weights 1, 1e-16, 1e-16, 1e-16 sum to 1.0 left to right and to
    # 1.0000000000000002 compensated, as Python 3.12's builtin sum adds
    # floats (math.fsum stands in for it here): the posteriors of every
    # trial of a batch must be the left-to-right ones on every Python version.
    rng = derive_rng(11)
    m, trials, target = 2, 3, random_state(1, rng)
    weight = np.tile([1.0, 1e-16, 1e-16, 1e-16], (m, trials, 1))
    states = rng.standard_normal((m, trials, 4, 8)).view(complex)
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    rounds = (states, weight, ("P", "Q", "P", "Q"))
    stack = np.stack([np.eye(2)] * trials)
    got, posteriors = qpe._exact_batch(stack, target, m, Given(rounds))
    numerators, want = _reference_exact(rounds)
    assert got.tolist() == numerators
    assert posteriors.tolist() == want
    assert posteriors.tolist() != _reference_exact(rounds, add=math.fsum)[1]


@pytest.mark.parametrize("m", [1, 4, 7])
@pytest.mark.parametrize("provider", ["matrix", "photonic"])
def test_chunk_rounds_build_each_power_once(monkeypatch, provider, m):
    # Per chunk: the matrix provider squares m - 1 times and applies the
    # stacked powers to the target once; the photonic provider prepares its
    # input once and runs one cascade of 2^(m-1) passes, each one np.matmul
    # into a buffer for a stack and one 2-D dot for a single trial.
    # A round then makes no matrix product: it only applies its rotation.
    class Counting(np.ndarray):
        products = 0  # matrix products with a counted stack as left factor

        def __matmul__(self, other):
            Counting.products += 1
            return (np.asarray(self) @ np.asarray(other)).view(Counting)

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            Counting.products += ufunc is np.matmul
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        def dot(self, other, out=None):
            Counting.products += 1
            return np.asarray(self).dot(other, out)

        def __array_function__(self, func, types, args, kwargs):
            # np.stack drops the subclass; keep it, so a product of stacked powers counts
            out = super().__array_function__(func, types, args, kwargs)
            return out.view(Counting) if func is np.stack else out

    calls = {"_prepare": 0, "_blue_ladder": 0}

    def counted(name):
        inner = getattr(photonics, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(photonics, name, counted(name))
    rng = derive_rng(m)
    stack = np.stack([haar_unitary(2, rng).matrix for _ in range(3)]).view(Counting)
    rounds = resolve_provider(provider).rounds(stack, random_state(1, rng), m)
    built = m if provider == "matrix" else 1 << (m - 1)
    assert Counting.products == built
    for k in range(m, 0, -1):
        _round_pairs(rounds, k, np.zeros(3))
        assert Counting.products == built
    if provider == "matrix":
        assert calls == {"_prepare": 0, "_blue_ladder": 0}
    else:
        assert calls == {"_prepare": 1, "_blue_ladder": 1}
        # a one-trial chunk steps through 2-D dot into reused buffers, still
        # one product a pass
        Counting.products = 0
        resolve_provider(provider).rounds(stack[:1], random_state(1, rng), m)
        assert Counting.products == built


@pytest.mark.parametrize("m", [-1, 0, 17])
@pytest.mark.parametrize("provider", ["matrix", "photonic"])
def test_provider_rounds_refuse_bits_outside_the_limit(provider, m):
    # Either provider's public rounds refuses m outside 1..MAX_BITS before
    # building anything: no empty rounds, no numpy error, no 2^16-pass cascade.
    stack = phase_unitary(0.25).matrix[None]
    with pytest.raises(ContractError, match=r"bit count m must lie in 1\.\.16"):
        resolve_provider(provider).rounds(stack, basis_state(1, 1), m)


_EYE4 = np.eye(4, dtype=complex)
_H = polarization_state("H")


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: EigenproblemSpec(Unitary(_EYE4), _H),
        lambda: MatrixProvider().rounds(_EYE4[None], _H, 3),
        lambda: photonics.PhotonicProvider().rounds(_EYE4[None], _H, 3),
        lambda: apply_blue_unitary(prepare_entangled_input(_H), Unitary(_EYE4), 1),
        lambda: ipea_batch(Unitary(_EYE4), _H, 3, 1, "matrix", derive_rng(0)),
        lambda: collapse_run(Unitary(_EYE4), _H, 3, derive_rng(0)),
        lambda: collapse_project(Unitary(_EYE4), _H, 3, 0),
    ],
    ids=["spec", "matrix-rounds", "photonic-rounds", "blue-unitary", "ipea-batch",
         "collapse-run", "collapse-project"],
)
def test_a_mismatched_dimension_is_refused_in_one_wording(refuse):
    # A 4x4 unitary on a one-qubit target: every entry names both dims alike.
    with pytest.raises(ContractError, match="^unitary dim 4 does not match target dim 2$"):
        refuse()


@settings(max_examples=12, deadline=None)
@example(seed=0, num_qubits=1, m=16, row=0)
@example(seed=1, num_qubits=2, m=16, row=2)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 2),
    m=st.integers(1, 16),
    row=st.integers(0, 2),
)
def test_one_trial_cascade_equals_its_row_of_a_stacked_cascade(seed, num_qubits, m, row):
    # A one-trial chunk steps a vector through 2-D dot between two reused
    # buffers, a 3-trial chunk a stack through matmul.  Both return the
    # rung-major state: row (k - 1) * T + t is trial t's prepared state
    # with its blue rails after 2^(k-1) passes.  Each of the one-trial
    # run's m rows must have the bits of its trial's row in every block of
    # the 3-trial run, up to the 2^15 passes of m = 16, and everything off
    # the blue rails must stay the prepared input's, in a new array.
    rng = derive_rng(seed)
    stack = np.stack([haar_unitary(1 << num_qubits, rng).matrix for _ in range(3)])
    prepared = photonics._prepare(random_state(num_qubits, rng).amplitudes, 3)
    stacked = photonics._blue_ladder(prepared, stack, m)
    alone = photonics._blue_ladder(prepared[row : row + 1], stack[row : row + 1], m)
    assert alone.shape == (m,) + prepared.shape[1:]
    assert stacked.shape == (3 * m,) + prepared.shape[1:]
    assert alone.tobytes() == stacked[row::3].tobytes()
    blue = photonics._rails(num_qubits, 1)
    rest = stacked.reshape((m,) + prepared.shape).copy()
    rest[(slice(None),) + blue] = prepared[blue]
    assert np.array_equal(rest, np.broadcast_to(prepared, rest.shape))
    assert not np.shares_memory(stacked, prepared)


@pytest.mark.parametrize("m", range(9, 17))
@pytest.mark.parametrize("provider", ["matrix", "photonic"])
def test_exact_run_recovers_long_dyadic_phases(provider, m):
    # Two half waveplates whose angles differ by 180 j / 2^m degrees give
    # R the eigenphase (-j mod 2^m) / 2^m; exact mode must hit it at every
    # length up to the cascade cap, where round m passes through U 2^15 times.
    rng = derive_rng(0xD1AD, m)
    theta = 180.0 * int(rng.integers(1 << 16)) / (1 << 16)
    j = int(rng.integers(1 << m))
    u = compose_waveplates([hwp(theta), hwp(theta + 180.0 * j / (1 << m))])
    res = ipea_run_exact(EigenproblemSpec(u, polarization_state("R")), m, provider)
    assert res.estimate.value == ((-j) % (1 << m)) / (1 << m)
    assert min(res.bit_posteriors) > 1.0 - 1e-9


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_qubits=st.integers(1, 2),
    omega=st.floats(-2 * np.pi, 2 * np.pi),
)
def test_ancilla_bit_distribution_is_the_reference_pair(seed, num_qubits, omega):
    # The public one-state pair reads through the round engine's
    # _round_pairs: bit for bit the per-round reference, at d = 2 and 4.
    state = random_state(num_qubits + 1, derive_rng(seed))
    plus, minus = control_pairs(state.amplitudes[None], [omega])
    assert qpe.ancilla_bit_distribution(state, omega) == (plus[0], minus[0])


def test_ipea_batch_refuses_a_non_unitary_array():
    stack = np.array([phase_unitary(0.25).matrix, 1.01 * phase_unitary(0.5).matrix])
    with pytest.raises(ContractError, match="matrix of trial 1 is not unitary"):
        ipea_batch(stack, basis_state(1, 1), 2, 1, "matrix", TrialStreams(0, (), range(2)))


@pytest.mark.parametrize(
    ("shape", "message"),
    [
        ((2, 2, 3), "must be square and at least 1x1"),
        ((2,), "must be square and at least 1x1"),
        ((2, 4, 4), "expected a stack of 2x2 unitaries"),
        ((2, 2), "expected a stack of 2x2 unitaries"),
        ((1, 2, 2, 2), "expected a stack of 2x2 unitaries"),
    ],
)
def test_ipea_batch_refuses_an_array_of_the_wrong_shape(shape, message):
    # check_unitary owns the square rule; the batch adds only its own axes
    eye = np.eye(shape[-1], dtype=complex)
    array = np.broadcast_to(eye[: shape[-2]] if len(shape) > 1 else eye[0], shape)
    with pytest.raises(ContractError, match=message):
        ipea_batch(array, basis_state(1, 1), 2, 1, "matrix", TrialStreams(0, (), range(2)))


@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("provider", ["matrix", "photonic"])
def test_a_checked_unitary_batch_makes_no_gram_product(monkeypatch, provider, num_qubits):
    # A caller's array is checked once, however many chunks it runs in; a
    # Unitary was checked when built, so its batch checks nothing, and its
    # chunks read the bits of the same matrices passed as an array, at
    # d = 4 too, where a stacked matmul's bits depend on operand layout.
    rng = derive_rng(41, num_qubits)
    u = haar_unitary(1 << num_qubits, rng)
    target = random_state(num_qubits, rng)
    trials, m, reps = 9, 5, 3
    monkeypatch.setattr(qpe, "MAX_ROUND_UNIFORMS", 4 * reps)  # two trials per chunk
    checked = []
    check = qmath.check_unitary
    monkeypatch.setattr(qmath, "check_unitary", lambda *args: checked.append(args) or check(*args))
    array = np.broadcast_to(u.matrix, (trials,) + u.matrix.shape)
    from_array = ipea_batch(array, target, m, reps, provider, TrialStreams(5, (), range(trials)))
    assert len(checked) == 1
    from_unitary = ipea_batch(u, target, m, reps, provider, TrialStreams(5, (), range(trials)))
    assert len(checked) == 1
    assert from_unitary.numerators.tolist() == from_array.numerators.tolist()
    assert len(set(from_array.numerators.tolist())) > 1
    for label, counts in from_array.branch_tally.items():
        assert from_unitary.branch_tally[label].tolist() == counts.tolist()
