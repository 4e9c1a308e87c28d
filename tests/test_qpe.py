"""Engine checks: feedback arithmetic, iterative and full-register runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    haar_unitary,
    inverse_qft,
    phase_unitary,
    random_state,
    reference_collapse_blocks,
    reference_ipea_run,
    reference_register,
)
from ipea_sim import qpe
from ipea_sim.qmath import (
    CapacityError,
    ContractError,
    DensityMatrix,
    StateVector,
    Unitary,
    basis_state,
    derive_rng,
    state_from_amplitudes,
)
from ipea_sim.qpe import (
    EigenproblemSpec,
    MatrixProvider,
    PhaseEstimate,
    RoundTable,
    bits_of,
    circular_distance,
    collapse_project,
    collapse_run,
    feedback_angle,
    ipea_batch,
    ipea_run,
    ipea_run_exact,
    qpe_full_distribution,
    resolve_provider,
)

# Born probability for a control phase of 0.625 turns, frozen from
# cos^2(pi * 0.625) evaluated independently.
COS2_0625 = 0.1464466094067262


class TestFeedbackArithmetic:
    def test_final_round_angle_is_zero(self):
        assert feedback_angle(3, ()) == 0.0

    def test_single_bit(self):
        # one known bit contributes 1/4 of a turn
        assert feedback_angle(2, (1,)) == pytest.approx(-2 * np.pi * 0.25, abs=0)

    def test_three_bits(self):
        # bits (1,0,1) -> fraction 0.0101 in binary = 0.3125, exactly
        assert feedback_angle(1, (1, 0, 1)) == -2 * np.pi * 0.3125

    def test_rejects_bad_bits(self):
        with pytest.raises(ContractError):
            feedback_angle(1, (2,))

    def test_rejects_bad_round(self):
        with pytest.raises(ContractError):
            feedback_angle(0, ())

    def test_bits_of_round_trip(self):
        assert bits_of(5, 3) == (1, 0, 1)
        assert bits_of(0, 4) == (0, 0, 0, 0)
        with pytest.raises(ContractError):
            bits_of(8, 3)


class TestPhaseEstimate:
    def test_from_bits(self):
        est = PhaseEstimate.from_bits((1, 1, 0))
        assert est.value == 0.75
        assert est.as_string() == "110"

    def test_rejects_inconsistent_value(self):
        with pytest.raises(ContractError):
            PhaseEstimate(bits=(1, 0), value=0.3)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            PhaseEstimate.from_bits(())


class TestProviders:
    def test_matrix_provider_doubles(self):
        u = phase_unitary(0.125).matrix
        # k=3 applies U^4: the control picks up half a turn, so "-" is
        # certain unless the feedback rotation takes the half turn back;
        # every trial of the batch gets its own rotation
        table = MatrixProvider().round_table(
            np.stack([u, u]), basis_state(1, 1), 3, np.array([0.0, -np.pi])
        )
        assert table.labels == (None,)
        assert table.weight.tolist() == [[1.0], [1.0]]
        np.testing.assert_allclose(table.p0, [[0.0], [1.0]], atol=1e-12)
        np.testing.assert_allclose(table.p1, [[1.0], [0.0]], atol=1e-12)

    def test_ancilla_distribution_frozen_value(self):
        table = MatrixProvider().round_table(
            phase_unitary(0.625).matrix[None], basis_state(1, 1), 1, np.array([0.0])
        )
        assert table.p0[0, 0] == pytest.approx(COS2_0625, abs=1e-12)
        assert table.p1[0, 0] == pytest.approx(1.0 - COS2_0625, abs=1e-12)

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

    def test_branch_weights_must_normalize(self):
        # a table whose weights cannot be normalized is refused once per
        # round, as a contract violation rather than numpy's ValueError
        def table(weights):
            w = np.array([weights], dtype=float)
            labels = ("P", "Q")[: w.shape[1]]
            return RoundTable(w, np.full_like(w, 0.5), np.full_like(w, 0.5), labels)

        class Empty:
            def round_table(self, unitaries, target, k, omegas):
                return table(np.zeros(0))

        class Weightless:
            def round_table(self, unitaries, target, k, omegas):
                return table([0.0, 0.0])

        class Negative:
            def round_table(self, unitaries, target, k, omegas):
                return table([2.0, -1.0])

        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        for prov in (Empty(), Weightless(), Negative()):
            with pytest.raises(ContractError, match="sum to 1"):
                ipea_run(spec, 2, 3, prov, derive_rng(0))


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

    def test_run_rejects_bad_m(self):
        spec = EigenproblemSpec(phase_unitary(0.375), basis_state(1, 1))
        with pytest.raises(ContractError):
            ipea_run(spec, 0, 1, "matrix", derive_rng(0))

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
        monkeypatch.setenv("IPEA_SIM_MAX_QUBITS", "4")
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
    want_bits, want_counts = reference_ipea_run(spec, m, reps, provider, derive_rng(seed, 1))
    prov = resolve_provider(provider)
    got = ipea_run(spec, m, reps, prov, derive_rng(seed, 1))
    assert got.bits == want_bits
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
        [derive_rng(seed, 1, t) for t in range(trials)],
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


@pytest.mark.parametrize("provider", ["matrix", "photonic"])
def test_batch_rounds_stay_under_the_uniform_bound(monkeypatch, provider):
    # However many trials and repetitions a batch has, one round of one
    # chunk draws at most MAX_ROUND_UNIFORMS uniforms and its table holds
    # no more trials than that chunk; the chunks change no trial's result.
    seen = []

    class Recording:
        def __init__(self):
            self.inner = resolve_provider(provider)

        def round_table(self, unitaries, target, k, omegas):
            seen.append(len(unitaries))
            return self.inner.round_table(unitaries, target, k, omegas)

    phases = derive_rng(9).random(70)
    stack = np.array([phase_unitary(phi).matrix for phi in phases])
    for trials, reps in ((7, 11), (70, 1), (3, 41)):
        args = (stack[:trials], basis_state(1, 1), 3, reps)
        whole = ipea_batch(*args, provider, [derive_rng(9, t) for t in range(trials)])
        with monkeypatch.context() as patch:
            patch.setattr(qpe, "MAX_ROUND_UNIFORMS", 64)
            seen.clear()
            chunked = ipea_batch(*args, Recording(), [derive_rng(9, t) for t in range(trials)])
        assert max(seen) * 2 * reps <= max(64, 2 * reps)
        assert sum(seen) == 3 * trials  # every trial in exactly one chunk per round
        assert len(seen) > 3  # the bound did split the batch
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
