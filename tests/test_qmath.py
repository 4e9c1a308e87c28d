"""Substrate checks: validated containers, capacity cap, fidelity, rng."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import haar_unitary, random_state
from ipea_sim import qmath
from ipea_sim.qmath import (
    CapacityError,
    ContractError,
    DensityMatrix,
    StateVector,
    TrialStreams,
    Unitary,
    basis_state,
    density_from_state,
    derive_rng,
    fidelity,
    overlap_magnitude,
    state_from_amplitudes,
)
from ipea_sim.qpe import ipea_batch

RNG = derive_rng(1234)


class TestUnitary:
    def test_accepts_unitary(self):
        u = Unitary(np.eye(4))
        assert u.dim == 4

    def test_rejects_nonunitary(self):
        with pytest.raises(ContractError):
            Unitary([[1.0, 0.0], [0.0, 1.0 + 1e-6]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractError):
            Unitary(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            Unitary([[np.inf, 0.0], [0.0, 1.0]])

    def test_matrix_is_frozen(self):
        u = Unitary(np.eye(2))
        with pytest.raises(ValueError):
            u.matrix[0, 0] = 0.0

    def test_tolerance_boundary(self):
        # a 1e-11 defect sits inside the 1e-10 construction tolerance
        m = np.eye(2) * (1.0 + 1e-11)
        Unitary(m)


class TestCheckUnitary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_unitary_and_ipea_batch_refuse_non_finite_entries(self, bad):
        # Both entries to check_unitary refuse a non-finite entry before the
        # Gram product, which would warn on an infinite one.
        stack = np.stack([np.eye(2, dtype=complex)] * 3)
        stack[1, 0, 1] = bad
        with pytest.raises(ContractError, match="matrix entries must be finite"):
            Unitary(stack[1])
        streams = TrialStreams(0, (), range(3))
        with pytest.raises(ContractError, match="matrix entries must be finite"):
            ipea_batch(stack, basis_state(1, 0), 1, 1, "matrix", streams)
        # a NaN entry makes its deviation NaN, which the check itself refuses
        stack[1, 0, 1] = np.nan
        with pytest.raises(ContractError, match="matrix of trial 1 is not unitary"):
            qmath.check_unitary(stack)

    @pytest.mark.parametrize("shape", [(), (2,), (2, 3), (4, 2, 3), (0, 0), (3, 0, 0)])
    def test_refuses_wrong_shapes(self, shape):
        with pytest.raises(ContractError, match="must be square and at least 1x1"):
            qmath.check_unitary(np.zeros(shape, dtype=complex))

    def test_names_the_failing_trial(self):
        stack = np.stack([np.eye(2, dtype=complex)] * 5)
        stack[3] *= 1.01
        stack[4, 1, 0] = 1e-9
        with pytest.raises(ContractError, match=r"^matrix of trial 3 is not unitary: max \|U†U - I\| = 2.010e-02$"):
            qmath.check_unitary(stack)
        # a leading shape of several axes counts trials over them, row by row
        with pytest.raises(ContractError, match="matrix of trial 2 is not unitary"):
            qmath.check_unitary(stack[1:].reshape(2, 2, 2, 2))
        with pytest.raises(ContractError, match=r"^matrix is not unitary: max"):
            qmath.check_unitary(stack[3])
        qmath.check_unitary(stack[:3])
        qmath.check_unitary(stack[:0])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_qubits=st.integers(1, 2),
        defect=st.floats(-14.0, -8.0) | st.just(float("nan")),
    )
    def test_unitary_and_ipea_batch_refuse_the_same_matrices(self, seed, num_qubits, defect):
        # One rule decides both boundaries: a Unitary and a batch's array
        # accept or refuse each matrix alike, around the 1e-10 tolerance
        # and on a non-finite entry.
        matrix = haar_unitary(1 << num_qubits, derive_rng(seed)).matrix * (1.0 + 10.0**defect)

        def refused(build) -> bool:
            try:
                build()
            except ContractError:
                return True
            return False

        target = basis_state(num_qubits, 0)
        streams = TrialStreams(seed, (), range(1))
        assert refused(lambda: Unitary(matrix)) == refused(
            lambda: ipea_batch(matrix[None], target, 1, 1, "matrix", streams)
        )


class TestStateVector:
    def test_basis_state(self):
        s = basis_state(2, 3)
        assert s.num_qubits == 2
        np.testing.assert_allclose(s.amplitudes, [0, 0, 0, 1])

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            StateVector(1, [1.0, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError, match="finite"):
            StateVector(1, [np.nan, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ContractError):
            StateVector(2, [1.0, 0.0])

    def test_amplitudes_frozen(self):
        s = basis_state(1, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_state_from_amplitudes_infers_qubits(self):
        s = state_from_amplitudes([0.0, 0.0, 1.0, 0.0])
        assert s.num_qubits == 2

    def test_state_from_amplitudes_rejects_nonpower(self):
        with pytest.raises(ContractError):
            state_from_amplitudes([1.0, 0.0, 0.0])


class TestDensityMatrix:
    def test_from_pure_state(self):
        rho = density_from_state(basis_state(1, 0))
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]])

    def test_rejects_nonhermitian(self):
        with pytest.raises(ContractError):
            DensityMatrix(2, [[1.0, 1.0], [0.0, 0.0]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ContractError):
            DensityMatrix(2, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(ContractError):
            DensityMatrix(2, m)

    def test_from_matrix_classmethod(self):
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        assert rho.dimension == 2


@st.composite
def _unit_trace_hermitian(draw):
    """A 2x2 Hermitian matrix of trace 1: eigenvalues lo and 1 - lo in a
    random basis, with lo anywhere in [-1, 0.5] or within 1e-9 of the
    eigenvalue floor on either side."""
    near = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-13, 1e-9)).map(
        lambda sign_size: qmath.EIGENVALUE_FLOOR + sign_size[0] * sign_size[1]
    )
    lo = draw(st.floats(-1.0, 0.5) | near)
    theta, phi = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi))
    v = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    w = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
    return lo * np.outer(v, v.conj()) + (1.0 - lo) * np.outer(w, w.conj())


@settings(max_examples=300, deadline=None)
@given(st.lists(_unit_trace_hermitian(), min_size=1, max_size=3))
def test_density_check_refuses_as_eigvalsh_does(matrices):
    # The 2x2 closed form refuses exactly the matrices whose eigvalsh
    # minimum lies below the floor, and names that eigenvalue.
    matrices = matrices[0] if len(matrices) == 1 else np.stack(matrices)
    lo = float(np.min(np.linalg.eigvalsh(matrices)))
    assume(abs(lo - qmath.EIGENVALUE_FLOOR) > 1e-14)
    if lo >= qmath.EIGENVALUE_FLOOR:
        qmath.check_density(matrices)
        return
    with pytest.raises(ContractError, match="density matrix has eigenvalue") as info:
        qmath.check_density(matrices)
    named = float(re.search(r"eigenvalue (\S+) <", str(info.value)).group(1))
    assert named == pytest.approx(lo, rel=1e-3)


class TestTensorAndApply:
    """The register size cap, a constant read at call time."""

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setattr(qmath, "MAX_QUBITS", 3)
        basis_state(3, 0)
        with pytest.raises(CapacityError, match="cap is 8"):
            basis_state(4, 0)


class TestFidelityAndRng:
    def test_fidelity_pure_match(self):
        s = random_state(1, derive_rng(5))
        assert fidelity(density_from_state(s), s) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_orthogonal(self):
        rho = density_from_state(basis_state(1, 0))
        assert fidelity(rho, basis_state(1, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_magnitude(self):
        a = state_from_amplitudes([0.6, 0.8])
        assert overlap_magnitude(a, basis_state(1, 0)) == pytest.approx(0.6, abs=1e-12)

    def test_derive_rng_streams_independent(self):
        a = derive_rng(11, 0).random(4)
        b = derive_rng(11, 1).random(4)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("seeds", [(-1,), (3, -2), (3, 0, -5)])
    def test_derive_rng_refuses_a_negative_seed_or_stream(self, seeds):
        # named as TrialStreams names it, not numpy's "expected non-negative integer"
        negative = min(seeds)
        with pytest.raises(ContractError, match=f"must be >= 0, got {negative}$"):
            derive_rng(*seeds)
        with pytest.raises(ContractError, match=f"must be >= 0, got {negative}$"):
            TrialStreams(seeds[0], seeds[1:], [0])

    def test_derive_rng_reproducible(self):
        np.testing.assert_array_equal(
            derive_rng(11, 2, 3).random(8), derive_rng(11, 2, 3).random(8)
        )



# Trial indices on both sides of 2^32, where a spawn key grows to two words.
TRIAL_INDICES = st.one_of(
    st.integers(0, 40), st.integers(2**32 - 2, 2**32 + 2), st.integers(0, 2**64 - 1)
)


@settings(max_examples=120, deadline=None)
@given(
    # seeds above 2^128 and long streams run past the precomputed hash constants
    st.one_of(st.integers(0, 2**64 - 1), st.integers(2**128, 2**200)),
    st.one_of(
        st.lists(st.integers(0, 2**40), max_size=2),
        st.lists(st.integers(0, 2**40), min_size=9, max_size=12),
    ),
    st.lists(TRIAL_INDICES, min_size=1, max_size=6),
    st.one_of(st.none(), st.integers(1, 16), st.integers(17, 63)),
    st.lists(st.integers(1, 9), min_size=1, max_size=4),
    # the stated length: none, or the words read less 0 (all of them) to 9
    st.one_of(st.none(), st.integers(0, 9)),
    st.integers(0, 5),
)
def test_trial_streams_draw_what_derive_rng_draws(
    seed, stream, trials, bits, slices, short, lo
):
    # Keys from the vectorised hash and words from the reused Philox
    # must be exactly each trial's own generator: an optional
    # integers(0, 2^bits) first, as --dyadic draws its phase, then
    # random() in consecutive slices.  A run that states no length, or
    # fewer words than it reads, refills its slices at offsets inside a
    # Philox block; one that states them all refills once.  A sub-run taken
    # with rows() at each offset reads the same words without moving the run.
    rngs = [derive_rng(seed, *stream, t) for t in trials]
    ints = [int(rng.integers(0, 1 << bits)) for rng in rngs] if bits else None
    want = np.array([rng.random(sum(slices)) for rng in rngs])
    lo = min(lo, len(trials) - 1)
    total = sum(slices) + (1 if bits else 0)
    length = None if short is None else max(1, total - short)
    streams = TrialStreams(seed, stream, trials, length)
    if bits:
        assert streams.integers(bits).tolist() == ints
    at = 0
    for count in slices:
        part = streams.rows(lo, len(trials))
        np.testing.assert_array_equal(part.uniforms(count), want[lo:, at : at + count])
        np.testing.assert_array_equal(streams.uniforms(count), want[:, at : at + count])
        at += count
    assert streams.offset == at + (1 if bits else 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9)), min_size=1, max_size=12),
)
def test_trial_streams_share_one_philox_without_crosstalk(seeds, requests):
    # Every run draws through one process-wide Philox.  Two runs and a
    # rows() part of each, refilling in turn on every request, must each
    # still read exactly its own trials' derive_rng words.
    runs = [TrialStreams(seeds[0], (1,), range(4)), TrialStreams(seeds[1], (2, 3), range(3))]
    runs += [runs[0].rows(1, 3), runs[1].rows(0, 2)]
    sources = [(seeds[0], (1,), range(4)), (seeds[1], (2, 3), range(3)),
               (seeds[0], (1,), range(1, 3)), (seeds[1], (2, 3), range(2))]
    total = [sum(count for i, count in requests if i == run) for run in range(4)]
    want = [np.array([derive_rng(seed, *stream, t).random(n) for t in trials])
            for (seed, stream, trials), n in zip(sources, total)]
    at = [0] * 4
    for run, count in requests:
        got = runs[run].uniforms(count)
        np.testing.assert_array_equal(got, want[run][:, at[run] : at[run] + count])
        at[run] += count


def test_trial_streams_refuse_what_derive_rng_cannot_seed():
    with pytest.raises(ContractError):
        TrialStreams(-1, (), [0])
    with pytest.raises(ContractError):
        TrialStreams(1, (-2,), [0])
    for trials in ([-1], [2**64]):
        with pytest.raises(ContractError):
            TrialStreams(1, (), trials)
    with pytest.raises(ContractError):
        TrialStreams(1, (), [0]).integers(64)
