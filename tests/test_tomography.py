"""Reconstruction checks: counts model, linear inversion, bootstrap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_bloch, random_state, reference_bootstrap
from ipea_sim import qmath, tomography
from ipea_sim.qmath import (
    ContractError,
    DensityMatrix,
    basis_state,
    density_from_state,
    derive_rng,
    fidelity,
    state_from_amplitudes,
)
from ipea_sim.tomography import (
    PauliCounts,
    ReconstructionReport,
    expectations,
    reconstruct,
    reconstruct_from_expectations,
    simulate_counts,
)


def bloch_density(r: np.ndarray) -> DensityMatrix:
    x, y, z = (float(v) for v in r)
    m = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    return DensityMatrix(2, m)


class TestExpectations:
    def test_computational_pole(self):
        exp = expectations(density_from_state(basis_state(1, 0)))
        assert exp["Z"] == pytest.approx(1.0, abs=1e-12)
        assert exp["X"] == pytest.approx(0.0, abs=1e-12)
        assert exp["Y"] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_state(self):
        d = state_from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2))
        exp = expectations(density_from_state(d))
        assert exp["X"] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_larger_systems(self):
        with pytest.raises(ContractError):
            expectations(DensityMatrix.from_matrix(np.eye(4) / 4))


class TestCountsModel:
    def test_counts_sum_and_determinism(self):
        rho = density_from_state(random_state(1, derive_rng(31)))
        a = simulate_counts(rho, 500, derive_rng(32))
        b = simulate_counts(rho, 500, derive_rng(32))
        assert a.counts == b.counts
        for plus, minus in a.counts.values():
            assert plus + minus == 500

    def test_validation(self):
        with pytest.raises(ContractError):
            PauliCounts(0, {"X": (0, 0), "Y": (0, 0), "Z": (0, 0)})
        with pytest.raises(ContractError):
            PauliCounts(10, {"X": (5, 5), "Y": (5, 5)})
        with pytest.raises(ContractError):
            PauliCounts(10, {"X": (5, 4), "Y": (5, 5), "Z": (5, 5)})

    def test_empirical_expectations(self):
        counts = PauliCounts(10, {"X": (7, 3), "Y": (5, 5), "Z": (10, 0)})
        emp = counts.empirical_expectations()
        assert emp["X"] == pytest.approx(0.4)
        assert emp["Y"] == pytest.approx(0.0)
        assert emp["Z"] == pytest.approx(1.0)


class TestReconstruction:
    def test_exact_round_trip_pure(self):
        psi = random_state(1, derive_rng(33))
        rho = density_from_state(psi)
        exp = expectations(rho)
        rho_hat = reconstruct_from_expectations(exp["X"], exp["Y"], exp["Z"])
        np.testing.assert_allclose(rho_hat.matrix, rho.matrix, atol=1e-12)

    def test_exact_round_trip_mixed(self):
        rho = bloch_density(np.array([0.3, -0.2, 0.4]))
        exp = expectations(rho)
        rho_hat = reconstruct_from_expectations(exp["X"], exp["Y"], exp["Z"])
        np.testing.assert_allclose(rho_hat.matrix, rho.matrix, atol=1e-12)

    def test_bloch_overshoot_rescaled(self):
        # all-plus counts claim r = (1,1,1), norm sqrt(3) > 1
        counts = PauliCounts(10, {"X": (10, 0), "Y": (10, 0), "Z": (10, 0)})
        rho = reconstruct(counts)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals.min() >= -1e-12
        r = np.array([expectations(rho)[b] for b in ("X", "Y", "Z")])
        assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            reconstruct_from_expectations(np.nan, 0.0, 0.0)


class TestBootstrap:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.data(),
        st.integers(1, 40),
        st.integers(1, 8),
        st.sampled_from(("random", "0", "1", "+", "+i")),
    )
    def test_array_bootstrap_equals_per_resample_loop(
        self, seed, data, resamples, block, ideal_kind
    ):
        # Blocks smaller than the resample count make the draws span
        # several blocks; the axis states let a fidelity reach exactly 0
        # or 1, where the clamp acts.
        shots = data.draw(st.integers(1, 10**6), label="shots")
        plus = [data.draw(st.integers(0, shots), label=f"plus {b}") for b in "XYZ"]
        counts = PauliCounts(shots, {b: (p, shots - p) for b, p in zip("XYZ", plus)})
        ideal = {
            "random": lambda: random_state(1, derive_rng(seed, 1)),
            "0": lambda: basis_state(1, 0),
            "1": lambda: basis_state(1, 1),
            "+": lambda: state_from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2.0)),
            "+i": lambda: state_from_amplitudes(np.array([1.0, 1.0j]) / np.sqrt(2.0)),
        }[ideal_kind]()
        expected = reference_bootstrap(counts, ideal, resamples, derive_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tomography, "BOOTSTRAP_BLOCK", block)
            got = tomography._bootstrap(
                np.array([plus]), shots, ideal.amplitudes[None], resamples, [derive_rng(seed)]
            )
        assert [float(v[0]).hex() for v in got] == [v.hex() for v in expected]


class TestReport:
    def test_validation(self):
        rho = density_from_state(basis_state(1, 0))
        ReconstructionReport(rho, 1.0, 0.0, 0)
        with pytest.raises(ContractError):
            ReconstructionReport(rho, 1.5, 0.0, 100)
        with pytest.raises(ContractError):
            ReconstructionReport(rho, 0.5, -0.1, 100)
        with pytest.raises(ContractError):
            ReconstructionReport(rho, 0.5, 0.1, -1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_round_trip_over_bloch_ball(seed, surface):
    rho = bloch_density(random_bloch(derive_rng(seed), surface=surface))
    exp = expectations(rho)
    rho_hat = reconstruct_from_expectations(exp["X"], exp["Y"], exp["Z"])
    np.testing.assert_allclose(rho_hat.matrix, rho.matrix, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sampled_reconstruction_converges(seed):
    rng = derive_rng(seed)
    psi = random_state(1, rng)
    rho = density_from_state(psi)
    counts = simulate_counts(rho, 200000, rng)
    rho_hat = reconstruct(counts)
    assert fidelity(rho_hat, psi) > 0.99


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.integers(1, 10**6),
    st.integers(1, 60),
    st.sampled_from((1, 5, 32, tomography.BOOTSTRAP_BLOCK)),
)
def test_one_panel_functions_are_rows_of_the_stacked_kernels(seed, panels, shots, resamples, block):
    # fig5 runs its panels as stacks; each public one-panel function must
    # give the bits of its row, and each row of the stacked bootstrap what
    # the per-resample reference gives on that row's generator.  Small
    # blocks make a block hold parts of several rows' resamples.
    rng = derive_rng(seed)
    rhos = [bloch_density(random_bloch(rng, surface=bool(t % 2))) for t in range(panels)]
    ideals = [random_state(1, rng) for _ in range(panels)]
    stack = np.stack([rho.matrix for rho in rhos])
    amplitudes = np.stack([ideal.amplitudes for ideal in ideals])
    exps = tomography._expectations(stack)
    exact = tomography._bloch_matrices(exps)
    plus = tomography._draw_plus(stack, shots, [derive_rng(seed, t, 1) for t in range(panels)])
    estimates = tomography._reconstruct_plus(plus, shots)
    fids = qmath.fidelities(estimates, amplitudes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "BOOTSTRAP_BLOCK", block)
        means, stds = tomography._bootstrap(
            plus, shots, amplitudes, resamples, [derive_rng(seed, t, 2) for t in range(panels)]
        )
    for t, (rho, ideal) in enumerate(zip(rhos, ideals)):
        exp = expectations(rho)
        assert exp == dict(zip("XYZ", exps[t].tolist()))
        assert np.array_equal(reconstruct_from_expectations(*exp.values()).matrix, exact[t])
        counts = simulate_counts(rho, shots, derive_rng(seed, t, 1))
        assert [counts.counts[b][0] for b in "XYZ"] == plus[t].tolist()
        rho_hat = reconstruct(counts)
        assert np.array_equal(rho_hat.matrix, estimates[t])
        assert fidelity(rho_hat, ideal) == fids[t]
        row = (means[t], stds[t])
        assert reference_bootstrap(counts, ideal, resamples, derive_rng(seed, t, 2)) == row
