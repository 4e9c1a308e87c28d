"""Gate-model checks: Jones matrices, dual-rail pipeline, post-selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import haar_unitary, phase_unitary, photonic_controlled_power, random_state
from ipea_sim import photonics, qpe
from ipea_sim.experiments import run_fig5
from ipea_sim.photonics import (
    DegeneracyError,
    NoiseSpec,
    ParityBranch,
    PhotonicProvider,
    PhotonicState,
    WaveplateSpec,
    apply_blue_unitary,
    beamsplitter_mix,
    compose_waveplates,
    hwp,
    jitter_waveplates,
    oracle_eigenphase,
    parity_cases,
    polarization_state,
    postselect,
    prepare_entangled_input,
    qwp,
)
from ipea_sim.qmath import ContractError, Unitary, basis_state, derive_rng


class TestJonesMatrices:
    def test_hwp_axis_aligned(self):
        np.testing.assert_allclose(hwp(0.0).matrix, [[1, 0], [0, -1]], atol=1e-15)

    def test_hwp_at_45_swaps(self):
        np.testing.assert_allclose(hwp(45.0).matrix, [[0, 1], [1, 0]], atol=1e-12)

    def test_hwp_entries(self):
        theta = 15.0
        c, s = np.cos(np.deg2rad(30)), np.sin(np.deg2rad(30))
        np.testing.assert_allclose(hwp(theta).matrix, [[c, s], [s, -c]], atol=1e-12)

    def test_hwp_is_involution(self):
        u = hwp(30.0).matrix
        np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-12)

    def test_qwp_axis_aligned(self):
        np.testing.assert_allclose(qwp(0.0).matrix, [[1, 0], [0, 1j]], atol=1e-15)

    def test_waveplate_spec_wraps_angle(self):
        assert WaveplateSpec("HWP", 190.0).angle_deg == pytest.approx(10.0)
        with pytest.raises(ContractError):
            WaveplateSpec("TWP", 0.0)

    def test_compose_order_first_plate_acts_first(self):
        a, b = hwp(10.0), qwp(40.0)
        composite = compose_waveplates([a, b])
        np.testing.assert_allclose(composite.matrix, b.matrix @ a.matrix, atol=1e-12)

    def test_compose_accepts_specs_and_matrices(self):
        composite = compose_waveplates([WaveplateSpec("HWP", 0.0), hwp(45.0)])
        np.testing.assert_allclose(composite.matrix, hwp(45.0).matrix @ hwp(0.0).matrix)

    def test_compose_rejects_empty(self):
        with pytest.raises(ContractError):
            compose_waveplates([])

    def test_compose_specs_equals_product_of_public_plates(self):
        # a train of specs multiplies raw Jones matrices and checks only the
        # product; it must equal, bit for bit, the product of the checked
        # public plates, and a plate that is not 2x2 is still refused
        rng = derive_rng(31)
        for _ in range(20):
            specs = [
                WaveplateSpec(kind, 180.0 * rng.random())
                for kind in rng.choice(["HWP", "QWP"], size=int(rng.integers(1, 5)))
            ]
            plates = [(hwp if spec.kind == "HWP" else qwp)(spec.angle_deg) for spec in specs]
            want = np.eye(2, dtype=complex)
            for plate in plates:
                want = plate.matrix @ want
            got = compose_waveplates(specs)
            assert isinstance(got, Unitary)
            assert np.array_equal(got.matrix, want)
            assert np.array_equal(compose_waveplates(specs[:1]).matrix, plates[0].matrix)
        with pytest.raises(ContractError, match="2x2"):
            compose_waveplates([WaveplateSpec("HWP", 10.0), Unitary(np.eye(4))])
        with pytest.raises(ContractError, match="expected WaveplateSpec or Unitary"):
            compose_waveplates([WaveplateSpec("HWP", 10.0), np.eye(2)])


class TestCachedValues:
    def test_polarization_state_refuses_what_it_refused(self):
        # built once per label, and still a ContractError for an unknown
        # label or an unhashable one that can never be a label
        for label in ("X", "h", 1, None, ["H"], {"H": 1}):
            with pytest.raises(ContractError, match="unknown polarization"):
                polarization_state(label)

    def test_cached_polarization_state_is_immutable(self):
        state = polarization_state("R")
        assert polarization_state("R") is state
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
        np.testing.assert_array_equal(state.amplitudes, photonics.POLARIZATION_STATES["R"])

    def test_cached_parity_cases_are_immutable(self):
        cases = parity_cases(2)
        assert parity_cases(2) is cases
        assert isinstance(cases, tuple) and [b.case_pattern for b in cases] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        with pytest.raises(AttributeError):
            cases[0].label = "Q"
        # a filter builds its own tuple and leaves the cached one whole
        assert parity_cases(2, "Q") == (cases[1], cases[2])
        assert len(parity_cases(2)) == 4
        for bad in ((0, None), (2, "R"), (2, ["P"])):
            with pytest.raises(ContractError):
                parity_cases(*bad)
        # any integer type reads the same cache entry; anything else is refused
        assert parity_cases(np.int64(2)) is cases
        for bad in (2.0, "2", None):
            with pytest.raises(ContractError, match=f"n must be an integer, got {bad!r}"):
                parity_cases(bad)


class TestEigenphaseOracle:
    def test_two_hwp_linear_law(self):
        # composite of hwp(0) then hwp(theta) rotates by 2*theta; on the
        # right-circular eigenvector the phase is (-theta/180) mod 1
        for theta in range(0, 180, 15):
            u = compose_waveplates([hwp(0.0), hwp(float(theta))])
            expected = (-theta / 180.0) % 1.0
            assert oracle_eigenphase(u, "R") == pytest.approx(expected, abs=1e-12)

    def test_only_a_polarization_letter_selects(self):
        u = compose_waveplates([hwp(0.0), hwp(30.0)])
        for selector in (polarization_state("R"), np.array([1.0, 1j]), "X"):
            with pytest.raises(ContractError, match="unknown polarization"):
                oracle_eigenphase(u, selector)

    def test_degenerate_overlap_raises(self):
        # hwp(45) eigenvectors are diagonal/antidiagonal; |H> overlaps
        # both equally, so the pick would be arbitrary
        with pytest.raises(DegeneracyError):
            oracle_eigenphase(hwp(45.0), "H")

    def test_fully_degenerate_spectrum_is_fine(self):
        assert oracle_eigenphase(Unitary(np.eye(2) * 1j), "H") == pytest.approx(0.25)

    def test_eigenstate_selector_is_clean(self):
        assert oracle_eigenphase(hwp(45.0), "D") == pytest.approx(0.0, abs=1e-12)
        assert oracle_eigenphase(hwp(45.0), "A") == pytest.approx(0.5, abs=1e-12)


class TestPipeline:
    def test_prepare_structure(self):
        psi = random_state(1, derive_rng(21))
        ph = prepare_entangled_input(psi)
        arr = ph.amplitudes.reshape(2, 2, 2)
        np.testing.assert_allclose(arr[0, :, 0], psi.amplitudes / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(arr[1, :, 1], psi.amplitudes / np.sqrt(2), atol=1e-12)
        assert np.all(arr[0, :, 1] == 0) and np.all(arr[1, :, 0] == 0)

    def test_blue_cascade_is_literal_power(self):
        psi = basis_state(1, 1)
        u = phase_unitary(0.125)
        ph = apply_blue_unitary(prepare_entangled_input(psi), u, 3)
        arr = ph.amplitudes.reshape(2, 2, 2)
        # four passes of a 1/8-turn phase = half a turn on |1>
        assert arr[1, 1, 1] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)

    def test_cascade_cap(self):
        ph = prepare_entangled_input(basis_state(1, 0))
        with pytest.raises(ContractError, match="1..16, got 17$"):
            apply_blue_unitary(ph, hwp(0.0), 17)

    def test_stage_ordering_enforced(self):
        ph = beamsplitter_mix(prepare_entangled_input(basis_state(1, 0)))
        with pytest.raises(ContractError):
            apply_blue_unitary(ph, hwp(0.0), 1)
        with pytest.raises(ContractError):
            beamsplitter_mix(ph)

    def test_postselect_requires_ports(self):
        ph = prepare_entangled_input(basis_state(1, 0))
        with pytest.raises(ContractError):
            postselect(ph, ParityBranch("P", (0,)))

    def test_parity_cases_counts(self):
        for n in (1, 2, 3):
            assert len(parity_cases(n)) == 2 ** n
            p_cases = parity_cases(n, "P")
            assert len(p_cases) == 2 ** (n - 1)
            assert all(sum(b.case_pattern) % 2 == 0 for b in p_cases)

    def test_parity_branch_label_validation(self):
        with pytest.raises(ContractError):
            ParityBranch("P", (1, 0))
        with pytest.raises(ContractError):
            ParityBranch("Q", (1, 1))

    def test_case_probabilities_are_uniform(self):
        rng = derive_rng(22)
        u = haar_unitary(4, rng)
        psi = random_state(2, rng)
        ports = beamsplitter_mix(apply_blue_unitary(prepare_entangled_input(psi), u, 2))
        for branch in parity_cases(2):
            _, prob = postselect(ports, branch)
            assert prob == pytest.approx(0.25, abs=1e-12)

    def test_photonic_controlled_power_matches_block(self):
        u = hwp(30.0)
        eff = photonic_controlled_power(u, 1)
        expected = np.zeros((4, 4), dtype=complex)
        expected[:2, :2] = np.eye(2)
        expected[2:, 2:] = u.matrix
        np.testing.assert_allclose(eff.matrix, expected, atol=1e-10)

    def test_photonic_controlled_power_doubles(self):
        u = phase_unitary(0.2)
        eff = photonic_controlled_power(u, 2)
        assert eff.matrix[3, 3] == pytest.approx(np.exp(2j * np.pi * 0.4), abs=1e-10)


def _weighted_pair(table):
    # (P(bit 0), P(bit 1)) of a one-trial table: its weighted sum, the
    # measured pair of a Q branch swapped, since its bit is flipped
    weight, labels, (plus, minus) = table
    q = np.array([label == "Q" for label in labels])
    p0, p1 = np.where(q, minus, plus), np.where(q, plus, minus)
    return weight @ p0 / weight.sum(), weight @ p1 / weight.sum()


def _one_trial_table(provider, unitary, target, k, omega):
    # round k's (B,) branch weights, labels and (2, B) measured pairs
    rounds = provider.rounds(unitary.matrix[None], target, k)
    return rounds[1][k - 1, 0], rounds[2], qpe._round_pairs(rounds, k, np.array([omega]))[:, 0]


class TestPhotonicProvider:
    def test_branch_tally_and_relabel_flag(self):
        prov = PhotonicProvider()
        _, labels, pairs = _one_trial_table(prov, hwp(30.0), polarization_state("H"), 1, -0.3)
        assert labels == ("P", "Q")
        # the Q branch arrives as measured, its bit flipped: its P(+) is the
        # P branch's P(-), so relabeled, its bit pair equals the P branch's
        (p_plus, q_plus), (p_minus, q_minus) = pairs
        assert (q_minus, q_plus) == pytest.approx((p_plus, p_minus), abs=1e-12)
        assert prov.branch_counts == {"P": 0, "Q": 0}  # building a table draws nothing
        spec = qpe.EigenproblemSpec(hwp(30.0), polarization_state("H"))
        qpe.ipea_run(spec, 2, 11, prov, derive_rng(23))
        assert prov.branch_counts["P"] + prov.branch_counts["Q"] == 22
        assert prov.branch_counts["P"] > 0 and prov.branch_counts["Q"] > 0

    def test_bit_distribution_matches_matrix_provider(self):
        u = compose_waveplates([hwp(0.0), hwp(30.0)])
        psi = polarization_state("R")
        for k in (1, 2, 3):
            for omega in (0.0, -np.pi / 4, -np.pi / 2):
                got = _weighted_pair(_one_trial_table(PhotonicProvider(), u, psi, k, omega))
                want = _weighted_pair(_one_trial_table(qpe.MatrixProvider(), u, psi, k, omega))
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_bit_distribution_sums_to_one(self):
        table = _one_trial_table(PhotonicProvider(), hwp(30.0), polarization_state("H"), 1, -0.3)
        weight, _, (plus, minus) = table
        assert weight.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(plus + minus, 1.0, atol=1e-12)
        p0, p1 = _weighted_pair(table)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


class TestNoise:
    def test_noise_spec_bounds(self):
        with pytest.raises(ContractError):
            NoiseSpec(distinguishability=1.2)
        # refused here, not later on a jittered plate
        for sigma in (-0.1, float("inf"), float("nan")):
            message = f"^angle_jitter_sigma_deg must be finite and >= 0, got {sigma}$"
            with pytest.raises(ContractError, match=message):
                NoiseSpec(0.5, sigma)

    @pytest.mark.parametrize("fields", [(0.95, "0.25"), (True, 0.25)], ids=["str", "bool"])
    def test_noise_spec_stores_its_fields_as_floats(self, fields):
        # stored as the floats they are checked as, so fig5 runs on them
        noise = NoiseSpec(*fields)
        assert noise == NoiseSpec(*map(float, fields))
        assert {type(noise.distinguishability), type(noise.angle_jitter_sigma_deg)} == {float}
        assert len(run_fig5(noise=noise, shots=0)) == 9

    def test_jitter_respects_sigma_zero(self):
        plates = (WaveplateSpec("HWP", 30.0), WaveplateSpec("QWP", 10.0))
        out = jitter_waveplates(plates, NoiseSpec(0.95, 0.0), derive_rng(25))
        assert out == plates

    def test_jitter_perturbs_angles(self):
        plates = (WaveplateSpec("HWP", 30.0),)
        out = jitter_waveplates(plates, NoiseSpec(0.95, 0.5), derive_rng(26))
        assert out[0].kind == "HWP"
        assert out[0].angle_deg != 30.0
        assert abs(out[0].angle_deg - 30.0) < 5.0  # ten sigmas

    def test_jitter_rejects_raw_matrices(self):
        with pytest.raises(ContractError):
            jitter_waveplates((hwp(0.0),), NoiseSpec(), derive_rng(27))


class TestPhotonicStateValidation:
    def test_amplitude_count_enforced(self):
        with pytest.raises(ContractError):
            PhotonicState(1, np.ones(4) / 2.0)

    def test_norm_enforced(self):
        bad = np.zeros(8)
        bad[0] = 2.0
        with pytest.raises(ContractError):
            PhotonicState(1, bad)

    def test_rail_correlation_enforced(self):
        # a red/blue cross term breaks the entangled-input invariant
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[3] = amps[5] = 1.0 / np.sqrt(3)
        state = PhotonicState(1, amps)
        with pytest.raises(ContractError, match="not rail-correlated"):
            apply_blue_unitary(state, hwp(0.0), 1)
        # so is H riding with target 1 in red but target 2 in blue, whole
        # or split with the correlated rails
        rails = prepare_entangled_input(random_state(2, derive_rng(8))).amplitudes
        crossed = rails.reshape((2,) * 5).copy()  # control, (pol, rail) per target
        crossed[0, :, 0, :, 1], crossed[0, :, 0, :, 0] = crossed[0, :, 0, :, 0], 0.0
        split = (rails + crossed.reshape(-1)) / np.linalg.norm(rails + crossed.reshape(-1))
        for amps in (crossed, split):
            with pytest.raises(ContractError, match="not rail-correlated"):
                apply_blue_unitary(PhotonicState(2, amps.reshape(-1)), Unitary(np.eye(4)), 1)
        apply_blue_unitary(PhotonicState(2, rails), Unitary(np.eye(4)), 1)

    def test_cascade_drift_is_refused(self):
        # a stack within the unitarity tolerance whose norm drifts over the
        # cascade's 2^15 passes is refused by the check after the beamsplitters
        matrix = compose_waveplates([hwp(10.0), hwp(47.0)]).matrix * (1 + 4e-11)
        spec = qpe.EigenproblemSpec(Unitary(matrix), polarization_state("R"))
        with pytest.raises(ContractError, match="not normalized"):
            qpe.ipea_run_exact(spec, 16, "photonic")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_pipeline_equals_direct_controlled_power(seed, k):
    rng = derive_rng(seed)
    u = haar_unitary(2, rng)
    psi = random_state(1, rng)
    ports = beamsplitter_mix(apply_blue_unitary(prepare_entangled_input(psi), u, k))
    sv, prob = postselect(ports, ParityBranch("P", (0,)))
    w = np.linalg.matrix_power(u.matrix, 1 << (k - 1))
    direct = np.concatenate([psi.amplitudes, w @ psi.amplitudes]) / np.sqrt(2)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert abs(np.vdot(direct, sv.amplitudes)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_q_branch_posteriors_mirror_p_branch(seed):
    rng = derive_rng(seed)
    u = haar_unitary(2, rng)
    psi = random_state(1, rng)
    omega = float(-2.0 * np.pi * rng.random() * 0.5)
    ports = beamsplitter_mix(apply_blue_unitary(prepare_entangled_input(psi), u, 1))
    sv_p, _ = postselect(ports, ParityBranch("P", (0,)))
    sv_q, _ = postselect(ports, ParityBranch("Q", (1,)))
    plus_p, minus_p = qpe.ancilla_bit_distribution(sv_p, omega)
    plus_q, minus_q = qpe.ancilla_bit_distribution(sv_q, omega)
    # the odd branch is the even branch with its bit flipped
    assert minus_q == pytest.approx(plus_p, abs=1e-12)
    assert plus_q == pytest.approx(minus_p, abs=1e-12)
