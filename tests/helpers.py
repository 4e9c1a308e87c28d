"""Shared sampling utilities and reference implementations for the test suite."""

import numpy as np

from ipea_sim import qmath
from ipea_sim.photonics import (
    ParityBranch,
    apply_blue_unitary,
    beamsplitter_mix,
    parity_cases,
    postselect,
    prepare_entangled_input,
    q_branch_relabel,
)
from ipea_sim.qmath import StateVector, Unitary
from ipea_sim.qpe import feedback_angle


def haar_unitary(dim: int, rng: np.random.Generator) -> Unitary:
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r)
    return Unitary(q * (d / np.abs(d)))


def random_state(num_qubits: int, rng: np.random.Generator) -> StateVector:
    dim = 1 << num_qubits
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(num_qubits, raw / np.linalg.norm(raw))


def random_bloch(rng: np.random.Generator, surface: bool = False) -> np.ndarray:
    """Uniform point in (or on) the Bloch ball."""
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    if surface:
        return v
    return v * rng.random() ** (1.0 / 3.0)


def phase_unitary(phi: float) -> Unitary:
    """diag(1, e^{2 pi i phi}) — eigenphase phi on |1>."""
    return Unitary(np.diag([1.0, np.exp(2j * np.pi * phi)]))


def reference_ipea_run(spec, m: int, reps: int, provider: str, rng: np.random.Generator):
    """Per-repetition IPEA loop built from public pieces only.

    Every repetition rebuilds the controlled state from scratch: the
    photonic pipeline with one ``rng.choice`` over its post-selected port
    patterns, or the matrix provider's block state, then the feedback
    rotation and a sampled ``qmath.measure`` of the control, relabeled on
    an odd-parity branch.  Returns the estimate's bits (b1..bm) and the
    tally of drawn photonic branches; ``ipea_run`` must reproduce both
    for the same generator.
    """
    counts = {"P": 0, "Q": 0}
    target = spec.input_state
    tail: list[int] = []
    for k in range(m, 0, -1):
        omega = feedback_angle(k, tail)
        ones = 0
        for _ in range(reps):
            label = None
            if provider == "photonic":
                ports = beamsplitter_mix(
                    apply_blue_unitary(prepare_entangled_input(target), spec.unitary, k)
                )
                cases = []
                for branch in parity_cases(ports.num_targets):
                    state, prob = postselect(ports, branch)
                    if state is not None:
                        cases.append((branch.label, state, prob))
                total = sum(prob for _, _, prob in cases)
                probs = np.array([prob for _, _, prob in cases]) / total
                label, state, _ = cases[int(rng.choice(len(cases), p=probs))]
                counts[label] += 1
            else:
                w = np.linalg.matrix_power(spec.unitary.matrix, 1 << (k - 1))
                amps = np.concatenate([target.amplitudes, w @ target.amplitudes])
                state = StateVector(target.num_qubits + 1, amps * (1.0 / np.sqrt(2.0)))
            # diag(1, e^{i omega}) on the control qubit
            amps = state.amplitudes.copy()
            amps[amps.size // 2:] *= np.exp(1j * omega)
            rotated = StateVector(state.num_qubits, amps)
            bit = qmath.measure(rotated, 0, qmath.PLUS_MINUS, rng).outcome_index
            if label == "Q":
                bit = q_branch_relabel(bit)
            ones += bit
        tail.insert(0, 1 if ones > reps // 2 else 0)
    return tuple(tail), counts


def photonic_controlled_power(unitary: Unitary, k: int) -> Unitary:
    """Effective control+target operator of the post-selected pipeline.

    Reconstructs the induced map column by column from the first
    even-parity pattern (all upper ports) and asserts it matches the
    direct block matrix diag(I, U^(2^(k-1))) up to global phase.
    """
    n = int(np.log2(unitary.dim))
    assert 1 << n == unitary.dim, f"unitary dim {unitary.dim} is not a power of two"
    dim = unitary.dim
    first_case = ParityBranch("P", (0,) * n)
    scale = np.sqrt(float(1 << (n + 1)))
    columns = []
    for j in range(dim):
        ports = beamsplitter_mix(
            apply_blue_unitary(prepare_entangled_input(qmath.basis_state(n, j)), unitary, k)
        )
        state, prob = postselect(ports, first_case)
        columns.append(state.amplitudes * np.sqrt(prob) * scale)
    induced = np.stack(columns, axis=1)  # maps psi -> |0>psi + |1>W psi
    top, bottom = induced[:dim], induced[dim:]
    assert np.max(np.abs(top - np.eye(dim))) <= qmath.CONSTRUCTION_TOL, (
        "post-selected pipeline does not act as identity on |H>"
    )
    effective = np.zeros((2 * dim, 2 * dim), dtype=complex)
    effective[:dim, :dim] = np.eye(dim)
    effective[dim:, dim:] = bottom
    direct = np.linalg.matrix_power(unitary.matrix, 1 << (k - 1))
    rng = qmath.derive_rng(0x1DEA, k, dim)
    for _ in range(4):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = raw / np.linalg.norm(raw)
        via_pipeline = np.concatenate([psi, bottom @ psi]) / np.sqrt(2.0)
        via_direct = np.concatenate([psi, direct @ psi]) / np.sqrt(2.0)
        assert abs(np.vdot(via_direct, via_pipeline)) >= 1.0 - 1e-10, (
            "post-selected pipeline deviates from the direct controlled power"
        )
    return Unitary(effective)


def inverse_qft(m: int) -> np.ndarray:
    """Dense inverse Fourier matrix, entries 2^(-m/2) e^{-2i pi jk / 2^m}."""
    dim = 1 << m
    j = np.arange(dim)
    return np.exp(-2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def reference_register(unitary: Unitary, target: StateVector, m: int) -> tuple:
    """Stage and dense-matrix readout of the full-register circuit.

    Stage row x is 2^(-m/2) U^x |target>: the Hadamard wall followed by
    the controlled powers, register qubit 0 most significant.  The
    readout applies the dense inverse Fourier matrix to it.
    """
    dim = 1 << m
    rows = [target.amplitudes / np.sqrt(dim)]
    for _ in range(dim - 1):
        rows.append(unitary.matrix @ rows[-1])
    stage = np.array(rows)
    return stage, inverse_qft(m) @ stage


def reference_collapse_blocks(unitary: Unitary, target: StateVector, m: int, coherence):
    """Unnormalized conditional target of every outcome, dense-matrix path.

    Pure amplitude rows for ``coherence`` None.  Otherwise each outcome
    keeps the ``coherence`` fraction of its projector and takes the rest
    from the register-dephased mixture, every stage row weighted by the
    squared modulus of its Fourier entry.
    """
    stage, rotated = reference_register(unitary, target, m)
    if coherence is None:
        return rotated
    q = inverse_qft(m)
    blocks = []
    for x, amp in enumerate(rotated):
        dephased = np.einsum("y,yj,yl->jl", np.abs(q[x]) ** 2, stage, stage.conj())
        blocks.append(coherence * np.outer(amp, amp.conj()) + (1.0 - coherence) * dephased)
    return np.array(blocks)
