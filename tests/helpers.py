"""Shared sampling utilities and reference implementations for the test suite."""

import argparse
import json
from dataclasses import is_dataclass

import numpy as np

from ipea_sim import cli, qmath
from ipea_sim.photonics import (
    ParityBranch,
    apply_blue_unitary,
    beamsplitter_mix,
    parity_cases,
    postselect,
    prepare_entangled_input,
)
from ipea_sim.qmath import ContractError, DensityMatrix, StateVector, Unitary
from ipea_sim.qpe import _squaring_ladder
from ipea_sim.tomography import BASES, PauliCounts


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


def reference_feedback_angle(numerator: int, width: int) -> float:
    """-2 pi times the binary fraction 0.0 b_{k+1} ... b_m, whose ``width``
    measured bits make the integer ``numerator`` (b_{k+1} most significant)."""
    return -2.0 * np.pi * (numerator / (1 << (width + 1)))


_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def control_pairs(amplitudes: np.ndarray, omegas) -> tuple[np.ndarray, np.ndarray]:
    """(P(+), P(-)) on the control qubit after each feedback rotation.

    The per-round reference for ``qpe._round_pairs``: ``amplitudes``
    holds control+target states along its last axis (control first, so
    the second half carries |1>), ``omegas`` one angle per state (the
    leading shape of ``amplitudes``, or one that broadcasts to it).  The
    rotation diag(1, e^{i omega}) is applied to a copy, then <+| and <-|
    each take one product.
    """
    half = amplitudes.shape[-1] // 2
    rotated = np.array(amplitudes, dtype=complex)
    rotated[..., half:] *= np.exp(1j * np.asarray(omegas))[..., None]
    pairs = rotated.reshape(rotated.shape[:-1] + (2, half))
    plus = (np.abs(_PLUS @ pairs) ** 2).sum(axis=-1)
    minus = (np.abs(_MINUS @ pairs) ** 2).sum(axis=-1)
    return plus, minus


def reference_ipea_run(spec, m: int, reps: int, provider: str, rng: np.random.Generator):
    """Per-repetition IPEA loop built from public pieces only.

    Every repetition rebuilds the controlled state from scratch: the
    photonic pipeline with one ``rng.choice`` over its post-selected port
    patterns, or the matrix provider's block state, then the feedback
    rotation and one Born-rule draw of the control in the +/- basis,
    flipped on an odd-parity branch.  Returns the estimate's bits
    (b1..bm) and the tally of drawn photonic branches; ``ipea_run`` must
    reproduce both for the same generator.
    """
    counts = {"P": 0, "Q": 0}
    target = spec.input_state
    tail: list[int] = []
    for k in range(m, 0, -1):
        omega = reference_feedback_angle(int("".join(map(str, tail)) or "0", 2), len(tail))
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
            top, bottom = np.split(StateVector(state.num_qubits, amps).amplitudes, 2)
            # P(+) = |<+|_control psi|^2 = 1/2 sum |a_top + a_bottom|^2
            p_plus = 0.5 * float(np.sum(np.abs(top + bottom) ** 2))
            bit = 0 if rng.random() < p_plus else 1
            if label == "Q":
                bit = 1 - bit
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


def reference_controlled_stage(unitary: Unitary, input_state: StateVector, m: int) -> np.ndarray:
    """``qpe._controlled_stage`` with each register qubit's rows picked by a mask.

    Row x starts as 2^(-m/2) |target>; register qubit j (0 most
    significant) multiplies the rows whose bit m-1-j is set by
    U^(2^(m-1-j)), through a boolean mask, one 2-D product per qubit.
    """
    dim = 1 << m
    stage = np.outer(np.full(dim, 1.0 / np.sqrt(dim)), input_state.amplitudes)
    squares = _squaring_ladder(unitary.matrix, m)
    x = np.arange(dim)
    for j in range(m):
        w = squares[m - 1 - j]
        rows = (x >> (m - 1 - j)) & 1 == 1
        stage[rows] = stage[rows] @ w.T
    return stage


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


def reference_bootstrap(counts: PauliCounts, ideal: StateVector, resamples: int, rng):
    """Per-resample parametric bootstrap with a literal reconstruction.

    Each resample draws its X, Y and Z counts one call at a time, builds
    a PauliCounts, rescales a Bloch vector outside the ball by
    ``np.linalg.norm``, forms (I + r·σ)/2 as a DensityMatrix and scores
    it with ``qmath.fidelity``.  A row of ``tomography._bootstrap`` must
    give the same (mean, std) bit for bit for the same generator.
    """
    sigma = (
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    )
    shots = counts.shots_per_basis
    p_hat = {basis: plus / shots for basis, (plus, _) in counts.counts.items()}
    fids = np.empty(resamples, dtype=float)
    for i in range(resamples):
        redrawn = {}
        for basis in BASES:
            plus = int(rng.binomial(shots, p_hat[basis]))
            redrawn[basis] = (plus, shots - plus)
        emp = PauliCounts(shots, redrawn).empirical_expectations()
        r = np.array([emp[basis] for basis in BASES], dtype=float)
        norm = float(np.linalg.norm(r))
        if norm > 1.0:
            r = r / norm
        m = (np.eye(2, dtype=complex) + r[0] * sigma[0] + r[1] * sigma[1] + r[2] * sigma[2]) / 2.0
        fids[i] = qmath.fidelity(DensityMatrix(2, m), ideal)
    return float(np.mean(fids)), float(np.std(fids))


def _record_dict(record, fields) -> dict:
    if isinstance(record, dict):
        return dict(record)
    if is_dataclass(record) and not isinstance(record, type):
        return {name: getattr(record, name) for name in fields if hasattr(record, name)}
    raise ContractError(f"cannot tabulate {type(record).__name__}")


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _json_value(value):
    if isinstance(value, (float, np.floating)):
        return float(format(float(value), ".12g"))
    if isinstance(value, np.integer):
        return int(value)
    return value


def reference_emit(records, fmt: str = "csv", path=None, fields=None) -> str:
    """Render records as CSV or JSON; optionally write them to a file.

    The row-at-a-time ``emit`` (a dict copy per record, a type ladder per
    cell); ``experiments.emit`` must return the same text.

    ``fields`` is required.  CSV uses LF newlines and prints floats with
    12 significant digits; booleans become 1/0 and missing values empty
    cells.  JSON mirrors the same fields with native types.  An empty
    record list still yields the header.
    """
    if fmt not in ("csv", "json"):
        raise ContractError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not fields:
        raise ContractError(f"a table needs its fields named, got {fields!r}")
    fields = tuple(fields)
    dicts = [_record_dict(r, fields) for r in records]
    for i, d in enumerate(dicts):
        missing = [f for f in fields if f not in d]
        if missing:
            raise ContractError(f"record {i} is missing fields {missing}")
    if fmt == "csv":
        lines = [",".join(fields)]
        for d in dicts:
            lines.append(",".join(_format_value(d[f]) for f in fields))
        text = "\n".join(lines) + "\n"
    else:
        payload = [{f: _json_value(d[f]) for f in fields} for d in dicts]
        text = json.dumps(payload, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def table_rows(table, fields) -> list[dict]:
    """A ``Columns`` table's rows, each a dict of ``fields`` in order."""
    return [dict(zip(fields, row)) for row in zip(*table.lists)]


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    """``cli.build_parser()``'s subcommand parsers, by name."""
    return next(
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
