"""Runnable canned studies and tabular output.

Three canned studies cover the simulator end to end:

* ``run_fig4``: a twelve-setting sweep of the second waveplate in a
  two-plate train, estimating each composite's eigenphase to three bits
  with the photonic provider and comparing against the diagonalization
  oracle;
* ``run_fig5``: nine eigenstate-generation panels (three single-plate
  unitaries crossed with three input/outcome cases), each collapsed
  state tomographed and scored against the ideal eigenstate;
* ``run_montecarlo``: the precision bound, single shot versus majority
  voting, over uniformly random phases realized as diagonal unitaries.

``emit`` renders any record table as CSV (LF newlines, floats at 12
significant digits) or JSON with mirrored fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

from . import qpe, tomography
from .config import ExperimentConfig
from .photonics import (
    DegeneracyError,
    NoiseSpec,
    WaveplateSpec,
    compose_waveplates,
    hwp,
    jitter_waveplates,
    oracle_eigenphase,
    polarization_state,
)
from .qmath import (
    ContractError,
    StateVector,
    Unitary,
    basis_state,
    derive_rng,
    fidelity,
)
from .qpe import EigenproblemSpec, circular_distance

__all__ = [
    "DEFAULT_SEED",
    "FIG4_THETAS",
    "FIG4_FIELDS",
    "RunRecord",
    "PanelResult",
    "run_fig4",
    "run_fig5",
    "run_montecarlo",
    "run_config",
    "emit",
    "wilson_interval",
]

DEFAULT_SEED = 7
FIG4_THETAS = tuple(float(t) for t in range(0, 180, 15))
FIG4_BITS = 3
FIG4_SUCCESS_THRESHOLD = 2.0 ** -(FIG4_BITS + 1)

FIG4_FIELDS = (
    "theta1_deg",
    "theta2_deg",
    "phi_oracle",
    "bits",
    "phi_est",
    "circ_error",
    "p_branch_frac",
    "success",
)

FIG5_FIELDS = (
    "panel",
    "hwp_deg",
    "input_state",
    "outcome",
    "outcome_prob",
    "fidelity",
    "fidelity_std",
    "shots_per_basis",
)

MONTECARLO_FIELDS = (
    "m",
    "trials",
    "reps_per_bit",
    "successes",
    "success_rate",
    "wilson_low",
    "wilson_high",
)

IPEA_FIELDS = (
    "trial",
    "bits",
    "phi_est",
    "phi_oracle",
    "circ_error",
    "p_branch_frac",
    "success",
)

QPE_FULL_FIELDS = ("bits", "probability")
COLLAPSE_FIELDS = ("trial", "bits", "phi_est", "outcome_probability")


@dataclass(frozen=True)
class RunRecord:
    """One estimation run in the waveplate-sweep table."""

    theta1_deg: float | None
    theta2_deg: float | None
    phi_oracle: float | None
    bits: str
    phi_est: float
    circ_error: float | None
    p_branch_frac: float | None
    success: bool | None


@dataclass(frozen=True, eq=False)
class PanelResult:
    """One eigenstate-generation panel plus its tomography report."""

    panel: str
    hwp_deg: float
    input_state: str
    outcome: int
    outcome_prob: float
    report: tomography.ReconstructionReport

    def row(self) -> dict:
        return {
            "panel": self.panel,
            "hwp_deg": self.hwp_deg,
            "input_state": self.input_state,
            "outcome": self.outcome,
            "outcome_prob": self.outcome_prob,
            "fidelity": self.report.fidelity_vs_ideal,
            "fidelity_std": self.report.fidelity_std,
            "shots_per_basis": self.report.shots_per_basis,
        }


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ContractError(f"successes {successes} out of range for {trials} trials")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def run_fig4(
    seed: int = DEFAULT_SEED,
    reps: int = 11,
    provider: str = "photonic",
    exact: bool = False,
) -> list[RunRecord]:
    """Twelve-angle sweep: first plate fixed at 0, second at 0..165 deg.

    The input eigenstate is right-circular polarization, which every
    two-plate composite shares.  Each row reports the estimate, the
    diagonalization oracle's phase, the circular error, and (for the
    photonic provider in sampled mode) the even-parity branch fraction.
    Success means the error stays below 2^-4.
    """
    unitaries = [compose_waveplates([hwp(0.0), hwp(theta)]) for theta in FIG4_THETAS]
    target = polarization_state("R")
    if exact:
        estimates = [
            qpe.ipea_run_exact(EigenproblemSpec(u, target), FIG4_BITS, provider).estimate
            for u in unitaries
        ]
        branch_fracs = [None] * len(unitaries)
    else:
        estimates, branch_fracs = _sampled_estimates(
            np.stack([u.matrix for u in unitaries]),
            target,
            FIG4_BITS,
            reps,
            provider,
            [derive_rng(seed, index) for index in range(len(unitaries))],
        )
    records = []
    for theta, unitary, estimate, branch_frac in zip(
        FIG4_THETAS, unitaries, estimates, branch_fracs
    ):
        phi_oracle = oracle_eigenphase(unitary, "R")
        error = circular_distance(estimate.value, phi_oracle)
        records.append(
            RunRecord(
                theta1_deg=0.0,
                theta2_deg=theta,
                phi_oracle=phi_oracle,
                bits=estimate.as_string(),
                phi_est=estimate.value,
                circ_error=error,
                p_branch_frac=branch_frac,
                success=error < FIG4_SUCCESS_THRESHOLD,
            )
        )
    return records


def _sampled_estimates(unitaries, target, m, reps, provider, rngs):
    """Each trial's estimate and its share of even-parity (P) branches.

    The trials run as one batch; the share is None for every trial of an
    unbranched provider.
    """
    batch = qpe.ipea_batch(unitaries, target, m, reps, provider, rngs)
    estimates = [qpe.PhaseEstimate.from_numerator(n, m) for n in batch.numerators]
    if not batch.branch_tally:
        return estimates, [None] * len(estimates)
    none = np.zeros(len(estimates), dtype=np.int64)
    p = batch.branch_tally.get("P", none).tolist()
    q = batch.branch_tally.get("Q", none).tolist()
    return estimates, [a / (a + b) if a + b else None for a, b in zip(p, q)]


_FIG5_ANGLES = (30.0, 45.0, 67.5)
_FIG5_CASES = (("H", 0), ("H", 1), ("V", 0))


def _hwp_eigenvector(theta_deg: float, outcome: int) -> StateVector:
    # Eigenvalue +1 sits on linear polarization along the fast axis,
    # eigenvalue -1 (phase one half) perpendicular to it.
    t = np.deg2rad(theta_deg)
    if outcome == 0:
        return StateVector(1, np.array([np.cos(t), np.sin(t)], dtype=complex))
    return StateVector(1, np.array([-np.sin(t), np.cos(t)], dtype=complex))


def run_fig5(
    seed: int = DEFAULT_SEED,
    shots: int = 100000,
    noise: NoiseSpec | None = NoiseSpec(),
    resamples: int = 100,
) -> list[PanelResult]:
    """Nine eigenstate-generation panels with tomography.

    A single half waveplate squares to the identity, so only the first
    controlled power is nontrivial and one register bit suffices: the
    coherent circuit is run at m = 1 and conditioned on the panel's
    register outcome.  ``shots = 0`` reconstructs from exact
    expectations (noise-model checks without sampling error);
    otherwise counts are binomially sampled and a parametric bootstrap
    supplies the fidelity spread.  Panels are scored against the
    eigenstate of the nominal, unjittered plate.
    """
    if shots < 0:
        raise ContractError(f"shots must be >= 0, got {shots}")
    coherence = 1.0 if noise is None else float(noise.distinguishability)
    results = []
    labels = iter("abcdefghi")
    for case_index, (input_label, outcome) in enumerate(_FIG5_CASES):
        for angle_index, theta in enumerate(_FIG5_ANGLES):
            panel_index = case_index * len(_FIG5_ANGLES) + angle_index
            plates = (WaveplateSpec("HWP", theta),)
            if noise is not None and noise.angle_jitter_sigma_deg > 0.0:
                plates = jitter_waveplates(
                    plates, noise, derive_rng(seed, panel_index, 0)
                )
            unitary = compose_waveplates(plates)
            prob, rho = qpe.collapse_project(
                unitary, polarization_state(input_label), 1, outcome, coherence
            )
            if rho is None:
                raise ContractError(
                    f"panel input {input_label!r} never yields outcome {outcome}"
                )
            ideal = _hwp_eigenvector(theta, outcome)
            if shots == 0:
                exp = tomography.expectations(rho)
                rho_hat = tomography.reconstruct_from_expectations(
                    exp["X"], exp["Y"], exp["Z"]
                )
                std = 0.0
            else:
                counts = tomography.simulate_counts(
                    rho, shots, derive_rng(seed, panel_index, 1)
                )
                rho_hat = tomography.reconstruct(counts)
                _, std = tomography.bootstrap_fidelity(
                    counts, ideal, resamples, derive_rng(seed, panel_index, 2)
                )
            report = tomography.ReconstructionReport(
                rho=rho_hat,
                fidelity_vs_ideal=fidelity(rho_hat, ideal),
                fidelity_std=std,
                shots_per_basis=shots,
            )
            results.append(
                PanelResult(
                    panel=next(labels),
                    hwp_deg=theta,
                    input_state=input_label,
                    outcome=outcome,
                    outcome_prob=prob,
                    report=report,
                )
            )
    return results


def _montecarlo_pass(
    m: int,
    trials: int,
    seed: int,
    provider: str,
    reps_per_bit: int,
    stream: int,
    dyadic: bool,
) -> int:
    # Each trial draws its phase and then every repetition from its own
    # generator; the trials run as batches of diag(1, e^{2 pi i phi}).
    prov = qpe.resolve_provider(provider)
    target = basis_state(1, 1)
    successes = 0
    step = qpe.batch_trials(reps_per_bit)
    for start in range(0, trials, step):
        rngs = [derive_rng(seed, stream, t) for t in range(start, min(trials, start + step))]
        if dyadic:
            phis = [int(rng.integers(0, 1 << m)) / (1 << m) for rng in rngs]
        else:
            phis = [float(rng.random()) for rng in rngs]
        stack = np.zeros((len(phis), 2, 2), dtype=complex)
        stack[:, 0, 0] = 1.0
        stack[:, 1, 1] = np.exp(2j * np.pi * np.array(phis))
        batch = qpe.ipea_batch(stack, target, m, reps_per_bit, prov, rngs)
        for numerator, phi in zip(batch.numerators.tolist(), phis):
            if circular_distance(numerator / (1 << m), phi) <= 2.0**-m:
                successes += 1
    return successes


def run_montecarlo(
    m: int = 3,
    trials: int = 10000,
    seed: int = DEFAULT_SEED,
    provider: str = "photonic",
    reps: int = 11,
    dyadic: bool = False,
) -> list[dict]:
    """Precision-bound study over random phases.

    Each trial draws a phase (uniform, or uniform over the m-bit grid
    when ``dyadic``), realizes it as diag(1, e^{2 pi i phi}) with the
    excited basis state as eigenstate, and scores the estimate as a
    success when its circular error is at most 2^-m.  Two summary rows
    come back: single shot per bit, then majority voting at ``reps``.
    """
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    rows = []
    passes = (1,) if reps == 1 else (1, reps)
    for stream, reps_per_bit in enumerate(passes):
        successes = _montecarlo_pass(
            m, trials, seed, provider, reps_per_bit, stream, dyadic
        )
        low, high = wilson_interval(successes, trials)
        rows.append(
            {
                "m": m,
                "trials": trials,
                "reps_per_bit": reps_per_bit,
                "successes": successes,
                "success_rate": successes / trials,
                "wilson_low": low,
                "wilson_high": high,
            }
        )
    return rows


def _oracle_or_none(unitary: Unitary, eigenstate: str):
    try:
        return oracle_eigenphase(unitary, eigenstate)
    except DegeneracyError:
        return None


def _ipea_rows(config: ExperimentConfig, seed: int) -> list[dict]:
    unitary = config.unitary()
    spec = EigenproblemSpec(unitary, config.input_state())
    phi_oracle = _oracle_or_none(unitary, config.eigenstate)
    trials = config.resolved_trials()
    if trials == 0:
        estimates = [qpe.ipea_run_exact(spec, config.bits, config.provider).estimate]
        branch_fracs = [None]
    else:
        estimates, branch_fracs = _sampled_estimates(
            np.broadcast_to(unitary.matrix, (trials,) + unitary.matrix.shape),
            spec.input_state,
            config.bits,
            config.reps_per_bit,
            config.provider,
            [derive_rng(seed, trial) for trial in range(trials)],
        )
    rows = []
    for trial, (estimate, branch_frac) in enumerate(zip(estimates, branch_fracs)):
        if phi_oracle is None:
            error = None
            success = None
        else:
            error = circular_distance(estimate.value, phi_oracle)
            success = error <= 2.0**-config.bits
        rows.append(
            {
                "trial": trial,
                "bits": estimate.as_string(),
                "phi_est": estimate.value,
                "phi_oracle": phi_oracle,
                "circ_error": error,
                "p_branch_frac": branch_frac,
                "success": success,
            }
        )
    return rows


def _qpe_full_rows(config: ExperimentConfig) -> list[dict]:
    spec = EigenproblemSpec(config.unitary(), config.input_state())
    probs = qpe.qpe_full_distribution(spec, config.bits)
    return [
        {
            "bits": "".join(str(b) for b in qpe.bits_of(x, config.bits)),
            "probability": float(p),
        }
        for x, p in enumerate(probs)
    ]


def _collapse_rows(config: ExperimentConfig, seed: int) -> list[dict]:
    unitary = config.unitary()
    input_state = config.input_state()
    coherence = None if config.noise is None else config.noise.distinguishability
    rows = []
    for trial in range(config.resolved_trials()):
        result = qpe.collapse_run(
            unitary, input_state, config.bits, derive_rng(seed, trial), coherence
        )
        rows.append(
            {
                "trial": trial,
                "bits": result.estimate.as_string(),
                "phi_est": result.estimate.value,
                "outcome_probability": result.outcome_probability,
            }
        )
    return rows


def run_config(config: ExperimentConfig, seed: int | None = None):
    """Dispatch a parsed configuration; returns (rows, field order)."""
    effective_seed = config.seed if seed is None else seed
    if config.mode == "ipea":
        return _ipea_rows(config, effective_seed), IPEA_FIELDS
    if config.mode == "qpe_full":
        return _qpe_full_rows(config), QPE_FULL_FIELDS
    if config.mode == "collapse":
        return _collapse_rows(config, effective_seed), COLLAPSE_FIELDS
    if config.mode == "montecarlo":
        rows = run_montecarlo(
            m=config.bits,
            trials=config.resolved_trials(),
            seed=effective_seed,
            provider=config.provider,
            reps=config.reps_per_bit,
        )
        return rows, MONTECARLO_FIELDS
    raise ContractError(f"unknown mode {config.mode!r}")


def _record_dict(record) -> dict:
    if is_dataclass(record) and not isinstance(record, type):
        if isinstance(record, PanelResult):
            return record.row()
        return asdict(record)
    if isinstance(record, dict):
        return dict(record)
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


def emit(records, fmt: str = "csv", path=None, fields=None) -> str:
    """Render records as CSV or JSON; optionally write them to a file.

    CSV uses LF newlines and prints floats with 12 significant digits;
    booleans become 1/0 and missing values empty cells.  JSON mirrors
    the same fields with native types.  An empty record list still
    yields the header (the waveplate-sweep schema unless ``fields``
    says otherwise).
    """
    if fmt not in ("csv", "json"):
        raise ContractError(f"format must be 'csv' or 'json', got {fmt!r}")
    dicts = [_record_dict(r) for r in records]
    if fields is None:
        fields = tuple(dicts[0].keys()) if dicts else FIG4_FIELDS
    else:
        fields = tuple(fields)
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
