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

A table reaches ``emit`` as ``Columns``, one list per field built from
the arrays a config study computes (``ipea``, ``qpe_full``, ``collapse``),
or as records whose rows are read elsewhere (fig4's ``RunRecord``, fig5's
``PanelResult``, the Monte Carlo dicts); ``emit``'s docstring states how
either prints.
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import cache, partial
from itertools import chain, product

import numpy as np

from . import qmath, qpe, tomography
from .config import DIRECTIVES, MONTECARLO_TRIALS, ExperimentConfig
from .photonics import (
    DegeneracyError,
    NoiseSpec,
    WaveplateSpec,
    _train_matrix,
    compose_waveplates,
    jitter_waveplates,
    oracle_eigenphase,
    polarization_state,
)
from .qmath import (
    ContractError,
    DensityMatrix,
    StateVector,
    TrialStreams,
    Unitary,
    basis_state,
    derive_rng,
)
from .qpe import EigenproblemSpec, circular_distance

__all__ = [
    "DEFAULT_SEED",
    "FIG4_THETAS",
    "FIG4_FIELDS",
    "RunRecord",
    "PanelResult",
    "Columns",
    "run_fig4",
    "run_fig5",
    "run_montecarlo",
    "run_config",
    "emit",
    "wilson_interval",
]

DEFAULT_SEED = 7
# The standard normal quantile of a two-sided 95% interval.
_WILSON_Z = 1.959963984540054
FIG4_THETAS = tuple(float(t) for t in range(0, 180, 15))
FIG4_BITS = 3
FIG4_SUCCESS_THRESHOLD = 2.0 ** -(FIG4_BITS + 1)

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


@dataclasses.dataclass(frozen=True)
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


FIG4_FIELDS = tuple(field.name for field in dataclasses.fields(RunRecord))


@dataclasses.dataclass(frozen=True, eq=False)
class PanelResult:
    """One eigenstate-generation panel plus its tomography report."""

    panel: str
    hwp_deg: float
    input_state: str
    outcome: int
    outcome_prob: float
    report: tomography.ReconstructionReport

    # the report's three cells of a FIG5_FIELDS row
    @property
    def fidelity(self) -> float:
        return self.report.fidelity_vs_ideal

    @property
    def fidelity_std(self) -> float:
        return self.report.fidelity_std

    @property
    def shots_per_basis(self) -> int:
        return self.report.shots_per_basis


@dataclasses.dataclass(frozen=True)
class Columns:
    """A table held as one list of cells per field, in the order of the
    fields it is emitted with; every list has one cell per row."""

    lists: list[list]


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ContractError(f"successes {successes} out of range for {trials} trials")
    p, z = successes / trials, _WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * np.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


def run_fig4(
    seed: int = DEFAULT_SEED,
    reps: int = DIRECTIVES["reps"].default,
    provider: str = DIRECTIVES["provider"].default,
    exact: bool = False,
) -> list[RunRecord]:
    """Twelve-angle sweep: first plate fixed at 0, second at 0..165 deg.

    The input eigenstate is right-circular polarization, which every
    two-plate composite shares.  Each row reports the estimate, the
    diagonalization oracle's phase, the circular error, and (for the
    photonic provider in sampled mode) the even-parity branch fraction.
    Success means the error stays below 2^-4.
    """
    first = WaveplateSpec("HWP", 0.0)
    unitaries = [compose_waveplates([first, WaveplateSpec("HWP", t)]) for t in FIG4_THETAS]
    target = polarization_state("R")
    stack = np.stack([u.matrix for u in unitaries])
    bit_strings, phis, branch_fracs = _estimates(
        stack, target, FIG4_BITS, reps, provider, seed, 0 if exact else len(stack)
    )
    oracles = [oracle_eigenphase(unitary, "R") for unitary in unitaries]
    errors = circular_distance(phis, oracles)
    return [
        RunRecord(
            theta1_deg=0.0,
            theta2_deg=theta,
            phi_oracle=phi_oracle,
            bits=bits,
            phi_est=phi_est,
            circ_error=error,
            p_branch_frac=branch_frac,
            success=error < FIG4_SUCCESS_THRESHOLD,
        )
        for theta, phi_oracle, bits, phi_est, error, branch_frac in zip(
            FIG4_THETAS, oracles, bit_strings, phis, errors, branch_fracs
        )
    ]


def _estimates(unitaries, target, m, reps, provider, seed, trials):
    """Each trial's bit string, value and share of even-parity (P) branches:
    three columns, from one batch over ``unitaries`` (a stack, or one
    shared ``Unitary``).

    ``trials`` 0 runs exact mode, one trial per matrix, with no branch
    share; otherwise trial t draws from the stream (seed, t) at ``reps``
    votes per bit, and its share is the P picks over the m × reps branches
    it picks, None for an unbranched provider.
    """
    shares = None
    if trials == 0:
        numerators = qpe._exact_batch(unitaries, target, m, provider)[0]
    else:
        draws = TrialStreams(seed, (), range(trials))
        numerators, tally = qpe.ipea_batch(unitaries, target, m, reps, provider, draws)
        if tally:
            shares = (tally.get("P", np.zeros_like(numerators)) / (m * reps)).tolist()
    return (*_bit_cells(numerators, m), shares or [None] * len(numerators))


def _bit_cells(numerators: np.ndarray, m: int) -> tuple[list[str], list[float]]:
    """Each numerator n's two cells: its bit string ``f"{n:0{m}b}"`` and n / 2^m."""
    scale, numerators = 1 << m, numerators.tolist()
    return [f"{n:0{m}b}" for n in numerators], [n / scale for n in numerators]


_FIG5_ANGLES = (30.0, 45.0, 67.5)
_FIG5_CASES = (("H", 0), ("H", 1), ("V", 0))


def _hwp_eigenvector(theta_deg: float, outcome: int) -> np.ndarray:
    # Eigenvalue +1 sits on linear polarization along the fast axis,
    # eigenvalue -1 (phase one half) perpendicular to it: unit vectors by
    # construction, so their amplitudes need no check.
    t = np.deg2rad(theta_deg)
    if outcome == 0:
        return np.array([np.cos(t), np.sin(t)], dtype=complex)
    return np.array([-np.sin(t), np.cos(t)], dtype=complex)


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

    The nine panels run as one stack: one register readout of the nine
    plates, each on its panel's input row, then stacked tomography.  Only
    the draws are per panel: panel i's jitter, counts and bootstrap come
    from the streams ``derive_rng(seed, i, 0)``, ``(seed, i, 1)`` and
    ``(seed, i, 2)``.
    """
    if shots < 0:
        raise ContractError(f"shots must be >= 0, got {shots}")
    coherence = 1.0 if noise is None else noise.distinguishability
    panels = [(case, theta) for case in _FIG5_CASES for theta in _FIG5_ANGLES]
    trains = [(WaveplateSpec("HWP", theta),) for _, theta in panels]
    if noise is not None and noise.angle_jitter_sigma_deg > 0.0:
        trains = [jitter_waveplates(train, noise, derive_rng(seed, i, 0))
                  for i, train in enumerate(trains)]
    stack = np.stack([_train_matrix(train) for train in trains])
    inputs = np.stack([polarization_state(label).amplitudes for (label, _), _ in panels])
    xs = np.array([outcome for (_, outcome), _ in panels])
    weights, targets = qpe._register_readout(stack, inputs, 1, coherence)
    probs = weights[np.arange(len(panels)), xs]
    never = np.flatnonzero(probs <= qmath.NEVER_OCCURS)
    if never.size:
        (label, outcome), _ = panels[never[0]]
        raise ContractError(f"panel input {label!r} never yields outcome {outcome}")
    rhos = targets(xs)
    ideals = np.stack([_hwp_eigenvector(theta, outcome) for (_, outcome), theta in panels])
    if shots == 0:
        estimates = tomography._bloch_matrices(tomography._expectations(rhos))
        stds = np.zeros(len(panels))
    else:
        streams = range(len(panels))
        plus = tomography._draw_plus(rhos, shots, [derive_rng(seed, i, 1) for i in streams])
        estimates = tomography._reconstruct_plus(plus, shots)
        _, stds = tomography._bootstrap(
            plus, shots, ideals, resamples, [derive_rng(seed, i, 2) for i in streams]
        )
    fids = qmath.fidelities(estimates, ideals)
    return [
        PanelResult(
            panel=label,
            hwp_deg=theta,
            input_state=input_label,
            outcome=outcome,
            outcome_prob=prob,
            report=tomography.ReconstructionReport(
                rho=DensityMatrix(2, estimate),
                fidelity_vs_ideal=fid,
                fidelity_std=std,
                shots_per_basis=shots,
            ),
        )
        for label, ((input_label, outcome), theta), prob, estimate, fid, std in zip(
            "abcdefghi", panels, probs.tolist(), estimates, fids.tolist(), stds.tolist()
        )
    ]


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
    # stream; the trials run as batches of diag(1, e^{2 pi i phi}), each
    # batch keyed in one pass.  The batches are ipea_batch's chunks of T
    # trials, and one window of min(128, 2^18 // T) words a trial (88 at
    # reps 11) holds a chunk's phase word and its rounds only while the
    # 1 + m * reps * (2 photonic, 1 matrix) words fit: at reps 11, photonic
    # m <= 3 and matrix m <= 7; past that each chunk refills twice.  One
    # stream over every trial would buffer fewer words a trial, and refill more.
    prov = qpe.resolve_provider(provider)
    target = basis_state(1, 1)
    successes = 0
    bound = 2.0**-m
    step = qpe.batch_trials(reps_per_bit)
    for start in range(0, trials, step):
        draws = TrialStreams(seed, (stream,), range(start, min(trials, start + step)))
        if dyadic:
            phis = draws.integers(m) / (1 << m)
        else:
            phis = draws.uniforms(1)[:, 0]
        stack = np.zeros((len(phis), 2, 2), dtype=complex)
        stack[:, 0, 0] = 1.0
        stack[:, 1, 1] = np.exp(2j * np.pi * phis)
        batch = qpe.ipea_batch(stack, target, m, reps_per_bit, prov, draws)
        errors = circular_distance(batch.numerators / (1 << m), phis)
        successes += sum(error <= bound for error in errors)
    return successes


def run_montecarlo(
    m: int = DIRECTIVES["bits"].default,
    trials: int = MONTECARLO_TRIALS,
    seed: int = DEFAULT_SEED,
    provider: str = DIRECTIVES["provider"].default,
    reps: int = DIRECTIVES["reps"].default,
    dyadic: bool = False,
) -> list[dict]:
    """Precision-bound study over random phases.

    Each trial draws a phase (uniform, or uniform over the m-bit grid
    when ``dyadic``), realizes it as diag(1, e^{2 pi i phi}) with the
    excited basis state as eigenstate, and scores the estimate as a
    success when its circular error is at most 2^-m.  Two summary rows
    come back: single shot per bit, then majority voting at ``reps``.
    ``m``, ``trials`` and ``reps`` are taken as Python ints, which the
    rows echo; any integer type passes, a non-integer is refused, and so
    are an ``m`` or ``reps`` the engine refuses, before any draw.
    """
    m, trials, reps = (qmath._integer(name, value)
                       for name, value in (("m", m), ("trials", trials), ("reps", reps)))
    qmath._check_bits(m)
    qpe._check_reps(reps)
    rows = []
    passes = (1,) if reps == 1 else (1, reps)
    for stream, reps_per_bit in enumerate(passes):
        successes = _montecarlo_pass(
            m, trials, seed, provider, reps_per_bit, stream, dyadic
        )
        low, high = wilson_interval(successes, trials)  # refuses trials 0 before the rate
        cells = (m, trials, reps_per_bit, successes, successes / trials, low, high)
        rows.append(dict(zip(MONTECARLO_FIELDS, cells)))
    return rows


def _ipea_rows(config: ExperimentConfig, seed: int) -> Columns:
    unitary = config.unitary()
    try:
        phi_oracle = oracle_eigenphase(unitary, config.eigenstate)
    except DegeneracyError:
        phi_oracle = None
    bits, phis, branch_fracs = _estimates(unitary, config.input_state(), config.bits,
                                          config.reps_per_bit, config.provider, seed,
                                          config.resolved_trials())
    count = len(bits)
    if phi_oracle is None:
        errors, successes = [None] * count, [None] * count
    else:
        errors = circular_distance(phis, phi_oracle)
        bound = 2.0**-config.bits
        successes = [error <= bound for error in errors]
    return Columns(
        [list(range(count)), bits, phis, [phi_oracle] * count, errors, branch_fracs, successes]
    )


def _qpe_full_rows(config: ExperimentConfig) -> Columns:
    spec = EigenproblemSpec(config.unitary(), config.input_state())
    m = config.bits
    probs = qpe.qpe_full_distribution(spec, m)
    return Columns([list(_bit_strings(m)), probs.tolist()])


@cache
def _bit_strings(m: int) -> tuple[str, ...]:
    """Every m-bit string in order of its value x, each f"{x:0{m}b}": built
    once per register size (m ≤ 16) and copied into each table's list."""
    return tuple(map("".join, product("01", repeat=m)))


def _collapse_rows(
    unitary: Unitary, input_state: StateVector, m: int, trials: int, seed: int, coherence
) -> Columns:
    # One readout; trial t's outcome is derive_rng(seed, t).choice(2^m, p=probs).
    xs, probs, _ = qpe._collapse_draws(
        unitary, input_state, m, TrialStreams(seed, (), range(trials)), coherence
    )
    return Columns([list(range(len(xs))), *_bit_cells(xs, m), probs[xs].tolist()])


def run_config(config: ExperimentConfig, seed: int | None = None):
    """Dispatch a parsed configuration; returns (table, field order).

    The table is ``Columns`` for ``ipea``, ``qpe_full`` and ``collapse``
    and a list of row dicts for ``montecarlo``, the one other valid mode.
    """
    effective_seed = config.seed if seed is None else seed
    if config.mode == "ipea":
        return _ipea_rows(config, effective_seed), IPEA_FIELDS
    if config.mode == "qpe_full":
        return _qpe_full_rows(config), QPE_FULL_FIELDS
    if config.mode == "collapse":
        coherence = None if config.noise is None else config.noise.distinguishability
        table = _collapse_rows(config.unitary(), config.input_state(), config.bits,
                               config.resolved_trials(), effective_seed, coherence)
        return table, COLLAPSE_FIELDS
    rows = run_montecarlo(
        m=config.bits,
        trials=config.resolved_trials(),
        seed=effective_seed,
        provider=config.provider,
        reps=config.reps_per_bit,
    )
    return rows, MONTECARLO_FIELDS


def _columns(records: list, fields: tuple) -> list[list]:
    """One column per field, each cell read once: ``record[f]`` of a dict,
    ``getattr(record, f)`` of a dataclass."""
    for record in records:
        instance = dataclasses.is_dataclass(record) and not isinstance(record, type)
        if not (isinstance(record, dict) or instance):
            raise ContractError(f"cannot tabulate {type(record).__name__}")
    readers = [r.__getitem__ if isinstance(r, dict) else partial(getattr, r) for r in records]
    try:
        return [[read(f) for read in readers] for f in fields]
    except (KeyError, AttributeError):
        for i, r in enumerate(records):
            missing = [f for f in fields if not (f in r if isinstance(r, dict) else hasattr(r, f))]
            if missing:
                raise ContractError(f"record {i} is missing fields {missing}") from None
        raise


def _given_columns(table: Columns, fields: tuple) -> list[list]:
    """A ``Columns`` table's lists, refused unless there is one per field
    and all have one length."""
    if len(fields) != len(table.lists):
        raise ContractError(f"a table of {len(table.lists)} columns needs as many fields, "
                            f"got {fields!r}")
    if len(set(map(len, table.lists))) > 1:
        raise ContractError(f"columns of unequal lengths {[len(c) for c in table.lists]}")
    return table.lists


# The printf conversion of a CSV column by the one type its cells share:
# "%.12g" is format(x, ".12g"), "%d" prints a bool as 1 or 0 and "%.0s"
# None as an empty cell.
_CSV_CONVERSIONS = {float: "%.12g", str: "%s", int: "%d", bool: "%d", type(None): "%.0s"}


def _column_kinds(columns: list[list], fields: tuple) -> list[type]:
    """Each column's one cell type, a key of ``_CSV_CONVERSIONS`` (None's
    type for a table of no rows), or a ContractError naming the field."""
    kinds = [set(map(type, values)) or {type(None)} for values in columns]
    kinds = [k.pop() if len(k) == 1 else None for k in kinds]
    for field, kind, values in zip(fields, kinds, columns):
        if kind not in _CSV_CONVERSIONS:
            found = sorted({f"{type(v).__module__}.{type(v).__qualname__}" for v in values})
            raise ContractError(f"column {field!r} holds cells of types {found}, not of one "
                                "type of float, int, bool, str or None")
    return kinds


def _json_column(values: list, kind: type) -> tuple[str, list]:
    """A JSON column's printf conversion and the cells it converts.

    A str column whose text is all printable ASCII without '"' or '\\'
    (characters ``json.dumps`` never escapes) prints in quotes, and a
    float column of finite values by the repr of each rounded value; any
    other str or float column takes ``json.dumps`` of each cell.
    """
    if kind is float:
        values = [float(f"{v:.12g}") for v in values]
        if all(map(math.isfinite, values)):
            return "%r", values
    elif kind is str:
        text = "".join(values)
        if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
            return '"%s"', values
    elif kind is bool:
        return "%s", list(map(("false", "true").__getitem__, values))
    else:
        return ("%d" if kind is int else "null%.0s"), values
    return "%s", list(map(json.dumps, values))


def emit(records, fmt: str = "csv", path=None, fields=None) -> str:
    """Render a table as CSV or JSON; optionally write it to a file.

    ``fields`` names the table's columns, in order, and is required.  The
    table is records or ``Columns``.  Records are dicts or dataclasses,
    and each of their fields is read into a column once; an empty record
    list still yields the header, and a record without one of the fields
    is refused, naming both.  ``Columns`` are used as they are, one list
    per field.  A column's cells share one type, float, int, bool, str or
    None, which picks the column's rule once; any other column (numpy
    scalars, two types) is refused, naming its field.

    CSV uses LF newlines and prints floats with 12 significant digits,
    booleans as 1/0 and None as empty cells.  JSON prints what
    ``json.dumps(rows, indent=2)`` prints for one dict per row (so a
    repeated field keeps its first place and its last column): floats
    rounded to 12 significant digits (NaN and ±Infinity as it spells
    them), ints, true/false, null and strings escaped as it escapes them.
    Either way the whole table is one printf over a template of one row's
    conversions per row.
    """
    if fmt not in ("csv", "json"):
        raise ContractError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not fields:
        raise ContractError(f"a table needs its fields named, got {fields!r}")
    fields = tuple(fields)
    if isinstance(records, Columns):
        columns = _given_columns(records, fields)
    else:
        columns = _columns(list(records), fields)
    kinds = _column_kinds(columns, fields)
    count = len(columns[0])
    if fmt == "csv":
        row = ",".join(map(_CSV_CONVERSIONS.__getitem__, kinds))
        template = "\n".join([",".join(fields).replace("%", "%%"), *[row] * count]) + "\n"
    else:
        # A JSON row is a dict: a repeated field keeps its first place and its last column.
        last = {field: i for i, field in enumerate(fields)}
        conversions, columns = zip(*(_json_column(columns[i], kinds[i]) for i in last.values()))
        row = ",\n".join(f'    {json.dumps(field).replace("%", "%%")}: {conversion}'
                         for field, conversion in zip(last, conversions))
        rows = ["  {\n" + row + "\n  }"] * count
        template = "[\n" + ",\n".join(rows) + "\n]\n" if count else "[]\n"
    text = template % tuple(chain.from_iterable(zip(*columns)))
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
