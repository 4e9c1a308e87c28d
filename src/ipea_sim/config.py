"""Line-oriented experiment configuration files.

One directive per line, ``#`` starts a comment, blank lines are skipped
and each directive may appear at most once.  ``DIRECTIVES`` is the
grammar, one row per directive: its arguments (kind, span and check), its
default and the columns (modes, with ``ipea`` at ``trials 0`` as
``exact``) that read it; README's "Config files" section prints it as a
table.  The parser, ``ExperimentConfig`` and the CLI flags check values
through these rows, and a line they refuse, or a directive its column
never reads, is a ParseError naming its line.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .photonics import NoiseSpec, WaveplateSpec, compose_waveplates, polarization_state
from .qmath import MAX_BITS, ContractError, StateVector, Unitary
from .qpe import DEFAULT_REPS, MAX_REPS, _exact_batch, _readout

__all__ = ["MODES", "COLUMNS", "DIRECTIVES", "MONTECARLO_TRIALS", "MAX_TRIALS", "ParseError",
           "ExperimentConfig", "parse_experiment", "check_flag"]

MODES = ("ipea", "qpe_full", "collapse", "montecarlo")
COLUMNS = ("ipea", "exact", "qpe_full", "collapse", "montecarlo")

MAX_SEED = (1 << 64) - 1
# The trials of a Monte Carlo study that names none; any other mode runs one.
MONTECARLO_TRIALS = 10000
# The most trials of a table that prints one row per trial (ipea, collapse).
MAX_TRIALS = 100000


class ParseError(ValueError):
    """A configuration line (or the file as a whole) failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message}, line {line}"
        super().__init__(message)


class Arg(NamedTuple):
    """One argument of a directive and the values it accepts."""

    label: str  # names the argument after the keyword; "" for a lone argument
    kind: type  # int, float or str: how a token is read
    span: str  # the accepted values, in words
    check: Callable[[object], str | None]  # value -> None, or why it is refused
    choices: tuple[str, ...] = ()


def _choice(*options: str) -> Arg:
    reason = f"must be one of {', '.join(options)}"
    return Arg("", str, " | ".join(options), lambda v: None if v in options else reason, options)


class Directive(NamedTuple):
    """One grammar row: its arguments, default and the columns that read it."""

    args: tuple[Arg, ...]  # empty for the free-form unitary description
    default: object
    columns: frozenset[str]
    make: Callable | None = None  # builds the value of a multi-argument row


_FINITE = Arg("", float, "finite numbers", lambda v: None if np.isfinite(v) else "must be finite")
_EVERY = frozenset(COLUMNS)
_TARGETED = frozenset({"ipea", "exact", "qpe_full", "collapse"})

DIRECTIVES = {
    "mode": Directive((_choice(*MODES),), None, _EVERY),
    "unitary": Directive((), None, _TARGETED),
    "bits": Directive((Arg("", int, f"1..{MAX_BITS}", lambda v: "must be ≥ 1" if v < 1
                           else f"must be ≤ {MAX_BITS}" if v > MAX_BITS else None),), 3, _EVERY),
    "reps": Directive(
        (Arg("", int, f"the odd numbers 1..{MAX_REPS}", lambda v: "must be ≥ 1" if v < 1
             else f"must be ≤ {MAX_REPS}" if v > MAX_REPS
             else "must be odd so majority votes are decisive" if v % 2 == 0 else None),),
        DEFAULT_REPS, frozenset({"ipea", "montecarlo"})),
    "trials": Directive((Arg("", int, "0, 1, 2, ...",
                             lambda v: "must be ≥ 0" if v < 0 else None),),
                      None, _EVERY - {"qpe_full"}),
    "seed": Directive((Arg("", int, "0..2^64-1", lambda v: None if 0 <= v <= MAX_SEED
                           else "must fit in an unsigned 64-bit integer"),),
                      0, frozenset({"ipea", "collapse", "montecarlo"})),
    "noise": Directive(
        (Arg("distinguishability", float, "[0, 1]",
             lambda v: None if 0.0 <= v <= 1.0 else "must lie in [0, 1]"),
         Arg("sigma", float, "[0, ∞)",
             lambda v: _FINITE.check(v) or ("must be ≥ 0" if v < 0.0 else None))),
        None, frozenset({"collapse"}), NoiseSpec),
    "provider": Directive((_choice("matrix", "photonic"),), "photonic",
                          frozenset({"ipea", "exact", "montecarlo"})),
    "eigenstate": Directive((_choice("R", "L", "H", "V", "D", "A"),), "R", _TARGETED),
    "output": Directive((_choice("csv", "json"),), "csv", _EVERY),
}

# ExperimentConfig fields named apart from their directive
_FIELD = {"reps": "reps_per_bit"}


def _unread(column: str, key: str) -> str | None:
    if column in DIRECTIVES[key].columns:
        return None
    where = {"exact": "exact ipea (trials 0)", "qpe_full": "exact mode 'qpe_full'"}.get(
        column, f"mode {column!r}")
    return f"{where} does not use directive {key!r}"


def _column(mode: str, trials: int | None) -> str:
    return "exact" if mode == "ipea" and trials == 0 else mode


def _trials_refusal(mode: str, trials: int | None) -> str | None:
    if mode in ("montecarlo", "collapse") and trials == 0:
        return f"{mode} needs trials ≥ 1 (exact mode applies to ipea runs)"
    if mode in ("ipea", "collapse") and trials is not None and trials > MAX_TRIALS:
        return f"{mode} prints one row per trial and takes trials ≤ {MAX_TRIALS}, got {trials}"
    return None if trials is None else _unread(mode, "trials")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parse-validated run description; every run consumes one of these."""

    mode: str
    plates: tuple[WaveplateSpec, ...] | None = None
    matrix: Unitary | None = None
    bits: int = DIRECTIVES["bits"].default
    reps_per_bit: int = DIRECTIVES["reps"].default
    trials: int | None = DIRECTIVES["trials"].default
    seed: int = DIRECTIVES["seed"].default
    noise: NoiseSpec | None = DIRECTIVES["noise"].default
    provider: str = DIRECTIVES["provider"].default
    eigenstate: str = DIRECTIVES["eigenstate"].default
    output: str = DIRECTIVES["output"].default

    def __post_init__(self):
        column = self.column()
        for key, row in DIRECTIVES.items():
            value = getattr(self, _FIELD.get(key, key)) if row.args else self.plates or self.matrix
            if value is None:
                continue
            for arg, v in zip(row.args, astuple(value) if row.make else (value,)):
                reason = arg.check(v)
                if reason is not None:
                    name = f"{key} {arg.label}".strip()
                    raise ContractError(f"{name} {reason}, got {v!r}")
            if value != row.default and (reason := _unread(column, key)):
                raise ContractError(reason)
        reason = _trials_refusal(self.mode, self.trials)
        if reason is not None:
            raise ContractError(reason)
        if self.plates is not None and self.matrix is not None:
            raise ContractError("config cannot carry both plates and a matrix")

    def column(self) -> str:
        """The column of ``DIRECTIVES`` this run reads."""
        return _column(self.mode, self.trials)

    def unitary(self) -> Unitary:
        if self.matrix is not None:
            return self.matrix
        if self.plates is not None:
            return compose_waveplates(self.plates)
        raise ContractError(f"mode {self.mode!r} needs a unitary directive")

    def input_state(self) -> StateVector:
        return polarization_state(self.eigenstate)

    def resolved_trials(self) -> int:
        if self.trials is not None:
            return self.trials
        return MONTECARLO_TRIALS if self.mode == "montecarlo" else 1


def check_flag(flag: str, key: str, value, column: str | None = None, index: int = 0) -> None:
    """Refuse, naming ``flag``, a value for argument ``index`` of directive
    ``key`` that its row refuses, or that ``column`` (if given) does not read."""
    arg = DIRECTIVES[key].args[index]
    if arg.check(value) is not None:
        raise ParseError(f"{flag} must lie in {arg.span}, got {value}")
    if column is not None:
        reason = _unread(column, key) or (
            _trials_refusal(column, value) if key == "trials" else None
        )
        if reason is not None:
            raise ParseError(f"{flag} {value}: {reason}")


def _value(key: str, arg: Arg, token: str, line: int):
    try:
        value = int(token, 10) if arg.kind is int else arg.kind(token)
    except ValueError:
        reason = "must be an integer" if arg.kind is int else "must be a number"
    else:
        reason = arg.check(value)
    if reason is not None:
        name = f"{key} {arg.label}".strip()
        raise ParseError(f"{name} {reason}, got {token!r}", line)
    return value


def _parse_unitary(args: list[str], line: int):
    if not args:
        raise ParseError("unitary needs arguments", line)
    if args[0] == "matrix":
        entries = args[1:]
        if len(entries) != 4:
            raise ParseError(f"unitary matrix needs 4 re,im pairs, got {len(entries)}", line)
        values = []
        for pair in entries:
            parts = pair.split(",")
            if len(parts) != 2:
                raise ParseError(f"matrix entry {pair!r} is not re,im", line)
            re, im = (_value("matrix entry", _FINITE, part, line) for part in parts)
            values.append(complex(re, im))
        try:
            return None, Unitary(np.array(values, dtype=complex).reshape(2, 2))
        except ContractError as exc:
            raise ParseError(f"matrix is not unitary ({exc})", line) from None
    plates = []
    for i in range(0, len(args), 2):
        kind = args[i]
        if kind not in ("hwp", "qwp"):
            raise ParseError(f"unknown waveplate kind {kind!r}", line)
        if i + 1 >= len(args):
            raise ParseError(f"waveplate {kind!r} is missing its angle", line)
        angle = _value("waveplate angle", _FINITE, args[i + 1], line)
        plates.append(WaveplateSpec(kind.upper(), angle))
    return tuple(plates), None


def _read(key: str, tokens: list[str], line: int):
    row = DIRECTIVES[key]
    if not row.args:
        return _parse_unitary(tokens, line)
    if len(tokens) != len(row.args):
        if len(row.args) == 1:
            raise ParseError(f"{key} takes one argument", line)
        usage = " ".join(f"<{arg.label}>" for arg in row.args)
        raise ParseError(f"{key} takes two arguments: {usage}", line)
    values = [_value(key, arg, token, line) for arg, token in zip(row.args, tokens)]
    return row.make(*values) if row.make else values[0]


def parse_experiment(text: str) -> ExperimentConfig:
    """Parse a configuration file into an ExperimentConfig, each line through its row.

    Raises ParseError with a line number for any malformed, unknown,
    duplicated, out-of-range or unread directive, and for cross-field
    problems such as a montecarlo run with zero trials or a matrix whose
    powers the run's engine would refuse.
    """
    lines: dict[str, int] = {}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if key not in DIRECTIVES:
            raise ParseError(f"unknown directive {key!r}", lineno)
        if key in lines:
            raise ParseError(f"duplicate directive {key!r} (first on line {lines[key]})", lineno)
        lines[key] = lineno
        values[key] = _read(key, tokens[1:], lineno)

    if "mode" not in values:
        raise ParseError("missing required directive 'mode'")
    mode = values["mode"]
    if "unitary" not in values and mode in DIRECTIVES["unitary"].columns:
        raise ParseError(f"mode {mode!r} requires a unitary directive")
    reason = _trials_refusal(mode, values.get("trials"))
    if reason is not None:
        raise ParseError(reason, lines["trials"])
    column = _column(mode, values.get("trials"))
    for key, line in lines.items():
        reason = _unread(column, key)
        if reason is not None:
            raise ParseError(reason, line)
    plates, matrix = values.pop("unitary", (None, None))
    fields = {_FIELD.get(key, key): value for key, value in values.items()}
    config = ExperimentConfig(plates=plates, matrix=matrix, **fields)
    try:  # the engine's own check of the powers, which drift 2^(bits-1) times as far
        if matrix is not None and mode == "ipea":  # the rounds check of either ipea mode
            _exact_batch(matrix, config.input_state(), config.bits, config.provider)
        elif matrix is not None:  # qpe_full and collapse: the register distribution's sum
            coherence = None if config.noise is None else config.noise.distinguishability
            _readout(matrix, config.input_state(), config.bits, coherence)
    except ContractError as exc:
        raise ParseError(f"unitary matrix powers fail the {mode} check ({exc})", lines["unitary"])
    return config
