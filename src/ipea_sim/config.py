"""Line-oriented experiment configuration files.

Grammar (one directive per line, ``#`` starts a comment, blank lines
are skipped, each directive may appear at most once)::

    mode       ipea | qpe_full | collapse | montecarlo
    unitary    hwp <deg> [hwp <deg> ...]          a waveplate train
    unitary    matrix <re,im re,im re,im re,im>   2x2, row-major
    bits       <m>                                1..16
    reps       <odd count>                        majority votes per bit
    trials     <count>                            0 selects exact-probability mode
    seed       <u64>
    noise      <distinguishability> <sigma_deg>   p in [0, 1], sigma finite and ≥ 0
    provider   matrix | photonic
    eigenstate R | L | H | V | D | A
    output     csv | json

``DIRECTIVES`` holds one row per directive: its arguments (kind, span
and check), its default and the columns (modes, with ``ipea`` at
``trials 0`` as ``exact``) that read it.  The parser, ``ExperimentConfig``
and the CLI flags check values through these rows.  A malformed line, a
misspelled keyword or a directive its column never reads is a ParseError
naming its line: ``qpe_full`` reads no ``reps``, ``seed``, ``noise`` or
``provider``, ``collapse`` no ``reps`` or ``provider``, ``montecarlo``
(which draws its own diagonal unitaries) no ``unitary``, ``noise`` or
``eigenstate``, and exact ``ipea`` no ``seed``, ``reps`` or ``noise``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .photonics import NoiseSpec, WaveplateSpec, compose_waveplates, polarization_state
from .qmath import ContractError, StateVector, Unitary

__all__ = ["MODES", "COLUMNS", "DIRECTIVES", "ParseError", "ExperimentConfig",
           "parse_experiment", "check_flag"]

MODES = ("ipea", "qpe_full", "collapse", "montecarlo")
COLUMNS = ("ipea", "exact", "qpe_full", "collapse", "montecarlo")

MAX_BITS = 16
MAX_SEED = (1 << 64) - 1


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
        (Arg("", int, "the odd numbers 1, 3, 5, ...", lambda v: "must be ≥ 1" if v < 1
             else "must be odd so majority votes are decisive" if v % 2 == 0 else None),),
        11, frozenset({"ipea", "montecarlo"})),
    "trials": Directive((Arg("", int, "0, 1, 2, ...",
                             lambda v: "must be ≥ 0" if v < 0 else None),), None, _EVERY),
    "seed": Directive((Arg("", int, "0..2^64-1", lambda v: None if 0 <= v <= MAX_SEED
                           else "must fit in an unsigned 64-bit integer"),),
                      0, frozenset({"ipea", "collapse", "montecarlo"})),
    "noise": Directive(
        (Arg("distinguishability", float, "[0, 1]",
             lambda v: None if 0.0 <= v <= 1.0 else "must lie in [0, 1]"),
         Arg("sigma", float, "[0, ∞)",
             lambda v: _FINITE.check(v) or ("must be ≥ 0" if v < 0.0 else None))),
        None, frozenset({"ipea", "collapse"}), NoiseSpec),
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
    where = "exact ipea (trials 0)" if column == "exact" else f"mode {column!r}"
    return f"{where} does not use directive {key!r}"


def _trials_refusal(mode: str, trials: int | None) -> str | None:
    if mode == "montecarlo" and trials == 0:
        return "montecarlo needs trials ≥ 1 (exact mode applies to ipea runs)"
    if mode == "qpe_full" and trials not in (None, 0, 1):
        return "qpe_full is exact and takes no trial count beyond 1"
    return None


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
        for key, row in DIRECTIVES.items():
            value = getattr(self, _FIELD.get(key, key)) if row.args else None
            if value is None:
                continue
            for arg, v in zip(row.args, astuple(value) if row.make else (value,)):
                reason = arg.check(v)
                if reason is not None:
                    name = f"{key} {arg.label}".strip()
                    raise ContractError(f"{name} {reason}, got {v!r}")
        reason = _trials_refusal(self.mode, self.trials)
        if reason is not None:
            raise ContractError(reason)
        if self.plates is not None and self.matrix is not None:
            raise ContractError("config cannot carry both plates and a matrix")

    def column(self) -> str:
        """The column of ``DIRECTIVES`` this run reads."""
        return "exact" if self.mode == "ipea" and self.trials == 0 else self.mode

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
        return 10000 if self.mode == "montecarlo" else 1


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
    problems such as a montecarlo run with zero trials.
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
    plates, matrix = values.pop("unitary", (None, None))
    fields = {_FIELD.get(key, key): value for key, value in values.items()}
    config = ExperimentConfig(plates=plates, matrix=matrix, **fields)
    column = config.column()
    for key, line in lines.items():
        reason = _unread(column, key)
        if reason is not None:
            raise ParseError(reason, line)
    return config
