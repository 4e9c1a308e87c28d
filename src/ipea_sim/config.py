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
    noise      <distinguishability> <sigma_deg>
    provider   matrix | photonic
    eigenstate R | L | H | V | D | A
    output     csv | json

Every ``bits`` value the grammar accepts runs in every mode.  Every
malformed line produces a ParseError naming its line number; a
misspelled keyword is an error, never a silently ignored default.  So
is a directive the mode never reads: ``qpe_full`` takes no ``reps``,
``seed``, ``noise`` or ``provider``, and ``collapse`` no ``reps`` or
``provider``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .photonics import NoiseSpec, WaveplateSpec, compose_waveplates, polarization_state
from .qmath import ContractError, StateVector, Unitary

__all__ = ["MODES", "ParseError", "ExperimentConfig", "parse_experiment"]

MODES = ("ipea", "qpe_full", "collapse", "montecarlo")
PROVIDERS = ("matrix", "photonic")
OUTPUT_FORMATS = ("csv", "json")
EIGENSTATES = ("R", "L", "H", "V", "D", "A")

MAX_BITS = 16
MAX_SEED = (1 << 64) - 1
# Directives a mode never reads; naming one is an error, not a no-op.
UNREAD_DIRECTIVES = {
    "qpe_full": ("reps", "seed", "noise", "provider"),
    "collapse": ("reps", "provider"),
}


class ParseError(ValueError):
    """A configuration line (or the file as a whole) failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message}, line {line}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parse-validated run description; every run consumes one of these."""

    mode: str
    plates: tuple[WaveplateSpec, ...] | None = None
    matrix: Unitary | None = None
    bits: int = 3
    reps_per_bit: int = 11
    trials: int | None = None
    seed: int = 0
    noise: NoiseSpec | None = None
    provider: str = "photonic"
    eigenstate: str = "R"
    output: str = "csv"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractError(f"unknown mode {self.mode!r}")
        if not 1 <= self.bits <= MAX_BITS:
            raise ContractError(f"bits must lie in 1..{MAX_BITS}, got {self.bits}")
        if self.reps_per_bit < 1 or self.reps_per_bit % 2 == 0:
            raise ContractError(f"reps must be odd, got {self.reps_per_bit}")
        if self.trials is not None and self.trials < 0:
            raise ContractError(f"trials must be >= 0, got {self.trials}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ContractError(f"seed must be a u64, got {self.seed}")
        if self.provider not in PROVIDERS:
            raise ContractError(f"unknown provider {self.provider!r}")
        if self.eigenstate not in EIGENSTATES:
            raise ContractError(f"unknown eigenstate {self.eigenstate!r}")
        if self.output not in OUTPUT_FORMATS:
            raise ContractError(f"unknown output format {self.output!r}")
        if self.plates is not None and self.matrix is not None:
            raise ContractError("config cannot carry both plates and a matrix")

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


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def _parse_float(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"{what} must be a number, got {token!r}", line) from None
    if not np.isfinite(value):
        raise ParseError(f"{what} must be finite, got {token!r}", line)
    return value


def _parse_unitary(args: list[str], line: int):
    if not args:
        raise ParseError("unitary needs arguments", line)
    if args[0] == "matrix":
        entries = args[1:]
        if len(entries) != 4:
            raise ParseError(
                f"unitary matrix needs 4 re,im pairs, got {len(entries)}", line
            )
        values = []
        for pair in entries:
            parts = pair.split(",")
            if len(parts) != 2:
                raise ParseError(f"matrix entry {pair!r} is not re,im", line)
            re = _parse_float(parts[0], "matrix entry", line)
            im = _parse_float(parts[1], "matrix entry", line)
            values.append(complex(re, im))
        m = np.array(values, dtype=complex).reshape(2, 2)
        try:
            return None, Unitary(m)
        except ContractError as exc:
            raise ParseError(f"matrix is not unitary ({exc})", line) from None
    plates = []
    i = 0
    while i < len(args):
        kind = args[i]
        if kind not in ("hwp", "qwp"):
            raise ParseError(f"unknown waveplate kind {kind!r}", line)
        if i + 1 >= len(args):
            raise ParseError(f"waveplate {kind!r} is missing its angle", line)
        angle = _parse_float(args[i + 1], "waveplate angle", line)
        plates.append(WaveplateSpec(kind.upper(), angle))
        i += 2
    return tuple(plates), None


def parse_experiment(text: str) -> ExperimentConfig:
    """Parse a configuration file into an ExperimentConfig.

    Raises ParseError with a line number for any malformed, unknown,
    duplicated, or out-of-range directive, and for cross-field
    problems such as a montecarlo run with zero trials.
    """
    seen: dict[str, int] = {}
    values: dict[str, object] = {}

    def note(key: str, line: int, value) -> None:
        if key in seen:
            raise ParseError(
                f"duplicate directive {key!r} (first on line {seen[key]})", line
            )
        seen[key] = line
        values[key] = value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        tokens = content.split()
        keyword, args = tokens[0], tokens[1:]
        if keyword == "mode":
            if len(args) != 1 or args[0] not in MODES:
                raise ParseError(
                    f"mode must be one of {', '.join(MODES)}, got {' '.join(args)!r}",
                    lineno,
                )
            note("mode", lineno, args[0])
        elif keyword == "unitary":
            plates, matrix = _parse_unitary(args, lineno)
            note("unitary", lineno, (plates, matrix))
        elif keyword == "bits":
            if len(args) != 1:
                raise ParseError("bits takes one argument", lineno)
            bits = _parse_int(args[0], "bits", lineno)
            if bits < 1:
                raise ParseError("bits must be ≥ 1", lineno)
            if bits > MAX_BITS:
                raise ParseError(f"bits must be ≤ {MAX_BITS}", lineno)
            note("bits", lineno, bits)
        elif keyword == "reps":
            if len(args) != 1:
                raise ParseError("reps takes one argument", lineno)
            reps = _parse_int(args[0], "reps", lineno)
            if reps < 1:
                raise ParseError("reps must be ≥ 1", lineno)
            if reps % 2 == 0:
                raise ParseError("reps must be odd so majority votes are decisive", lineno)
            note("reps", lineno, reps)
        elif keyword == "trials":
            if len(args) != 1:
                raise ParseError("trials takes one argument", lineno)
            trials = _parse_int(args[0], "trials", lineno)
            if trials < 0:
                raise ParseError("trials must be ≥ 0", lineno)
            note("trials", lineno, trials)
        elif keyword == "seed":
            if len(args) != 1:
                raise ParseError("seed takes one argument", lineno)
            seed = _parse_int(args[0], "seed", lineno)
            if not 0 <= seed <= MAX_SEED:
                raise ParseError("seed must fit in an unsigned 64-bit integer", lineno)
            note("seed", lineno, seed)
        elif keyword == "noise":
            if len(args) != 2:
                raise ParseError("noise takes two arguments: <p> <sigma_deg>", lineno)
            p = _parse_float(args[0], "noise distinguishability", lineno)
            sigma = _parse_float(args[1], "noise sigma", lineno)
            if not 0.0 <= p <= 1.0:
                raise ParseError("noise distinguishability must lie in [0, 1]", lineno)
            if sigma < 0.0:
                raise ParseError("noise sigma must be ≥ 0", lineno)
            note("noise", lineno, NoiseSpec(p, sigma))
        elif keyword == "provider":
            if len(args) != 1 or args[0] not in PROVIDERS:
                raise ParseError(
                    f"provider must be one of {', '.join(PROVIDERS)}", lineno
                )
            note("provider", lineno, args[0])
        elif keyword == "eigenstate":
            if len(args) != 1 or args[0] not in EIGENSTATES:
                raise ParseError(
                    f"eigenstate must be one of {', '.join(EIGENSTATES)}", lineno
                )
            note("eigenstate", lineno, args[0])
        elif keyword == "output":
            if len(args) != 1 or args[0] not in OUTPUT_FORMATS:
                raise ParseError(
                    f"output must be one of {', '.join(OUTPUT_FORMATS)}", lineno
                )
            note("output", lineno, args[0])
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno)

    if "mode" not in values:
        raise ParseError("missing required directive 'mode'")
    mode = values["mode"]

    plates, matrix = values.get("unitary", (None, None))
    if mode in ("ipea", "qpe_full", "collapse") and plates is None and matrix is None:
        raise ParseError(f"mode {mode!r} requires a unitary directive")

    trials = values.get("trials")
    if mode == "montecarlo" and trials == 0:
        raise ParseError(
            "montecarlo needs trials ≥ 1 (exact mode applies to ipea runs)",
            seen["trials"],
        )
    if mode in ("qpe_full",) and trials not in (None, 0, 1):
        raise ParseError(
            "qpe_full is exact and takes no trial count beyond 1", seen["trials"]
        )
    for key in UNREAD_DIRECTIVES.get(mode, ()):
        if key in seen:
            raise ParseError(f"mode {mode!r} does not use directive {key!r}", seen[key])

    return ExperimentConfig(
        mode=mode,
        plates=plates,
        matrix=matrix,
        bits=values.get("bits", 3),
        reps_per_bit=values.get("reps", 11),
        trials=trials,
        seed=values.get("seed", 0),
        noise=values.get("noise"),
        provider=values.get("provider", "photonic"),
        eigenstate=values.get("eigenstate", "R"),
        output=values.get("output", "csv"),
    )
