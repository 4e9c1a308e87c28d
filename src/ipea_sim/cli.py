"""Command-line front end: ``run``, ``fig4``, ``fig5`` and ``montecarlo``.

README's "Command line" section states each subcommand's flags, where
each left-out flag's default comes from and the exit statuses.  No run
parameter has a parser default and a flag left out is not passed on; a
flag that sets a directive's value takes its type, choices and range
from its ``config.DIRECTIVES`` row.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import experiments
from .config import DIRECTIVES, ParseError, check_flag, parse_experiment
from .photonics import NoiseSpec
from .qmath import ContractError

# argparse destinations that set a directive's value: (directive, argument index)
FLAG_DIRECTIVES = {"bits": ("bits", 0), "reps": ("reps", 0), "trials": ("trials", 0),
                   "seed": ("seed", 0), "noise_p": ("noise", 0), "noise_sigma": ("noise", 1),
                   "provider": ("provider", 0)}
# the DIRECTIVES column each study reads (fig4 --exact: "exact"); run takes its config's
STUDY_COLUMNS = {"fig4": "ipea", "fig5": None, "montecarlo": "montecarlo"}


def _add_directive_flag(parser: argparse.ArgumentParser, dest: str, what: str) -> None:
    """Add the flag of ``FLAG_DIRECTIVES[dest]``, typed and ranged by its row."""
    key, index = FLAG_DIRECTIVES[dest]
    arg = DIRECTIVES[key].args[index]
    parser.add_argument("--" + dest.replace("_", "-"), type=arg.kind,
                        choices=arg.choices or None, help=f"{what} ({arg.span})")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the table here instead of stdout")
    parser.add_argument(
        "--format",
        choices=DIRECTIVES["output"].args[0].choices,
        help="output format (default: csv; for run, the config's output directive)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every caller.

    Parsing leaves it unchanged, so callers only parse with it.
    """
    parser = argparse.ArgumentParser(
        prog="ipea-sim",
        description="Iterative phase estimation simulator with a photonic gate model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("config", help="path to the experiment config")
    _add_directive_flag(run, "seed", "override the config's seed")
    _add_output_flags(run)

    fig4 = sub.add_parser("fig4", help="twelve-angle waveplate sweep")
    _add_directive_flag(fig4, "seed", f"master seed, default {experiments.DEFAULT_SEED}")
    _add_directive_flag(fig4, "reps", "repetitions per bit")
    _add_directive_flag(fig4, "provider", "controlled-power provider")
    fig4.add_argument(
        "--exact",
        action="store_true",
        help="use exact bit posteriors instead of sampling",
    )
    _add_output_flags(fig4)

    fig5 = sub.add_parser("fig5", help="nine eigenstate-generation panels")
    _add_directive_flag(fig5, "seed", f"master seed, default {experiments.DEFAULT_SEED}")
    fig5.add_argument(
        "--shots", type=int, help="tomography shots per basis; 0 means exact expectations"
    )
    fig5.add_argument("--resamples", type=int, help="bootstrap resamples, at least 1")
    _add_directive_flag(fig5, "noise_p", "control-coherence fraction of the noise model")
    _add_directive_flag(fig5, "noise_sigma", "waveplate angle jitter, degrees")
    fig5.add_argument(
        "--no-noise", action="store_true", help="disable the noise model entirely"
    )
    _add_output_flags(fig5)

    mc = sub.add_parser("montecarlo", help="precision bound over random phases")
    _add_directive_flag(mc, "bits", "estimate length m")
    _add_directive_flag(mc, "trials", "random phases drawn")
    _add_directive_flag(mc, "seed", f"master seed, default {experiments.DEFAULT_SEED}")
    _add_directive_flag(mc, "provider", "controlled-power provider")
    _add_directive_flag(mc, "reps", "majority-vote repetitions")
    mc.add_argument(
        "--dyadic",
        action="store_true",
        help="draw phases from the m-bit grid instead of the continuum",
    )
    _add_output_flags(mc)

    return parser


def _check_flags(args: argparse.Namespace, column: str | None) -> None:
    for dest, (key, index) in FLAG_DIRECTIVES.items():
        value = getattr(args, dest, None)
        if value is not None:
            check_flag("--" + dest.replace("_", "-"), key, value, column, index)


def _given(args: argparse.Namespace, *dests: str, **renamed: str) -> dict:
    """The flags of ``dests`` and ``renamed`` that were given, by parameter name."""
    names = dict(zip(dests, dests), **renamed)
    return {name: getattr(args, dest) for name, dest in names.items()
            if getattr(args, dest) is not None}


def _dispatch(args: argparse.Namespace):
    if args.command == "run":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config {args.config!r}: {exc}") from exc
        config = parse_experiment(text)
        _check_flags(args, config.column())
        if args.format is None:
            args.format = config.output
        return experiments.run_config(config, seed=args.seed)
    exact = getattr(args, "exact", False)
    _check_flags(args, "exact" if exact else STUDY_COLUMNS.get(args.command))
    if args.command == "fig4":
        records = experiments.run_fig4(exact=exact, **_given(args, "seed", "reps", "provider"))
        return records, experiments.FIG4_FIELDS
    if args.command == "fig5":
        for dest, least in (("shots", 0), ("resamples", 1)):
            value = getattr(args, dest)
            if value is not None and value < least:
                raise ParseError(f"--{dest} must be ≥ {least}, got {value}")
        for flag, value in (("--noise-p", args.noise_p), ("--noise-sigma", args.noise_sigma)):
            if args.no_noise and value is not None:
                raise ParseError(f"{flag} {value}: --no-noise runs no noise model")
        if args.shots == 0 and args.resamples is not None:
            raise ParseError(f"--resamples {args.resamples}: --shots 0 draws no bootstrap")
        noise = None if args.no_noise else NoiseSpec(**_given(
            args, distinguishability="noise_p", angle_jitter_sigma_deg="noise_sigma"))
        panels = experiments.run_fig5(noise=noise, **_given(args, "seed", "shots", "resamples"))
        return panels, experiments.FIG5_FIELDS
    if args.command == "montecarlo":
        rows = experiments.run_montecarlo(
            dyadic=args.dyadic, **_given(args, "trials", "seed", "provider", "reps", m="bits")
        )
        return rows, experiments.MONTECARLO_FIELDS
    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, fields = _dispatch(args)
        try:
            text = experiments.emit(records, args.format or "csv", path=args.out, fields=fields)
        except OSError as exc:
            raise ParseError(f"cannot write output {args.out!r}: {exc}") from exc
    except ParseError as exc:
        print(f"ipea-sim: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"ipea-sim: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
