"""Command-line front end.

Subcommands::

    ipea-sim run <config> [--seed N] [--out PATH] [--format csv|json]
    ipea-sim fig4 [--seed N] [--reps N] [--provider P] [--exact] ...
    ipea-sim fig5 [--seed N] [--shots N] [--noise-p X] [--noise-sigma X] ...
    ipea-sim montecarlo [--bits M] [--trials N] [--provider P] ...

Exit status: 0 on success, 2 for configuration/usage errors, 3 when a
numerical contract is violated at run time.  A flag that sets a
directive's value is checked by that directive's ``config.DIRECTIVES``
row: an out-of-range value, or ``run --seed`` on a config that reads no
seed (exact ``ipea``, ``qpe_full``), exits 2 naming the flag.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import DIRECTIVES, ParseError, check_flag, parse_experiment
from .photonics import NoiseSpec
from .qmath import ContractError

# argparse destinations that set a directive's value: (directive, argument index)
FLAG_DIRECTIVES = {"bits": ("bits", 0), "reps": ("reps", 0), "trials": ("trials", 0),
                   "seed": ("seed", 0), "noise_p": ("noise", 0), "noise_sigma": ("noise", 1)}
# the column of DIRECTIVES that each study reads; run takes its config's
STUDY_COLUMNS = {"fig4": "ipea", "fig5": None, "montecarlo": "montecarlo"}


def _row_arg(key: str):
    return DIRECTIVES[key].args[0]


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", help="write the table here instead of stdout")
    parser.add_argument(
        "--format",
        choices=_row_arg("output").choices,
        help="output format (default: csv; for run, the config's output directive)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipea-sim",
        description="Iterative phase estimation simulator with a photonic gate model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a config file")
    run.add_argument("config", help="path to the experiment config")
    run.add_argument("--seed", type=int, help="override the config's seed")
    _add_output_flags(run)

    fig4 = sub.add_parser("fig4", help="twelve-angle waveplate sweep")
    fig4.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    fig4.add_argument("--reps", type=int, default=11, help="repetitions per bit (odd)")
    fig4.add_argument("--provider", choices=_row_arg("provider").choices, default="photonic")
    fig4.add_argument(
        "--exact",
        action="store_true",
        help="use exact bit posteriors instead of sampling",
    )
    _add_output_flags(fig4)

    fig5 = sub.add_parser("fig5", help="nine eigenstate-generation panels")
    fig5.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    fig5.add_argument(
        "--shots",
        type=int,
        default=100000,
        help="tomography shots per basis; 0 means exact expectations",
    )
    fig5.add_argument(
        "--resamples", type=int, default=100, help="bootstrap resamples"
    )
    fig5.add_argument(
        "--noise-p",
        type=float,
        default=0.95,
        help="control-coherence fraction of the noise model",
    )
    fig5.add_argument(
        "--noise-sigma",
        type=float,
        default=0.25,
        help="waveplate angle jitter, degrees",
    )
    fig5.add_argument(
        "--no-noise", action="store_true", help="disable the noise model entirely"
    )
    _add_output_flags(fig5)

    mc = sub.add_parser("montecarlo", help="precision bound over random phases")
    mc.add_argument(
        "--bits", type=int, default=3, help=f"estimate length m, {_row_arg('bits').span}"
    )
    mc.add_argument("--trials", type=int, default=10000)
    mc.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    mc.add_argument("--provider", choices=_row_arg("provider").choices, default="photonic")
    mc.add_argument("--reps", type=int, default=11, help="majority-vote repetitions")
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


def _dispatch(args: argparse.Namespace):
    if args.command == "run":
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read config {args.config!r}: {exc}") from exc
        config = parse_experiment(text)
        _check_flags(args, config.column())
        if args.format is None:
            args.format = config.output
        return experiments.run_config(config, seed=args.seed)
    _check_flags(args, STUDY_COLUMNS.get(args.command))
    if args.command == "fig4":
        records = experiments.run_fig4(
            seed=args.seed, reps=args.reps, provider=args.provider, exact=args.exact
        )
        return records, experiments.FIG4_FIELDS
    if args.command == "fig5":
        noise = None if args.no_noise else NoiseSpec(args.noise_p, args.noise_sigma)
        panels = experiments.run_fig5(
            seed=args.seed, shots=args.shots, noise=noise, resamples=args.resamples
        )
        return panels, experiments.FIG5_FIELDS
    if args.command == "montecarlo":
        rows = experiments.run_montecarlo(
            m=args.bits, trials=args.trials, seed=args.seed,
            provider=args.provider, reps=args.reps, dyadic=args.dyadic,
        )
        return rows, experiments.MONTECARLO_FIELDS
    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, fields = _dispatch(args)
        text = experiments.emit(records, args.format or "csv", path=args.out, fields=fields)
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
