"""Byte-identity sweep: run a fixed list of CLI invocations and hash their output.

Usage::

    python3 scripts/sweep.py                  # this checkout, one line per run
    python3 scripts/sweep.py --against REV    # also REV's tree, print the runs that differ
    python3 scripts/sweep.py --env OPENBLAS_CORETYPE=SandyBridge   # with and without it

The list covers, each in CSV and in JSON:

* every op of the three benchmark workloads (``perfbench/workloads.py``,
  read and never edited) and the limit probes, at workload seeds 1 and 2;
* every ``configs/*.cfg``, with and without ``--seed 5``;
* ``fig4`` with and without ``--exact``, for each provider;
* ``fig5`` at its defaults and with ``--shots 0 --no-noise``;
* ``montecarlo`` at its defaults for each provider, and with ``--dyadic``;
* the ``CONFIGS`` texts, paths the above miss: ``run`` of a Monte Carlo
  config, an explicit ``unitary matrix``, a ``qwp`` train, an oracle
  that cannot pick an eigenphase, configs refused at parse time, and a
  matrix whose powers drift past the engines' checks, on each side of
  the bits where ``ipea`` and ``qpe_full`` refuse it;
* a few refused flags, which exit 2;
* and, once without ``--format``, a config whose ``output`` directive
  picks JSON.

Every run goes through ``ipea_sim.cli.main`` in one process.  A line
holds the run's label (the op's name or its argv, never a temporary
config path), its exit code and the sha256 of its stdout and of its
stderr, tab-separated.  ``--against REV`` extracts REV's ``src`` with
``git archive`` into a temporary directory, runs the same list against
it in a subprocess and prints every line that differs.  ``--env
VAR=VALUE`` (repeatable) runs the list on the ``--src`` tree twice, each
time in a subprocess: once with the variables set and once with them
unset, so kernel-selecting variables such as ``OPENBLAS_CORETYPE`` and
``NPY_DISABLE_CPU_FEATURES`` take effect when numpy loads; it prints
every line that differs.  Either exits 1 if any run differs.  The list
always comes from this checkout, so both sides run the same invocations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as perfbench pins it, before numpy loads

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
FORMATS = ("csv", "json")
PROVIDERS = ("photonic", "matrix")
REFUSED = (
    ["fig4", "--reps", "2"],
    ["fig5", "--shots", "0", "--resamples", "5"],
    ["fig5", "--no-noise", "--noise-p", "0.9"],
    ["montecarlo", "--bits", "17"],
    ["montecarlo", "--trials", "0"],
    ["fig5", "--shots", "-1"],
)
# diag(1, e^{i pi/4}) to 11 digits: within 1e-10 of unitary, but its powers
# drift past ipea's checks from bits 6 and past qpe_full's from bits 8.
_DRIFTING = "unitary matrix 1,0 0,0 0,0 0.70710678119,0.70710678119\neigenstate V\n"
# Config texts, each run as ``run NAME.cfg``: one per path the workloads and
# configs/ leave out.  The parse-time refusals exit 2.
CONFIGS = {
    "montecarlo": "mode montecarlo\nbits 4\ntrials 300\nreps 3\nseed 9\n",
    "unitary-matrix": "mode ipea\nunitary matrix 0.6,0 0,0.8 0,0.8 0.6,0\nbits 5\ntrials 6\n"
                      "seed 2\nprovider matrix\neigenstate D\n",
    "qwp-train": "mode ipea\nunitary hwp 10 qwp 35 hwp 80\nbits 4\ntrials 5\nseed 3\n",
    "degenerate-oracle": "mode ipea\nunitary hwp 30\nbits 3\ntrials 4\neigenstate R\n",
    "unknown-directive": "mode ipea\nunitary hwp 0\ncolour red\n",
    "duplicate-directive": "mode ipea\nunitary hwp 0\nbits 3\nbits 4\n",
    "unread-directive": "mode qpe_full\nunitary hwp 0\nreps 3\n",
    "non-numeric": "mode ipea\nunitary hwp 0 hwp forty\n",
    "collapse-trials-0": "mode collapse\nunitary hwp 30\ntrials 0\n",
    "output-json": "mode qpe_full\nunitary hwp 0 hwp 30\nbits 3\noutput json\n",
    "drift-ipea-b5": f"mode ipea\n{_DRIFTING}bits 5\ntrials 3\nprovider matrix\n",
    "drift-ipea-b6": f"mode ipea\n{_DRIFTING}bits 6\ntrials 3\nprovider matrix\n",
    "drift-exact-b6": f"mode ipea\n{_DRIFTING}bits 6\ntrials 0\n",
    "drift-qpe-full-b7": f"mode qpe_full\n{_DRIFTING}bits 7\n",
    "drift-qpe-full-b8": f"mode qpe_full\n{_DRIFTING}bits 8\n",
    "drift-collapse-b12": f"mode collapse\n{_DRIFTING}bits 12\ntrials 3\n",
}


def runs(config_dir: Path) -> list[tuple[str, list[str]]]:
    """Every (label, argv) of the sweep; config files are written to ``config_dir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    listed = []
    for seed in SEEDS:
        ops = [op for name in workloads.WORKLOADS for op in workloads.make_batch(name, seed)]
        for i, op in enumerate(ops + workloads.probe_ops(seed)):
            argv = op.argv
            if op.config is not None:
                path = config_dir / f"s{seed}-{i}.cfg"
                path.write_text(op.config, encoding="utf-8")
                argv = ["run", str(path)]
            listed.append((f"seed {seed} {op.name}", argv))
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for extra in ([], ["--seed", "5"]):
            listed.append((" ".join(["run", f"configs/{cfg.name}", *extra]), ["run", str(cfg), *extra]))
    studies = [["fig4", *exact, "--provider", p] for p in PROVIDERS for exact in ([], ["--exact"])]
    studies += [["fig5"], ["fig5", "--shots", "0", "--no-noise"]]
    studies += [["montecarlo", "--provider", p, *dyadic] for p in PROVIDERS for dyadic in ([], ["--dyadic"])]
    listed += [(" ".join(argv), argv) for argv in studies + list(REFUSED)]
    for name, text in CONFIGS.items():
        path = config_dir / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        listed.append((f"run {name}.cfg", ["run", str(path)]))
    formatted = [(f"{label} [{fmt}]", [*argv, "--format", fmt])
                 for label, argv in listed for fmt in FORMATS]
    return formatted + [("run output-json.cfg", ["run", str(config_dir / "output-json.cfg")])]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep(src: Path) -> list[str]:
    """One line per run of the list, with ``src``'s ``ipea_sim`` doing the work."""
    sys.path.insert(0, str(src))
    from ipea_sim import cli

    lines = []
    with tempfile.TemporaryDirectory(prefix="ipea-sweep-") as tmp:
        for label, argv in runs(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
                except Exception as exc:  # a crash is a result too; keep going
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = "crash"
            lines.append(f"{label}\t{code}\t{_sha(out.getvalue())}\t{_sha(err.getvalue())}")
    return lines


def _sweep_subprocess(src: Path, env: dict | None = None) -> list[str]:
    """The lines of ``sweep(src)``, run in a fresh interpreter with ``env``."""
    return subprocess.run(
        [sys.executable, __file__, "--src", str(src)],
        check=True, capture_output=True, text=True, env=env,
    ).stdout.splitlines()[:-1]  # drop the count line


def _compare(mine: list[str], theirs: list[str], here: str, there: str) -> int:
    """Print every line of ``theirs`` (``there``) that ``mine`` (``here``) does not match."""
    differ = [(a, b) for a, b in zip(mine, theirs) if a != b]
    for a, b in differ:
        print(f"- {there}\t{b}\n+ {here}\t{a}")
    if len(mine) != len(theirs):
        print(f"run counts differ: {len(mine)} {here}, {len(theirs)} {there}")
        return 1
    print(f"{len(mine)} runs {here} against {there}: {len(mine) - len(differ)} identical, "
          f"{len(differ)} differ (stdout, stderr and exit code)")
    return 1 if differ else 0


def against(rev: str, mine: list[str]) -> int:
    """Run the list on ``rev``'s ``src`` and print every line that differs from ``mine``."""
    with tempfile.TemporaryDirectory(prefix="ipea-sweep-rev-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        theirs = _sweep_subprocess(Path(tmp) / "src")
    return _compare(mine, theirs, "here", rev)


def with_env(src: Path, assignments: list[tuple[str, str]]) -> int:
    """Run the list on ``src`` with and without ``assignments`` and print every line that differs."""
    values = dict(assignments)
    without = {k: v for k, v in os.environ.items() if k not in values}
    label = "with " + " ".join(f"{k}={v}" for k, v in values.items())
    return _compare(_sweep_subprocess(src, {**without, **values}),
                    _sweep_subprocess(src, without), label, "without")


def _assignment(text: str) -> tuple[str, str]:
    name, eq, value = text.partition("=")
    if not (name and eq):
        raise argparse.ArgumentTypeError(f"expected VAR=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare with this git revision")
    parser.add_argument("--env", metavar="VAR=VALUE", type=_assignment, action="append",
                        help="compare the --src tree's runs with this variable set and unset")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the source tree whose ipea_sim runs the list (default: this one's)")
    args = parser.parse_args(argv)
    if args.env:
        if args.against:
            parser.error("--env compares one tree with itself; drop --against")
        return with_env(args.src, args.env)
    lines = sweep(args.src)
    if args.against:
        return against(args.against, lines)
    print("\n".join(lines))
    print(f"{len(lines)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
