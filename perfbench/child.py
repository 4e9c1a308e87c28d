"""Work the benchmark runs in a fresh interpreter.

    python3 perfbench/child.py setup <argv as JSON>
        Import ipea_sim.cli, parse the op's arguments (and its config
        file, for ``run``), then print one JSON line with the import and
        parse times.  The parent times the line's arrival.

    python3 perfbench/child.py probe <config> [<config> ...]
        Run each config through the CLI, with the address space capped
        at 2 GiB, and print one line per config with its exit code as
        soon as it finishes.

The parent puts ``src`` on PYTHONPATH and pins the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

PROBE_MEMORY_BYTES = 2 << 30


def setup(argv: list[str]) -> None:
    start = time.perf_counter()
    from ipea_sim import cli
    from ipea_sim.config import parse_experiment

    imported = time.perf_counter()
    args = cli.build_parser().parse_args(argv)
    if args.command == "run":
        with open(args.config, encoding="utf-8") as fh:
            parse_experiment(fh.read())
    parsed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported}), flush=True)


def probe(paths: list[str]) -> None:
    # A probe that would allocate past this limit fails instead of taking
    # the memory of a shared machine.
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))
    from ipea_sim import cli

    for path in paths:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(["run", path])
            except Exception:  # a crash (MemoryError too) is a failed probe
                code = 1
        print(json.dumps({"config": path, "exit": code}), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(json.loads(sys.argv[2]))
    elif sys.argv[1] == "probe":
        probe(sys.argv[2:])
    else:
        sys.exit(f"unknown child mode {sys.argv[1]!r}")
