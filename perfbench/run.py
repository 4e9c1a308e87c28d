#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ipea-sim command line.

    python3 perfbench/run.py --workload ipea_photonic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  One process, one client, closed loop: the workload's batch of
CLI operations (generated from ``--seed``, see workloads.py) is passed
to ``ipea_sim.cli.main(argv)`` one op after another, and the batch is
repeated until ``--seconds`` have passed (at least three times).  Every
op's output is checked (checks.py) and must repeat byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced batches (tracer.py) and prints the per-layer
metrics.  The last line of stdout is the result as one JSON object; the
line before it carries provenance and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Pin BLAS threads before numpy loads.  The bundled OpenBLAS otherwise
# starts one thread per core, and the cores are shared.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (the first import of numpy)
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 7
MIN_BATCHES = 3
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 30
CHILD_TIMEOUT_S = 60
M_MMAP_THRESHOLD = -3  # mallopt parameter number in glibc's malloc.h

PROVIDER_ROUNDS = (
    "qpe.MatrixProvider.controlled_state",
    "photonics.PhotonicProvider.controlled_state",
)
EXACT_POSTERIORS = (
    "qpe.MatrixProvider.bit_distribution",
    "photonics.PhotonicProvider.bit_distribution",
)
VALIDATIONS = {
    "qmath.statevector_validations": "qmath.StateVector.__post_init__",
    "qmath.density_validations": "qmath.DensityMatrix.__post_init__",
    "qmath.unitary_validations": "qmath.Unitary.__post_init__",
}
COLLAPSE_CORES = (
    "qpe.collapse_run",
    "qpe.collapse_run_mixed",
    "qpe.collapse_project",
    "qpe.collapse_project_mixed",
)
STUDIES = ("run_fig4", "run_fig5", "run_montecarlo", "run_config")
STAGE_SECONDS = {
    "qmath.measure_s": "qmath.measure",
    "qmath.condition_s": "qmath.condition",
    "qmath.derive_rng_s": "qmath.derive_rng",
    "photonics.prepare_s": "photonics.prepare_entangled_input",
    "photonics.cascade_s": "photonics.apply_blue_unitary",
    "photonics.beamsplitter_s": "photonics.beamsplitter_mix",
    "photonics.postselect_s": "photonics.postselect",
    "qpe.ipea_run_s": "qpe.ipea_run",
    "qpe.fourier_s": "qpe.inverse_qft",
    "tomography.simulate_counts_s": "tomography.simulate_counts",
    "tomography.bootstrap_s": "tomography.bootstrap_fidelity",
    "config.parse_s": "config.parse_experiment",
    "experiments.emit_s": "experiments.emit",
    "cli.main_s": "cli.main",
}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_setup(argv: list[str]) -> tuple[float, float, dict]:
    """Fresh interpreter: import the CLI and parse the first op.

    Returns raw and calibrated seconds and the child's own timings.
    """
    cmd = [sys.executable, str(HERE / "child.py"), "setup", json.dumps(argv)]
    before = calibrate.sample()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"setup child exited {code}")
    after = calibrate.sample()
    return elapsed, calibrate.calibrated(elapsed, before, after), json.loads(line)


def run_probes(paths: list[str]) -> list[int | None]:
    """Exit code of each probe config; None if it did not finish in time."""
    cmd = [sys.executable, str(HERE / "child.py"), "probe", *paths]
    try:
        out = subprocess.run(
            cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT_S
        ).stdout
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""
    exits = {}
    for line in out.decode().splitlines():
        record = json.loads(line)
        exits[record["config"]] = record["exit"]
    return [exits.get(path) for path in paths]


def run_op(cli, argv: list[str]) -> tuple[int, float, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes counts as failed; keep going
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"perfbench: {' '.join(argv)} exited {code}: {err.getvalue()}", file=sys.stderr)
    return code, elapsed, out.getvalue()


def run_batch(cli, ops, traced: bool) -> dict:
    """Run every op once; results are (exit code, raw s, stdout, calibrated s)."""
    gc.collect()
    tracer = Tracer(keep_instances=("photonics.PhotonicProvider",)) if traced else None
    results = []
    before = calibrate.sample()
    with tracer or contextlib.nullcontext():
        for op in ops:
            code, elapsed, text = run_op(cli, op.argv)
            after = calibrate.sample()
            results.append((code, elapsed, text, calibrate.calibrated(elapsed, before, after)))
            before = after
    return {"wall": sum(r[1] for r in results), "results": results, "tracer": tracer}


def evaluate(ops, batches, golden: str) -> tuple[int, set[int], list[str]]:
    """Check every output; return accurate estimates per batch, failed ops, messages."""
    reference = batches[0]["results"]
    failed: set[int] = set()
    messages: list[str] = []
    accurate = 0
    tally = {"single": [0, 0], "majority": [0, 0]}
    for i, (op, (code, _, text, _)) in enumerate(zip(ops, reference)):
        if code != 0:
            failed.add(i)
            messages.append(f"{op.name}: exit code {code}")
            continue
        try:
            accurate += checks.check_op(op, text, golden, tally)
        except checks.CheckError as exc:
            failed.add(i)
            messages.append(f"{op.name}: {exc}")
    try:
        checks.check_success_tally(tally)
    except checks.CheckError as exc:
        mc = {i for i, op in enumerate(ops) if op.kind == "montecarlo"}
        failed |= mc
        messages.append(f"montecarlo aggregate: {exc}")
    for n, batch in enumerate(batches[1:], start=1):
        for i, (ref, res) in enumerate(zip(reference, batch["results"])):
            if (res[0], res[2]) != (ref[0], ref[2]):
                failed.add(i)
                messages.append(f"{ops[i].name}: output of batch {n} differs from batch 0")
    return accurate, failed, messages


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def layer_metrics(tracer: Tracer, ops, results) -> dict[str, float]:
    calls, seconds = tracer.calls, tracer.seconds
    metrics = {name: calls(target) for name, target in VALIDATIONS.items()}
    metrics["qmath.validation_s"] = sum(seconds(t) for t in VALIDATIONS.values())
    metrics.update({name: seconds(target) for name, target in STAGE_SECONDS.items()})
    metrics["qmath.derive_rng_calls"] = calls("qmath.derive_rng")
    metrics["photonics.state_validations"] = calls("photonics.PhotonicState.__post_init__")
    branches = [p.branch_counts for p in tracer.instances["photonics.PhotonicProvider"]]
    p_events = sum(b["P"] for b in branches)
    all_events = p_events + sum(b["Q"] for b in branches)
    metrics["photonics.p_branch_share"] = p_events / all_events if all_events else 0.0
    # A round of ipea_run calls controlled_state directly; exact mode's
    # bit_distribution may call it too, which is not a sampled round.
    rounds = sum(calls(n, exclude_parents=EXACT_POSTERIORS) for n in PROVIDER_ROUNDS)
    metrics["qpe.provider_rounds"] = rounds
    metrics["qpe.provider_round_s"] = sum(
        seconds(n, exclude_parents=EXACT_POSTERIORS) for n in PROVIDER_ROUNDS
    )
    metrics["qpe.exact_posteriors"] = sum(calls(n) for n in EXACT_POSTERIORS)
    metrics["qpe.collapse_s"] = sum(seconds(n) for n in COLLAPSE_CORES)
    metrics["tomography.reconstructions"] = calls("tomography.reconstruct") + calls(
        "tomography.reconstruct_from_expectations"
    )
    for study in STUDIES:
        metrics[f"experiments.study_s.{study}"] = seconds(f"experiments.{study}")
    metrics["experiments.emit_bytes"] = sum(len(r[2].encode()) for r in results)
    computed = workloads.computed_counters(ops)
    metrics.update(computed)
    metrics["qpe.round_reuse_ratio"] = computed["qpe.ipea_rounds"] / rounds if rounds else 0.0
    return metrics


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        git_sha = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its 128 KiB default.

    glibc otherwise raises the threshold as large arrays are freed, after
    which they stay on the heap, so the peak resident memory of a run
    jumped between two values from run to run.  With the threshold fixed,
    large arrays are always mapped and unmapped and the peak follows the
    live arrays.  Other C libraries are left as they are.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 128 << 10)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_mmap_threshold()
    # Exit through the finally blocks (which remove the config directory)
    # when stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ipea_sim" / "cli.py").is_file():
        print(f"perfbench: no ipea_sim sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ipea_sim import cli

    if Path(cli.__file__).resolve().parent != SRC / "ipea_sim":
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    golden = checks.load_golden(ROOT)
    ops = workloads.make_batch(args.workload, args.seed)
    probes = workloads.probe_ops(args.seed) if args.workload == "register" else []
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for n, op in enumerate(ops + probes):
            if op.config is not None:
                path = workdir / f"{n:03d}-{op.name}.cfg"
                path.write_text(op.config, encoding="utf-8")
                op.argv = ["run", str(path)]
        setups = [time_setup(ops[0].argv) for _ in range(SETUP_RUNS)]
        batches = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(batches) % 2 == 1
            batches.append(run_batch(cli, ops, traced))
            done = len(batches) >= (MIN_BATCHES + args.trace) and len(batches) % (1 + args.trace) == 0
            if done and time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_exits = run_probes([op.argv[1] for op in probes]) if probes else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    accurate, failed_ops, messages = evaluate(ops, batches, golden)
    for message in messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    attempted = len(ops) * len(batches)
    failed = len(failed_ops) * len(batches)
    probe_failed = sum(1 for code in probe_exits if code != 0)
    share_failed = (len(failed_ops) + probe_failed) / (len(ops) + len(probes))

    plain = [b for b in batches if b["tracer"] is None]
    traced = [b for b in batches if b["tracer"] is not None]
    # Each op's latency is its median over the untraced batches, and the
    # batch time is the sum of those medians: a slow spell of the shared
    # machine during one batch then moves neither.
    def per_op(column):
        return [statistics.median(b["results"][i][column] for b in plain) for i in range(len(ops))]

    raw, latencies = per_op(1), per_op(3)
    wall_s = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    info = {
        "provenance": provenance(args.workload, args.seed),
        "ops": len(ops),
        "batches": len(plain),
        "traced_batches": len(traced),
        "raw": {
            "setup_s": statistics.median(s[0] for s in setups),
            "wall_s": sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw)[0] * 1e3,
            "batch_walls_s": [b["wall"] for b in batches],
        },
        "calibration_reference_s": calibrate.REFERENCE_S,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(latencies),
        "accurate_estimates_per_batch": accurate,
        "failed_share": share_failed,
        "limit_probe": {
            "ops": len(probes),
            "failed": probe_failed,
            "exits": {op.name: code for op, code in zip(probes, probe_exits)},
        },
    }
    if args.trace:
        overhead = (
            statistics.median(b["wall"] for b in traced)
            / statistics.median(b["wall"] for b in plain) - 1.0
        )
        per_batch = [layer_metrics(b["tracer"], ops, b["results"]) for b in traced]
        values = {k: statistics.median(m[k] for m in per_batch) for k in per_batch[0]}
        values["setup.import_s"] = statistics.median(s[2]["import_s"] for s in setups)
        values["trace_overhead_share"] = overhead
    else:
        values = {
            "setup_s": statistics.median(s[1] for s in setups),
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "s_per_accurate_estimate": wall_s / max(accurate, 1),
            "peak_rss_mb": peak_rss_mb,
            "ok_share": 1.0 - share_failed,
        }
    units = declared_units(args.trace)
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} are not both declared and measured")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed_ops,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
