"""Workload generators: the batch of CLI operations each workload runs.

A workload seed fixes every random input (waveplate angles, phases
through the per-op ``--seed``, noise levels); the shape of a batch (how
many ops of which size) does not depend on the seed, so the work per
batch is the same for every seed and timings can be compared across
seeds.  The program only ever sees argv and config files.

Counters that the benchmark computes from these inputs rather than
reading from the program (``computed_counters`` below) are labelled as
such in BENCHMARK.json by their unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MC_BITS = (3, 4, 5)
IPEA_BITS = tuple(range(3, 9))
EXACT_BITS = tuple(range(3, 17))
QPE_FULL_BITS = tuple(range(2, 11))
COLLAPSE_BITS = tuple(range(1, 11))
PROBE_BITS = tuple(range(11, 17))

# A dyadic angle step of 180 / 2**16 degrees keeps every generated angle
# exactly representable, so a dyadic phase stays dyadic in the config.
ANGLE_GRID = 1 << 16


@dataclass
class Op:
    """One CLI invocation and what its checker needs to know."""

    name: str
    kind: str
    argv: list[str]
    config: str | None = None
    params: dict = field(default_factory=dict)


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 32)


def _grid_angle(rng: random.Random) -> float:
    return 180.0 * rng.randrange(ANGLE_GRID) / ANGLE_GRID


def eigenphase_r(theta1: float, theta2: float) -> float:
    """Eigenphase of R for hwp(theta1) then hwp(theta2), in turns.

    Two half waveplates compose to a rotation by 2*(theta2 - theta1),
    whose right-circular eigenvalue is exp(-2i*(theta2 - theta1)).
    """
    return (-(theta2 - theta1) / 180.0) % 1.0


def _montecarlo(rng, provider, m, trials, reps, tag) -> Op:
    seed = _seed(rng)
    argv = [
        "montecarlo", "--bits", str(m), "--trials", str(trials),
        "--provider", provider, "--reps", str(reps), "--seed", str(seed),
    ]
    return Op(f"mc-{provider}-m{m}-r{reps}-{tag}", "montecarlo", argv,
              params={"m": m, "trials": trials, "reps": reps, "provider": provider})


def _ipea(rng, provider, bits, reps, trials, tag) -> Op:
    theta1 = rng.uniform(0.0, 180.0)
    theta2 = rng.uniform(0.0, 180.0)
    text = (
        "mode ipea\n"
        f"unitary hwp {theta1!r} hwp {theta2!r}\n"
        f"bits {bits}\nreps {reps}\ntrials {trials}\nseed {_seed(rng)}\n"
        f"provider {provider}\neigenstate R\n"
    )
    return Op(f"ipea-{provider}-b{bits}-r{reps}-{tag}", "ipea", [], text,
              {"bits": bits, "reps": reps, "trials": trials, "provider": provider,
               "phi": eigenphase_r(theta1, theta2)})


def _exact(rng, provider, bits) -> Op:
    # theta2 - theta1 = 180 * j / 2**bits makes the R eigenphase the
    # dyadic fraction (2**bits - j) / 2**bits, which exact mode must hit.
    theta1 = _grid_angle(rng)
    j = rng.randrange(1 << bits)
    theta2 = theta1 + 180.0 * j / (1 << bits)
    value = (-j) % (1 << bits)
    text = (
        "mode ipea\n"
        f"unitary hwp {theta1!r} hwp {theta2!r}\n"
        f"bits {bits}\ntrials 0\nprovider {provider}\neigenstate R\n"
    )
    return Op(f"exact-{provider}-b{bits}", "exact", [], text,
              {"bits": bits, "provider": provider,
               "expect_bits": format(value, f"0{bits}b")})


def _qpe_full(rng, bits, tag) -> Op:
    theta1 = rng.uniform(0.0, 180.0)
    theta2 = rng.uniform(0.0, 180.0)
    text = (
        "mode qpe_full\n"
        f"unitary hwp {theta1!r} hwp {theta2!r}\nbits {bits}\neigenstate R\n"
    )
    return Op(f"qpe_full-b{bits}-{tag}", "qpe_full", [], text,
              {"bits": bits, "phi": eigenphase_r(theta1, theta2)})


def _collapse(rng, bits, trials, noisy, tag) -> Op:
    theta1 = rng.uniform(0.0, 180.0)
    theta2 = rng.uniform(0.0, 180.0)
    text = (
        "mode collapse\n"
        f"unitary hwp {theta1!r} hwp {theta2!r}\n"
        f"bits {bits}\ntrials {trials}\nseed {_seed(rng)}\neigenstate H\n"
    )
    if noisy:
        text += f"noise {rng.uniform(0.8, 1.0)!r} {rng.uniform(0.0, 0.5)!r}\n"
    kind = "noisy" if noisy else "pure"
    return Op(f"collapse-{kind}-b{bits}-{tag}", "collapse", [], text,
              {"bits": bits, "trials": trials, "noisy": noisy})


def _fig5(rng, shots, noise, tag) -> Op:
    argv = ["fig5", "--seed", str(_seed(rng))]
    if shots is not None:
        argv += ["--shots", str(shots)]
    if not noise:
        argv.append("--no-noise")
    name = f"fig5-shots{'default' if shots is None else shots}-{'noisy' if noise else 'ideal'}-{tag}"
    return Op(name, "fig5", argv,
              params={"shots": 100000 if shots is None else shots, "noise": noise})


def _ipea_ops(rng, provider) -> list[Op]:
    ops = []
    matrix = provider == "matrix"
    for m in MC_BITS:
        for chunk in range(7):
            # The matrix workload alternates the C2 shape (reps 1, many
            # trials) with majority-voted chunks.
            if matrix and chunk % 2 == 0:
                ops.append(_montecarlo(rng, provider, m, 40, 1, chunk))
            else:
                ops.append(_montecarlo(rng, provider, m, 10, 11, chunk))
    for bits in IPEA_BITS:
        for copy in range(4):
            reps = 1 if matrix and copy % 2 == 0 else 11
            ops.append(_ipea(rng, provider, bits, reps, 1, copy))
    for bits in EXACT_BITS:
        ops.append(_exact(rng, provider, bits))
    fig4 = ["fig4"] if not matrix else ["fig4", "--provider", "matrix"]
    ops.append(Op(f"fig4-{provider}", "fig4", fig4, params={"provider": provider}))
    return ops


def _register_ops(rng) -> list[Op]:
    # Copies per size put the tail (the eleventh slowest op) in the middle
    # of the bits-10 qpe_full tables, and the median in the middle of the
    # bits-8 ones, each a group of ops of one size, rather than between
    # two sizes.
    copies = {2: 2, 3: 2, 4: 2, 5: 2, 8: 6, 9: 4, 10: 12}
    ops = []
    for bits in QPE_FULL_BITS:
        for copy in range(copies.get(bits, 1)):
            ops.append(_qpe_full(rng, bits, copy))
    for bits in COLLAPSE_BITS:
        for noisy in (False, True):
            ops.append(_collapse(rng, bits, 1 if bits == 10 else 2, noisy, 0))
    ops += [_fig5(rng, None, True, copy) for copy in range(2)]
    ops.append(_fig5(rng, 0, True, 0))
    ops.append(_fig5(rng, 0, False, 0))
    return ops


def probe_ops(seed: int) -> list[Op]:
    """Register sizes the parser accepts but the seed commit refuses."""
    rng = random.Random(f"probe-{seed}")
    ops = [_qpe_full(rng, bits, "probe") for bits in PROBE_BITS]
    ops += [_collapse(rng, bits, 1, False, "probe") for bits in PROBE_BITS]
    return ops


WORKLOADS = {
    "ipea_photonic": lambda rng: _ipea_ops(rng, "photonic"),
    "ipea_matrix": lambda rng: _ipea_ops(rng, "matrix"),
    "register": _register_ops,
}


def make_batch(workload: str, seed: int) -> list[Op]:
    # The order is fixed: it decides the allocator's history and with it
    # the peak resident memory.
    return WORKLOADS[workload](random.Random(f"{workload}-{seed}"))


def computed_counters(ops: list[Op]) -> dict[str, float]:
    """Work counters derived from the generated inputs alone.

    * ``photonics.cascade_matmuls``: the blue-rail cascade multiplies by
      U once per copy, 2**(k-1) copies in round k, so a photonic
      ipea_run of m bits at r reps costs r * (2**m - 1) and an exact run
      2**m - 1.
    * ``qpe.ipea_rounds``: sum of m over ipea_run calls.
    * ``qpe.fourier_entries``: the dense inverse Fourier matrix has 4**m
      entries and is built once per qpe_full table, once per collapse
      trial and once per fig5 panel (m = 1); ``qpe.fourier_bytes`` is
      16 bytes per complex entry.
    * ``qpe.collapse_blocks_used_ratio``: the mixed collapse path builds
      2**m conditional blocks per trial and uses one.
    """
    matmuls = rounds = entries = 0
    blocks_built = blocks_used = 0
    for op in ops:
        p = op.params
        if op.kind == "montecarlo":
            passes = (1,) if p["reps"] == 1 else (1, p["reps"])
            runs = p["trials"] * len(passes)
            rounds += runs * p["m"]
            if p["provider"] == "photonic":
                matmuls += p["trials"] * sum(passes) * ((1 << p["m"]) - 1)
        elif op.kind == "ipea":
            rounds += p["trials"] * p["bits"]
            if p["provider"] == "photonic":
                matmuls += p["trials"] * p["reps"] * ((1 << p["bits"]) - 1)
        elif op.kind == "exact":
            if p["provider"] == "photonic":
                matmuls += (1 << p["bits"]) - 1
        elif op.kind == "fig4":
            rounds += 12 * 3
            if p["provider"] == "photonic":
                matmuls += 12 * 11 * ((1 << 3) - 1)
        elif op.kind == "qpe_full":
            entries += 4 ** p["bits"]
        elif op.kind == "collapse":
            entries += p["trials"] * 4 ** p["bits"]
            if p["noisy"]:
                blocks_built += p["trials"] << p["bits"]
                blocks_used += p["trials"]
        elif op.kind == "fig5":
            entries += 9 * 4
    return {
        "photonics.cascade_matmuls": float(matmuls),
        "qpe.ipea_rounds": float(rounds),
        "qpe.fourier_entries": float(entries),
        "qpe.fourier_bytes": float(16 * entries),
        "qpe.collapse_blocks_used_ratio": blocks_used / blocks_built if blocks_built else 0.0,
    }
