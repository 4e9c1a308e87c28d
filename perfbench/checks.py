"""Correctness oracles for the CLI output of every benchmark op.

Each checker parses one op's CSV output, raises ``CheckError`` on the
first property it violates, and returns the number of estimates in the
output that lie within 2**-m of the true phase.  The phases come from
the generated inputs, not from the program.
"""

from __future__ import annotations

from pathlib import Path

IPEA_HEADER = "trial,bits,phi_est,phi_oracle,circ_error,p_branch_frac,success"
MC_HEADER = "m,trials,reps_per_bit,successes,success_rate,wilson_low,wilson_high"
FIG4_HEADER = "theta1_deg,theta2_deg,phi_oracle,bits,phi_est,circ_error,p_branch_frac,success"
FIG5_HEADER = "panel,hwp_deg,input_state,outcome,outcome_prob,fidelity,fidelity_std,shots_per_basis"
QPE_FULL_HEADER = "bits,probability"
COLLAPSE_HEADER = "trial,bits,phi_est,outcome_probability"

# The C2 acceptance floor for single-shot success.
SINGLE_SHOT_FLOOR = 0.80
# Printed floats carry 12 significant digits.
PRINT_TOL = 1e-9


class CheckError(AssertionError):
    """An op's output violates one of its correctness properties."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _rows(text: str, header: str, count: int) -> list[list[str]]:
    _require(text.endswith("\n"), "output does not end with a newline")
    lines = text[:-1].split("\n")
    _require(lines[0] == header, f"header {lines[0]!r} != {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) == count, f"{len(rows)} rows, expected {count}")
    width = header.count(",") + 1
    _require(all(len(r) == width for r in rows), "ragged row")
    return rows


def circular(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _bits_value(bits: str, m: int) -> float:
    _require(len(bits) == m and set(bits) <= {"0", "1"}, f"bad bit string {bits!r}")
    return int(bits, 2) / (1 << m)


def _estimate(bits: str, phi_est: str, m: int) -> float:
    value = _bits_value(bits, m)
    _require(abs(float(phi_est) - value) <= PRINT_TOL, f"phi_est {phi_est} != 0.{bits}")
    return value


def check_montecarlo(text: str, p: dict, tally: dict) -> int:
    passes = (1,) if p["reps"] == 1 else (1, p["reps"])
    rows = _rows(text, MC_HEADER, len(passes))
    accurate = 0
    for row, reps in zip(rows, passes):
        m, trials, reps_out, successes = (int(v) for v in row[:4])
        rate, low, high = (float(v) for v in row[4:])
        _require((m, trials, reps_out) == (p["m"], p["trials"], reps), f"row {row}")
        _require(0 <= successes <= trials, f"successes {successes} of {trials}")
        _require(abs(rate - successes / trials) <= PRINT_TOL, f"rate {rate}")
        _require(0.0 <= low <= rate <= high <= 1.0, f"wilson ({low}, {high}) vs {rate}")
        key = "single" if reps == 1 else "majority"
        tally[key][0] += successes
        tally[key][1] += trials
        accurate += successes
    return accurate


def check_success_tally(tally: dict) -> None:
    """Aggregate single-shot rate meets the C2 floor; voting is no worse."""
    s_ok, s_n = tally["single"]
    v_ok, v_n = tally["majority"]
    if s_n:
        _require(s_ok / s_n >= SINGLE_SHOT_FLOOR,
                 f"single-shot success {s_ok}/{s_n} below {SINGLE_SHOT_FLOOR}")
    if s_n and v_n:
        _require(v_ok / v_n >= s_ok / s_n,
                 f"majority success {v_ok}/{v_n} below single shot {s_ok}/{s_n}")


def _check_ipea_row(row: list[str], m: int, phi: float, provider: str) -> bool:
    value = _estimate(row[1], row[2], m)
    oracle, error = float(row[3]), float(row[4])
    _require(circular(oracle, phi) <= PRINT_TOL, f"oracle {oracle} != {phi}")
    _require(abs(error - circular(value, phi)) <= PRINT_TOL, f"circ_error {error}")
    if provider == "photonic":
        _require(0.0 <= float(row[5]) <= 1.0, f"p_branch_frac {row[5]}")
    else:
        _require(row[5] == "", f"matrix run reports p_branch_frac {row[5]!r}")
    accurate = circular(value, phi) <= 2.0**-m
    if abs(circular(value, phi) - 2.0**-m) > PRINT_TOL:
        _require(row[6] == ("1" if accurate else "0"), f"success flag {row[6]}")
    return accurate


def check_ipea(text: str, p: dict) -> int:
    rows = _rows(text, IPEA_HEADER, p["trials"])
    accurate = 0
    for trial, row in enumerate(rows):
        _require(row[0] == str(trial), f"trial index {row[0]}")
        accurate += _check_ipea_row(row, p["bits"], p["phi"], p["provider"])
    return accurate


def check_exact(text: str, p: dict) -> int:
    (row,) = _rows(text, IPEA_HEADER, 1)
    _require(row[1] == p["expect_bits"],
             f"exact mode read {row[1]} for dyadic phase 0.{p['expect_bits']}")
    _require(row[5] == "" and row[6] == "1", f"row {row}")
    _require(float(row[4]) <= PRINT_TOL, f"circ_error {row[4]} on a dyadic phase")
    return 1


def check_fig4(text: str, p: dict, golden: str) -> int:
    if p["provider"] == "photonic":
        _require(text == golden, "fig4 differs from tests/data/fig4_golden.csv")
    rows = _rows(text, FIG4_HEADER, 12)
    golden_rows = _rows(golden, FIG4_HEADER, 12)
    accurate = 0
    for row, ref in zip(rows, golden_rows):
        _require(row[:3] == ref[:3], f"sweep row {row[:3]} != {ref[:3]}")
        value = _estimate(row[3], row[4], 3)
        error = circular(value, float(row[2]))
        _require(abs(float(row[5]) - error) <= PRINT_TOL, f"circ_error {row[5]}")
        if p["provider"] == "matrix":
            _require(row[6] == "", f"matrix run reports p_branch_frac {row[6]!r}")
        _require(row[7] == ("1" if error < 2.0**-4 else "0"), f"success flag {row[7]}")
        accurate += error <= 2.0**-3
    return accurate


def check_qpe_full(text: str, p: dict) -> int:
    m = p["bits"]
    rows = _rows(text, QPE_FULL_HEADER, 1 << m)
    probs = []
    for x, (bits, prob) in enumerate(rows):
        _require(bits == format(x, f"0{m}b"), f"row {x} labelled {bits}")
        probs.append(float(prob))
        _require(probs[-1] >= 0.0, f"negative probability {prob}")
    _require(abs(sum(probs) - 1.0) <= 1e-9, f"probabilities sum to {sum(probs)!r}")
    # For an eigenstate input the most likely register value is the grid
    # point nearest the phase.
    best = max(range(len(probs)), key=probs.__getitem__)
    _require(circular(best / (1 << m), p["phi"]) <= 2.0**-m,
             f"most likely value {best} misses phase {p['phi']}")
    return 1


def check_collapse(text: str, p: dict) -> int:
    rows = _rows(text, COLLAPSE_HEADER, p["trials"])
    for trial, row in enumerate(rows):
        _require(row[0] == str(trial), f"trial index {row[0]}")
        _estimate(row[1], row[2], p["bits"])
        prob = float(row[3])
        _require(0.0 < prob <= 1.0, f"outcome_probability {prob}")
    return 0


def check_fig5(text: str, p: dict) -> int:
    rows = _rows(text, FIG5_HEADER, 9)
    for label, row in zip("abcdefghi", rows):
        _require(row[0] == label, f"panel {row[0]}")
        prob, fid, std = float(row[4]), float(row[5]), float(row[6])
        _require(0.0 < prob <= 1.0, f"outcome_prob {prob}")
        _require(0.0 <= fid <= 1.0, f"fidelity {fid}")
        _require(std >= 0.0, f"fidelity_std {std}")
        _require(int(row[7]) == p["shots"], f"shots_per_basis {row[7]}")
        if not p["noise"] and p["shots"] == 0:
            _require(abs(fid - 1.0) <= 1e-9, f"noiseless exact fidelity {fid}")
    return 0


def load_golden(root: Path) -> str:
    return (root / "tests" / "data" / "fig4_golden.csv").read_text(encoding="utf-8")


def check_op(op, text: str, golden: str, tally: dict) -> int:
    """Check one op's output; return its count of accurate estimates."""
    if op.kind == "montecarlo":
        return check_montecarlo(text, op.params, tally)
    if op.kind == "ipea":
        return check_ipea(text, op.params)
    if op.kind == "exact":
        return check_exact(text, op.params)
    if op.kind == "fig4":
        return check_fig4(text, op.params, golden)
    if op.kind == "qpe_full":
        return check_qpe_full(text, op.params)
    if op.kind == "collapse":
        return check_collapse(text, op.params)
    if op.kind == "fig5":
        return check_fig5(text, op.params)
    raise CheckError(f"no checker for op kind {op.kind!r}")
