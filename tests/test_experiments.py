"""Study-level checks: sweeps, panels, precision bound, table output."""

import json
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import haar_unitary, random_state, reference_emit, table_rows
from ipea_sim import experiments, qmath, qpe
from ipea_sim.config import parse_experiment
from ipea_sim.experiments import (
    FIG4_FIELDS,
    Columns,
    FIG5_FIELDS,
    QPE_FULL_FIELDS,
    PanelResult,
    RunRecord,
    emit,
    run_config,
    run_fig4,
    run_fig5,
    run_montecarlo,
    wilson_interval,
)
from ipea_sim.qmath import ContractError, DensityMatrix, TrialStreams, derive_rng
from ipea_sim.qpe import EigenproblemSpec, PhaseEstimate
from ipea_sim.tomography import ReconstructionReport

# frozen from cos^2(pi * 0.625) / sin^2(pi * 0.625): the conditional
# probabilities of the 67.5-degree panels
COS2_675 = 0.1464466094067262
SIN2_675 = 0.8535533905932737


class TestWilson:
    def test_known_interval(self):
        # hand-derived: center (p + z^2/2n)/(1 + z^2/n) = 0.80988, half
        # width 0.00769 at p-hat = 0.81, n = 10^4, z = 1.96
        low, high = wilson_interval(8100, 10000)
        assert low == pytest.approx(0.80219, abs=1e-4)
        assert high == pytest.approx(0.81757, abs=1e-4)

    def test_degenerate_counts(self):
        low, _ = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        _, high = wilson_interval(50, 50)
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ContractError):
            wilson_interval(1, 0)
        with pytest.raises(ContractError):
            wilson_interval(5, 4)


class TestFig4:
    def test_exact_mode_rows(self):
        records = run_fig4(exact=True)
        assert len(records) == 12
        first = records[0]
        assert first.theta2_deg == 0.0
        assert first.bits == "000"
        assert first.circ_error == 0.0
        by_angle = {r.theta2_deg: r for r in records}
        assert by_angle[45.0].phi_oracle == pytest.approx(0.75, abs=1e-12)
        assert by_angle[45.0].bits == "110"

    def test_exact_mode_provider_equivalence(self):
        bits_m = [r.bits for r in run_fig4(exact=True, provider="matrix")]
        bits_p = [r.bits for r in run_fig4(exact=True, provider="photonic")]
        assert bits_m == bits_p

    def test_sampled_default_seed_all_pass(self):
        records = run_fig4()
        assert all(r.success for r in records)
        assert all(r.circ_error < 2.0 ** -4 for r in records)

    def test_sampled_reports_branch_fraction(self):
        records = run_fig4()
        for r in records:
            assert 0.0 < r.p_branch_frac < 1.0

    @pytest.mark.parametrize("provider", ["matrix", "photonic"])
    def test_exact_sweep_runs_as_one_batch(self, provider, monkeypatch):
        # The twelve exact runs are one batch: the provider builds every
        # unitary's rounds in one call, as the sampled sweep's do.
        calls = {"rounds": 0}
        cls = type(qpe.resolve_provider(provider))

        def counted(self, *args, _call=cls.rounds):
            calls["rounds"] += 1
            assert len(args[0]) == 12
            return _call(self, *args)

        monkeypatch.setattr(cls, "rounds", counted)
        run_fig4(provider=provider, exact=True)
        assert calls == {"rounds": 1}

    def test_exact_mode_has_no_branch_fraction(self):
        records = run_fig4(exact=True)
        assert all(r.p_branch_frac is None for r in records)

    def test_deterministic_under_seed(self):
        a = emit(run_fig4(seed=3), "csv", fields=FIG4_FIELDS)
        b = emit(run_fig4(seed=3), "csv", fields=FIG4_FIELDS)
        assert a == b


class Unlabeled:
    """The photonic provider with its branches labeled neither P nor Q."""

    def rounds(self, unitaries, target, m):
        states, weight, labels = qpe.resolve_provider("photonic").rounds(unitaries, target, m)
        return states, weight, ("X",) * len(labels)


@pytest.mark.parametrize("provider", ["matrix", "photonic", Unlabeled()],
                         ids=["matrix", "photonic", "unlabeled"])
def test_branch_share_is_p_picks_over_every_repetition(provider):
    # A branched provider picks a branch for each of a trial's m x reps
    # repetitions; the share is the P picks over those (0.0 with no P
    # branch), and None for every trial of the unbranched matrix provider.
    m, reps, trials = 3, 5, 6
    rng = derive_rng(4)
    stack = np.stack([haar_unitary(2, rng).matrix for _ in range(trials)])
    target = random_state(1, rng)
    _, _, shares = experiments._estimates(stack, target, m, reps, provider, 5, trials)
    tally = qpe.ipea_batch(
        stack, target, m, reps, provider, TrialStreams(5, (), range(trials))
    ).branch_tally
    if provider == "matrix":
        assert tally == {} and shares == [None] * trials
        return
    assert sum(tally.values()).tolist() == [m * reps] * trials
    p = tally.get("P", np.zeros(trials, dtype=int)).tolist()
    assert shares == [a / (m * reps) for a in p]
    assert all(type(share) is float for share in shares)
    if provider == "photonic":  # every pick is P or Q
        assert shares == [a / (a + b) for a, b in zip(p, tally["Q"].tolist())]


class TestFig5:
    def test_noiseless_exact_panels(self):
        panels = run_fig5(shots=0, noise=None)
        assert [p.panel for p in panels] == list("abcdefghi")
        for p in panels:
            assert p.report.fidelity_vs_ideal == pytest.approx(1.0, abs=1e-9)
            assert p.report.fidelity_std == 0.0
            assert p.report.shots_per_basis == 0

    def test_noiseless_outcome_probabilities(self):
        panels = {(p.input_state, p.outcome, p.hwp_deg): p for p in run_fig5(shots=0, noise=None)}
        assert panels[("H", 0, 30.0)].outcome_prob == pytest.approx(0.75, abs=1e-12)
        assert panels[("H", 0, 45.0)].outcome_prob == pytest.approx(0.5, abs=1e-12)
        assert panels[("H", 0, 67.5)].outcome_prob == pytest.approx(COS2_675, abs=1e-12)
        assert panels[("H", 1, 67.5)].outcome_prob == pytest.approx(SIN2_675, abs=1e-12)

    def test_default_noise_keeps_panels_above_bound(self):
        panels = run_fig5(shots=0)
        for p in panels:
            assert p.report.fidelity_vs_ideal >= 0.84

    def test_sampled_panels_report_spread(self):
        panels = run_fig5(shots=2000, resamples=40)
        for p in panels:
            assert p.report.shots_per_basis == 2000
            assert p.report.fidelity_std > 0.0

    def test_rejects_negative_shots(self):
        with pytest.raises(ContractError):
            run_fig5(shots=-1)

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_rejects_fewer_than_one_resample(self, resamples):
        # refused where the bootstrap runs
        with pytest.raises(ContractError, match=f"resamples must be >= 1, got {resamples}"):
            run_fig5(shots=100, resamples=resamples)

    def test_a_panel_that_never_fires_is_refused(self, monkeypatch):
        # At 0 degrees H and V are the plate's eigenstates, so H never reads
        # outcome 1 and V never reads 0; the first such panel is named, its
        # label printed as a plain str.
        monkeypatch.setattr(experiments, "_FIG5_ANGLES", (0.0,))
        with pytest.raises(ContractError) as refused:
            run_fig5(noise=None, shots=0)
        assert str(refused.value) == "panel input 'H' never yields outcome 1"

    def test_each_stage_is_checked_once(self, monkeypatch):
        # The nine panels run as stacks: one register readout of the nine
        # input rows.  The Jones matrices, collapsed targets and bootstrap
        # resamples are built unitary and physical, so only the nine
        # report states are checked.
        calls = dict.fromkeys(("check_density", "check_unitary", "_register_readout"), 0)
        for module, name in ((qmath, "check_density"), (qmath, "check_unitary"),
                             (qpe, "_register_readout")):

            def counted(*args, _call=getattr(module, name), _name=name):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(module, name, counted)
        panels = run_fig5()
        assert calls == {"check_density": len(panels), "check_unitary": 0,
                         "_register_readout": 1}


class TestMontecarlo:
    def test_dyadic_grid_is_exact(self):
        rows = run_montecarlo(m=3, trials=60, provider="matrix", dyadic=True)
        for row in rows:
            assert row["success_rate"] == 1.0

    def test_single_rep_pass_collapses(self):
        rows = run_montecarlo(m=2, trials=30, provider="matrix", reps=1)
        assert len(rows) == 1
        assert rows[0]["reps_per_bit"] == 1

    def test_majority_does_not_hurt(self):
        rows = run_montecarlo(m=3, trials=300, provider="matrix", reps=11)
        assert len(rows) == 2
        single, majority = rows
        assert majority["success_rate"] >= single["success_rate"] - 0.02

    def test_each_trial_keys_its_stream_once_per_pass(self, monkeypatch):
        # A reps-11 trial reads a phase word and then 2 * 5 * 11 uniforms at
        # m = 5.  Each stream states its length, so every (pass, trial) key
        # is set exactly once, in one refill, and the rows do not move.
        want = run_montecarlo(m=5, trials=20, seed=3, provider="photonic", reps=11)
        keyed = []
        refill = TrialStreams._refill

        def counting(streams, size):
            keyed.extend(map(tuple, streams.keys.tolist()))
            return refill(streams, size)

        monkeypatch.setattr(TrialStreams, "_refill", counting)
        assert run_montecarlo(m=5, trials=20, seed=3, provider="photonic", reps=11) == want
        keys = [qmath._spawn_keys(3, (stream,), range(20)).tolist() for stream in (0, 1)]
        assert sorted(keyed) == sorted(map(tuple, keys[0] + keys[1]))

    @pytest.mark.parametrize("provider", ["matrix", "photonic"])
    def test_both_passes_share_one_engine_run_per_chunk(self, monkeypatch, provider):
        # A bound of 144 uniforms a round makes chunks of 144 // (2 * (1 + 11))
        # = 6 trials, so 20 trials run as 6 + 6 + 6 + 2: one provider call a
        # chunk on pass 0's rows and then pass 1's, and no unitarity check
        # of a stack built unitary.  Each pass keeps the stack and the row
        # of a separate single-pass batch over all its trials.
        monkeypatch.setattr(qpe, "MAX_ROUND_UNIFORMS", 144)
        inner = qpe.resolve_provider(provider)
        seen, checked = [], []

        class Recording:
            def rounds(self, stack, target, m):
                seen.append(stack.copy())
                return inner.rounds(stack, target, m)

        check = qmath.check_unitary
        monkeypatch.setattr(qmath, "check_unitary", lambda *args: checked.append(args) or check(*args))
        m, trials, seed = 4, 20, 9
        rows = run_montecarlo(m=m, trials=trials, seed=seed, provider=Recording(), reps=11)
        assert [len(stack) for stack in seen] == [12, 12, 12, 4]
        assert checked == []
        for stream, (reps, row) in enumerate(zip((1, 11), rows)):
            draws = TrialStreams(seed, (stream,), range(trials))
            phis = draws.uniforms(1)[:, 0]
            stack = np.zeros((trials, 2, 2), dtype=complex)
            stack[:, 0, 0] = 1.0
            stack[:, 1, 1] = np.exp(2j * np.pi * phis)
            halves = [rows_seen.reshape(2, -1, 2, 2)[stream] for rows_seen in seen]
            assert np.array_equal(np.concatenate(halves), stack)
            batch = qpe.ipea_batch(stack, qmath.basis_state(1, 1), m, reps, inner, draws)
            errors = qpe.circular_distance(batch.numerators / (1 << m), phis)
            successes = sum(error <= 2.0**-m for error in errors)
            cells = (m, trials, reps, successes, successes / trials,
                     *wilson_interval(successes, trials))
            assert row == dict(zip(experiments.MONTECARLO_FIELDS, cells))

    def test_interval_brackets_rate(self):
        rows = run_montecarlo(m=3, trials=100, provider="matrix")
        for row in rows:
            assert row["wilson_low"] <= row["success_rate"] <= row["wilson_high"]

    def test_rejects_zero_trials(self):
        # wilson_interval's refusal, the one check of a trial count
        with pytest.raises(ContractError, match="trials must be >= 1, got 0"):
            run_montecarlo(trials=0)

    def test_matrix_run_past_the_bits_limit_is_refused_on_entry(self):
        # refused by the engine's bits limit, not by a norm check after
        # 20 squarings of each trial's unitary
        with pytest.raises(ContractError, match="m must lie in 1..16, got 21$"):
            run_montecarlo(m=21, trials=2000, provider="matrix", reps=1, seed=3)

    @pytest.mark.parametrize("dyadic", [False, True])
    @pytest.mark.parametrize("m", [0, 17, 64])
    def test_m_outside_the_bits_limit_is_refused_before_any_draw(self, monkeypatch, m, dyadic):
        monkeypatch.setattr(experiments, "TrialStreams", None)  # a draw would raise TypeError
        with pytest.raises(ContractError, match=f"^bit count m must lie in 1..16, got {m}$"):
            run_montecarlo(m=m, trials=20, provider="matrix", dyadic=dyadic)

    @pytest.mark.parametrize("reps, refusal", [(4, "odd"), (32769, "in 1..32767, got 32769$")])
    def test_reps_the_engine_refuses_are_refused_before_any_draw(self, monkeypatch, reps, refusal):
        # an even count before the reps-1 pass runs; one past qpe.MAX_REPS at all
        monkeypatch.setattr(experiments, "TrialStreams", None)
        with pytest.raises(ContractError, match=refusal):
            run_montecarlo(m=2, trials=3, provider="photonic", reps=reps)

    def test_numpy_integer_counts_print_as_ints(self):
        rows = run_montecarlo(m=np.int64(3), trials=np.int64(20), reps=np.int64(3))
        assert rows == run_montecarlo(m=3, trials=20, reps=3)
        assert emit(rows, fields=experiments.MONTECARLO_FIELDS) == emit(
            run_montecarlo(m=3, trials=20, reps=3), fields=experiments.MONTECARLO_FIELDS
        )

    @pytest.mark.parametrize("count", ["m", "trials", "reps"])
    def test_non_integer_count_is_refused(self, count):
        with pytest.raises(ContractError, match=f"{count} must be an integer, got 3.0"):
            run_montecarlo(**{"m": 2, "trials": 20, "reps": 3, count: 3.0})


def _config_run(text: str):
    return lambda: run_config(parse_experiment(text))


def _montecarlo_run(provider: str):
    return lambda: run_montecarlo(m=8, trials=20, seed=3, provider=provider, reps=11)


# Each caller's run, its seed, and the trials of each stream it draws from
# with the words it reads from each of them a trial.
_READS = {
    "collapse": (_config_run("mode collapse\nunitary hwp 30\ntrials 3\nseed 4\n"),
                 4, {(): (3, 1)}),
    "ipea-photonic": (_config_run("mode ipea\nunitary hwp 0 hwp 30\nbits 3\nreps 1\ntrials 1\n"
                                  "seed 4\nprovider photonic\n"), 4, {(): (1, 6)}),
    "ipea-matrix": (_config_run("mode ipea\nunitary hwp 0 hwp 30\nbits 5\nreps 5\ntrials 25\n"
                                "seed 4\nprovider matrix\n"), 4, {(): (25, 25)}),
    "fig4-photonic": (lambda: run_fig4(seed=3, provider="photonic"), 3, {(): (12, 66)}),
    "fig4-matrix": (lambda: run_fig4(seed=3, provider="matrix"), 3, {(): (12, 33)}),
    "montecarlo-photonic": (_montecarlo_run("photonic"), 3,
                            {(0,): (20, 1 + 16), (1,): (20, 1 + 176)}),
    "montecarlo-matrix": (_montecarlo_run("matrix"), 3, {(0,): (20, 1 + 8), (1,): (20, 1 + 88)}),
}


@pytest.mark.parametrize("case", list(_READS))
def test_each_stream_refills_what_its_caller_reads(monkeypatch, case):
    # A counting _refill sees every trial's key set once per stream (once
    # per pass for the Monte Carlo study, at reps 11), each time with
    # exactly the words the caller reads from that stream.
    run, seed, reads = _READS[case]
    refills = []
    refill = TrialStreams._refill

    def counting(streams, size):
        refills.extend((tuple(key), size) for key in streams.keys.tolist())
        return refill(streams, size)

    monkeypatch.setattr(TrialStreams, "_refill", counting)
    run()
    want = [(tuple(key), words) for stream, (trials, words) in reads.items()
            for key in qmath._spawn_keys(seed, stream, range(trials)).tolist()]
    assert sorted(refills) == sorted(want)


class TestRunConfig:
    def test_ipea_exact_row(self):
        cfg = parse_experiment("mode ipea\nunitary hwp 0 hwp 45\ntrials 0\n")
        columns, fields = run_config(cfg)
        rows = table_rows(columns, fields)
        assert fields == experiments.IPEA_FIELDS
        assert len(rows) == 1
        assert rows[0]["bits"] == "110"
        assert rows[0]["circ_error"] == pytest.approx(0.0, abs=1e-12)
        assert rows[0]["success"] is True

    def test_ipea_sampled_trials(self):
        cfg = parse_experiment(
            "mode ipea\nunitary hwp 0 hwp 45\ntrials 3\nreps 3\nprovider matrix\n"
        )
        rows = table_rows(*run_config(cfg))
        assert [r["trial"] for r in rows] == [0, 1, 2]

    def test_ipea_degenerate_oracle_leaves_rows_unscored(self):
        # hwp(45) with an |H> selector has no preferred eigenvector
        cfg = parse_experiment(
            "mode ipea\nunitary hwp 45\neigenstate H\ntrials 0\nprovider matrix\n"
        )
        rows = table_rows(*run_config(cfg))
        assert rows[0]["phi_oracle"] is None
        assert rows[0]["circ_error"] is None
        assert rows[0]["success"] is None

    def test_qpe_full_table(self):
        cfg = parse_experiment("mode qpe_full\nunitary hwp 0 hwp 45\nbits 2\n")
        columns, fields = run_config(cfg)
        rows = table_rows(columns, fields)
        assert fields == experiments.QPE_FULL_FIELDS
        assert len(rows) == 4
        table = {r["bits"]: r["probability"] for r in rows}
        assert table["11"] == pytest.approx(1.0, abs=1e-9)
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_collapse_rows(self):
        cfg = parse_experiment(
            "mode collapse\nunitary hwp 30\neigenstate H\ntrials 4\nbits 1\nseed 6\n"
        )
        columns, fields = run_config(cfg)
        rows = table_rows(columns, fields)
        assert fields == experiments.COLLAPSE_FIELDS
        assert len(rows) == 4
        for row in rows:
            assert row["bits"] in ("0", "1")

    @pytest.mark.parametrize("noise", ["", "noise 0.9 0.25\n"], ids=["pure", "noisy"])
    def test_collapse_rows_share_one_readout(self, noise, monkeypatch):
        # One register readout serves every trial, and each trial's row is
        # what collapse_run draws from that trial's own generator.
        cfg = parse_experiment(
            "mode collapse\nunitary hwp 10 hwp 70\neigenstate H\n"
            f"trials 12\nbits 5\nseed 4\n{noise}"
        )
        coherence = None if cfg.noise is None else cfg.noise.distinguishability
        expected = [
            qpe.collapse_run(cfg.unitary(), cfg.input_state(), 5, derive_rng(4, t), coherence)
            for t in range(12)
        ]
        readouts = []
        readout = qpe._register_readout

        def counting_readout(*args):
            readouts.append(args)
            return readout(*args)

        monkeypatch.setattr(qpe, "_register_readout", counting_readout)
        rows = table_rows(*run_config(cfg))
        assert len(readouts) == 1
        assert len({row["bits"] for row in rows}) > 1
        assert rows == [
            {
                "trial": t,
                "bits": res.estimate.as_string(),
                "phi_est": res.estimate.value,
                "outcome_probability": res.outcome_probability,
            }
            for t, res in enumerate(expected)
        ]

    def test_collapse_with_noise_uses_mixed_path(self):
        cfg = parse_experiment(
            "mode collapse\nunitary hwp 30\nnoise 0.9 0\ntrials 2\nbits 1\n"
        )
        rows = table_rows(*run_config(cfg))
        assert len(rows) == 2

    def test_montecarlo_dispatch(self):
        cfg = parse_experiment("mode montecarlo\nbits 2\ntrials 20\nprovider matrix\nreps 3\n")
        rows, fields = run_config(cfg)
        assert fields == experiments.MONTECARLO_FIELDS
        assert rows[0]["trials"] == 20

    def test_seed_override(self):
        cfg = parse_experiment(
            "mode ipea\nunitary hwp 0 hwp 15\ntrials 1\nseed 5\nprovider matrix\n"
        )
        base, _ = run_config(cfg)
        same, _ = run_config(cfg, seed=5)
        assert base == same


class TestEmit:
    def test_csv_header_only_for_empty(self):
        text = emit([], "csv", fields=FIG4_FIELDS)
        assert text == ",".join(FIG4_FIELDS) + "\n"

    @pytest.mark.parametrize("fields", [None, ()])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_table_needs_its_fields(self, fmt, fields):
        # Fields read from a record's vars would print a fig5 table with a
        # report column of multi-line reprs and no fidelity columns.
        panels = run_fig5(shots=0, noise=None)
        with pytest.raises(ContractError, match="needs its fields named"):
            emit(panels, fmt, fields=fields)
        with pytest.raises(ContractError, match="needs its fields named"):
            emit([], fmt, fields=fields)
        lines = emit(panels, "csv", fields=FIG5_FIELDS).splitlines()
        assert len(lines) == 10 and lines[0] == ",".join(FIG5_FIELDS)

    def test_fig4_line_count(self):
        text = emit(run_fig4(exact=True), "csv", fields=FIG4_FIELDS)
        lines = text.splitlines()
        assert len(lines) == 13
        assert lines[0] == "theta1_deg,theta2_deg,phi_oracle,bits,phi_est,circ_error,p_branch_frac,success"

    def test_lf_newlines_only(self):
        text = emit(run_fig4(exact=True), "csv", fields=FIG4_FIELDS)
        assert "\r" not in text

    def test_twelve_significant_digits(self):
        rec = RunRecord(
            theta1_deg=0.0,
            theta2_deg=15.0,
            phi_oracle=1.0 / 3.0,
            bits="011",
            phi_est=0.375,
            circ_error=1.0 / 24.0,
            p_branch_frac=None,
            success=True,
        )
        text = emit([rec], "csv", fields=FIG4_FIELDS)
        row = text.splitlines()[1].split(",")
        assert row[2] == "0.333333333333"
        assert row[5] == "0.0416666666667"
        assert row[6] == ""
        assert row[7] == "1"

    def test_json_mirrors_fields(self):
        records = run_fig4(exact=True)
        payload = json.loads(emit(records, "json", fields=FIG4_FIELDS))
        assert len(payload) == 12
        assert list(payload[0].keys()) == list(FIG4_FIELDS)

    def test_json_csv_round_trip_consistency(self):
        records = run_fig4(exact=True)
        csv_lines = emit(records, "csv", fields=FIG4_FIELDS).splitlines()[1:]
        payload = json.loads(emit(records, "json", fields=FIG4_FIELDS))
        for line, obj in zip(csv_lines, payload):
            cells = line.split(",")
            for cell, field in zip(cells, FIG4_FIELDS):
                value = obj[field]
                if isinstance(value, float):
                    assert float(cell) == pytest.approx(value, abs=1e-9)

    def test_writes_file(self, tmp_path):
        out = tmp_path / "table.csv"
        emit(run_fig4(exact=True), "csv", path=out, fields=FIG4_FIELDS)
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode().splitlines()[0].startswith("theta1_deg")

    def test_rejects_unknown_format(self):
        with pytest.raises(ContractError):
            emit([], "tsv")

    def test_rejects_missing_fields(self):
        with pytest.raises(ContractError):
            emit([{"a": 1}], "csv", fields=("a", "b"))

    @pytest.mark.parametrize(
        "lists, fields",
        [([[1], [2]], None), ([[1], [2]], ("a",)), ([[1], [2]], ("a", "b", "c")),
         ([[1, 2], [3]], ("a", "b"))],
        ids=["no-fields", "too-few-fields", "too-many-fields", "ragged"],
    )
    def test_columns_need_one_field_per_column_of_one_length(self, lists, fields):
        with pytest.raises(ContractError):
            emit(Columns(lists), "csv", fields=fields)


class TestGoldenFile:
    def test_default_seed_matches_frozen_table(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "data" / "fig4_golden.csv"
        text = emit(run_fig4(), "csv", fields=FIG4_FIELDS)
        assert text == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("bits", range(1, 17))
def test_qpe_full_rows_print_as_the_reference_rows(bits):
    # Rows built from the bit string format and probs.tolist() must print,
    # in CSV and JSON, exactly as rows of bits_of digits and float() cells.
    cfg = parse_experiment(f"mode qpe_full\nunitary hwp 10 hwp 70\nbits {bits}\neigenstate H\n")
    probs = qpe.qpe_full_distribution(EigenproblemSpec(cfg.unitary(), cfg.input_state()), bits)
    reference = [
        {"bits": "".join(str(b) for b in qpe.bits_of(x, bits)), "probability": float(p)}
        for x, p in enumerate(probs)
    ]
    rows = experiments._qpe_full_rows(cfg)
    for fmt in ("csv", "json"):
        assert emit(rows, fmt, fields=QPE_FULL_FIELDS) == reference_emit(
            reference, fmt, fields=QPE_FULL_FIELDS
        )


def test_qpe_full_tables_do_not_share_their_bit_strings():
    # Each table's bits column is its own list, so a caller that edits one
    # leaves the next table of that size as it was.
    cfg = parse_experiment("mode qpe_full\nunitary hwp 10 hwp 70\nbits 3\neigenstate H\n")
    bits = experiments._qpe_full_rows(cfg).lists[0]
    expected = list(bits)
    bits[0] = "x"
    bits.append("y")
    assert experiments._qpe_full_rows(cfg).lists[0] == expected


# Every cell type a table can hold; a column's cells share one of them.
_CELLS = {
    "none": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]),
    "str": st.text(max_size=6),
}
_COLUMNS = st.sampled_from(sorted(_CELLS)).map(lambda k: _CELLS[k])
# Cells that no column may hold
_NUMPY_CELLS = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
)


@st.composite
def _tables(draw):
    """(records, fields): dicts, RunRecords, both, PanelResults or no record.

    Some tables lack a field in a record, or hold a record that is
    neither a dict nor a dataclass, so refusals are compared too.
    """
    kind = draw(st.sampled_from(["dict", "run", "mixed", "panel", "empty"]))
    n = draw(st.integers(1, 6))
    if kind == "empty":
        return [], draw(st.none() | st.just(FIG4_FIELDS) | st.just(("a", "b")))
    if kind == "dict":
        names = draw(st.lists(st.text("abxyz_", min_size=1, max_size=4), unique=True, max_size=4))
        columns = {name: draw(_COLUMNS) for name in names}
        records = [{name: draw(cells) for name, cells in columns.items()} for _ in range(n)]
        if names and draw(st.integers(0, 4)) == 0:
            del records[draw(st.integers(0, n - 1))][draw(st.sampled_from(names))]
        fields = draw(st.none() | st.permutations(names) | st.just((*names, "q")))
    elif kind in ("run", "mixed"):
        columns = {name: draw(_COLUMNS) for name in FIG4_FIELDS}
        records = [RunRecord(**{f: draw(cells) for f, cells in columns.items()}) for _ in range(n)]
        if kind == "mixed":
            i = draw(st.integers(0, n - 1))
            records[i] = draw(st.just(vars(records[i]).copy()) | st.just((1, 2)))
        fields = draw(st.none() | st.just(FIG4_FIELDS) | st.just((*FIG4_FIELDS, "q")))
    else:
        report = ReconstructionReport(DensityMatrix(2, np.eye(2) / 2), 0.5, 0.0, 0)
        own = ("panel", "hwp_deg", "input_state", "outcome", "outcome_prob")
        columns = {name: draw(_COLUMNS) for name in own}
        records = [
            PanelResult(report=report, **{f: draw(cells) for f, cells in columns.items()})
            for _ in range(n)
        ]
        fields = draw(st.none() | st.just(FIG5_FIELDS) | st.just(own))
    return records, fields


def _rendered(render, records, fmt, fields):
    try:
        return render(records, fmt, fields=fields)
    except (ContractError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


_ONE_DICT = ([{"a": 1.5, "b": "x", "c": None, "d": 2, "e": True}], ("a", "b", "c", "d", "e"))
_ONE_RUN = ([RunRecord(0.0, 15.0, 0.875, "111", 0.875, 0.0, None, True)], FIG4_FIELDS)


@settings(max_examples=300, deadline=None)
@given(_tables(), st.sampled_from(["csv", "json"]))
# one-record tables, read like any other
@example(_ONE_DICT, "csv")
@example(_ONE_DICT, "json")
@example(_ONE_RUN, "csv")
@example(_ONE_RUN, "json")
# a record that is neither a dict nor a dataclass is refused before an
# earlier record's missing field
@example(([{"a": 1}, (1, 2)], ("a", "b")), "csv")
@example(([{"a": 1}, RunRecord], ("a", "b")), "json")
def test_emit_prints_as_the_row_at_a_time_reference(table, fmt):
    # Column formatting must give the row-at-a-time reference's text: the
    # same bytes, or the same refusal (a missing field, say).
    records, fields = table
    assert _rendered(emit, records, fmt, fields) == _rendered(reference_emit, records, fmt, fields)


@st.composite
def _column_tables(draw):
    """(Columns, fields): 0-4 fields, 0-6 rows, each column's cells of one
    ``_CELLS`` type."""
    n = draw(st.integers(0, 6))
    names = draw(st.lists(st.text("abxyz_", min_size=1, max_size=4), unique=True, max_size=4))
    lists = [draw(st.lists(draw(_COLUMNS), min_size=n, max_size=n)) for _ in names]
    return Columns(lists), tuple(names)


_ESCAPED = Columns([["plain", cell] for cell in ('say "hi"', "back\\slash", "del\x7f", "tab\t",
                                                   "caf\u00e9")])


@settings(max_examples=300, deadline=None)
@given(_column_tables(), st.sampled_from(["csv", "json"]))
@example((Columns([[], []]), ("a", "b")), "csv")
@example((Columns([[], []]), ("a", "b")), "json")
# float cells that JSON spells apart from their repr, a signed zero and a
# field that reads as a printf conversion
@example((Columns([[float("nan"), float("inf"), -float("inf"), -0.0]]), ("x%d",)), "csv")
@example((Columns([[float("nan"), float("inf"), -float("inf"), -0.0]]), ("x%d",)), "json")
# str columns that each hold one cell JSON escapes beside a plain one
@example((_ESCAPED, ("q", "b", "d", "t", "u")), "csv")
@example((_ESCAPED, ("q", "b", "d", "t", "u")), "json")
# a repeated field: a JSON row is a dict, so its last column wins
@example((Columns([[1, 2], ["x", "y"]]), ("a", "a")), "json")
# a one-row table, typed like any other
@example((Columns([[1.5], ["x"], [None], [2], [True]]), ("a", "b", "c", "d", "e")), "csv")
@example((Columns([[1.5], ["x"], [None], [2], [True]]), ("a", "b", "c", "d", "e")), "json")
def test_columns_print_as_the_reference_rows(table, fmt):
    # A Columns table prints as reference_emit prints its rows as dicts,
    # and emitting it leaves each of its columns in place.
    columns, fields = table
    kept = list(columns.lists)
    rows = table_rows(columns, fields)
    assert _rendered(emit, columns, fmt, fields) == _rendered(reference_emit, rows, fmt, fields)
    assert all(a is b for a, b in zip(columns.lists, kept, strict=True))


@st.composite
def _refused_tables(draw):
    """(table, fields, field): Columns, dicts or RunRecords of 1-6 rows
    whose columns share one ``_CELLS`` type each, except the column of
    ``field``, which holds a numpy scalar or cells of two types."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["columns", "dicts", "runs"]))
    if shape == "runs":
        names = list(FIG4_FIELDS)
    else:
        names = draw(st.lists(st.text("abxyz_", min_size=1, max_size=4), unique=True,
                              min_size=1, max_size=4))
    lists = [draw(st.lists(draw(_COLUMNS), min_size=n, max_size=n)) for _ in names]
    bad = draw(st.integers(0, len(names) - 1))
    cell = draw(st.integers(0, n - 1))
    if n == 1 or draw(st.booleans()):
        lists[bad][cell] = draw(_NUMPY_CELLS)
    else:
        kind = type(lists[bad][1 - min(cell, 1)])  # another cell's type
        lists[bad][cell] = draw(st.one_of(*_CELLS.values()).filter(lambda v: type(v) is not kind))
    rows = [dict(zip(names, row)) for row in zip(*lists)]
    if shape == "columns":
        table = Columns(lists)
    else:
        table = rows if shape == "dicts" else [RunRecord(**row) for row in rows]
    return table, tuple(names), names[bad]


@settings(max_examples=300, deadline=None)
@given(_refused_tables(), st.sampled_from(["csv", "json"]))
def test_a_column_of_numpy_scalars_or_of_two_types_is_refused(table, fmt):
    # A column's cells share one of the types emit has a rule for, so a
    # numpy scalar or a second type is refused, naming the column's field.
    table, fields, field = table
    with pytest.raises(ContractError, match=f"column {re.escape(repr(field))} holds cells"):
        emit(table, fmt, fields=fields)


@cache  # a test example asks three times for the same weights
def _edge_weights(u: float, size: int, kind: str) -> np.ndarray:
    """Outcome weights whose cdf puts the draw ``u`` on an edge.

    "tie" makes ``u`` an entry of the cdf exactly, so only a search on the
    right side of equal entries reads it as choice does; "scaled" makes the
    cdf's last entry miss 1 by enough that dividing by it moves ``u``
    across an entry.  Every total stays within 1e-9 of 1, the register
    readout's rule, so the weights reach the draw.
    """
    for step in range(2500):
        scale = 1.0 + (step // 2) * (-1) ** step * 8e-13
        for nudge in (0, -1, 1, -2, 2, -3, 3, -4, 4, -6, 6, -8, 8):
            w = np.zeros(size)
            w[0], w[-1] = (u + nudge * np.spacing(u)) * scale, (1.0 - u) * scale
            cdf = np.cumsum(w / w.sum())
            if kind == "tie":
                assert cdf[0] == u and cdf[-1] == 1.0
                return w
            if cdf.searchsorted(u, "right") != (cdf / cdf[-1]).searchsorted(u, "right"):
                return w
    raise AssertionError(f"no {kind} edge for u = {u!r}")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    trials=st.integers(1, 8),
    num_qubits=st.integers(1, 2),
    m=st.integers(1, 10),
    coherence=st.one_of(st.none(), st.floats(0.0, 1.0)),
    edge=st.sampled_from((None, "tie", "scaled")),
)
@example(seed=2**32 + 17, trials=8, num_qubits=2, m=10, coherence=None, edge=None)
@example(seed=2**40 + 3, trials=5, num_qubits=1, m=4, coherence=0.5, edge="tie")
@example(seed=2**63 + 9, trials=6, num_qubits=2, m=7, coherence=None, edge="scaled")
def test_collapse_draw_is_generator_choice(seed, trials, num_qubits, m, coherence, edge):
    # Each row of a collapse table, and collapse_run on that trial's own
    # generator, read the outcome derive_rng(seed, t).choice(2^m, p=probs)
    # draws.  With ``edge``, the readout's weights are replaced by ones
    # that put one trial's uniform on a cdf edge.
    rng = derive_rng(seed)
    unitary = haar_unitary(1 << num_qubits, rng)
    target = random_state(num_qubits, rng)
    readout = qpe._register_readout

    def edged_readout(*args):
        weights, conditional = readout(*args)
        if edge is not None:
            u = derive_rng(seed, seed % trials).random()
            weights = _edge_weights(u, weights.size, edge)[None]
        return weights, conditional

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpe, "_register_readout", edged_readout)
        rows = table_rows(
            experiments._collapse_rows(unitary, target, m, trials, seed, coherence),
            experiments.COLLAPSE_FIELDS,
        )
        runs = [
            qpe.collapse_run(unitary, target, m, derive_rng(seed, t), coherence)
            for t in range(trials)
        ]
    weights = edged_readout(unitary.matrix[None], target.amplitudes[None], m, coherence)[0][0]
    probs = weights / weights.sum()
    assert len(rows) == trials
    for t, (row, run) in enumerate(zip(rows, runs)):
        x = int(derive_rng(seed, t).choice(probs.size, p=probs))
        want = PhaseEstimate.from_numerator(x, m)
        assert row == {"trial": t, "bits": want.as_string(), "phi_est": want.value,
                       "outcome_probability": float(probs[x])}
        assert (run.estimate, run.outcome_probability) == (want, float(probs[x]))
