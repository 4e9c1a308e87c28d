"""Front-end checks: subcommands, output plumbing, exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from ipea_sim import qpe
from ipea_sim.cli import main

DATA = pathlib.Path(__file__).parent / "data"
MONTECARLO_GOLDEN = DATA / "montecarlo_golden.csv"
REGISTER_GOLDEN = DATA / "register_golden.csv"
BATCH_GOLDEN = DATA / "batch_golden.csv"
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
PROVIDERS = ("photonic", "matrix")


def batch_golden_argvs(tmp_path):
    """The invocations behind ``batch_golden.csv``, in file order."""
    argvs = []
    for provider in PROVIDERS:
        for bits in ("1", "6"):
            argvs.append(
                ["montecarlo", "--dyadic", "--bits", bits, "--reps", "3",
                 "--trials", "200", "--provider", provider]
            )
        argvs.append(
            ["montecarlo", "--bits", "5", "--trials", "300", "--reps", "1",
             "--provider", provider]
        )
        argvs.append(["fig4", "--reps", "1", "--provider", provider])
        argvs.append(["fig4", "--provider", provider, "--seed", "3"])
        cfg = tmp_path / f"ipea_{provider}.cfg"
        cfg.write_text(
            "mode ipea\nunitary hwp 10 hwp 70\nbits 5\nreps 5\ntrials 25\n"
            f"seed 11\nprovider {provider}\neigenstate R\n"
        )
        argvs.append(["run", str(cfg)])
    return argvs


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def montecarlo_golden_text(capsys):
    """The runs behind ``montecarlo_golden.csv``: photonic, then matrix."""
    text = ""
    for provider in PROVIDERS:
        code, out, _ = run_cli(
            ["montecarlo", "--bits", "4", "--trials", "200", "--provider", provider],
            capsys,
        )
        assert code == 0
        text += out
    return text


class TestRunCommand:
    def test_config_file_executes(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode ipea\nunitary hwp 0 hwp 45\ntrials 0\n")
        code, out, err = run_cli(["run", str(cfg)], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0].startswith("trial,bits,")
        assert ",110," in lines[1]

    def test_out_flag_writes_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode qpe_full\nunitary hwp 0 hwp 45\nbits 2\n")
        dest = tmp_path / "table.csv"
        code, out, _ = run_cli(["run", str(cfg), "--out", str(dest)], capsys)
        assert code == 0
        assert out == ""
        assert dest.read_text().splitlines()[0] == "bits,probability"

    def test_json_format(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode qpe_full\nunitary hwp 0 hwp 45\nbits 2\n")
        code, out, _ = run_cli(["run", str(cfg), "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4

    def test_config_output_directive_selects_format(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode qpe_full\nunitary hwp 0 hwp 45\nbits 2\noutput json\n")
        code, out, _ = run_cli(["run", str(cfg)], capsys)
        assert code == 0
        assert len(json.loads(out)) == 4
        # an explicit flag still wins over the directive
        code, out, _ = run_cli(["run", str(cfg), "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "bits,probability"

    def test_seed_override_changes_sampled_run(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "mode collapse\nunitary hwp 30\neigenstate H\ntrials 6\nbits 1\nseed 0\n"
        )
        _, base, _ = run_cli(["run", str(cfg)], capsys)
        _, seeded, _ = run_cli(["run", str(cfg), "--seed", "12"], capsys)
        _, repeat, _ = run_cli(["run", str(cfg), "--seed", "12"], capsys)
        assert seeded == repeat
        assert base != seeded  # six coin-flips at seed 0 vs 12 differ

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        code, _, err = run_cli(["run", str(tmp_path / "absent.cfg")], capsys)
        assert code == 2
        assert "cannot read config" in err

    def test_bad_directive_is_parse_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode ipea\nunitary hwp 0\nbits 0\n")
        code, _, err = run_cli(["run", str(cfg)], capsys)
        assert code == 2
        assert "line 3" in err

    def test_every_parsed_bits_runs(self, tmp_path, capsys):
        # bits 16 is the grammar's limit; both register modes must run it.
        # The R input is an eigenstate of phase 0.75, a 16-bit grid point.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode qpe_full\nunitary hwp 0 hwp 45\nbits 16\n")
        code, out, err = run_cli(["run", str(cfg)], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 1 << 16
        probs = [float(p) for _, p in rows]
        assert abs(sum(probs) - 1.0) <= 1e-9
        peak = max(range(len(probs)), key=probs.__getitem__)
        assert abs(peak / (1 << 16) - 0.75) <= 2.0**-16
        cfg.write_text("mode collapse\nunitary hwp 0 hwp 35\nbits 16\ntrials 2\neigenstate H\n")
        code, out, err = run_cli(["run", str(cfg)], capsys)
        assert code == 0, err
        assert [len(line.split(",")[1]) for line in out.splitlines()[1:]] == [16, 16]

    def test_seed_override_refused_where_no_seed_is_read(self, capsys):
        # exact ipea (trials 0) draws nothing, so a seed would be ignored
        code, out, err = run_cli(["run", str(CONFIGS / "sweep_point.cfg"), "--seed", "5"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ipea-sim: --seed ")
        assert "does not use directive 'seed'" in err

    def test_capacity_violation_is_contract_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IPEA_SIM_MAX_QUBITS", "8")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode qpe_full\nunitary hwp 0 hwp 45\nbits 10\n")
        code, _, err = run_cli(["run", str(cfg)], capsys)
        assert code == 3
        assert "cap" in err


class TestStudyCommands:
    def test_fig4_exact_provider_equivalence(self, capsys):
        _, matrix_out, _ = run_cli(
            ["fig4", "--exact", "--provider", "matrix"], capsys
        )
        _, photonic_out, _ = run_cli(
            ["fig4", "--exact", "--provider", "photonic"], capsys
        )
        bits_m = [line.split(",")[3] for line in matrix_out.splitlines()[1:]]
        bits_p = [line.split(",")[3] for line in photonic_out.splitlines()[1:]]
        assert bits_m == bits_p

    def test_fig4_rejects_even_reps(self, capsys):
        code, _, err = run_cli(["fig4", "--reps", "4"], capsys)
        assert code == 2
        assert "odd" in err

    def test_fig5_exact_noiseless(self, capsys):
        code, out, _ = run_cli(
            ["fig5", "--shots", "0", "--no-noise", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 9
        assert all(abs(p["fidelity"] - 1.0) < 1e-9 for p in payload)

    def test_montecarlo_small(self, capsys):
        code, out, _ = run_cli(
            [
                "montecarlo",
                "--bits", "2",
                "--trials", "25",
                "--provider", "matrix",
                "--reps", "3",
                "--dyadic",
            ],
            capsys,
        )
        assert code == 0
        rows = out.splitlines()
        assert rows[0].startswith("m,trials,reps_per_bit")
        assert len(rows) == 3

    @pytest.mark.parametrize("bits", ["0", "17", "64"])
    def test_montecarlo_bits_out_of_range_is_parse_error(self, bits, capsys):
        # the same 1..16 that a config's bits directive allows
        code, _, err = run_cli(
            ["montecarlo", "--dyadic", "--bits", bits, "--trials", "5", "--provider", "matrix"],
            capsys,
        )
        assert code == 2
        assert "--bits must lie in 1..16" in err

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("command", ["fig4", "fig5", "montecarlo", "run"])
    def test_seed_out_of_u64_is_parse_error(self, command, seed, tmp_path, capsys):
        # the same u64 range that a config's seed directive allows
        cfg = tmp_path / "sampled.cfg"
        cfg.write_text("mode ipea\nunitary hwp 0 hwp 45\nbits 2\ntrials 2\n")
        argv = {
            "fig4": ["fig4"],
            "fig5": ["fig5", "--shots", "0"],
            "montecarlo": ["montecarlo", "--trials", "5"],
            "run": ["run", str(cfg)],
        }[command]
        code, out, err = run_cli(argv + ["--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ipea-sim: --seed ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["montecarlo", "--reps", "2"],
            ["montecarlo", "--trials", "0"],
            ["fig5", "--noise-p", "2"],
            ["fig5", "--noise-sigma", "inf"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_flag_is_parse_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"ipea-sim: {argv[1]} ")

    def test_montecarlo_golden(self, capsys):
        # Pins the sampled draw pattern of both providers at reps 1 and
        # 11: the file holds the photonic table, then the matrix table.
        assert montecarlo_golden_text(capsys) == MONTECARLO_GOLDEN.read_text(encoding="utf-8")

    def test_montecarlo_golden_across_chunks(self, capsys, monkeypatch):
        # A bound of 154 uniforms per round splits the 200 trials into
        # chunks of 7 trials at reps 11 and of 77 at reps 1, the last one
        # short; a trial's draws must not depend on its chunk.
        monkeypatch.setattr(qpe, "MAX_ROUND_UNIFORMS", 154)
        assert qpe.batch_trials(11) == 7 and qpe.batch_trials(1) == 77
        assert montecarlo_golden_text(capsys) == MONTECARLO_GOLDEN.read_text(encoding="utf-8")

    def test_batch_golden(self, tmp_path, capsys):
        # Pins the per-trial draws of every batched study: dyadic Monte
        # Carlo (integers, then random), single-shot Monte Carlo, fig4 at
        # reps 1 and at another seed, and a multi-trial ipea config whose
        # rows carry per-trial branch fractions; both providers each.
        text = ""
        for argv in batch_golden_argvs(tmp_path):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            text += out
        assert text == BATCH_GOLDEN.read_text(encoding="utf-8")

    def test_register_golden(self, tmp_path, capsys):
        # Pins the collapse draw pattern and the fig5 numbers: noisy fig5,
        # exact noiseless fig5, the noisy collapse sample config, then a
        # pure collapse run at bits 6.
        pure = tmp_path / "collapse_pure.cfg"
        pure.write_text(
            "mode collapse\nunitary hwp 0 hwp 35\nbits 6\ntrials 8\nseed 3\neigenstate H\n"
        )
        text = ""
        for argv in (
            ["fig5"],
            ["fig5", "--shots", "0", "--no-noise"],
            ["run", str(CONFIGS / "collapse_noisy.cfg")],
            ["run", str(pure)],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            text += out
        assert text == REGISTER_GOLDEN.read_text(encoding="utf-8")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode ipea\nunitary hwp 0 hwp 45\ntrials 0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "ipea_sim.cli", "run", str(cfg)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split(",")[1] == "110"

    def test_module_invocation_parse_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ipea_sim.cli", "run", str(tmp_path / "nope.cfg")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
