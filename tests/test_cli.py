"""Front-end checks: subcommands, output plumbing, exit codes."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from helpers import subcommand_parsers
from ipea_sim import cli, qmath, qpe
from ipea_sim.cli import main

DATA = pathlib.Path(__file__).parent / "data"
MONTECARLO_GOLDEN = DATA / "montecarlo_golden.csv"
REGISTER_GOLDEN = DATA / "register_golden.csv"
BATCH_GOLDEN = DATA / "batch_golden.csv"
QPE_FULL_GOLDEN = DATA / "qpe_full_golden.csv"
FIG5_GOLDEN = DATA / "fig5_golden.csv"
FIG5_JSON_GOLDEN = DATA / "fig5_golden.json"
EXACT_GOLDEN = DATA / "exact_golden.csv"
JSON_GOLDEN = DATA / "json_golden.json"
CONFIGS = pathlib.Path(__file__).parent.parent / "configs"
PROVIDERS = ("photonic", "matrix")
SRC = pathlib.Path(__file__).parent.parent / "src"


def run_module(argv, **kwargs):
    """``python -m ipea_sim.cli`` in a child process that imports this checkout's ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "ipea_sim.cli", *argv], capture_output=True, timeout=120,
        env=env, **kwargs
    )


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
        # a missing file, then one whose comment is not UTF-8 (a Latin-1 é)
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"# r\xe9glage\nmode qpe_full\nunitary hwp 0 hwp 45\n")
        for path in (tmp_path / "absent.cfg", latin1):
            code, out, err = run_cli(["run", str(path)], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith(f"ipea-sim: cannot read config {str(path)!r}: ")

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

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 4e-11], ids=["rounded", "scaled"])
    def test_a_drifting_matrix_runs_or_is_refused_at_parse_time(self, scale, tmp_path, capsys):
        # diag(1, e^{i pi/4}) to 11 digits is within 1e-10 of unitary, but
        # its 2^(k-1)-th power drifts about 2^(k-1) times as far, past the
        # engines' checks.  Each bits either runs or is refused naming the
        # unitary line (exit 2), never refused at run time (exit 3).
        entries = " ".join(f"{re * scale!r},{im * scale!r}"
                           for re, im in ((1, 0), (0, 0), (0, 0), (0.70710678119, 0.70710678119)))
        cfg = tmp_path / "exp.cfg"
        runs = [("ipea", f"provider {provider}\ntrials {trials}\n")
                for provider in PROVIDERS for trials in (2, 0)] + [("qpe_full", "")]
        for mode, rest in runs:
            for bits in (5, 6, 8, 16):
                cfg.write_text(f"mode {mode}\nunitary matrix {entries}\neigenstate V\nbits {bits}\n"
                               + rest)
                code, out, err = run_cli(["run", str(cfg)], capsys)
                assert code in (0, 2), (mode, rest, bits, err)
                if code == 2 or bits == 16:
                    assert (code, out) == (2, ""), (mode, rest, bits)
                    assert err.startswith("ipea-sim: unitary matrix ") and err.endswith(", line 2\n")

    def test_seed_override_refused_where_no_seed_is_read(self, capsys):
        # exact ipea (trials 0) draws nothing, so a seed would be ignored
        code, out, err = run_cli(["run", str(CONFIGS / "sweep_point.cfg"), "--seed", "5"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("ipea-sim: --seed ")
        assert "does not use directive 'seed'" in err

    def test_capacity_violation_is_contract_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(qmath, "MAX_QUBITS", 8)
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

    def test_exact_golden(self, capsys):
        # Pins exact mode's bytes: the fig4 sweep on each provider, then the
        # one-row sample config.  Its oracle cells are fig4_golden.csv's.
        text = ""
        for argv in (
            ["fig4", "--exact", "--provider", "matrix"],
            ["fig4", "--exact", "--provider", "photonic"],
            ["run", str(CONFIGS / "sweep_point.cfg")],
        ):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            text += out
        assert text == EXACT_GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize("flag, value", [("--seed", "3"), ("--reps", "5")])
    def test_fig4_exact_refuses_draw_flags(self, flag, value, capsys):
        # exact mode draws nothing, so a seed or a repetition count would be ignored
        code, out, err = run_cli(["fig4", "--exact", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"ipea-sim: {flag} {value}: ")

    def test_unwritable_out_is_parse_error(self, tmp_path, capsys):
        # a missing directory, then a directory in place of the file
        for dest in (tmp_path / "missing" / "x.csv", tmp_path):
            code, out, err = run_cli(["fig4", "--out", str(dest)], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith(f"ipea-sim: cannot write output {str(dest)!r}: ")

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
            ["montecarlo", "--reps", "32769"],
            ["montecarlo", "--trials", "0"],
            ["fig5", "--noise-p", "2"],
            ["fig5", "--noise-sigma", "inf"],
            ["fig5", "--shots", "-1"],
            ["fig5", "--resamples", "0"],
            ["fig5", "--resamples", "-1"],
            ["fig5", "--resamples", "5", "--shots", "0"],
            ["fig5", "--resamples", "100", "--shots", "0", "--no-noise"],
            ["fig5", "--noise-p", "0.5", "--no-noise", "--shots", "0"],
            ["fig5", "--noise-sigma", "1", "--no-noise", "--shots", "0"],
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

    def test_montecarlo_golden_across_chunks(self, tmp_path, capsys, monkeypatch):
        # A bound of 154 uniforms per round splits the 200 trials into
        # chunks of 7 trials at reps 11 and of 77 at reps 1, the last one
        # short, and the batch golden's runs too (300 trials at reps 1
        # into 77 + 77 + 77 + 69, dyadic reps 3 into chunks of 25, fig4
        # into 7 + 5).  A window of 64 words makes the chunks refill their
        # draws at offsets inside a Philox block.  A trial's draws must
        # depend on neither.
        monkeypatch.setattr(qpe, "MAX_ROUND_UNIFORMS", 154)
        monkeypatch.setattr(qmath, "DRAW_WINDOW_WORDS", 64)
        assert qpe.batch_trials(11) == 7 and qpe.batch_trials(1) == 77
        assert montecarlo_golden_text(capsys) == MONTECARLO_GOLDEN.read_text(encoding="utf-8")
        text = ""
        for argv in batch_golden_argvs(tmp_path):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            text += out
        assert text == BATCH_GOLDEN.read_text(encoding="utf-8")

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

    @pytest.mark.parametrize(
        "golden, argvs",
        [
            # The fig5 paths that register_golden.csv leaves out: exact
            # expectations under the default noise, sampled tomography
            # without noise, and strong noise at 5,000 shots.
            pytest.param(FIG5_GOLDEN, [
                ["fig5", "--shots", "0"],
                ["fig5", "--no-noise", "--seed", "3"],
                ["fig5", "--noise-p", "0.8", "--noise-sigma", "1.5", "--shots", "5000",
                 "--seed", "11"],
            ], id="csv"),
            # 9,000 bootstrap resamples span several blocks of the stacked
            # panels, printed as JSON.
            pytest.param(FIG5_JSON_GOLDEN, [
                ["fig5", "--seed", "5", "--shots", "3000", "--resamples", "1000",
                 "--format", "json"],
            ], id="json"),
        ],
    )
    def test_fig5_golden(self, golden, argvs, capsys):
        text = ""
        for argv in argvs:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0, argv
            text += out
        assert text == golden.read_text(encoding="utf-8")

    def test_qpe_full_golden(self, tmp_path, capsys):
        # Pins the full-register table bytes: CSV at bits 8 and 10, then
        # JSON at bits 6, for a non-eigenstate input of a two-plate train.
        text = ""
        for bits, fmt in ((8, "csv"), (10, "csv"), (6, "json")):
            cfg = tmp_path / f"qpe_full_b{bits}.cfg"
            cfg.write_text(
                f"mode qpe_full\nunitary hwp 10 hwp 70\nbits {bits}\n"
                f"eigenstate H\noutput {fmt}\n"
            )
            code, out, _ = run_cli(["run", str(cfg)], capsys)
            assert code == 0
            text += out
        assert text == QPE_FULL_GOLDEN.read_text(encoding="utf-8")

    def test_json_golden(self, tmp_path, capsys):
        # Pins JSON bytes per column rule: a bits-6 qpe_full table, a
        # 3-trial photonic ipea config (float, int, str and bool columns),
        # matrix fig4 (a column of None) and the noisy collapse config.
        qpe_full = tmp_path / "qpe_full_b6.cfg"
        qpe_full.write_text("mode qpe_full\nunitary hwp 20 hwp 55\nbits 6\neigenstate V\n")
        ipea = tmp_path / "ipea_photonic.cfg"
        ipea.write_text(
            "mode ipea\nunitary hwp 10 hwp 70\nbits 4\nreps 3\ntrials 3\nseed 5\n"
            "provider photonic\neigenstate R\n"
        )
        text = ""
        for argv in (
            ["run", str(qpe_full)],
            ["run", str(ipea)],
            ["fig4", "--provider", "matrix"],
            ["run", str(CONFIGS / "collapse_noisy.cfg")],
        ):
            code, out, _ = run_cli([*argv, "--format", "json"], capsys)
            assert code == 0, argv
            text += out
        assert text == JSON_GOLDEN.read_text(encoding="utf-8")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2


# Each study's defaults, spelled out: the paper's settings that a run with
# no flags must use.
STUDY_DEFAULTS = {
    "fig4": ["--seed", "7", "--reps", "11", "--provider", "photonic"],
    "fig5": ["--seed", "7", "--shots", "100000", "--resamples", "100",
             "--noise-p", "0.95", "--noise-sigma", "0.25"],
    "montecarlo": ["--bits", "3", "--trials", "10000", "--seed", "7",
                   "--provider", "photonic", "--reps", "11"],
}


class TestDefaults:
    def test_parser_declares_no_run_parameter_default(self):
        valued = [
            (name, action)
            for name, sub in subcommand_parsers().items()
            for action in sub._actions
            if action.option_strings and action.nargs != 0
        ]
        assert {action.dest for _, action in valued} >= set(cli.FLAG_DIRECTIVES)
        for name, action in valued:
            assert action.default is None, (name, action.dest)

    @pytest.mark.parametrize("command", sorted(STUDY_DEFAULTS))
    def test_no_flags_run_the_study_defaults(self, command, capsys):
        code, bare, _ = run_cli([command], capsys)
        assert code == 0
        code, spelled, _ = run_cli([command] + STUDY_DEFAULTS[command], capsys)
        assert code == 0
        assert spelled == bare


class TestEntryPoint:
    def test_main_reuses_one_parser(self, tmp_path, capsys):
        # One process: a usage error, a refused flag, then one valid op
        # of each subcommand.  Each call must print and return what it
        # does on a freshly built parser, and the parser is built once.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode ipea\nunitary hwp 0 hwp 45\ntrials 0\n")
        argvs = [
            ["montecarlo", "--bits"],
            ["fig4", "--exact", "--seed", "1"],
            ["run", str(cfg)],
            ["fig4", "--exact"],
            ["fig5", "--shots", "0", "--no-noise"],
            ["montecarlo", "--bits", "2", "--trials", "50"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            out, err = capsys.readouterr()
            return code, out, err

        cli.build_parser.cache_clear()
        reused = [call(argv) for argv in argvs]
        assert cli.build_parser.cache_info().misses == 1
        assert [code for code, _, _ in reused] == [("SystemExit", 2), 2, 0, 0, 0, 0]
        for argv, got in zip(argvs, reused):
            cli.build_parser.cache_clear()
            assert call(argv) == got, argv
        proc = run_module(["fig4", "--exact"])
        assert proc.returncode == 0
        assert proc.stdout == reused[3][1].encode()

    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("mode ipea\nunitary hwp 0 hwp 45\ntrials 0\n")
        proc = run_module(["run", str(cfg)], text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1].split(",")[1] == "110"

    def test_module_invocation_parse_error(self, tmp_path):
        proc = run_module(["run", str(tmp_path / "nope.cfg")], text=True)
        assert proc.returncode == 2
