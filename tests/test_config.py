"""Config grammar checks: totality, line numbers, cross-field rules."""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import subcommand_parsers
from ipea_sim import cli, config, experiments, qpe
from ipea_sim.config import COLUMNS, DIRECTIVES, ExperimentConfig, ParseError, parse_experiment
from ipea_sim.photonics import NoiseSpec, WaveplateSpec
from ipea_sim.qmath import ContractError

README = pathlib.Path(__file__).parent.parent / "README.md"

FULL = """\
# waveplate sweep, third row
mode ipea
unitary hwp 0 hwp 45   # a two-plate train
bits 3
reps 11
trials 5
seed 99
provider photonic
eigenstate R
output json
"""


class TestHappyPath:
    def test_full_file(self):
        cfg = parse_experiment(FULL)
        assert cfg.mode == "ipea"
        assert cfg.plates == (WaveplateSpec("HWP", 0.0), WaveplateSpec("HWP", 45.0))
        assert cfg.matrix is None
        assert cfg.bits == 3
        assert cfg.reps_per_bit == 11
        assert cfg.trials == 5
        assert cfg.seed == 99
        assert cfg.provider == "photonic"
        assert cfg.eigenstate == "R"
        assert cfg.output == "json"

    def test_collapse_noise(self):
        cfg = parse_experiment("mode collapse\nunitary hwp 0 hwp 45\nnoise 0.95 0.25\n")
        assert cfg.noise == NoiseSpec(0.95, 0.25)

    def test_defaults(self):
        cfg = parse_experiment("mode ipea\nunitary hwp 10\n")
        assert cfg.bits == 3
        assert cfg.reps_per_bit == 11
        assert cfg.trials is None
        assert cfg.resolved_trials() == 1
        assert cfg.seed == 0
        assert cfg.noise is None
        assert cfg.provider == "photonic"
        assert cfg.output == "csv"

    def test_montecarlo_needs_no_unitary(self):
        cfg = parse_experiment("mode montecarlo\nbits 4\n")
        assert cfg.resolved_trials() == 10000

    def test_exact_sentinel(self):
        cfg = parse_experiment("mode ipea\nunitary hwp 0 hwp 30\ntrials 0\n")
        assert cfg.trials == 0
        assert cfg.resolved_trials() == 0

    def test_matrix_unitary(self):
        cfg = parse_experiment(
            "mode collapse\nunitary matrix 0,0 1,0 1,0 0,0\n"
        )
        np.testing.assert_allclose(cfg.unitary().matrix, [[0, 1], [1, 0]])

    def test_mixed_plate_kinds(self):
        cfg = parse_experiment("mode ipea\nunitary hwp 30 qwp 15\n")
        assert cfg.plates == (WaveplateSpec("HWP", 30.0), WaveplateSpec("QWP", 15.0))

    def test_input_state_follows_eigenstate(self):
        cfg = parse_experiment("mode ipea\nunitary hwp 0 hwp 30\neigenstate V\n")
        np.testing.assert_allclose(cfg.input_state().amplitudes, [0, 1])


# One accepted line per directive, to place in a config of any column.
SAMPLE_LINES = {
    "mode": "mode ipea",
    "unitary": "unitary hwp 0 hwp 30",
    "bits": "bits 2",
    "reps": "reps 3",
    "trials": "trials 1",
    "seed": "seed 5",
    "noise": "noise 0.5 3",
    "provider": "provider matrix",
    "eigenstate": "eigenstate H",
    "output": "output json",
}


def table_cells(read: bool) -> list[tuple[str, str]]:
    """(column, directive) pairs of DIRECTIVES whose row reads, or omits, that column."""
    return [
        (column, key)
        for column in COLUMNS
        for key, row in DIRECTIVES.items()
        if (column in row.columns) == read
    ]


def column_head(column: str, key: str) -> list[str]:
    """The lines a config of ``column`` needs before a ``key`` line."""
    head = ["mode ipea", "trials 0"] if column == "exact" else [f"mode {column}"]
    if key != "unitary" and column in DIRECTIVES["unitary"].columns:
        head.append(SAMPLE_LINES["unitary"])
    return head


def grammar_keywords(block: str) -> list[str]:
    return list(dict.fromkeys(line.split()[0] for line in block.splitlines() if line.strip()))


def expect_error(text: str, fragment: str, line: int | None):
    with pytest.raises(ParseError) as info:
        parse_experiment(text)
    assert fragment in str(info.value)
    assert info.value.line == line


class TestRejections:
    def test_unknown_directive_names_line(self):
        expect_error("mode ipea\nunitary hwp 0\nspeed 9\n", "unknown directive", 3)

    def test_misspelled_mode(self):
        expect_error("mode ipae\n", "mode must be one of", 1)

    def test_duplicate_cites_first_line(self):
        expect_error("mode ipea\nunitary hwp 0\nmode qpe_full\n", "first on line 1", 3)

    def test_bits_zero(self):
        expect_error("mode ipea\nunitary hwp 0\nbits 0\n", "bits must be", 3)

    def test_bits_too_large(self):
        expect_error("mode ipea\nunitary hwp 0\nbits 17\n", "bits must be", 3)

    def test_bits_not_integer(self):
        expect_error("mode ipea\nunitary hwp 0\nbits three\n", "integer", 3)

    def test_reps_even(self):
        expect_error("mode ipea\nunitary hwp 0\nreps 4\n", "odd", 3)

    def test_reps_too_large(self):
        # one trial's round of 32,767 repetitions, two uniforms each, fits the cap
        assert 2 * config.MAX_REPS < qpe.MAX_ROUND_UNIFORMS <= 2 * (config.MAX_REPS + 2)
        assert parse_experiment("mode ipea\nunitary hwp 0\nreps 32767\n").reps_per_bit == 32767
        expect_error("mode ipea\nunitary hwp 0\nreps 32769\n", "reps must be ≤ 32767", 3)

    def test_seed_overflow(self):
        expect_error(
            f"mode ipea\nunitary hwp 0\nseed {1 << 64}\n", "64-bit", 3
        )

    def test_negative_trials(self):
        expect_error("mode ipea\nunitary hwp 0\ntrials -1\n", "trials must be", 3)

    def test_noise_range(self):
        expect_error("mode ipea\nunitary hwp 0\nnoise 1.5 0\n", "[0, 1]", 3)
        expect_error("mode ipea\nunitary hwp 0\nnoise 0.9 -1\n", "sigma", 3)
        expect_error("mode ipea\nunitary hwp 0\nnoise 0.9\n", "two arguments", 3)

    def test_unknown_waveplate_kind(self):
        expect_error("mode ipea\nunitary twp 10\n", "waveplate kind", 2)

    def test_waveplate_missing_angle(self):
        expect_error("mode ipea\nunitary hwp\n", "missing its angle", 2)

    def test_matrix_wrong_arity(self):
        expect_error("mode ipea\nunitary matrix 1,0 0,0\n", "4 re,im pairs", 2)

    def test_matrix_bad_pair(self):
        expect_error("mode ipea\nunitary matrix 1 0,0 0,0 1,0\n", "not re,im", 2)

    def test_matrix_not_unitary(self):
        expect_error(
            "mode ipea\nunitary matrix 1,0 0,0 0,0 2,0\n", "not unitary", 2
        )

    def test_missing_mode(self):
        expect_error("unitary hwp 0\n", "missing required directive", None)

    def test_missing_unitary(self):
        expect_error("mode collapse\n", "requires a unitary", None)

    def test_montecarlo_zero_trials(self):
        # only ipea has an exact mode, so collapse refuses trials 0 too
        expect_error("mode montecarlo\ntrials 0\n", "trials ≥ 1", 2)
        expect_error(
            "mode collapse\nunitary hwp 0 hwp 30\ntrials 0\n", "collapse needs trials ≥ 1", 3
        )

    @pytest.mark.parametrize("mode", ["ipea", "collapse"])
    def test_per_trial_tables_bound_trials(self, mode, tmp_path, capsys):
        # one row per trial: MAX_TRIALS parses, one more is refused at parse
        # time (ParseError naming the line; ContractError when constructed),
        # and the CLI exits 2 with nothing on stdout before anything runs
        head = f"mode {mode}\nunitary hwp 0 hwp 30\nbits 2\n"
        assert parse_experiment(f"{head}trials {config.MAX_TRIALS}\n").trials == config.MAX_TRIALS
        expect_error(f"{head}trials {config.MAX_TRIALS + 1}\n", f"trials ≤ {config.MAX_TRIALS}", 4)
        with pytest.raises(ContractError, match="one row per trial"):
            ExperimentConfig(mode=mode, plates=(WaveplateSpec("HWP", 30.0),),
                             trials=config.MAX_TRIALS + 1)
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{head}trials 10000000000000\n")
        assert cli.main(["run", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.rstrip().endswith(", line 4")
        assert "trials ≤ 100000, got 10000000000000" in err

    def test_montecarlo_trials_have_no_bound(self):
        # a Monte Carlo table has two rows whatever its count (not run here)
        cfg = parse_experiment("mode montecarlo\ntrials 10000000000000\n")
        assert cfg.resolved_trials() == 10**13

    def test_qpe_full_multi_trials(self, tmp_path, capsys):
        expect_error(
            "mode qpe_full\nunitary hwp 0 hwp 30\ntrials 7\n", "exact", 3
        )
        # the exact register table reads no trial count, so 0 and 1 are
        # refused too rather than parsed and ignored: exit 2, naming the line
        for trials in (0, 1):
            cfg = tmp_path / f"trials{trials}.cfg"
            cfg.write_text(f"mode qpe_full\nunitary hwp 0 hwp 30\ntrials {trials}\n")
            assert cli.main(["run", str(cfg)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert "exact mode 'qpe_full' does not use directive 'trials', line 3" in err

    @pytest.mark.parametrize(
        "mode, directive",
        [
            ("qpe_full", "reps 3"),
            ("qpe_full", "seed 5"),
            ("qpe_full", "noise 0.9 0.25"),
            ("qpe_full", "provider matrix"),
            ("collapse", "reps 3"),
            ("collapse", "provider photonic"),
        ],
    )
    def test_register_mode_rejects_unread_directive(self, mode, directive):
        keyword = directive.split()[0]
        expect_error(
            f"mode {mode}\nunitary hwp 0 hwp 30\n{directive}\nbits 2\n",
            f"does not use directive '{keyword}'",
            3,
        )

    @pytest.mark.parametrize(
        "directive", ["unitary hwp 0 hwp 30", "noise 0.9 0.25", "eigenstate H"]
    )
    def test_montecarlo_rejects_unread_directive(self, directive):
        # montecarlo realizes its random phases as diagonal unitaries on
        # |1>, so a unitary, a noise model or an eigenstate would be ignored
        keyword = directive.split()[0]
        expect_error(
            f"mode montecarlo\nbits 2\n{directive}\ntrials 5\n",
            f"does not use directive '{keyword}'",
            3,
        )

    @pytest.mark.parametrize("column, key", table_cells(read=False))
    def test_every_column_rejects_unread_directive(self, column, key):
        head = column_head(column, key)
        expect_error(
            "\n".join(head + [SAMPLE_LINES[key], "bits 2"]) + "\n",
            f"does not use directive '{key}'",
            len(head) + 1,
        )

    def test_exact_column_reads_no_draw_parameters(self):
        unread = {key for column, key in table_cells(read=False) if column == "exact"}
        assert unread == {"seed", "reps", "noise"}

    def test_provider_typo(self):
        expect_error("mode ipea\nunitary hwp 0\nprovider optical\n", "provider", 3)

    def test_eigenstate_typo(self):
        expect_error("mode ipea\nunitary hwp 0\neigenstate Z\n", "eigenstate", 3)

    def test_output_typo(self):
        expect_error("mode ipea\nunitary hwp 0\noutput yaml\n", "output", 3)


class TestDirectiveTable:
    @pytest.mark.parametrize("column, key", table_cells(read=True))
    def test_every_column_accepts_read_directive(self, column, key):
        head = column_head(column, key)
        if key not in {line.split()[0] for line in head}:
            head.append(SAMPLE_LINES[key])
        cfg = parse_experiment("\n".join(head) + "\n")
        assert cfg.column() == column

    def test_samples_cover_every_directive(self):
        assert list(SAMPLE_LINES) == list(DIRECTIVES)

    def test_grammar_docs_list_the_table(self):
        # README's config section prints the grammar; config's docstring
        # points to it and to DIRECTIVES rather than writing it out again
        readme = README.read_text(encoding="utf-8")
        readme_block = readme.split("### Config files", 1)[1].split("```")[1]
        assert grammar_keywords(readme_block) == list(DIRECTIVES)
        assert "DIRECTIVES" in config.__doc__ and '"Config files"' in config.__doc__
        # README's command-line block: each subcommand's line names exactly its flags
        cli_block = readme.split("## Command line", 1)[1].split("```")[1]
        documented = {
            line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line))
            for line in cli_block.splitlines()
            if line.strip()
        }
        parsed = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            - {"-h", "--help"}
            for name, sub in subcommand_parsers().items()
        }
        assert documented == parsed


# A base config per column, chosen so that each directive it reads moves
# the table.  Sampled ipea runs eight photonic trials, whose branch
# fractions show every draw; collapse and qpe_full read a plate train
# with an elliptical eigenbasis, on which each input letter has its own
# weights.  Montecarlo prints only success counts, which two seeds or two
# providers tie with probability about 0.002 at 1000 trials, so the
# examples are derandomized and every run draws the same ones.
MOVING_BASES = {
    "ipea": ["mode ipea", "unitary hwp 0 hwp 45", "trials 8"],
    "exact": ["mode ipea", "unitary hwp 0 hwp 45", "trials 0"],
    "qpe_full": ["mode qpe_full", "unitary hwp 10 qwp 35"],
    "collapse": ["mode collapse", "unitary hwp 10 qwp 35", "bits 3", "trials 12", "eigenstate H"],
    "montecarlo": ["mode montecarlo", "trials 1000", "provider matrix", "reps 3"],
}
# Allowed values, as a line's arguments, from the short end of each range
# so that every run is quick.
MOVING_VALUES = {
    "unitary": st.integers(0, 179).map(lambda theta: f"hwp 0 hwp {theta}"),
    "bits": st.integers(1, 8).map(str),
    "reps": st.integers(0, 15).map(lambda k: str(2 * k + 1)),
    "trials": st.integers(0, 12).map(str),
    "seed": st.integers(0, config.MAX_SEED).map(str),
    "noise": st.tuples(st.sampled_from(("0", "0.25", "0.5", "0.9", "1")),
                       st.sampled_from(("0", "0.25", "3"))).map(" ".join),
    "provider": st.sampled_from(("matrix", "photonic")),
    "eigenstate": st.sampled_from(("R", "L", "H", "V", "D", "A")),
    "output": st.sampled_from(("csv", "json")),
}
# An ipea table shows only the estimate and the phase of the eigenvector
# the input overlaps most, so inputs that weigh the base's rotation
# eigenvectors (R and L) alike print alike; H stands for the rest.
IPEA_EIGENSTATES = st.sampled_from(("R", "L", "H"))
# Cells still accepted but unread, by the arguments the run ignores
# (ROADMAP item 4): two values that differ only there print the same table.
UNREAD_ARGS = {
    ("collapse", "noise"): {1},  # collapse reads p, not the jitter sigma
    ("exact", "provider"): {0},  # both providers give the same exact bits
}


def _moving_outcome(lines: list[str]):
    """The table a config prints, or "refused" if the parse refuses its last line."""
    try:
        cfg = parse_experiment("\n".join(lines) + "\n")
    except ParseError as exc:
        assert exc.line == len(lines), exc
        return "refused"
    rows, fields = experiments.run_config(cfg)
    return experiments.emit(rows, cfg.output, fields=fields)


@pytest.mark.parametrize(
    "column, key", [cell for cell in table_cells(read=True) if cell[1] != "mode"]
)
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_read_directive_moves_the_table(column, key, data):
    # Two allowed values of a directive its column reads: the table must
    # change, or the parse must refuse the line (say, trials 0 in montecarlo).
    values = MOVING_VALUES[key]
    if key == "eigenstate" and column in ("ipea", "exact"):
        values = IPEA_EIGENSTATES
    first = data.draw(values)
    second = data.draw(values.filter(lambda value: value != first))
    base = [line for line in MOVING_BASES[column] if line.split()[0] != key]
    outcomes = [_moving_outcome(base + [f"{key} {value}"]) for value in (first, second)]
    if "refused" in outcomes:
        return
    differing = {i for i, (a, b) in enumerate(zip(first.split(), second.split())) if a != b}
    if differing <= UNREAD_ARGS.get((column, key), set()):
        assert outcomes[0] == outcomes[1]  # once the run reads it, drop the cell above
    else:
        assert outcomes[0] != outcomes[1], (first, second)


class TestConfigObject:
    def test_direct_construction_validates(self):
        with pytest.raises(ContractError):
            ExperimentConfig(mode="ipea", bits=0)
        with pytest.raises(ContractError):
            ExperimentConfig(mode="ipea", reps_per_bit=2)
        with pytest.raises(ContractError):
            ExperimentConfig(mode="nope")

    @pytest.mark.parametrize(
        "fields",
        [
            {"seed": -1},
            {"seed": 1 << 64},
            {"trials": -1},
            {"provider": "optical"},
            {"noise": NoiseSpec(0.5, 3.0)},  # ipea reads no noise row
            {"mode": "qpe_full", "trials": 7},
            {"mode": "montecarlo", "trials": 0},
            {"mode": "qpe_full", "seed": 9},
            {"mode": "qpe_full", "provider": "matrix"},
            {"mode": "qpe_full", "noise": NoiseSpec(0.5, 3.0)},
            {"trials": 0, "reps_per_bit": 5},
            {"mode": "montecarlo", "noise": NoiseSpec(0.5, 3.0)},
            {"mode": "montecarlo", "plates": (WaveplateSpec("HWP", 3.0),)},
            {"mode": "collapse", "trials": 0},
        ],
    )
    def test_direct_construction_checks_every_row(self, fields):
        with pytest.raises(ContractError):
            ExperimentConfig(**{"mode": "ipea", **fields})

    def test_unitary_requires_source(self):
        cfg = ExperimentConfig(mode="montecarlo")
        with pytest.raises(ContractError):
            cfg.unitary()
