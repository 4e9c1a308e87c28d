"""Config grammar checks: totality, line numbers, cross-field rules."""

import pathlib

import numpy as np
import pytest

from ipea_sim import config
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
noise 0.95 0.25
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
        assert cfg.noise == NoiseSpec(0.95, 0.25)
        assert cfg.provider == "photonic"
        assert cfg.eigenstate == "R"
        assert cfg.output == "json"

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
        expect_error("mode montecarlo\ntrials 0\n", "trials ≥ 1", 2)

    def test_qpe_full_multi_trials(self):
        expect_error(
            "mode qpe_full\nunitary hwp 0 hwp 30\ntrials 7\n", "exact", 3
        )

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
        # the grammar block of the config docstring and of README's config section
        doc_block = config.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
        readme = README.read_text(encoding="utf-8")
        readme_block = readme.split("### Config files", 1)[1].split("```")[1]
        assert grammar_keywords(doc_block) == list(DIRECTIVES)
        assert grammar_keywords(readme_block) == list(DIRECTIVES)


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
            {"noise": NoiseSpec(0.5, float("inf"))},
            {"mode": "qpe_full", "trials": 7},
            {"mode": "montecarlo", "trials": 0},
        ],
    )
    def test_direct_construction_checks_every_row(self, fields):
        with pytest.raises(ContractError):
            ExperimentConfig(**{"mode": "ipea", **fields})

    def test_unitary_requires_source(self):
        cfg = ExperimentConfig(mode="montecarlo")
        with pytest.raises(ContractError):
            cfg.unitary()
