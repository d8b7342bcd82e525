"""Tests for the repro-cli command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mix_defaults(self):
        args = build_parser().parse_args(["mix", "mcf", "povray"])
        assert args.names == ["mcf", "povray"]
        assert args.policy == "weighted"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])

    def test_sweep_backend_choices(self, capsys):
        args = build_parser().parse_args(["sweep", "--backend", "analytical"])
        assert args.backend == "analytical"
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--backend", "sampled"])
        assert exc_info.value.code != 0
        assert "sampled" in capsys.readouterr().err


class TestJobsValidation:
    """``--jobs`` must reject zero/negative/non-integer counts loudly."""

    def test_zero_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["mix", "mcf", "povray", "--jobs", "0"])
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--jobs", "-2"]
            )
        err = capsys.readouterr().err
        assert "must be >= 1" in err
        assert "--jobs 1" in err  # the error names the escape hatch

    def test_non_integer_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mix", "mcf", "povray", "--jobs", "two"])
        assert "not an integer" in capsys.readouterr().err

    def test_positive_jobs_accepted(self):
        args = build_parser().parse_args(
            ["mix", "mcf", "povray", "--jobs", "3"]
        )
        assert args.jobs == 3


class TestSupervisionFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.max_retries == 2
        assert args.hang_timeout is None
        assert args.quarantine is None

    def test_parse(self):
        args = build_parser().parse_args(
            [
                "sweep", "--max-retries", "5", "--hang-timeout", "2.5",
                "--quarantine", "poison.jsonl",
            ]
        )
        assert args.max_retries == 5
        assert args.hang_timeout == 2.5
        assert args.quarantine == "poison.jsonl"


class TestProfiles:
    def test_lists_pools(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "ferret" in out
        assert "SPEC2006-like pool" in out


class TestMix:
    def test_unknown_benchmark(self, capsys):
        assert main(["mix", "doom3", "mcf"]) == 2
        assert "unknown benchmarks" in capsys.readouterr().out

    def test_small_mix_runs(self, capsys):
        code = main(
            ["mix", "povray", "sjeng", "--instructions", "150000", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chosen schedule" in out
        assert "povray" in out


class TestPairwise:
    def test_needs_two(self, capsys):
        assert main(["pairwise", "mcf"]) == 2

    def test_unknown(self, capsys):
        assert main(["pairwise", "mcf", "doom3"]) == 2

    def test_runs(self, capsys):
        code = main(
            ["pairwise", "povray", "sjeng", "--instructions", "150000"]
        )
        assert code == 0
        assert "worst-case degradation" in capsys.readouterr().out


class TestFigure:
    def test_figure1(self, capsys):
        assert main(["figure", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["figure", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out
