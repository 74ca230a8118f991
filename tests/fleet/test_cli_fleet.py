"""Tests for ``repro fleet status``, the shared fleet flags, and the
one-line error every verb gives for a bad ``--checkpoint``."""

import json

import pytest

from repro.cli import build_parser, main
from repro.fleet.checkpoint import SCHEMA_VERSION

#: One cheap invocation of every verb that takes --checkpoint.
CHECKPOINT_VERBS = {
    "experiment": ["experiment", "cluster", "--slices", "1"],
    "report": ["report", "--only", "fig9"],
    "fault-study": ["fault-study", "--slices", "2"],
    "chaos": ["chaos", "--slices", "2"],
}


class TestParser:
    def test_experiment_gains_fleet_flags(self):
        args = build_parser().parse_args(
            ["experiment", "cluster", "--jobs", "4",
             "--checkpoint", "ck.json", "--resume"]
        )
        assert args.jobs == 4
        assert args.checkpoint == "ck.json"
        assert args.resume is True

    def test_fleet_flags_default_serial(self):
        args = build_parser().parse_args(["experiment", "cluster"])
        assert args.jobs == 1
        assert args.checkpoint is None
        assert args.resume is False

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_status_takes_path(self):
        args = build_parser().parse_args(["fleet", "status", "ck.json"])
        assert args.checkpoint_file == "ck.json"


class TestCommands:
    def test_fleet_cluster_runs_and_reports(self, capsys):
        code = main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1",
             "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "broker" in out
        assert "static-50-50" in out

    def test_fleet_status_reports_completed_units(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1",
             "--checkpoint", str(ck)]
        ) == 0
        capsys.readouterr()
        assert main(["fleet", "status", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "cluster_study" in out
        assert out.count("[done]") == 2
        assert "[todo]" not in out

    def test_fleet_status_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["fleet", "status", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("content", [b"", b'{"schema": 1, "comp'])
    def test_fleet_status_corrupt_file_exits_2_without_traceback(
        self, tmp_path, capsys, content
    ):
        """Zero-byte and truncated checkpoints get a one-line error on
        stderr and exit code 2 — never a traceback."""
        path = tmp_path / "ck.json"
        path.write_bytes(content)
        code = main(["fleet", "status", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_fleet_status_directory_exits_2(self, tmp_path, capsys):
        code = main(["fleet", "status", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unreadable checkpoint" in captured.err

    def test_resume_without_checkpoint_rejected(self, capsys):
        code = main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1",
             "--resume"]
        )
        assert code != 0

    def test_fleet_status_marks_checkpoint_restored_units(
        self, tmp_path, capsys
    ):
        ck = tmp_path / "ck.json"
        base = ["--seed", "7", "experiment", "cluster", "--slices", "1",
                "--checkpoint", str(ck)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(["fleet", "status", str(ck)]) == 0
        first = capsys.readouterr().out
        # Fresh run: every completed unit was actually executed.
        assert first.count("[done]") == 2
        assert "[done (checkpoint)]" not in first
        # Resume over a finished checkpoint executes nothing; status
        # must say where each result came from.
        assert main(base + ["--resume"]) == 0
        capsys.readouterr()
        assert main(["fleet", "status", str(ck)]) == 0
        second = capsys.readouterr().out
        assert second.count("[done (checkpoint)]") == 2
        assert "[todo]" not in second

    @pytest.mark.parametrize("kind", ["zero-byte", "fingerprint-mismatch"])
    @pytest.mark.parametrize("verb", sorted(CHECKPOINT_VERBS))
    def test_bad_checkpoint_is_one_line_error(
        self, tmp_path, capsys, verb, kind
    ):
        """An unusable --checkpoint exits 2 with one ``error:`` line on
        every verb, never a traceback."""
        ck = tmp_path / "ck.json"
        if kind == "zero-byte":
            ck.write_bytes(b"")
        else:
            ck.write_text(json.dumps({
                "schema": SCHEMA_VERSION,
                "fingerprint": {"fleet": "some-other-run", "seed": 1},
                "completed": {},
            }))
        argv = ["--seed", "7", *CHECKPOINT_VERBS[verb],
                "--checkpoint", str(ck), "--resume"]
        if verb == "report":
            argv += ["--out", str(tmp_path / "report.md")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
