"""Tests for ``scripts/check_digest.py`` on canned run outputs.

No perfbench process is started: the outputs are the lines
``perfbench/run.py`` prints.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_digest.py"


@pytest.fixture(scope="module")
def check_digest():
    spec = importlib.util.spec_from_file_location("check_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_digest"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["check_digest"]


def run_output(workload, seed, digest):
    return (f"workload {workload} seed {seed}: 162 timed quanta, "
            f"digest {digest}\nhost: raw quantum_ms_p50 13.4\n")


def test_committed_digests_cover_every_workload(check_digest):
    committed = json.loads(check_digest.DIGESTS.read_text())
    assert committed["seed"] == 1
    assert set(committed["digests"]) == {"steady", "churn", "server"}
    assert all(len(d) == 64 for d in committed["digests"].values())


def test_matching_and_mismatching_runs(check_digest, tmp_path, capsys):
    committed = json.loads(check_digest.DIGESTS.read_text())
    churn = committed["digests"]["churn"]
    good = tmp_path / "good.txt"
    good.write_text(run_output("churn", 1, churn))
    assert check_digest.main([str(good)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(run_output("churn", 1, "0" * 64))
    assert check_digest.main([str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"committed {churn}" in err and "good.txt" not in err


@pytest.mark.parametrize("text, problem", [
    ("", "no digest line"),
    (run_output("churn", 2, "ab"), "seed 2 has no committed digest"),
    (run_output("other", 1, "ab"), "other: no committed digest"),
])
def test_unusable_outputs_fail(check_digest, text, problem):
    committed = json.loads(check_digest.DIGESTS.read_text())
    [found] = check_digest.problems(text, committed)
    assert problem in found


@pytest.fixture
def digests_copy(check_digest, tmp_path, monkeypatch):
    """The committed digests file, copied where ``--write`` may write."""
    path = tmp_path / "PERFBENCH_DIGESTS.json"
    path.write_text(check_digest.DIGESTS.read_text())
    monkeypatch.setattr(check_digest, "DIGESTS", path)
    return path


def write_runs(tmp_path, runs):
    paths = []
    for workload, seed, digest in runs:
        path = tmp_path / f"{workload}-{seed}-{len(paths)}.txt"
        path.write_text(run_output(workload, seed, digest))
        paths.append(str(path))
    return paths


def test_write_rewrites_every_digest(check_digest, digests_copy, tmp_path):
    runs = [("server", 1, "c" * 64), ("steady", 1, "a" * 64),
            ("churn", 1, "b" * 64)]
    assert check_digest.main(["--write", *write_runs(tmp_path, runs)]) == 0
    written = json.loads(digests_copy.read_text())
    # The committed shape: the seed, then the workloads in their order.
    assert written == {"seed": 1, "digests": {
        "steady": "a" * 64, "churn": "b" * 64, "server": "c" * 64}}
    assert list(written["digests"]) == ["steady", "churn", "server"]
    # The new file checks the runs it was written from.
    assert check_digest.main(write_runs(tmp_path, runs)) == 0


def test_write_of_the_committed_digests_is_byte_identical(
    check_digest, digests_copy, tmp_path
):
    before = digests_copy.read_text()
    committed = json.loads(before)["digests"]
    runs = [(w, 1, d) for w, d in committed.items()]
    assert check_digest.main(["--write", *write_runs(tmp_path, runs)]) == 0
    assert digests_copy.read_text() == before


@pytest.mark.parametrize("runs, problem", [
    ([("steady", 2, "a"), ("churn", 1, "b"), ("server", 1, "c")],
     "steady ran at seed 2; the digests are for seed 1"),
    ([("steady", 1, "a"), ("churn", 1, "b")], "no run of server"),
    ([("steady", 1, "a"), ("churn", 1, "b"), ("server", 1, "c"),
      ("other", 1, "d")], "other is not a committed workload"),
    ([("steady", 1, "a"), ("churn", 1, "b"), ("server", 1, "c"),
      ("churn", 1, "e")], "churn digest e disagrees with another run's b"),
])
def test_write_refuses_incomplete_or_wrong_runs(
    check_digest, digests_copy, tmp_path, capsys, runs, problem
):
    before = digests_copy.read_text()
    assert check_digest.main(["--write", *write_runs(tmp_path, runs)]) == 1
    assert problem in capsys.readouterr().err
    assert digests_copy.read_text() == before


def test_write_refuses_an_output_without_a_digest(
    check_digest, digests_copy, tmp_path, capsys
):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    runs = [("steady", 1, "a"), ("churn", 1, "b"), ("server", 1, "c")]
    paths = [*write_runs(tmp_path, runs), str(empty)]
    assert check_digest.main(["--write", *paths]) == 1
    assert "empty.txt: no digest line" in capsys.readouterr().err
