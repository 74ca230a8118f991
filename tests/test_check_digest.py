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
