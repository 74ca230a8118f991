#!/usr/bin/env python
"""Regenerate the committed decision corpus.

Runs the fixed set of runs defined in
``tests/experiments/test_decision_corpus.py`` (CuttleSys on mixes 0-4
for 30 quanta, one faulted run, two runs under a decision budget, and
a 10-quantum run at a 30 % power cap for every policy with a hard
power fallback) and rewrites
``tests/experiments/golden/decision_corpus.jsonl`` with one canonical
record per decision quantum.

The corpus pins decisions byte for byte, so a performance change must
leave it untouched.  Regenerate it only for a declared change of
decisions, from the repository root::

    PYTHONPATH=src python scripts/regen_decision_corpus.py
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "experiments"))

from test_decision_corpus import GOLDEN, decision_corpus  # noqa: E402


def main() -> int:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    lines = decision_corpus()
    GOLDEN.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} decision record(s) to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
