#!/usr/bin/env python
"""Regenerate the committed operation-counter golden.

Runs the seven fixed-seed cases defined in
``tests/telemetry/test_op_counters.py`` (SGD reconstruction, DDS
search, the decision quantum with its telemetry, the deadline meter
and the fleet pool) and rewrites
``tests/telemetry/golden/op_counters.json`` with their counters.

The golden pins the work each hot path does, so a performance change
that keeps the work must leave it untouched.  Regenerate it only for
a declared change in work, record the reason in CHANGES.md, and run
from the repository root::

    PYTHONPATH=src python scripts/regen_op_counters.py
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "telemetry"))

from test_op_counters import GOLDEN, op_counters  # noqa: E402


def main() -> int:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    counters = op_counters()
    GOLDEN.write_text(json.dumps(counters, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(counters)} case(s) to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
