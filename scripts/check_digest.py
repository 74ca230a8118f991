#!/usr/bin/env python
"""Check perfbench runs' decision digests against the committed ones.

``perfbench/run.py`` prints a digest of the decisions a run made on its
first line (``workload W seed S: N timed quanta, digest D``).  A change
that claims byte-identical decisions must leave it equal to the value
committed in ``benchmarks/PERFBENCH_DIGESTS.json``; the values live
outside ``perfbench/``, so the claim is checked, not asserted by the
code under test.  A change that declares a decision change rewrites
that file and says why.

Usage, from any working directory::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 6 \\
        --trace 1 > churn.txt
    python scripts/check_digest.py churn.txt [more outputs ...]

Exits 0 when every output's digest equals the committed one for its
workload, else 1 with one line per mismatch.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

DIGESTS = Path(__file__).resolve().parents[1] / "benchmarks" / "PERFBENCH_DIGESTS.json"

_HEADER = re.compile(r"^workload (\w+) seed (\d+): .*\bdigest (\w+)$", re.M)


def problems(output: str, committed: Dict[str, object]) -> List[str]:
    """What is wrong with one run's ``output``; empty when its digest
    is the committed one."""
    match = _HEADER.search(output)
    if match is None:
        return ["no digest line in the run's output"]
    workload, seed, digest = match.group(1), int(match.group(2)), match.group(3)
    if seed != committed["seed"]:
        return [f"{workload}: seed {seed} has no committed digest "
                f"(committed seed {committed['seed']})"]
    want = committed["digests"].get(workload)  # type: ignore[attr-defined]
    if want is None:
        return [f"{workload}: no committed digest"]
    if digest != want:
        return [f"{workload} seed {seed}: digest {digest}, committed {want}"]
    return []


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: check_digest.py RUN_OUTPUT [RUN_OUTPUT ...]",
              file=sys.stderr)
        return 2
    committed = json.loads(DIGESTS.read_text())
    failed = False
    for path in paths:
        found = problems(Path(path).read_text(), committed)
        for line in found:
            print(f"{path}: {line}", file=sys.stderr)
        if not found:
            print(f"{path}: digest matches {DIGESTS.name}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
