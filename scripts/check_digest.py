#!/usr/bin/env python
"""Check perfbench runs' decision digests against the committed ones.

``perfbench/run.py`` prints a digest of the decisions a run made on its
first line (``workload W seed S: N timed quanta, digest D``).  A change
that claims byte-identical decisions must leave it equal to the value
committed in ``benchmarks/PERFBENCH_DIGESTS.json``; the values live
outside ``perfbench/``, so the claim is checked, not asserted by the
code under test.  A change that declares a decision change rewrites
that file with ``--write`` and says why.

Usage, from any working directory::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 6 \\
        --trace 1 > churn.txt
    python scripts/check_digest.py churn.txt [more outputs ...]
    python scripts/check_digest.py --write steady.txt churn.txt server.txt

Checking exits 0 when every output's digest equals the committed one
for its workload, else 1 with one line per mismatch.  ``--write``
rewrites the file from one run of every committed workload at the
committed seed; it refuses (exit 1, the file untouched) an output with
another seed, an unknown workload, two runs of one workload that
disagree, or a workload with no run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DIGESTS = Path(__file__).resolve().parents[1] / "benchmarks" / "PERFBENCH_DIGESTS.json"

_HEADER = re.compile(r"^workload (\w+) seed (\d+): .*\bdigest (\w+)$", re.M)


def read_header(output: str) -> Optional[Tuple[str, int, str]]:
    """The workload, seed and digest one run printed; None without a
    digest line."""
    match = _HEADER.search(output)
    if match is None:
        return None
    return match.group(1), int(match.group(2)), match.group(3)


def problems(output: str, committed: Dict[str, object]) -> List[str]:
    """What is wrong with one run's ``output``; empty when its digest
    is the committed one."""
    header = read_header(output)
    if header is None:
        return ["no digest line in the run's output"]
    workload, seed, digest = header
    if seed != committed["seed"]:
        return [f"{workload}: seed {seed} has no committed digest "
                f"(committed seed {committed['seed']})"]
    want = committed["digests"].get(workload)  # type: ignore[attr-defined]
    if want is None:
        return [f"{workload}: no committed digest"]
    if digest != want:
        return [f"{workload} seed {seed}: digest {digest}, committed {want}"]
    return []


def new_digests(
    outputs: Dict[str, str], committed: Dict[str, object]
) -> Tuple[Dict[str, object], List[str]]:
    """The digests file the runs in ``outputs`` (path -> output) give,
    in the committed file's shape, and what forbids writing it."""
    workloads = list(committed["digests"])  # type: ignore[call-overload]
    digests: Dict[str, str] = {}
    found: List[str] = []
    for path, output in outputs.items():
        header = read_header(output)
        if header is None:
            found.append(f"{path}: no digest line in the run's output")
            continue
        workload, seed, digest = header
        if seed != committed["seed"]:
            found.append(f"{path}: {workload} ran at seed {seed}; the "
                         f"digests are for seed {committed['seed']}")
        elif workload not in workloads:
            found.append(f"{path}: {workload} is not a committed workload")
        elif digests.setdefault(workload, digest) != digest:
            found.append(f"{path}: {workload} digest {digest} disagrees "
                         f"with another run's {digests[workload]}")
    missing = [w for w in workloads if w not in digests]
    if missing:
        found.append(f"no run of {', '.join(missing)}")
    return {
        "seed": committed["seed"],
        "digests": {w: digests.get(w) for w in workloads},
    }, found


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check (or with --write, rewrite) the committed "
                    "perfbench decision digests.")
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {DIGESTS.name} from the outputs")
    parser.add_argument("outputs", nargs="+", metavar="RUN_OUTPUT")
    args = parser.parse_args(argv)
    committed = json.loads(DIGESTS.read_text())
    texts = {path: Path(path).read_text() for path in args.outputs}
    if args.write:
        data, found = new_digests(texts, committed)
        for line in found:
            print(line, file=sys.stderr)
        if found:
            return 1
        DIGESTS.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {len(data['digests'])} digests to {DIGESTS}")
        return 0
    failed = False
    for path, text in texts.items():
        found = problems(text, committed)
        for line in found:
            print(f"{path}: {line}", file=sys.stderr)
        if not found:
            print(f"{path}: digest matches {DIGESTS.name}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
