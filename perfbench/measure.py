"""Statistics and the correctness digest shared by the benchmark."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Iterable, Sequence

#: Percentiles the benchmark may report as a tail, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND_TAIL = 10


def tail_percentile(n_samples: int) -> float:
    """Highest candidate percentile with ``MIN_BEYOND_TAIL`` samples
    beyond it among ``n_samples``; 0.0 when even the median has fewer."""
    best = 0.0
    for q in TAIL_CANDIDATES:
        # Rounding guards 100 * (1 - 0.9) = 9.999... against floor().
        beyond = math.floor(round(n_samples * (100.0 - q) / 100.0, 9))
        if beyond >= MIN_BEYOND_TAIL:
            best = q
    return best


def min_samples_for(q: float) -> int:
    """Smallest sample count for which ``tail_percentile`` reaches ``q``."""
    n = 1
    while tail_percentile(n) < q:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def canonical(record: Any) -> bytes:
    """Byte-stable JSON encoding (sorted keys, shortest float repr)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      allow_nan=True).encode("utf-8")


def all_finite(record: Any) -> bool:
    """Whether every number nested in ``record`` is finite."""
    if isinstance(record, float):
        return math.isfinite(record)
    if isinstance(record, dict):
        return all(all_finite(v) for v in record.values())
    if isinstance(record, (list, tuple)):
        return all(all_finite(v) for v in record)
    return True


def digest(records: Iterable[bytes]) -> str:
    """sha256 over length-prefixed canonical records."""
    h = hashlib.sha256()
    for record in records:
        h.update(len(record).to_bytes(8, "big"))
        h.update(record)
    return h.hexdigest()
