"""Work-unit descriptors and deterministic result/telemetry merging.

A *work unit* is one independent cell of simulation work — a socket
arm of a brokered rack study, a (mix, policy, seed) cell of an
experiment grid, one section of the full evaluation.  Units carry a
stable ``unit_id`` and a picklable ``(fn, kwargs)`` pair, so the same
descriptor executes identically in-process (``--jobs 1``) and inside a
worker process (``--jobs N``).

Determinism contract (docs/scaling.md): a unit must derive every
random stream it needs from its *arguments* — via
:func:`repro.rng.rng_for` (see :func:`unit_seed`) or an explicitly
seeded constructor — and must not read or write process-global mutable
state (enforced by the ``FLT501`` lint rule).  Results are merged in
*unit* order, never completion order, so ``--jobs N`` output is
byte-identical to serial output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.rng import rng_for
from repro.telemetry import Telemetry
from repro.telemetry.exporters import telemetry_records

__all__ = [
    "FROM_CHECKPOINT",
    "UnitResult",
    "WorkUnit",
    "merge_results",
    "merge_unit_telemetry",
    "unit_seed",
    "unit_telemetry",
]

#: ``UnitResult.worker`` value for units restored from a checkpoint
#: rather than executed this run.
FROM_CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class WorkUnit:
    """One independent, picklable cell of simulation work.

    ``fn`` must be an importable module-level callable (worker
    processes unpickle it by reference) and ``kwargs`` its keyword
    arguments.  The return value is the unit's *result*.  When the run
    is checkpointed both must be JSON-serializable: the checkpoint's
    fingerprint records every unit's kwargs.
    """

    unit_id: str
    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Set by :func:`~repro.fleet.runner.run_grid` when a consumer
    #: reads unit telemetry: :meth:`run` then passes ``fn`` a fresh
    #: session as ``telemetry`` and exports it into the (dict) value.
    with_telemetry: bool = False

    def __post_init__(self) -> None:
        if not self.unit_id:
            raise ValueError("unit_id must be non-empty")

    def run(self) -> Any:
        """Execute the unit in the current process.

        With ``with_telemetry``, the session's records land under the
        value's ``"telemetry"`` key, where :func:`unit_telemetry` and
        the live view read them.
        """
        if not self.with_telemetry:
            return self.fn(**dict(self.kwargs))
        session = Telemetry()
        value = self.fn(telemetry=session, **dict(self.kwargs))
        value["telemetry"] = telemetry_records(session)
        return value


@dataclass(frozen=True)
class UnitResult:
    """One executed (or restored) unit's outcome.

    ``attempts`` counts submissions to a worker (0 means the value was
    restored from a checkpoint); ``worker`` names the executing slot —
    informational only, and deliberately excluded from every merged
    report so results stay byte-identical across ``--jobs`` settings.
    """

    unit_id: str
    index: int
    value: Any
    attempts: int = 1
    worker: str = "serial"


def unit_seed(unit_id: str, seed: int = 0) -> int:
    """Per-unit integer seed minted from the blessed stream derivation.

    Wraps :func:`repro.rng.rng_for` so every unit of a fleet gets an
    independent, process-stable stream keyed on its id: two units never
    share draws, and adding a unit never shifts another unit's stream.
    """
    return int(rng_for(unit_id, salt="fleet.unit", seed=seed).integers(2**31))


def merge_results(
    units: Sequence[WorkUnit],
    by_id: Mapping[str, UnitResult],
) -> Tuple[UnitResult, ...]:
    """Order results by the fleet's stable unit order (not completion).

    This is the merge half of the determinism contract: whatever order
    workers finished in, downstream consumers always see unit order.
    """
    missing = [u.unit_id for u in units if u.unit_id not in by_id]
    if missing:
        raise KeyError(f"results missing for unit(s): {', '.join(missing)}")
    return tuple(by_id[u.unit_id] for u in units)


# ----------------------------------------------------------------------
# Telemetry merge
# ----------------------------------------------------------------------

def unit_telemetry(
    results: Sequence[UnitResult],
) -> List[Tuple[str, List[Dict]]]:
    """Extract per-unit telemetry records from unit result dicts.

    Units that collected telemetry carry it under the ``"telemetry"``
    key of their (dict) value; units without the key contribute
    nothing.
    """
    pairs: List[Tuple[str, List[Dict]]] = []
    for result in results:
        if isinstance(result.value, dict) and "telemetry" in result.value:
            pairs.append((result.unit_id, list(result.value["telemetry"])))
    return pairs


def merge_unit_telemetry(
    results: Sequence[UnitResult],
    path_or_file: Optional[Any] = None,
) -> List[Dict]:
    """Merge every unit's telemetry into one canonical session log.

    Delegates to :func:`repro.telemetry.exporters.merge_jsonl`, which
    sorts decision records by ``(quantum, unit)`` and sums counters so
    the merged log round-trips like a single-session one.
    """
    from repro.telemetry.exporters import merge_jsonl

    return merge_jsonl(unit_telemetry(results), path_or_file)
