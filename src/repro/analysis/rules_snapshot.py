"""Snapshot-completeness rule (whole-program).

Crash-safe resume is byte-identical only if every field mutated
mid-run round-trips through the snapshot; a forgotten one resumes at
its constructor default — a divergence no unit test sees until a chaos
soak happens to kill at the wrong quantum.  Stateful classes declare
their fields once, in ``SNAPSHOT_FIELDS`` on a
:class:`repro.snapshot.Snapshottable`, so SNAP701 checks that
declaration: every attribute a declaring class mutates outside
``__init__`` must be a key.  A class that hand-writes its own
capture/restore pair bypasses the declaration and is flagged too.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.engine import ProgramRule, Violation, register
from repro.analysis.program import ClassInfo, ProgramContext

#: Method names that capture / restore state.
CAPTURE_METHODS = frozenset({"snapshot", "to_snapshot", "state"})
RESTORE_METHODS = frozenset({"restore", "from_snapshot"})

#: Lifecycle methods whose writes are initial values, not mid-run
#: mutations the snapshot must carry.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _declared_fields(cls: ClassInfo) -> Optional[Set[str]]:
    """String keys of the class body's ``SNAPSHOT_FIELDS`` literal
    (None when the class declares none)."""
    for stmt in cls.node.body:
        target = stmt.targets[0] if isinstance(stmt, ast.Assign) else (
            stmt.target if isinstance(stmt, ast.AnnAssign) else None
        )
        if isinstance(target, ast.Name) and target.id == "SNAPSHOT_FIELDS":
            keys = getattr(stmt.value, "keys", [])
            return {
                k.value for k in keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
    return None


@register
class SnapshotCompletenessRule(ProgramRule):
    id = "SNAP701"
    title = "mutated attribute missing from SNAPSHOT_FIELDS"
    rationale = (
        "Crash-safe resume (docs/robustness.md) is byte-identical only "
        "if every mid-run mutation round-trips through the snapshot; a "
        "field SNAPSHOT_FIELDS omits resumes at its constructor default "
        "and silently diverges after the first kill, and a hand-written "
        "snapshot/restore pair has no declaration to check."
    )

    def check_program(self, program: ProgramContext) -> Iterator[Violation]:
        for qual in sorted(program.classes):
            cls = program.classes[qual]
            capture = sorted(set(cls.methods) & CAPTURE_METHODS)
            restore = sorted(set(cls.methods) & RESTORE_METHODS)
            is_base = (cls.module, cls.name) == ("repro.snapshot", "Snapshottable")
            if capture and restore and not is_base:
                yield Violation(
                    path=cls.path, line=cls.line, col=0, rule=self.id,
                    message=(
                        f"{cls.name} hand-writes {capture[0]}()/"
                        f"{restore[0]}(); subclass repro.snapshot."
                        "Snapshottable and declare SNAPSHOT_FIELDS instead"
                    ),
                )
            declared = _declared_fields(cls)
            if declared is not None:
                yield from self._check_declaration(cls, declared)

    def _check_declaration(
        self, cls: ClassInfo, declared: Set[str]
    ) -> Iterator[Violation]:
        for attr in sorted(set(cls.attr_writes) - declared):
            for write in cls.attr_writes[attr]:
                method_name = (write.method or "").rsplit(".", 1)[-1]
                if write.kind != "external" and method_name in _INIT_METHODS:
                    continue
                where = (
                    f"in {write.method}" if write.method is not None
                    else "at class scope"
                )
                yield Violation(
                    path=write.path, line=write.line, col=write.col,
                    rule=self.id,
                    message=(
                        f"{cls.name}.{attr} is mutated {where} but missing "
                        f"from {cls.name}.SNAPSHOT_FIELDS; a crash-resume "
                        "silently resets it — declare it (Transient() if "
                        "restore should reset it)"
                    ),
                )
                break
