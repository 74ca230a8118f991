"""Whole-program symbol table, call graph, and dataflow summaries.

The per-file rules in ``rules_*`` see one AST at a time, which is
enough for local hygiene (an unseeded generator, a float ``==``) but
blind to the cross-file invariants the reproduction actually rests on:
a snapshot method in ``controller.py`` must cover a field mutated in a
helper three calls away, and a wall clock is just as poisonous when it
is reached *transitively* from the decision loop.  This module builds
the interprocedural context those rules need:

* a **symbol table** over every parsed file — modules, classes (with
  per-class attribute-write and attribute-type summaries), functions,
  and import aliases;
* a **call graph** resolved in tiers — exact (module-local names,
  import aliases, ``self.method``, locals/parameters with inferred
  class types, ``self.attr`` fields typed from ``__init__``) with a
  class-hierarchy fallback that links ``obj.method()`` to every known
  class defining ``method`` when the receiver's type is unknown;
* **RNG-lineage summaries** — every ``rng_for`` call site with its
  statically-known ``(name, salt)`` stream key;
* root finders for the decision hot path (DET105) and the fleet worker
  entry points (FLT502).

Whole-program rules subclass :class:`repro.analysis.engine.ProgramRule`
and receive one :class:`ProgramContext` per lint run.  The graph is an
over-approximation by design: for a *guard* rule, a spurious edge costs
a reviewable ``# repro: noqa[...]``, while a missing edge silently
waives the invariant.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import LintContext, dotted_name

__all__ = [
    "AttrWrite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramContext",
    "RngForCall",
]

#: Method names whose call mutates the receiver in place.  Used both
#: for attribute-write summaries (``self.cache.update(...)`` mutates
#: ``cache``) and module-global mutation detection.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "remove", "setdefault",
    "sort", "update",
})

#: Call targets (last dotted segment) that construct an RNG stream.
RNG_CONSTRUCTORS = frozenset({
    "default_rng", "rng_for", "Generator", "RandomState", "Random",
    "SeedSequence",
})


@dataclass(frozen=True)
class AttrWrite:
    """One mutation of ``<instance>.attr`` somewhere in the program."""

    attr: str
    path: str
    line: int
    col: int
    #: Qualified name of the enclosing function/method (``None`` for
    #: writes at class body scope).
    method: Optional[str]
    #: ``assign`` / ``augassign`` / ``subscript`` / ``mutator`` /
    #: ``external`` (written through a typed variable outside the class).
    kind: str


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str
    name: str
    module: str
    path: str
    line: int
    node: ast.AST
    #: Owning class qualname for methods, else None.
    cls: Optional[str] = None
    #: Local variable name -> class qualname, inferred from parameter
    #: annotations and ``x = ClassName(...)`` assignments.
    var_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class definition plus its attribute summaries."""

    qualname: str
    name: str
    module: str
    path: str
    line: int
    node: ast.ClassDef
    base_names: Tuple[str, ...] = ()
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> class qualname, inferred from ``__init__``.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> every write site, in source order.
    attr_writes: Dict[str, List[AttrWrite]] = field(default_factory=dict)


@dataclass(frozen=True)
class RngForCall:
    """One ``rng_for(...)`` call site with its static stream key."""

    path: str
    line: int
    col: int
    module: str
    #: Statically-known ``name`` argument, None when dynamic.
    name_const: Optional[str]
    #: Statically-known ``salt`` argument ("" when omitted), None when
    #: dynamic.
    salt_const: Optional[str]

    @property
    def constant_key(self) -> Optional[Tuple[str, str]]:
        """The ``(name, salt)`` stream key when fully static."""
        if self.name_const is None or self.salt_const is None:
            return None
        return (self.name_const, self.salt_const)


@dataclass
class ModuleInfo:
    """Per-module symbol scope."""

    module: str
    path: str
    tree: ast.Module
    #: local name -> dotted import target (``np`` -> ``numpy``,
    #: ``rng_for`` -> ``repro.rng.rng_for``).
    aliases: Dict[str, str] = field(default_factory=dict)
    #: local function name -> qualname.
    functions: Dict[str, str] = field(default_factory=dict)
    #: local class name -> qualname.
    classes: Dict[str, str] = field(default_factory=dict)
    #: names bound at module scope (candidates for shared-state
    #: mutation checks) -> first binding line.
    globals: Dict[str, int] = field(default_factory=dict)


def _const_str(node: ast.AST) -> Optional[str]:
    """The literal string value of ``node``, None when dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort dotted class name out of an annotation node."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: take the trailing identifier path.
        text = node.value.strip()
        return text if text.replace(".", "_").isidentifier() else None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return dotted_name(node)
    if isinstance(node, ast.Subscript):
        # Optional[X] / list[X]-style wrappers: look inside.
        wrapper = dotted_name(node.value)
        if wrapper and wrapper.rsplit(".", 1)[-1] == "Optional":
            return _annotation_name(node.slice)
    return None


def _write_root(target: ast.AST) -> Optional[Tuple[str, str, str]]:
    """Decompose a store target into ``(receiver, attr, kind)``.

    ``self._rng.bit_generator.state = ...`` roots at ``("self",
    "_rng", "assign")``: the deepest attribute chain is a mutation of
    the first-level field.  Returns None for plain-name targets.
    """
    kind = "assign"
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
        kind = "subscript"
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
        while isinstance(node, ast.Subscript):
            node = node.value
            kind = "subscript"
    if not chain or not isinstance(node, ast.Name):
        return None
    return (node.id, chain[-1], kind)


def _mutator_root(call: ast.Call) -> Optional[Tuple[str, str]]:
    """``("self", "cache")`` for ``self.cache.update(...)``-style calls."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in MUTATOR_METHODS:
        return None
    node = func.value
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if not chain:
        # NAME.update(...) — a bare-name receiver (module global).
        return (node.id, "")
    return (node.id, chain[-1])


class ProgramContext:
    """Symbol table + call graph over every file in one lint run."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> qualnames of every class method so named
        #: (the class-hierarchy fallback tier).
        self.method_index: Dict[str, Set[str]] = {}
        #: caller qualname -> callee qualnames.
        self.call_graph: Dict[str, Set[str]] = {}
        #: Top-level package of every indexed module.
        self.packages: Set[str] = set()
        self.rng_for_calls: List[RngForCall] = []
        #: Functions handed to ``Process(target=...)`` inside
        #: ``repro.fleet`` or to ``WorkUnit(fn=...)`` anywhere.
        self.fleet_entries: Set[str] = set()

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[LintContext]) -> "ProgramContext":
        """Index every file, then resolve calls into the graph."""
        program = cls()
        ordered = [
            ctx for ctx in contexts
            if program._index_module(ctx)
        ]
        for ctx in ordered:
            program._collect_bodies(ctx)
        return program

    def _index_module(self, ctx: LintContext) -> bool:
        """Pass 1: register one module's symbols.  False on collision."""
        if ctx.module in self.modules:
            return False
        mod = ModuleInfo(module=ctx.module, path=ctx.path, tree=ctx.tree)
        self.modules[ctx.module] = mod
        self.packages.add(ctx.module.split(".", 1)[0])
        for stmt in ctx.tree.body:
            self._index_statement(mod, stmt)
        return True

    def _index_statement(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                mod.aliases[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is not None and stmt.level == 0:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    mod.aliases[local] = f"{stmt.module}.{alias.name}"
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{mod.module}.{stmt.name}"
            mod.functions[stmt.name] = qual
            self.functions[qual] = FunctionInfo(
                qualname=qual, name=stmt.name, module=mod.module,
                path=mod.path, line=stmt.lineno, node=stmt,
            )
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(mod, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    mod.globals.setdefault(target.id, stmt.lineno)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING guards and import fallbacks.
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._index_statement(mod, inner)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qual = f"{mod.module}.{node.name}"
        mod.classes[node.name] = qual
        info = ClassInfo(
            qualname=qual, name=node.name, module=mod.module,
            path=mod.path, line=node.lineno, node=node,
            base_names=tuple(
                name for name in (dotted_name(b) for b in node.bases)
                if name is not None
            ),
        )
        self.classes[qual] = info
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method_qual = f"{qual}.{stmt.name}"
            info.methods[stmt.name] = method_qual
            self.functions[method_qual] = FunctionInfo(
                qualname=method_qual, name=stmt.name, module=mod.module,
                path=mod.path, line=stmt.lineno, node=stmt, cls=qual,
            )
            self.method_index.setdefault(stmt.name, set()).add(method_qual)
            self._collect_self_writes(info, method_qual, stmt)
            if stmt.name == "__init__":
                self._infer_attr_types(mod, info, stmt)

    def _collect_self_writes(
        self, info: ClassInfo, method_qual: str, fn: ast.AST
    ) -> None:
        """Record every ``self.attr`` mutation inside one method."""
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                kind = (
                    "augassign" if isinstance(node, ast.AugAssign)
                    else "assign"
                )
                for target in targets:
                    root = _write_root(target)
                    if root is None or root[0] != "self":
                        continue
                    self._record_write(
                        info, root[1], node,
                        root[2] if root[2] == "subscript" else kind,
                        method_qual,
                    )
            elif isinstance(node, ast.Call):
                root = _mutator_root(node)
                if root is not None and root[0] == "self" and root[1]:
                    self._record_write(
                        info, root[1], node, "mutator", method_qual
                    )

    def _record_write(
        self,
        info: ClassInfo,
        attr: str,
        node: ast.AST,
        kind: str,
        method: Optional[str],
    ) -> None:
        info.attr_writes.setdefault(attr, []).append(AttrWrite(
            attr=attr, path=info.path,
            line=getattr(node, "lineno", info.line),
            col=getattr(node, "col_offset", 0),
            method=method, kind=kind,
        ))

    def _infer_attr_types(
        self, mod: ModuleInfo, info: ClassInfo, init: ast.AST
    ) -> None:
        """``self.x = ClassName(...)`` / annotated-param field types."""
        params: Dict[str, str] = {}
        args = init.args  # type: ignore[attr-defined]
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            annotated = _annotation_name(arg.annotation)
            if annotated is not None:
                resolved = self._resolve_class_name(mod, annotated)
                if resolved is not None:
                    params[arg.arg] = resolved
        for node in ast.walk(init):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            value = node.value
            inferred: Optional[str] = None
            if isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee is not None:
                    inferred = self._resolve_class_name(mod, callee)
            elif isinstance(value, ast.Name) and value.id in params:
                inferred = params[value.id]
            if inferred is None and isinstance(node, ast.AnnAssign):
                annotated = _annotation_name(node.annotation)
                if annotated is not None:
                    inferred = self._resolve_class_name(mod, annotated)
            if inferred is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_types.setdefault(target.attr, inferred)

    # -- pass 2: bodies ------------------------------------------------

    def _collect_bodies(self, ctx: LintContext) -> None:
        mod = self.modules[ctx.module]
        seen: Set[int] = set()
        for qual, fn in sorted(self.functions.items()):
            if fn.module != ctx.module:
                continue
            fn.var_types = self._infer_var_types(mod, fn)
            edges = self.call_graph.setdefault(qual, set())
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                seen.add(id(node))
                edges.update(self._resolve_call(mod, fn, node))
                self._scan_special_call(mod, fn, node)
            self._collect_external_writes(fn)
        # Module-level calls (outside any def) still feed the RNG and
        # fleet-entry summaries.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and id(node) not in seen:
                self._scan_special_call(mod, None, node)

    def _infer_var_types(
        self, mod: ModuleInfo, fn: FunctionInfo
    ) -> Dict[str, str]:
        types: Dict[str, str] = {}
        node = fn.node
        args = getattr(node, "args", None)
        if args is not None:
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                annotated = _annotation_name(arg.annotation)
                if annotated is not None:
                    resolved = self._resolve_class_name(mod, annotated)
                    if resolved is not None:
                        types[arg.arg] = resolved
        for inner in ast.walk(node):
            if not isinstance(inner, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                inner.targets if isinstance(inner, ast.Assign)
                else [inner.target]
            )
            inferred: Optional[str] = None
            if isinstance(inner.value, ast.Call):
                callee = dotted_name(inner.value.func)
                if callee is not None:
                    inferred = self._resolve_class_name(mod, callee)
            if inferred is None and isinstance(inner, ast.AnnAssign):
                annotated = _annotation_name(inner.annotation)
                if annotated is not None:
                    inferred = self._resolve_class_name(mod, annotated)
            if inferred is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    types.setdefault(target.id, inferred)
        return types

    def _collect_external_writes(self, fn: FunctionInfo) -> None:
        """``obj.attr = ...`` where ``obj``'s class is known."""
        for node in ast.walk(fn.node):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                root = _write_root(target)
                if root is None or root[0] == "self":
                    continue
                cls_qual = fn.var_types.get(root[0])
                if cls_qual is None or cls_qual not in self.classes:
                    continue
                self._record_write(
                    self.classes[cls_qual], root[1], node, "external",
                    fn.qualname,
                )

    def _scan_special_call(
        self, mod: ModuleInfo, fn: Optional[FunctionInfo], node: ast.Call
    ) -> None:
        target = dotted_name(node.func)
        if target is None:
            return
        tail = target.rsplit(".", 1)[-1]
        if tail == "rng_for":
            self._record_rng_for(mod, node)
        elif tail == "Process" and mod.module.startswith("repro.fleet"):
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    resolved = self._resolve_function_name(
                        mod, kw.value.id
                    )
                    if resolved is not None:
                        self.fleet_entries.add(resolved)
        elif tail == "WorkUnit":
            for kw in node.keywords:
                if kw.arg == "fn" and isinstance(kw.value, ast.Name):
                    resolved = self._resolve_function_name(
                        mod, kw.value.id
                    )
                    if resolved is not None:
                        self.fleet_entries.add(resolved)

    def _record_rng_for(self, mod: ModuleInfo, node: ast.Call) -> None:
        name_node: Optional[ast.AST] = None
        salt_node: Optional[ast.AST] = None
        if node.args:
            name_node = node.args[0]
        if len(node.args) > 1:
            salt_node = node.args[1]
        for kw in node.keywords:
            if kw.arg == "name":
                name_node = kw.value
            elif kw.arg == "salt":
                salt_node = kw.value
        self.rng_for_calls.append(RngForCall(
            path=mod.path, line=node.lineno, col=node.col_offset,
            module=mod.module,
            name_const=_const_str(name_node) if name_node else None,
            salt_const=(
                "" if salt_node is None else _const_str(salt_node)
            ),
        ))

    # -- name resolution -----------------------------------------------

    def _resolve_class_name(
        self, mod: ModuleInfo, name: str
    ) -> Optional[str]:
        """Dotted/local class name -> class qualname, if indexed."""
        head = name.split(".", 1)[0]
        if name in mod.classes:
            return mod.classes[name]
        if head in mod.aliases:
            resolved = mod.aliases[head] + name[len(head):]
            if resolved in self.classes:
                return resolved
        if name in self.classes:
            return name
        return None

    def _resolve_function_name(
        self, mod: ModuleInfo, name: str
    ) -> Optional[str]:
        if name in mod.functions:
            return mod.functions[name]
        if name in mod.aliases and mod.aliases[name] in self.functions:
            return mod.aliases[name]
        return None

    def _lookup_method(
        self, cls: ClassInfo, method: str, _depth: int = 0
    ) -> Optional[str]:
        if method in cls.methods:
            return cls.methods[method]
        if _depth >= 8:
            return None
        mod = self.modules.get(cls.module)
        for base_name in cls.base_names:
            base_qual = (
                self._resolve_class_name(mod, base_name)
                if mod is not None else None
            )
            if base_qual is None:
                continue
            found = self._lookup_method(
                self.classes[base_qual], method, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _resolve_call(
        self, mod: ModuleInfo, fn: FunctionInfo, call: ast.Call
    ) -> Set[str]:
        name = dotted_name(call.func)
        if name is None:
            return set()
        parts = name.split(".")
        # Tier 1: bare local/imported names and constructors.
        if len(parts) == 1:
            resolved = self._resolve_function_name(mod, parts[0])
            if resolved is not None:
                return {resolved}
            cls_qual = self._resolve_class_name(mod, parts[0])
            if cls_qual is not None:
                init = self.classes[cls_qual].methods.get("__init__")
                return {init} if init else set()
            return set()
        head, rest = parts[0], parts[1:]
        # Tier 2: self.method() / self.field.method().
        if head == "self" and fn.cls is not None:
            cls = self.classes[fn.cls]
            if len(rest) == 1:
                found = self._lookup_method(cls, rest[0])
                if found is not None:
                    return {found}
            elif len(rest) == 2:
                field_type = cls.attr_types.get(rest[0])
                if field_type is not None:
                    found = self._lookup_method(
                        self.classes[field_type], rest[1]
                    )
                    if found is not None:
                        return {found}
        # Tier 3: typed local receiver.
        if len(rest) == 1 and head in fn.var_types:
            receiver = self.classes.get(fn.var_types[head])
            if receiver is not None:
                found = self._lookup_method(receiver, rest[0])
                if found is not None:
                    return {found}
        # Tier 4: dotted module/class paths through import aliases.
        if head in mod.aliases or head in mod.classes:
            base = mod.aliases.get(head) or mod.classes[head]
            if base.split(".", 1)[0] not in self.packages:
                # A module outside the program (``os.close``) never
                # runs a project method of the same name.
                return set()
            full = ".".join([base, *rest])
            if full in self.functions:
                return {full}
            cls_qual = self._resolve_class_name(mod, ".".join(parts[:-1]))
            if cls_qual is not None:
                found = self._lookup_method(
                    self.classes[cls_qual], parts[-1]
                )
                if found is not None:
                    return {found}
        if name in self.functions:
            return {name}
        # Tier 5: class-hierarchy fallback by method name.
        return set(self.method_index.get(parts[-1], ()))

    # -- queries -------------------------------------------------------

    def reachable(
        self, roots: Iterable[str]
    ) -> Dict[str, Optional[str]]:
        """BFS closure of the call graph: qualname -> parent (chains)."""
        parents: Dict[str, Optional[str]] = {}
        frontier: List[str] = []
        for root in sorted(set(roots)):
            if root in self.functions and root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            current = frontier.pop(0)
            for callee in sorted(self.call_graph.get(current, ())):
                if callee not in parents and callee in self.functions:
                    parents[callee] = current
                    frontier.append(callee)
        return parents

    def chain(
        self, parents: Dict[str, Optional[str]], qualname: str
    ) -> List[str]:
        """Root-to-``qualname`` call chain out of a ``reachable`` map."""
        out = [qualname]
        seen = {qualname}
        while True:
            parent = parents.get(out[-1])
            if parent is None or parent in seen:
                break
            out.append(parent)
            seen.add(parent)
        return list(reversed(out))

    def decision_roots(self) -> List[str]:
        """Hot-path entry points for the DET105 reachability pass."""
        roots: Set[str] = set()
        for qual, fn in self.functions.items():
            if fn.cls is None:
                if fn.name == "run_policy":
                    roots.add(qual)
                continue
            owner = self.classes[fn.cls].name
            if fn.name == "decide":
                roots.add(qual)
            elif fn.name == "search" and owner.endswith("Search"):
                roots.add(qual)
            elif fn.name == "reconstruct" and owner.endswith(
                "Reconstructor"
            ):
                roots.add(qual)
        return sorted(roots)

    def fleet_entry_points(self) -> List[str]:
        """Worker entry points for the FLT502 reachability pass."""
        roots = set(self.fleet_entries)
        for qual, cls in self.classes.items():
            if cls.name == "WorkUnit" and cls.module.startswith(
                "repro.fleet"
            ):
                run = cls.methods.get("run")
                if run is not None:
                    roots.add(run)
        return sorted(roots)

    def module_in(self, module: str, *packages: str) -> bool:
        """True when ``module`` lives under any of ``packages``."""
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in packages
        )
