"""Project-wide call graph with lock and await context per call site.

Resolution is name-based and deliberately conservative:

* ``self.m()`` / ``cls.m()`` — method ``m`` of the lexically enclosing
  class, falling back to any project function named ``m``;
* a bare ``f()`` — a definition in the same module, or the target of a
  ``from <project module> import f``;
* ``obj.m()`` — every project function named ``m``, *except* names in
  :data:`COMMON_NAMES` (``get``, ``put``, ``close``…), which collide
  with dict/file/socket vocabulary so often that by-name edges would be
  mostly noise.  Contracts on those methods are declared explicitly
  instead (``@requires_lock`` on the store mutators).

Every :class:`CallSite` records which lock attributes are lexically
held (``with self._lock:`` → ``"_lock"``) and whether the call is the
direct operand of an ``await`` — the facts LCK01 and ASY01 propagate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.project import Project, SourceFile

__all__ = ["CallGraph", "CallSite", "FunctionInfo", "MutationSite", "build_graph"]

#: Method names too generic for by-name edge resolution.
COMMON_NAMES = frozenset(
    {
        "get", "put", "pop", "append", "add", "update", "clear", "items",
        "keys", "values", "close", "join", "read", "write", "send", "recv",
        "open", "start", "stop", "run", "copy", "encode", "decode", "strip",
        "split", "format", "record", "increment", "labels", "setdefault",
        # Client protocol verbs: every transport (HTTP, in-process,
        # asyncio) implements the same surface, so a by-name edge from
        # an async caller would union the sync implementations in too.
        "register", "reset", "submit", "peek", "submit_many", "peek_many",
        "decide_group", "metrics", "snapshot", "metrics_snapshot",
    }
)

#: Dict/list/set mutator methods — calling one on a guarded attribute
#: counts as mutating the field (``self._dirty.add(...)``).
MUTATOR_METHODS = frozenset(
    {
        "append", "add", "clear", "discard", "extend", "insert", "pop",
        "popitem", "remove", "setdefault", "update", "move_to_end",
        "appendleft",
    }
)


@dataclass(frozen=True)
class FunctionInfo:
    key: str  # "<rel>::<qualname>"
    source: SourceFile
    qualname: str
    name: str
    cls: str  # innermost enclosing class qualname, "" for module level
    is_async: bool
    line: int
    decorators: FrozenSet[str]

    @property
    def display(self) -> str:
        return self.qualname


@dataclass
class CallSite:
    caller: FunctionInfo
    node: ast.Call
    line: int
    callee: str  # terminal name being called
    kind: str  # "self" | "bare" | "attr"
    receiver: str  # terminal name of the receiver expr ("" for bare)
    dotted: Tuple[str, ...]  # e.g. ("time", "sleep") for module-attr calls
    awaited: bool
    locks: FrozenSet[str]
    argc: int
    has_args: bool  # any positional/keyword argument at all


@dataclass
class MutationSite:
    caller: FunctionInfo
    line: int
    fieldname: str
    receiver: str  # "self" or the terminal receiver name
    receiver_is_self: bool
    locks: FrozenSet[str]
    how: str  # "assign" | "del" | "call:<method>" | "subscript"


def _decorator_names(node: ast.AST) -> FrozenSet[str]:
    names: Set[str] = set()
    for decorator in getattr(node, "decorator_list", []):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return frozenset(names)


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return ""


def _dotted(node: ast.AST) -> Tuple[str, ...]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.insert(0, node.id)
        return tuple(parts)
    return ()


def _lock_names(with_node: ast.AST) -> Set[str]:
    """Lock attribute names entered by a ``with`` statement."""
    held: Set[str] = set()
    for item in getattr(with_node, "items", []):
        name = _terminal_name(item.context_expr)
        if "lock" in name.lower():
            held.add(name)
    return held


class _BodyWalker:
    """One function body: call sites + mutations with lexical context."""

    def __init__(self, info: FunctionInfo, guarded_names: FrozenSet[str]):
        self.info = info
        self.guarded_names = guarded_names
        self.calls: List[CallSite] = []
        self.mutations: List[MutationSite] = []

    def walk_body(self, body: List[ast.stmt]) -> None:
        for statement in body:
            self._visit(statement, frozenset(), False)

    def _visit(self, node: ast.AST, locks: FrozenSet[str], awaited: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes get their own FunctionInfo
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = locks | _lock_names(node)
            for item in node.items:
                self._visit(item.context_expr, locks, False)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, locks, False)
            for statement in node.body:
                self._visit(statement, inner, False)
            return
        if isinstance(node, ast.Await):
            self._visit(node.value, locks, True)
            return
        if isinstance(node, ast.Call):
            self._record_call(node, locks, awaited)
            for child in ast.iter_child_nodes(node):
                self._visit(child, locks, False)
            return
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                self._record_mutation_target(target, locks)
            for child in ast.iter_child_nodes(node):
                self._visit(child, locks, False)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_mutation_target(target, locks, how="del")
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, locks, False)

    def _record_call(
        self, node: ast.Call, locks: FrozenSet[str], awaited: bool
    ) -> None:
        func = node.func
        argc = len(node.args)
        has_args = bool(node.args or node.keywords)
        if isinstance(func, ast.Name):
            site = CallSite(
                self.info, node, node.lineno, func.id, "bare", "",
                (func.id,), awaited, locks, argc, has_args,
            )
        elif isinstance(func, ast.Attribute):
            receiver = _terminal_name(func.value)
            kind = "self" if receiver in ("self", "cls") else "attr"
            # A mutator call on a guarded attribute is a mutation too:
            # ``self._dirty.add(...)`` mutates ``_dirty``.
            if (
                func.attr in MUTATOR_METHODS
                and isinstance(func.value, ast.Attribute)
                and func.value.attr in self.guarded_names
            ):
                base = _terminal_name(func.value.value)
                self.mutations.append(
                    MutationSite(
                        self.info, node.lineno, func.value.attr,
                        base or "?", base in ("self", "cls"), locks,
                        f"call:{func.attr}",
                    )
                )
            site = CallSite(
                self.info, node, node.lineno, func.attr, kind, receiver,
                _dotted(func), awaited, locks, argc, has_args,
            )
        else:
            return
        self.calls.append(site)

    def _record_mutation_target(
        self, target: ast.AST, locks: FrozenSet[str], how: str = "assign"
    ) -> None:
        attribute: Optional[ast.Attribute] = None
        if isinstance(target, ast.Attribute):
            attribute = target
        elif isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Attribute
        ):
            attribute = target.value
            how = "subscript" if how == "assign" else how
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_mutation_target(element, locks, how)
            return
        if attribute is None or attribute.attr not in self.guarded_names:
            return
        receiver = _terminal_name(attribute.value)
        self.mutations.append(
            MutationSite(
                self.info, target.lineno, attribute.attr,
                receiver or "?", receiver in ("self", "cls"), locks, how,
            )
        )


@dataclass
class CallGraph:
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    calls: Dict[str, List[CallSite]] = field(default_factory=dict)
    mutations: Dict[str, List[MutationSite]] = field(default_factory=dict)
    by_name: Dict[str, List[FunctionInfo]] = field(default_factory=dict)
    #: (module, class_qualname, name) -> FunctionInfo
    methods: Dict[Tuple[str, str, str], FunctionInfo] = field(
        default_factory=dict
    )
    #: module -> {local name: (source module, original name)} imports.
    imports: Dict[str, Dict[str, Tuple[str, str]]] = field(
        default_factory=dict
    )
    #: callee key -> [(caller, site)] reverse edges.
    callers: Dict[str, List[Tuple[FunctionInfo, CallSite]]] = field(
        default_factory=dict
    )

    def resolve(self, site: CallSite) -> List[FunctionInfo]:
        """Every project function a call site might reach."""
        name = site.callee
        if site.kind == "self" and site.caller.cls:
            method = self.methods.get(
                (site.caller.source.module, site.caller.cls, name)
            )
            if method is not None:
                return [method]
            # Inherited/injected methods: fall through to by-name.
        if site.kind == "bare":
            module = site.caller.source.module
            local = self.methods.get((module, "", name))
            if local is not None:
                return [local]
            imported = self.imports.get(module, {}).get(name)
            if imported is not None:
                target = self.methods.get((imported[0], "", imported[1]))
                if target is not None:
                    return [target]
                candidates = [
                    fn
                    for fn in self.by_name.get(imported[1], [])
                    if fn.source.module == imported[0]
                ]
                if candidates:
                    return candidates
            return []
        if name in COMMON_NAMES or name.startswith("__"):
            return []
        return list(self.by_name.get(name, []))


def build_graph(project: Project) -> CallGraph:
    graph = CallGraph()
    guarded_names = frozenset(project.guarded_by_name)
    for source in project.files:
        graph.imports[source.module] = _import_map(source)
        for info, body in _functions(source):
            graph.functions[info.key] = info
            graph.by_name.setdefault(info.name, []).append(info)
            graph.methods[(source.module, info.cls, info.name)] = info
            walker = _BodyWalker(info, guarded_names)
            walker.walk_body(body)
            graph.calls[info.key] = walker.calls
            graph.mutations[info.key] = walker.mutations
    for key, sites in graph.calls.items():
        caller = graph.functions[key]
        for site in sites:
            for callee in graph.resolve(site):
                graph.callers.setdefault(callee.key, []).append(
                    (caller, site)
                )
    return graph


def _import_map(source: SourceFile) -> Dict[str, Tuple[str, str]]:
    imports: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(source.tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module
            if node.level:  # relative import: resolve against this module
                parts = source.module.split(".")
                base = parts[: len(parts) - node.level]
                module = ".".join(base + [node.module])
            for alias in node.names:
                imports[alias.asname or alias.name] = (module, alias.name)
    return imports


def _functions(source: SourceFile):
    """``(FunctionInfo, body)`` for every def, methods qualified."""
    results = []

    def visit(node: ast.AST, prefix: str, cls: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                visit(child, qualname, qualname)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                info = FunctionInfo(
                    key=f"{source.rel}::{qualname}",
                    source=source,
                    qualname=qualname,
                    name=child.name,
                    cls=cls,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    line=child.lineno,
                    decorators=_decorator_names(child),
                )
                results.append((info, child.body))
                visit(child, qualname, cls)

    visit(source.tree, "", "")
    return results
