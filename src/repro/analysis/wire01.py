"""WIRE01 — parity between the protocol's two (or more) sides.

Protocol constants in this stack are literals that must agree across
process and module boundaries; WIRE01 extracts them from the AST on
each side and diffs:

* **Pool frames** — every frame kind one side of the replica pipe
  *sends* (list literals like ``["batch", ...]``) must be *handled* by
  the other side (compared against ``kind`` / ``frame[0]``), in both
  directions.  A kind handled but never sent is tolerated (backward
  compatibility); a kind sent but not matched is a finding.
* **Pool rows** — ``batch`` replies and their rows are positional (no
  kind tag guards them), so every list the worker renders must have an
  arity the parent unpacks, and the other way round.
* **Status reasons** — every HTTP status the async front end emits
  must have a reason phrase in its ``_REASON`` map (a missing entry
  renders ``HTTP/1.1 500 OK``).
* **Compact rows** — the row arity ``render_single``/``render_batch``
  produce server-side (as a list, or as a ``b"[%d, ...]"`` template)
  must equal the tuple arity ``inflate_single``/``inflate_batch``
  unpack client-side.
* **Client exports** — every subclass of ``ClientError`` defined under
  ``repro.client`` must be imported and listed in the package's
  ``__all__`` (the PR 9 ``StallError`` near-miss, made structural).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile

__all__ = ["check"]

RULE = "WIRE01"

#: Calls whose list-literal argument is a pipe frame.
_FRAME_CALLS = frozenset({"_encode", "_roundtrip", "_admin", "_admin_reply"})
#: Assignment targets whose list-literal value is a pipe frame.
_FRAME_NAME_HINTS = ("frame", "reply")


def _is_worker(qualname: str, config: AnalysisConfig) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return name == config.pool_worker_main or name.startswith(
        config.pool_worker_prefix
    )


def _frame_kind(node: ast.AST) -> Optional[Tuple[str, int]]:
    """``(kind, line)`` if *node* is a list literal with a str head."""
    if (
        isinstance(node, ast.List)
        and node.elts
        and isinstance(node.elts[0], ast.Constant)
        and isinstance(node.elts[0].value, str)
    ):
        return node.elts[0].value, node.lineno
    return None


def _frame_catalogue(
    source: SourceFile, config: AnalysisConfig
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int], Dict[str, int]]:
    """(parent_sends, parent_handles, worker_sends, worker_handles)."""
    parent_sends: Dict[str, int] = {}
    parent_handles: Dict[str, int] = {}
    worker_sends: Dict[str, int] = {}
    worker_handles: Dict[str, int] = {}

    def current(qualname: str) -> Tuple[Dict[str, int], Dict[str, int]]:
        if _is_worker(qualname, config):
            return worker_sends, worker_handles
        return parent_sends, parent_handles

    def visit(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = child.name
            sends, handles = current(inner)
            if isinstance(child, ast.Compare):
                # ``kind == "batch"``, ``frame[0] != "ok"``,
                # ``ready[:1] != ["ready"]``, ``kind in ("a", "b")``.
                for operand in [child.left, *child.comparators]:
                    kind = _frame_kind(operand)
                    if kind:
                        handles.setdefault(*kind)
                    elif isinstance(operand, ast.Constant) and isinstance(
                        operand.value, str
                    ):
                        handles.setdefault(operand.value, operand.lineno)
                    elif isinstance(operand, (ast.Tuple, ast.List)):
                        for element in operand.elts:
                            if isinstance(
                                element, ast.Constant
                            ) and isinstance(element.value, str):
                                handles.setdefault(
                                    element.value, element.lineno
                                )
                continue
            if isinstance(child, ast.Call):
                name = child.func
                terminal = (
                    name.id
                    if isinstance(name, ast.Name)
                    else name.attr
                    if isinstance(name, ast.Attribute)
                    else ""
                )
                if terminal in _FRAME_CALLS:
                    for argument in child.args:
                        kind = _frame_kind(argument)
                        if kind:
                            sends.setdefault(*kind)
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and getattr(
                child, "value", None
            ) is not None:
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                named = any(
                    any(
                        hint in (getattr(t, "id", "") or getattr(t, "attr", ""))
                        for hint in _FRAME_NAME_HINTS
                    )
                    for t in targets
                )
                if named:
                    kind = _frame_kind(child.value)
                    if kind:
                        sends.setdefault(*kind)
            if isinstance(child, ast.Return) and child.value is not None:
                if _is_worker(inner if inner else qualname, config):
                    kind = _frame_kind(child.value)
                    if kind:
                        sends.setdefault(*kind)
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "append"
                and _is_worker(inner, config)
            ):
                for argument in child.args:
                    kind = _frame_kind(argument)
                    if kind:
                        worker_sends.setdefault(*kind)
            visit(child, inner)

    visit(source.tree, "")
    return parent_sends, parent_handles, worker_sends, worker_handles


def _check_frames(
    source: SourceFile, config: AnalysisConfig
) -> List[Finding]:
    parent_sends, parent_handles, worker_sends, worker_handles = (
        _frame_catalogue(source, config)
    )
    findings: List[Finding] = []
    for kind, line in sorted(parent_sends.items()):
        if kind not in worker_handles:
            findings.append(
                Finding(
                    RULE, source.rel, line,
                    f"pool frame kind '{kind}' is sent by the parent but "
                    "never handled by the replica worker",
                )
            )
    for kind, line in sorted(worker_sends.items()):
        if kind not in parent_handles:
            findings.append(
                Finding(
                    RULE, source.rel, line,
                    f"pool frame kind '{kind}' is sent by the replica "
                    "worker but never matched by the parent",
                )
            )
    return findings


def _check_reasons(
    source: SourceFile, config: AnalysisConfig
) -> List[Finding]:
    reason_keys: Set[int] = set()
    reason_found = False
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", "") == config.reason_map_name
            for target in node.targets
        ):
            if isinstance(node.value, ast.Dict):
                reason_found = True
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, int
                    ):
                        reason_keys.add(key.value)
    if not reason_found:
        return []
    findings: List[Finding] = []
    reported: Set[int] = set()
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, int)
            and not isinstance(node.value, bool)
            and 300 <= node.value <= 599
            and node.value not in reason_keys
            and node.value not in reported
        ):
            reported.add(node.value)
            findings.append(
                Finding(
                    RULE, source.rel, node.lineno,
                    f"status {node.value} is emitted but has no reason "
                    f"phrase in {config.reason_map_name} (the status line "
                    "would render with a wrong reason)",
                )
            )
    return findings


def _list_arities(tree: ast.AST, function: str) -> Set[int]:
    """The arity of every row of three or more fields inside
    *function*: a plain list literal, or the format fields of a
    JSON-array template (``b"[%d, %b]" % ...``: a row rendered straight
    to bytes)."""
    arities: Set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == function
        ):
            for inner in ast.walk(node):
                size = None
                if isinstance(inner, ast.List) and len(inner.elts) >= 3:
                    if not any(isinstance(e, ast.Starred) for e in inner.elts):
                        size = len(inner.elts)
                elif (
                    isinstance(inner, ast.BinOp)
                    and isinstance(inner.op, ast.Mod)
                    and isinstance(inner.left, ast.Constant)
                    and isinstance(inner.left.value, bytes)
                    and inner.left.value.startswith(b"[")
                ):
                    size = inner.left.value.replace(b"%%", b"").count(b"%")
                if size is not None:
                    arities.add(size)
    return arities


def _unpack_arities(tree: ast.AST, function: str) -> Set[int]:
    """The arity of every tuple-unpacking assignment inside *function*."""
    arities: Set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == function
        ):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Assign):
                    for target in inner.targets:
                        if isinstance(target, ast.Tuple) and all(
                            isinstance(e, ast.Name) for e in target.elts
                        ):
                            arities.add(len(target.elts))
    return arities


def _check_rows(
    server: SourceFile,
    client: SourceFile,
    pairs: Sequence[Tuple[str, str]],
    what: str,
) -> List[Finding]:
    findings: List[Finding] = []
    def arities(values: Set[int]) -> str:
        return " or ".join(str(value) for value in sorted(values)) or "no other"

    for render_name, inflate_name in pairs:
        rendered = _list_arities(server.tree, render_name)
        inflated = _unpack_arities(client.tree, inflate_name)
        if rendered and inflated and rendered != inflated:
            findings.append(
                Finding(
                    RULE, client.rel, 1,
                    f"{what} arity mismatch: {render_name} renders "
                    f"{arities(rendered - inflated)} fields but "
                    f"{inflate_name} unpacks {arities(inflated - rendered)}",
                )
            )
    return findings


def _check_exports(project: Project, config: AnalysisConfig) -> List[Finding]:
    package = config.client_package
    init = project.module(package)
    if init is None:
        return []
    # Transitive ClientError subclasses across the package's modules.
    bases: Dict[str, Tuple[str, SourceFile, int]] = {}
    for source in project.files:
        if not source.module.startswith(package):
            continue
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                for base in node.bases:
                    name = (
                        base.id
                        if isinstance(base, ast.Name)
                        else base.attr
                        if isinstance(base, ast.Attribute)
                        else ""
                    )
                    if name:
                        bases[node.name] = (name, source, node.lineno)
                        break

    def derives(name: str) -> bool:
        seen: Set[str] = set()
        while name in bases and name not in seen:
            seen.add(name)
            parent = bases[name][0]
            if parent == config.client_error_root:
                return True
            name = parent
        return False

    error_classes = {
        name: bases[name][1:] for name in bases if derives(name)
    }
    exported: Set[str] = set()
    imported: Set[str] = set()
    for node in ast.walk(init.tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", "") == "__all__" for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                exported.update(
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    findings: List[Finding] = []
    for name, (source, line) in sorted(error_classes.items()):
        if name not in exported or name not in imported:
            findings.append(
                Finding(
                    RULE, init.rel, 1,
                    f"typed client error {name} (defined in {source.module}) "
                    f"is not exported from {package}.__init__",
                )
            )
    return findings


def check(
    project: Project, graph: CallGraph, config: AnalysisConfig
) -> List[Finding]:
    findings: List[Finding] = []
    pool = project.module(config.pool_module)
    if pool is not None:
        findings.extend(_check_frames(pool, config))
        findings.extend(
            _check_rows(pool, pool, config.pool_row_pairs, "pool-row")
        )
    aio = project.module(config.aio_module)
    if aio is not None:
        findings.extend(_check_reasons(aio, config))
    wire2 = project.module(config.wire2_module)
    client_wire = project.module(config.client_wire_module)
    if wire2 is not None and client_wire is not None:
        findings.extend(
            _check_rows(wire2, client_wire, config.row_pairs, "compact-row")
        )
    findings.extend(_check_exports(project, config))
    return [
        finding
        for finding in findings
        if not _waived(project, finding)
    ]


def _waived(project: Project, finding: Finding) -> bool:
    for source in project.files:
        if source.rel == finding.path:
            return source.waived(finding.line, RULE)
    return False
