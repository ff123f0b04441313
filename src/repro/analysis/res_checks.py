"""Resource-lifecycle rules (RES001–004) over the ownership lattice.

The serve stack owns real kernel resources — mmap'd index images,
corpus file handles, fork/thread pools, sockets, query-log handles —
and PR 6 found two lifecycle bugs at runtime that these rules catch
statically: the fork-pool registry's strong-reference leak (engines
pinned forever by a module registry) and the unmanaged CLI engine (opened,
used, never closed on error paths).

=========  ============================================================
RES001     no resource escape: a closeable object (class defining
           ``close``/``__exit__``/``shutdown`` or a known factory
           like ``open``/``DiskCorpus``/``ProcessPoolExecutor``)
           bound to a local must be closed, ``with``-managed or
           ownership-transferred (returned, stored, passed on) on
           *every* CFG path to the function exit
RES002     no double-close: a ``close()`` whose every incoming CFG
           path already closed the resource (definite must-analysis,
           so close-in-except + close-in-finally stays legal)
RES003     no strong ``self`` reference in module-level registries
           (use ``weakref.ref``), and ``weakref.finalize`` must be
           registered *before* the resource is shared with another
           execution context (fork pool, thread)
RES004     no ``__del__`` for correctness: GC finalization order is
           unspecified — cleanup belongs in ``close()`` +
           ``weakref.finalize``
=========  ============================================================

Suppression: ``# noqa`` / ``# noqa: RES00x``, same contract as the
FREE rules.  Every finding carries a rendered
:class:`~repro.analysis.flow.FlowJustification` (same contract as the
PLAN00x prover steps).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, make_finding
from repro.analysis.flow import (
    CFG,
    FlowJustification,
    analyze_resource,
    header_walk,
    own_body_nodes,
)
from repro.errors import AnalysisError

__all__ = ["RULES", "RuleHit", "check_source", "KNOWN_FACTORIES"]

RuleHit = Tuple[Finding, FlowJustification]

#: Rule registry (docs, SARIF metadata and the analyzer report use this).
RULES: Dict[str, str] = {
    "RES001": "no closeable object escaping a function still open",
    "RES002": "no definite double-close",
    "RES003": "no strong self-registration; finalize before sharing",
    "RES004": "no __del__ relied on for correctness",
}

#: Call targets known to hand back a resource the caller must manage.
KNOWN_FACTORIES = frozenset({
    "open",
    "DiskCorpus",
    "DeadlineCorpus",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
    "ServerThread",
    "FreeEngine",
    "SegmentedFreeEngine",
    "MappedGramIndex",
    "open_engine",
    "wrap_index",
})

#: Canonical dotted factories (resolved through import bindings).
_FACTORY_CANONICAL = frozenset({
    "mmap.mmap",
    "socket.socket",
    "socket.create_connection",
})

#: Defining one of these methods makes a class a closeable resource.
_RESOURCE_METHODS = frozenset({
    "close", "aclose", "__exit__", "__aexit__", "shutdown",
})


def check_source(source: str, filename: str = "<string>") -> List[RuleHit]:
    """Run every RES rule over one module's source text.

    Returns (finding, justification) pairs; the caller applies noqa
    suppression so a suppressed finding drops its justification too.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {filename!r}: {exc}") from exc
    ctx = _ResourceContext(tree)
    hits: List[RuleHit] = []
    hits.extend(_rule_escape_and_double_close(ctx))
    hits.extend(_rule_registries_and_finalize(ctx))
    hits.extend(_rule_del_for_correctness(ctx))
    return [
        (_locate(finding, filename), justification)
        for finding, justification in hits
    ]


def _locate(finding: Finding, filename: str) -> Finding:
    return Finding(
        code=finding.code,
        severity=finding.severity,
        message=finding.message,
        paper_ref=finding.paper_ref,
        subject=filename,
        location=finding.location,
    )


def _pos(node: ast.AST) -> str:
    return f"{node.lineno}:{node.col_offset}"


def _terminal_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


class _ResourceContext:
    """Factory vocabulary and registries of one module."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.imported_modules: Dict[str, str] = {}
        self.imported_names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.imported_modules[bound] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imported_names[bound] = (
                        f"{node.module}.{alias.name}"
                    )
        #: module-local classes that define a close-like method
        self.local_resource_classes: Set[str] = set()
        self.classes: List[ast.ClassDef] = []
        #: module-level mutable containers (name -> assignment)
        self.registries: Dict[str, ast.stmt] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                self.classes.append(stmt)
                method_names = {
                    item.name for item in stmt.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                }
                if method_names & _RESOURCE_METHODS:
                    self.local_resource_classes.add(stmt.name)
            elif isinstance(
                stmt, (ast.Assign, ast.AnnAssign)
            ) and _is_mutable_container(stmt.value):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.registries[target.id] = stmt

    def is_resource_factory(self, call: ast.Call) -> Optional[str]:
        """Factory name if this call constructs a closeable resource."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in KNOWN_FACTORIES:
                return func.id
            if func.id in self.local_resource_classes:
                return func.id
            canonical = self.imported_names.get(func.id)
            if canonical in _FACTORY_CANONICAL:
                return canonical
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module = self.imported_modules.get(func.value.id)
            if module is not None:
                canonical = f"{module}.{func.attr}"
                if canonical in _FACTORY_CANONICAL:
                    return canonical
        return None

    def iter_functions(self) -> List[Tuple[str, ast.AST]]:
        out: List[Tuple[str, ast.AST]] = []
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((stmt.name, stmt))
        for cls in self.classes:
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    out.append((f"{cls.name}.{item.name}", item))
        return out


def _is_mutable_container(value: Optional[ast.expr]) -> bool:
    if value is None:
        return False
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in ("dict", "list", "set", "defaultdict",
                                 "OrderedDict", "WeakValueDictionary")
    return False


# -- RES001 / RES002: escape + double-close via the ownership lattice ---------

def _creation_sites(
    fn: ast.AST, ctx: _ResourceContext
) -> List[Tuple[str, ast.Assign, str]]:
    """(local name, creation stmt, factory) for tracked resources."""
    sites: List[Tuple[str, ast.Assign, str]] = []
    for node in own_body_nodes(fn):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Await):
            value = value.value
        if not isinstance(value, ast.Call):
            continue
        factory = ctx.is_resource_factory(value)
        if factory is not None:
            sites.append((target.id, node, factory))
    return sites


def _rule_escape_and_double_close(ctx: _ResourceContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for qualname, fn in ctx.iter_functions():
        sites = _creation_sites(fn, ctx)
        if not sites:
            continue
        cfg = CFG.from_function(fn)
        for name, creation, factory in sites:
            for event in analyze_resource(cfg, name, creation):
                if event.kind == "may-leak":
                    hits.append((
                        make_finding(
                            "RES001",
                            f"{factory}(...) bound to {name!r} in "
                            f"{qualname}() can reach the function exit "
                            f"still open on some CFG path; close it, "
                            f"use `with`, or transfer ownership",
                            location=_pos(creation),
                        ),
                        FlowJustification(
                            "RES001",
                            f"ownership lattice: {name!r} is OPEN at "
                            f"the exit of {qualname}() on at least one "
                            f"path",
                            evidence=event.detail,
                        ),
                    ))
                elif event.kind == "double-close":
                    hits.append((
                        make_finding(
                            "RES002",
                            f"{name!r} in {qualname}() is closed again "
                            f"at line {event.node.lineno} although "
                            f"every incoming path already closed it",
                            location=_pos(event.node),
                        ),
                        FlowJustification(
                            "RES002",
                            f"ownership lattice: {name!r} is CLOSED on "
                            f"all paths reaching line "
                            f"{event.node.lineno} in {qualname}()",
                            evidence=event.detail,
                        ),
                    ))
    return hits


# -- RES003: strong self-registration / finalize-after-share ------------------

def _is_weakref_wrapped(value: ast.expr) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = _terminal_name(value.func)
    return name in ("ref", "proxy", "WeakMethod")


def _is_share_call(call: ast.Call, ctx: _ResourceContext) -> bool:
    """Does this call hand ``self`` (or its memory) to another
    execution context — fork pool creation or a thread start?"""
    func = call.func
    name = _terminal_name(func)
    if name == "ProcessPoolExecutor":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "start":
        receiver = _terminal_name(func.value)
        if receiver is not None and "thread" in receiver.lower():
            return True
    if isinstance(func, ast.Attribute) and isinstance(
        func.value, ast.Name
    ):
        module = ctx.imported_modules.get(func.value.id)
        if module == "os" and func.attr == "fork":
            return True
    return False


def _is_finalize_call(call: ast.Call, ctx: _ResourceContext) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "finalize":
        if isinstance(func.value, ast.Name):
            return ctx.imported_modules.get(func.value.id) == "weakref"
    if isinstance(func, ast.Name):
        return ctx.imported_names.get(func.id) == "weakref.finalize"
    return False


def _rule_registries_and_finalize(ctx: _ResourceContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    # (a) strong `self` stored into a module-level registry.
    for qualname, fn in ctx.iter_functions():
        for node in own_body_nodes(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ctx.registries
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    registry = target.value.id
                    hits.append((
                        make_finding(
                            "RES003",
                            f"{qualname}() stores a strong `self` "
                            f"reference into module registry "
                            f"{registry}; the registry pins the object "
                            f"alive forever — store weakref.ref(self) "
                            f"and register weakref.finalize",
                            location=_pos(node),
                        ),
                        FlowJustification(
                            "RES003",
                            f"module-level {registry} (defined line "
                            f"{ctx.registries[registry].lineno}) holds "
                            f"self strongly from {qualname}() line "
                            f"{node.lineno}",
                            evidence=f"{registry}[...] = self",
                        ),
                    ))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "add")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ctx.registries
                and any(
                    isinstance(arg, ast.Name) and arg.id == "self"
                    for arg in node.args
                )
            ):
                registry = node.func.value.id
                hits.append((
                    make_finding(
                        "RES003",
                        f"{qualname}() appends a strong `self` "
                        f"reference to module registry {registry}; "
                        f"store weakref.ref(self) instead",
                        location=_pos(node),
                    ),
                    FlowJustification(
                        "RES003",
                        f"module-level {registry} holds self strongly "
                        f"from {qualname}() line {node.lineno}",
                        evidence=f"{registry}.{node.func.attr}(self)",
                    ),
                ))
    # (b) weakref.finalize registered after the resource was shared.
    for qualname, fn in ctx.iter_functions():
        cfg = CFG.from_function(fn)
        shares: List[Tuple[Tuple[int, int], ast.stmt, ast.Call]] = []
        finalizes: List[Tuple[Tuple[int, int], ast.stmt, ast.Call]] = []
        for block in cfg.blocks:
            for index, stmt in enumerate(block.stmts):
                for node in header_walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    position = (block.id, index)
                    if _is_share_call(node, ctx):
                        shares.append((position, stmt, node))
                    elif _is_finalize_call(node, ctx):
                        finalizes.append((position, stmt, node))
        for share_pos, share_stmt, share_call in shares:
            for final_pos, final_stmt, _final_call in finalizes:
                if not cfg.path_exists(share_pos, final_pos):
                    continue
                share_text = ast.unparse(share_call.func)
                hits.append((
                    make_finding(
                        "RES003",
                        f"weakref.finalize registered at line "
                        f"{final_stmt.lineno} in {qualname}() on a "
                        f"path *after* the resource was shared via "
                        f"{share_text}(...) (line {share_stmt.lineno});"
                        f" a crash in between leaks the registration "
                        f"window — finalize first, then share",
                        location=_pos(final_stmt),
                    ),
                    FlowJustification(
                        "RES003",
                        f"CFG path in {qualname}() from share at line "
                        f"{share_stmt.lineno} to finalize at line "
                        f"{final_stmt.lineno}",
                        evidence=(
                            f"share@{share_stmt.lineno} ->* "
                            f"finalize@{final_stmt.lineno}"
                        ),
                    ),
                ))
    return hits


# -- RES004: __del__ relied on for correctness --------------------------------

def _rule_del_for_correctness(ctx: _ResourceContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for cls in ctx.classes:
        for item in cls.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            if item.name != "__del__":
                continue
            meaningful = [
                stmt for stmt in item.body
                if not isinstance(stmt, ast.Pass)
                and not (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant)
                )
            ]
            if not meaningful:
                continue
            hits.append((
                make_finding(
                    "RES004",
                    f"{cls.name}.__del__ performs cleanup; GC "
                    f"finalization order is unspecified and __del__ "
                    f"may never run — move this to close() and "
                    f"register weakref.finalize as the safety net",
                    location=_pos(item),
                ),
                FlowJustification(
                    "RES004",
                    f"{cls.name}.__del__ (line {item.lineno}) contains "
                    f"{len(meaningful)} cleanup statement(s)",
                    evidence=f"__del__@{item.lineno}",
                ),
            ))
    return hits
