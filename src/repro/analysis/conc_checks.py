"""Concurrency rules (CONC001–006) over the CFG/dataflow layer.

These rules guard the serve/engine concurrency surface — the asyncio
query loop, per-worker thread executors and fork-based build pools —
whose correctness the FREE index proofs do not cover.  Each rule is a
may-analysis over :mod:`repro.analysis.flow` facts:

=========  ============================================================
CONC001    no blocking call (``open``, ``time.sleep``, ``subprocess``,
           ``mmap``, ``os.fork``, ``engine.search``) reachable on the
           event loop: directly in an ``async def`` body or through
           same-module sync helpers it calls — hand blocking work to
           ``run_in_executor``
CONC002    no ``await`` while a synchronous ``threading`` lock is
           held (``with self._lock: ... await ...`` parks the lock
           across an arbitrary suspension and deadlocks the loop)
CONC003    no fork-based pool creation on a CFG path after a thread
           has started (fork snapshots lock state; pools must be
           created pre-thread, as the index build pool of
           :mod:`repro.index.parallel` is)
CONC004    no attribute of a long-lived object written from both the
           event-loop context and an executor context without a lock
CONC005    no unbounded metric label values: every expression flowing
           into ``.labels(...)`` must be provably finite (literals,
           ``str()`` of a bounded value, membership-clamped names,
           iteration over literal containers).  Identity label *names*
           (``trace_id``, ``span_id``, ``request_id``, ...) are banned
           outright — per-request-unique values are unbounded by
           construction even when they pass the boundedness grammar
           (``str(tid)`` would); attach identities to histograms as
           exemplars (``observe(v, exemplar={"trace_id": tid})``)
           instead
CONC006    no except-and-drop on drain/close paths (``except
           Exception: pass`` / ``contextlib.suppress(Exception)``
           inside ``close``/``stop``/``drain``-like functions hides
           resource leaks)
=========  ============================================================

Suppression: ``# noqa`` / ``# noqa: CONC00x`` on the flagged line,
same contract as the FREE rules.  Every finding carries a rendered
:class:`~repro.analysis.flow.FlowJustification` (same contract as the
PLAN00x prover steps) pinning the dataflow fact to program points.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, make_finding
from repro.analysis.flow import (
    CFG,
    Definition,
    FlowJustification,
    ReachingDefinitions,
    header_walk,
    own_body_nodes,
)
from repro.errors import AnalysisError

__all__ = ["RULES", "RuleHit", "check_source"]

RuleHit = Tuple[Finding, FlowJustification]

#: Rule registry (docs, SARIF metadata and the analyzer report use this).
RULES: Dict[str, str] = {
    "CONC001": "no blocking calls reachable on the asyncio event loop",
    "CONC002": "no await while a synchronous lock is held",
    "CONC003": "no fork-based pool created after threads have started",
    "CONC004": "no unlocked attribute writes from both loop and "
               "executor contexts",
    "CONC005": "no unbounded metric label values",
    "CONC006": "no except-and-drop on drain/close paths",
}

#: Canonical dotted names of known-blocking callables (CONC001).
_BLOCKING_CANONICAL = {
    "time.sleep": "time.sleep()",
    "subprocess.run": "subprocess.run()",
    "subprocess.call": "subprocess.call()",
    "subprocess.check_call": "subprocess.check_call()",
    "subprocess.check_output": "subprocess.check_output()",
    "subprocess.Popen": "subprocess.Popen()",
    "os.fork": "os.fork()",
    "os.system": "os.system()",
    "os.waitpid": "os.waitpid()",
    "mmap.mmap": "mmap.mmap()",
    "socket.create_connection": "socket.create_connection()",
    "socket.getaddrinfo": "socket.getaddrinfo()",
}

#: Engine entry points that hit disk (CONC001).
_ENGINE_BLOCKING_METHODS = frozenset({
    "search", "search_batch", "first_k", "explain",
})

#: Fork-based pool/process creators (CONC003).
_FORK_CANONICAL = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
    "multiprocessing.Pool",
    "os.fork",
})

_LOCK_NAME = re.compile(r"lock|mutex", re.IGNORECASE)
_THREAD_NAME = re.compile(r"thread", re.IGNORECASE)
_CLOSE_PATH_NAME = re.compile(
    r"close|shutdown|drain|release|teardown|stop|__a?exit__",
)


def check_source(source: str, filename: str = "<string>") -> List[RuleHit]:
    """Run every CONC rule over one module's source text.

    Returns (finding, justification) pairs; the caller applies noqa
    suppression so a suppressed finding drops its justification too.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {filename!r}: {exc}") from exc
    ctx = _ModuleContext(tree)
    hits: List[RuleHit] = []
    hits.extend(_rule_blocking_on_loop(ctx))
    hits.extend(_rule_await_under_lock(ctx))
    hits.extend(_rule_fork_after_thread(ctx))
    hits.extend(_rule_cross_context_writes(ctx))
    hits.extend(_rule_unbounded_labels(ctx))
    hits.extend(_rule_swallowed_on_close(ctx))
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


# -- module context -----------------------------------------------------------

class _ModuleContext:
    """Imports, functions and classes of one module, pre-indexed."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        #: local alias -> imported module name ("sp" -> "subprocess")
        self.imported_modules: Dict[str, str] = {}
        #: local name -> canonical dotted name
        #: ("PPE" -> "concurrent.futures.ProcessPoolExecutor")
        self.imported_names: Dict[str, str] = {}
        #: module-level constant bindings (Name -> value expression)
        self.module_constants: Dict[str, ast.expr] = {}
        self.functions: Dict[str, ast.AST] = {}
        self.classes: Dict[str, ast.ClassDef] = {}
        #: (class name, method name) -> method node
        self.methods: Dict[Tuple[str, str], ast.AST] = {}

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
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                self.classes[stmt.name] = stmt
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self.methods[(stmt.name, item.name)] = item
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self.module_constants[target.id] = stmt.value

    def canonical_call(self, call: ast.Call) -> Optional[str]:
        """Canonical dotted name of a call target, if resolvable."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.imported_names.get(func.id, func.id)
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            module = self.imported_modules.get(func.value.id)
            if module is not None:
                return f"{module}.{func.attr}"
        return None

    def iter_functions(self) -> Iterable[Tuple[str, ast.AST,
                                               Optional[ast.ClassDef]]]:
        """All function defs as (qualname, node, enclosing class)."""
        for name, fn in self.functions.items():
            yield name, fn, None
        for (cls_name, method_name), fn in self.methods.items():
            yield f"{cls_name}.{method_name}", fn, self.classes[cls_name]


def _walk_excluding_defs(node: ast.AST) -> Iterable[ast.AST]:
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        if current is not node and isinstance(
            current,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
             ast.ClassDef),
        ):
            continue
        for child in ast.iter_child_nodes(current):
            stack.append(child)


def _fn_params(fn: ast.AST) -> List[str]:
    args = getattr(fn, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _terminal_name(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


# -- CONC001: blocking calls on the event loop --------------------------------

def _blocking_reason(
    call: ast.Call, ctx: _ModuleContext
) -> Optional[str]:
    canonical = ctx.canonical_call(call)
    if canonical in _BLOCKING_CANONICAL:
        return _BLOCKING_CANONICAL[canonical]
    if isinstance(call.func, ast.Name) and call.func.id in (
        "open", "input"
    ):
        return f"{call.func.id}()"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        receiver = _terminal_name(call.func.value)
        if (
            attr in _ENGINE_BLOCKING_METHODS
            and receiver is not None
            and "engine" in receiver.lower()
        ):
            return f"{receiver}.{attr}()"
    return None


def _rule_blocking_on_loop(ctx: _ModuleContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for qualname, fn, cls in ctx.iter_functions():
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        visited: Set[str] = {qualname}
        _scan_loop_context(ctx, fn, cls, [qualname], visited, hits)
    return hits


def _scan_loop_context(
    ctx: _ModuleContext,
    fn: ast.AST,
    cls: Optional[ast.ClassDef],
    chain: List[str],
    visited: Set[str],
    hits: List[RuleHit],
) -> None:
    for node in own_body_nodes(fn):
        if not isinstance(node, ast.Call):
            continue
        reason = _blocking_reason(node, ctx)
        if reason is not None:
            root = chain[0]
            path = " -> ".join(chain + [reason])
            hits.append((
                make_finding(
                    "CONC001",
                    f"blocking {reason} reachable on the event loop "
                    f"from async {root}(); move it into "
                    f"run_in_executor",
                    location=_pos(node),
                ),
                FlowJustification(
                    "CONC001",
                    f"async {root}() reaches blocking {reason} at "
                    f"line {node.lineno} without an executor hop",
                    evidence=path,
                ),
            ))
            continue
        callee = _resolve_local_call(node, ctx, cls)
        if callee is None:
            continue
        callee_qual, callee_fn, callee_cls = callee
        if isinstance(callee_fn, ast.AsyncFunctionDef):
            continue  # async callees are scanned as their own roots
        if callee_qual in visited:
            continue
        visited.add(callee_qual)
        _scan_loop_context(
            ctx, callee_fn, callee_cls, chain + [callee_qual],
            visited, hits,
        )


def _resolve_local_call(
    call: ast.Call, ctx: _ModuleContext, cls: Optional[ast.ClassDef]
) -> Optional[Tuple[str, ast.AST, Optional[ast.ClassDef]]]:
    """Resolve a call to a same-module function or ``self`` method."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in ctx.functions:
        return func.id, ctx.functions[func.id], None
    if (
        cls is not None
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and (cls.name, func.attr) in ctx.methods
    ):
        method = ctx.methods[(cls.name, func.attr)]
        return f"{cls.name}.{func.attr}", method, cls
    return None


# -- CONC002: await while a synchronous lock is held --------------------------

def _is_sync_lock(expr: ast.expr, ctx: _ModuleContext) -> bool:
    if isinstance(expr, ast.Call):
        canonical = ctx.canonical_call(expr) or ""
        if canonical.split(".")[-1] in (
            "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition",
        ):
            return "asyncio" not in canonical
        return False
    name = _terminal_name(expr)
    return name is not None and bool(_LOCK_NAME.search(name))


def _rule_await_under_lock(ctx: _ModuleContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for qualname, fn, _cls in ctx.iter_functions():
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        awaited_calls = {
            id(node.value) for node in own_body_nodes(fn)
            if isinstance(node, ast.Await)
        }
        for node in own_body_nodes(fn):
            if isinstance(node, ast.With):
                lock_items = [
                    item for item in node.items
                    if _is_sync_lock(item.context_expr, ctx)
                ]
                if not lock_items:
                    continue
                awaits = [
                    inner
                    for stmt in node.body
                    for inner in _walk_excluding_defs(stmt)
                    if isinstance(inner, ast.Await)
                ]
                if awaits:
                    lock_text = ast.unparse(lock_items[0].context_expr)
                    hits.append((
                        make_finding(
                            "CONC002",
                            f"await inside `with {lock_text}:` in async "
                            f"{qualname}(); a sync lock held across a "
                            f"suspension point can deadlock the loop — "
                            f"use asyncio.Lock",
                            location=_pos(node),
                        ),
                        FlowJustification(
                            "CONC002",
                            f"sync lock {lock_text} held at line "
                            f"{node.lineno} across await at line "
                            f"{awaits[0].lineno} in async {qualname}()",
                            evidence=(
                                f"with@{node.lineno} spans "
                                f"await@{awaits[0].lineno}"
                            ),
                        ),
                    ))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
                and _is_sync_lock(node.func.value, ctx)
                and id(node) not in awaited_calls
            ):
                lock_text = ast.unparse(node.func.value)
                hits.append((
                    make_finding(
                        "CONC002",
                        f"blocking {lock_text}.acquire() in async "
                        f"{qualname}(); a sync acquire parks the whole "
                        f"event loop — use asyncio.Lock and await it",
                        location=_pos(node),
                    ),
                    FlowJustification(
                        "CONC002",
                        f"sync {lock_text}.acquire() at line "
                        f"{node.lineno} runs on the loop in async "
                        f"{qualname}()",
                        evidence=f"acquire@{node.lineno} not awaited",
                    ),
                ))
    return hits


# -- CONC003: fork-based pool creation after thread start ---------------------

def _is_fork_creation(call: ast.Call, ctx: _ModuleContext) -> bool:
    canonical = ctx.canonical_call(call)
    if canonical in _FORK_CANONICAL:
        return True
    return (
        isinstance(call.func, ast.Name)
        and call.func.id == "ProcessPoolExecutor"
    ) or (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "ProcessPoolExecutor"
    )


def _fork_reaching_functions(ctx: _ModuleContext) -> Set[str]:
    """Qualnames that (transitively, same module) create fork pools."""
    reaching: Set[str] = set()
    for qualname, fn, _cls in ctx.iter_functions():
        for node in own_body_nodes(fn):
            if isinstance(node, ast.Call) and _is_fork_creation(node, ctx):
                reaching.add(qualname)
                break
    changed = True
    while changed:
        changed = False
        for qualname, fn, cls in ctx.iter_functions():
            if qualname in reaching:
                continue
            for node in own_body_nodes(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = _resolve_local_call(node, ctx, cls)
                if callee is not None and callee[0] in reaching:
                    reaching.add(qualname)
                    changed = True
                    break
    return reaching


def _is_thread_start(
    call: ast.Call, rd: ReachingDefinitions, stmt: ast.stmt
) -> bool:
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "start"):
        return False
    receiver = func.value
    name = _terminal_name(receiver)
    if name is not None and _THREAD_NAME.search(name):
        return True
    if isinstance(receiver, ast.Call):
        callee = _terminal_name(receiver.func)
        return callee is not None and "Thread" in callee
    if isinstance(receiver, ast.Name):
        for definition in rd.at_statement(stmt, receiver.id):
            if isinstance(definition.value, ast.Call):
                callee = _terminal_name(definition.value.func)
                if callee is not None and "Thread" in callee:
                    return True
    return False


def _calls_with_positions(
    cfg: CFG,
) -> List[Tuple[Tuple[int, int], ast.stmt, ast.Call]]:
    """Every call in the CFG with its (block, index) position."""
    found: List[Tuple[Tuple[int, int], ast.stmt, ast.Call]] = []
    for block in cfg.blocks:
        for index, stmt in enumerate(block.stmts):
            for node in header_walk(stmt):
                if isinstance(node, ast.Call):
                    found.append(((block.id, index), stmt, node))
    return found


def _rule_fork_after_thread(ctx: _ModuleContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    fork_reaching = _fork_reaching_functions(ctx)
    for qualname, fn, cls in ctx.iter_functions():
        cfg = CFG.from_function(fn)
        rd = ReachingDefinitions(cfg, _fn_params(fn))
        calls = _calls_with_positions(cfg)
        starts = [
            entry for entry in calls
            if _is_thread_start(entry[2], rd, entry[1])
        ]
        if not starts:
            continue
        forks = []
        for entry in calls:
            if _is_fork_creation(entry[2], ctx):
                forks.append(entry)
                continue
            callee = _resolve_local_call(entry[2], ctx, cls)
            if callee is not None and callee[0] in fork_reaching:
                forks.append(entry)
        for start_pos, start_stmt, _start_call in starts:
            for fork_pos, fork_stmt, fork_call in forks:
                if not cfg.path_exists(start_pos, fork_pos):
                    continue
                fork_text = ast.unparse(fork_call.func)
                hits.append((
                    make_finding(
                        "CONC003",
                        f"fork-based pool created via {fork_text}(...) "
                        f"on a path after Thread.start() in "
                        f"{qualname}(); fork after threads snapshots "
                        f"held locks — create pools before threads",
                        location=_pos(fork_call),
                    ),
                    FlowJustification(
                        "CONC003",
                        f"CFG path in {qualname}() from thread start "
                        f"at line {start_stmt.lineno} to fork-pool "
                        f"creation at line {fork_stmt.lineno}",
                        evidence=(
                            f"start@{start_stmt.lineno} ->* "
                            f"fork@{fork_stmt.lineno}"
                        ),
                    ),
                ))
    return hits


# -- CONC004: cross-context attribute writes ----------------------------------

def _self_calls(method: ast.AST) -> Set[str]:
    calls: Set[str] = set()
    for node in own_body_nodes(method):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _executor_entry_methods(cls: ast.ClassDef) -> Set[str]:
    """Methods handed to threads/executors anywhere in the class."""
    entries: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        func_name = _terminal_name(node.func) or ""
        candidates: List[ast.expr] = []
        if func_name == "Thread":
            candidates = [
                kw.value for kw in node.keywords if kw.arg == "target"
            ]
        elif func_name == "run_in_executor" and len(node.args) >= 2:
            candidates = [node.args[1]]
        elif func_name == "submit" and node.args:
            candidates = [node.args[0]]
        elif func_name == "to_thread" and node.args:
            candidates = [node.args[0]]
        for candidate in candidates:
            if (
                isinstance(candidate, ast.Attribute)
                and isinstance(candidate.value, ast.Name)
                and candidate.value.id == "self"
            ):
                entries.add(candidate.attr)
    return entries


def _context_closure(
    cls: ast.ClassDef,
    methods: Dict[str, ast.AST],
    entries: Set[str],
) -> Set[str]:
    reachable = set(entries)
    worklist = list(entries)
    while worklist:
        name = worklist.pop()
        method = methods.get(name)
        if method is None:
            continue
        for callee in _self_calls(method):
            if callee in methods and callee not in reachable:
                reachable.add(callee)
                worklist.append(callee)
    return reachable


def _unlocked_self_writes(
    method: ast.AST, ctx: _ModuleContext
) -> List[Tuple[str, ast.stmt]]:
    """(attr, stmt) for unguarded ``self.<attr> = ...`` writes."""
    writes: List[Tuple[str, ast.stmt]] = []

    def visit(stmts: Sequence[ast.stmt], locked: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                now_locked = locked or any(
                    _is_sync_lock(item.context_expr, ctx)
                    for item in stmt.items
                )
                visit(stmt.body, now_locked)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if not locked and isinstance(stmt, (ast.Assign, ast.AugAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        writes.append((target.attr, stmt))
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if nested:
                    visit(nested, locked)
            for handler in getattr(stmt, "handlers", []) or []:
                visit(handler.body, locked)

    visit(getattr(method, "body", []), False)
    return writes


def _writes_by_attr(
    methods: Dict[str, ast.AST],
    names: Set[str],
    ctx: _ModuleContext,
) -> Dict[str, Tuple[str, ast.stmt]]:
    per_attr: Dict[str, Tuple[str, ast.stmt]] = {}
    for name in sorted(names):
        if name == "__init__" or name not in methods:
            continue
        for attr, stmt in _unlocked_self_writes(methods[name], ctx):
            per_attr.setdefault(attr, (name, stmt))
    return per_attr


def _rule_cross_context_writes(ctx: _ModuleContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for cls in ctx.classes.values():
        methods = {
            name: fn for (cls_name, name), fn in ctx.methods.items()
            if cls_name == cls.name
        }
        exec_entries = _executor_entry_methods(cls)
        if not exec_entries:
            continue
        exec_reachable = _context_closure(cls, methods, exec_entries)
        loop_entries = {
            name for name, fn in methods.items()
            if isinstance(fn, ast.AsyncFunctionDef)
            and name not in exec_reachable
        }
        loop_reachable = _context_closure(cls, methods, loop_entries)
        if not loop_reachable:
            continue
        exec_writes = _writes_by_attr(methods, exec_reachable, ctx)
        loop_writes = _writes_by_attr(methods, loop_reachable, ctx)
        for attr in sorted(set(exec_writes) & set(loop_writes)):
            exec_method, exec_stmt = exec_writes[attr]
            loop_method, loop_stmt = loop_writes[attr]
            hits.append((
                make_finding(
                    "CONC004",
                    f"self.{attr} on {cls.name} is written from both "
                    f"an executor context ({exec_method}, line "
                    f"{exec_stmt.lineno}) and the event loop "
                    f"({loop_method}, line {loop_stmt.lineno}) without "
                    f"a lock",
                    location=_pos(exec_stmt),
                ),
                FlowJustification(
                    "CONC004",
                    f"{cls.name}.{attr} has unlocked writes in two "
                    f"execution contexts",
                    evidence=(
                        f"executor:{exec_method}@{exec_stmt.lineno} "
                        f"loop:{loop_method}@{loop_stmt.lineno}"
                    ),
                ),
            ))
    return hits


# -- CONC005: unbounded metric label values -----------------------------------

def _bounded_collection(expr: ast.expr, ctx: _ModuleContext) -> bool:
    """Is this expression a finite literal collection of constants?"""
    if isinstance(expr, (ast.Set, ast.Tuple, ast.List)):
        return all(isinstance(e, ast.Constant) for e in expr.elts)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("frozenset", "set", "tuple")
        and len(expr.args) == 1
        and not expr.keywords
    ):
        return _bounded_collection(expr.args[0], ctx)
    if isinstance(expr, ast.Name):
        constant = ctx.module_constants.get(expr.id)
        return constant is not None and _bounded_collection(constant, ctx)
    return False


def _for_target_bounded(
    name: str, for_node: ast.AST, ctx: _ModuleContext
) -> bool:
    """Loop variable over a literal container takes finitely many
    values (tuple-unpack targets check the matching element slot)."""
    target = getattr(for_node, "target", None)
    iterable = getattr(for_node, "iter", None)
    if isinstance(iterable, ast.Name):
        iterable = ctx.module_constants.get(iterable.id)
    if not isinstance(iterable, (ast.Tuple, ast.List)):
        return False
    if isinstance(target, ast.Name) and target.id == name:
        return all(isinstance(e, ast.Constant) for e in iterable.elts)
    if isinstance(target, (ast.Tuple, ast.List)):
        for slot, element in enumerate(target.elts):
            if isinstance(element, ast.Name) and element.id == name:
                return all(
                    isinstance(e, (ast.Tuple, ast.List))
                    and len(e.elts) > slot
                    and isinstance(e.elts[slot], ast.Constant)
                    for e in iterable.elts
                )
    return False


def _membership_clamp(
    test: ast.expr,
) -> Optional[Tuple[str, ast.expr]]:
    """(clamped side, membership set) for ``x in VOCAB`` IfExp tests.

    ``x if x in VOCAB else "other"`` clamps the *body* side to the
    vocabulary; ``"other" if x not in VOCAB else x`` clamps *orelse*.
    """
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and len(test.comparators) == 1
    ):
        return None
    if isinstance(test.ops[0], ast.In):
        return "body", test.comparators[0]
    if isinstance(test.ops[0], ast.NotIn):
        return "orelse", test.comparators[0]
    return None


def _bounded_label_value(
    expr: ast.expr,
    ctx: _ModuleContext,
    rd: ReachingDefinitions,
    stmt: ast.stmt,
    depth: int = 0,
) -> bool:
    if depth > 6:
        return False
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, (str, int, bool))
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "str"
    ):
        return True
    if isinstance(expr, ast.IfExp):
        body_ok = _bounded_label_value(expr.body, ctx, rd, stmt, depth + 1)
        else_ok = _bounded_label_value(
            expr.orelse, ctx, rd, stmt, depth + 1
        )
        if body_ok and else_ok:
            return True
        clamp = _membership_clamp(expr.test)
        if clamp is None:
            return False
        side, vocabulary = clamp
        if not _bounded_collection(vocabulary, ctx):
            return False
        # The clamped side draws from the finite membership set; the
        # other side must be bounded on its own.
        return else_ok if side == "body" else body_ok
    if isinstance(expr, ast.Name):
        constant = ctx.module_constants.get(expr.id)
        if constant is not None and isinstance(constant, ast.Constant):
            return True
        definitions = rd.at_statement(stmt, expr.id)
        if not definitions:
            return False
        for definition in definitions:
            if not _bounded_definition(definition, ctx, rd, depth):
                return False
        return True
    return False


def _bounded_definition(
    definition: Definition,
    ctx: _ModuleContext,
    rd: ReachingDefinitions,
    depth: int,
) -> bool:
    if definition.kind == "for":
        return definition.node is not None and _for_target_bounded(
            definition.name, definition.node, ctx
        )
    if definition.kind in ("assign", "ann", "walrus"):
        if definition.value is None or definition.node is None:
            return False
        return _bounded_label_value(
            definition.value, ctx, rd,
            definition.node,  # type: ignore[arg-type]
            depth + 1,
        )
    return False  # param / aug / with / except / import: unbounded


#: Label names whose values are per-request unique by construction:
#: no boundedness proof can save them (``str(trace_id)`` passes the
#: grammar but still mints one time series per request).  The
#: sanctioned channel for identities is the histogram exemplar.
_IDENTITY_LABELS = frozenset(
    {"trace_id", "span_id", "request_id", "query_id", "correlation_id"}
)


def _rule_unbounded_labels(ctx: _ModuleContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for qualname, fn, _cls in ctx.iter_functions():
        label_calls = [
            node for node in own_body_nodes(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "labels"
            and (node.args or node.keywords)
        ]
        if not label_calls:
            continue
        cfg = CFG.from_function(fn)
        rd = ReachingDefinitions(cfg, _fn_params(fn))
        stmt_of: Dict[int, ast.stmt] = {}
        for block in cfg.blocks:
            for stmt in block.stmts:
                for node in header_walk(stmt):
                    if isinstance(node, ast.Call):
                        stmt_of[id(node)] = stmt
        for call in label_calls:
            stmt = stmt_of.get(id(call))
            if stmt is None:
                continue  # inside a nested def's own scope
            values: List[Tuple[str, ast.expr]] = []
            for arg in call.args:
                values.append((ast.unparse(arg), arg))
            for keyword in call.keywords:
                if keyword.arg is None:
                    values.append(("**" + ast.unparse(keyword.value),
                                   keyword.value))
                else:
                    values.append((keyword.arg, keyword.value))
            for label_name, value in values:
                if label_name in _IDENTITY_LABELS:
                    hits.append((
                        make_finding(
                            "CONC005",
                            f"metric label {label_name!r} in "
                            f"{qualname}() is a per-request identity — "
                            f"one time series per request, unbounded "
                            f"cardinality by construction; attach it "
                            f"as a histogram exemplar "
                            f"(observe(v, exemplar={{...}})) instead",
                            location=_pos(value),
                        ),
                        FlowJustification(
                            "CONC005",
                            f"label name {label_name!r} at line "
                            f"{value.lineno} in {qualname}() is in the "
                            f"identity-label ban list; boundedness of "
                            f"the value is irrelevant",
                            evidence=(
                                "banned identity labels: "
                                + ", ".join(sorted(_IDENTITY_LABELS))
                            ),
                        ),
                    ))
                    continue
                if _bounded_label_value(value, ctx, rd, stmt):
                    continue
                value_text = ast.unparse(value)
                hits.append((
                    make_finding(
                        "CONC005",
                        f"metric label {label_name!r} in {qualname}() "
                        f"takes the unbounded value `{value_text}`; "
                        f"label sets must be finite — clamp to a "
                        f"literal vocabulary first",
                        location=_pos(value),
                    ),
                    FlowJustification(
                        "CONC005",
                        f"no finite-vocabulary proof for `{value_text}` "
                        f"flowing into .labels() at line {value.lineno} "
                        f"in {qualname}()",
                        evidence=(
                            "bounded := literal | str(...) | clamp-in-"
                            "frozenset | literal-loop target"
                        ),
                    ),
                ))
    return hits


# -- CONC006: except-and-drop on drain/close paths ----------------------------

def _is_broad_exception(expr: Optional[ast.expr]) -> bool:
    if expr is None:
        return True  # bare except
    if isinstance(expr, ast.Tuple):
        return any(_is_broad_exception(e) for e in expr.elts)
    name = _terminal_name(expr)
    return name in ("Exception", "BaseException")


def _is_drop_body(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ):
            continue
        if isinstance(stmt, ast.Continue):
            continue
        return False
    return True


def _rule_swallowed_on_close(ctx: _ModuleContext) -> List[RuleHit]:
    hits: List[RuleHit] = []
    for qualname, fn, _cls in ctx.iter_functions():
        short_name = qualname.rsplit(".", 1)[-1]
        if not _CLOSE_PATH_NAME.search(short_name):
            continue
        for node in own_body_nodes(fn):
            if isinstance(node, ast.ExceptHandler):
                if _is_broad_exception(node.type) and _is_drop_body(
                    node.body
                ):
                    caught = (
                        ast.unparse(node.type) if node.type else "<bare>"
                    )
                    hits.append((
                        make_finding(
                            "CONC006",
                            f"{qualname}() swallows {caught} and drops "
                            f"it on a close/drain path; failures here "
                            f"hide leaked resources — catch the "
                            f"narrow error or record it",
                            location=_pos(node),
                        ),
                        FlowJustification(
                            "CONC006",
                            f"broad except-and-drop at line "
                            f"{node.lineno} inside close-path "
                            f"{qualname}()",
                            evidence=f"except {caught}: <drop>",
                        ),
                    ))
            elif isinstance(node, ast.Call):
                func_name = _terminal_name(node.func)
                if func_name != "suppress":
                    continue
                broad = [
                    arg for arg in node.args if _is_broad_exception(arg)
                    and not isinstance(arg, ast.Tuple)
                ]
                if broad:
                    caught = ast.unparse(broad[0])
                    hits.append((
                        make_finding(
                            "CONC006",
                            f"{qualname}() uses contextlib.suppress"
                            f"({caught}) on a close/drain path; "
                            f"failures here hide leaked resources — "
                            f"suppress the narrow error instead",
                            location=_pos(node),
                        ),
                        FlowJustification(
                            "CONC006",
                            f"suppress({caught}) at line {node.lineno} "
                            f"inside close-path {qualname}()",
                            evidence=f"suppress({caught})",
                        ),
                    ))
    return hits
