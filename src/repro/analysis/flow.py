"""Intraprocedural CFG and dataflow over ``ast`` (no third-party deps).

The FREE lint rules (:mod:`repro.analysis.lint`) are single-pass AST
pattern matchers; the concurrency (CONC) and resource-lifecycle (RES)
rule families need more: *path* questions ("is there a CFG path on
which this engine reaches the function exit without ``close()``?",
"can this ``weakref.finalize`` run after the pool already forked?").
This module supplies the shared machinery:

* :class:`CFG` — an intraprocedural control-flow graph of basic
  blocks over one function body.  Handles ``if``/``while``/``for``
  (with back edges and ``break``/``continue``), ``try``/``except``/
  ``finally`` (block-level exception edges, marked so dataflow can
  take them from the state before each statement; abnormal
  exits — ``return``/``break``/``continue``/``raise`` — are routed
  through pending ``finally`` blocks), ``with``, and early returns.
  Control statements appear as the *last* entry of the block that
  evaluates their header (test/iter/context items); their bodies live
  in successor blocks and are never duplicated.
* :class:`ReachingDefinitions` — the classic forward may-analysis:
  which definitions of a local name can reach a given statement.
* :func:`analyze_resource` — a small ownership lattice
  (``OPEN``/``CLOSED``/``TRANSFERRED``) run forward over the CFG for
  one resource-holding local, reporting may-leak-at-exit and
  definite double-close events.

Everything is *conservative in the may direction*: extra CFG edges
(exception paths, finally fan-out) can only add paths, so "closed on
every path" claims stay sound while "may leak" claims may rarely be
spurious — the same trade the paper's plan-weakening prover makes
(say False rather than wrongly say True).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Block",
    "CFG",
    "Definition",
    "FlowJustification",
    "ReachingDefinitions",
    "ResourceEvent",
    "analyze_resource",
    "statement_uses_name",
    "own_body_nodes",
    "header_exprs",
    "header_walk",
    "OPEN",
    "CLOSED",
    "TRANSFERRED",
    "CLOSE_METHODS",
]


@dataclass(frozen=True)
class FlowJustification:
    """One machine-checkable justification for a CONC/RES finding.

    Same contract as the plan analyzer's
    :class:`~repro.analysis.plan_checks.Justification`: ``rule`` is the
    stable rule code, ``fact`` states the dataflow fact the rule
    established, ``evidence`` pins it to concrete program points
    (lines, call chains, CFG paths).
    """

    rule: str
    fact: str
    evidence: str = ""

    def render(self) -> str:
        text = f"{self.rule}: {self.fact}"
        if self.evidence:
            text += f"  [{self.evidence}]"
        return text


# -- control-flow graph -------------------------------------------------------

class Block:
    """One basic block: straight-line statements plus successor edges.

    ``stmts`` holds simple statements in execution order; a control
    statement (``If``/``While``/``For``/``With``/``Try``/``Return``/
    ``Raise``/...) may appear as the last entry, meaning only its
    *header* (test, iterable, context expressions, return value) is
    evaluated in this block.
    """

    __slots__ = ("id", "label", "stmts", "succs", "preds")

    def __init__(self, block_id: int, label: str):
        self.id = block_id
        self.label = label
        self.stmts: List[ast.stmt] = []
        self.succs: List[int] = []
        self.preds: List[int] = []

    def __repr__(self) -> str:
        return (
            f"Block({self.id}, {self.label!r}, {len(self.stmts)} stmts, "
            f"-> {self.succs})"
        )


@dataclass
class _TryFrame:
    handler_entries: List[int] = field(default_factory=list)
    finally_entry: Optional[int] = None
    #: Abnormal-exit destinations that must be re-routed after the
    #: pending ``finally`` body runs.
    exit_targets: Set[int] = field(default_factory=set)


class CFG:
    """Intraprocedural control-flow graph of one function body."""

    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self.entry_id: int = 0
        self.exit_id: int = 0
        #: id(stmt) -> (block_id, index within block.stmts)
        self._positions: Dict[int, Tuple[int, int]] = {}
        #: extra name definitions attached to a block entry (except
        #: handler targets get their name bound before the body runs).
        self.extra_defs: Dict[int, List["Definition"]] = {}
        #: (src, dst) edges taken only when a statement of ``src``
        #: raises: the try-body edges to handlers (or a bare finally).
        self.raise_edges: Set[Tuple[int, int]] = set()
        #: Blocks whose every exception a catch-all handler (bare
        #: ``except:`` or ``except BaseException:``) of their own try
        #: takes, so no outer handler gets an edge from them.
        self.caught: Set[int] = set()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_function(cls, fn: ast.AST) -> "CFG":
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            raise TypeError(
                f"CFG.from_function needs a function node, got "
                f"{type(fn).__name__}"
            )
        return cls.from_statements(fn.body)

    @classmethod
    def from_statements(cls, body: Sequence[ast.stmt]) -> "CFG":
        cfg = cls()
        builder = _Builder(cfg)
        builder.build(body)
        return cfg

    # -- accessors -----------------------------------------------------------

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    @property
    def entry(self) -> Block:
        return self.blocks[self.entry_id]

    @property
    def exit(self) -> Block:
        return self.blocks[self.exit_id]

    def position_of(self, stmt: ast.stmt) -> Optional[Tuple[int, int]]:
        """(block_id, index) of a statement, or None if unplaced."""
        return self._positions.get(id(stmt))

    def path_exists(
        self,
        src: Tuple[int, int],
        dst: Tuple[int, int],
    ) -> bool:
        """Is there a CFG path from position ``src`` to position ``dst``?

        Positions are ``(block_id, stmt_index)`` pairs; within one
        block, statement order decides.  The path is *strictly
        forward* from src: reaching dst requires executing past src.
        """
        src_block, src_index = src
        dst_block, dst_index = dst
        if src_block == dst_block and dst_index > src_index:
            return True
        seen: Set[int] = set()
        worklist = list(self.blocks[src_block].succs)
        while worklist:
            bid = worklist.pop()
            if bid in seen:
                continue
            seen.add(bid)
            if bid == dst_block:
                return True
            worklist.extend(self.blocks[bid].succs)
        return False

    def reachable_blocks(self) -> List[int]:
        seen: Set[int] = set()
        worklist = [self.entry_id]
        while worklist:
            bid = worklist.pop()
            if bid in seen:
                continue
            seen.add(bid)
            worklist.extend(self.blocks[bid].succs)
        return sorted(seen)

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def new_block(self, label: str) -> Block:
        block = Block(len(self.blocks), label)
        self.blocks.append(block)
        return block

    def place(self, stmt: ast.stmt, block: Block) -> None:
        self._positions[id(stmt)] = (block.id, len(block.stmts))
        block.stmts.append(stmt)


class _Builder:
    """Recursive-descent CFG construction with loop and try stacks."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.current: Optional[Block] = None
        #: (header_id for continue, after_id for break)
        self.loop_stack: List[Tuple[int, int]] = []
        self.try_stack: List[_TryFrame] = []

    def build(self, body: Sequence[ast.stmt]) -> None:
        entry = self.cfg.new_block("entry")
        exit_block = self.cfg.new_block("exit")
        self.cfg.entry_id = entry.id
        self.cfg.exit_id = exit_block.id
        self.current = entry
        self.visit_body(body)
        if self.current is not None:
            self.cfg.add_edge(self.current.id, exit_block.id)

    # -- helpers -------------------------------------------------------------

    def _ensure_current(self, label: str = "code") -> Block:
        if self.current is None:
            # Unreachable code (after return/raise): give it a block
            # with no predecessors so dataflow treats it as dead.
            self.current = self.cfg.new_block(f"unreachable-{label}")
        return self.current

    def _route_abnormal(self, dest: int) -> int:
        """Destination for an abnormal exit, honouring pending finallys.

        Returns the immediate jump target: the innermost pending
        ``finally`` entry (recording ``dest`` for re-routing once that
        finally completes), or ``dest`` itself when no finally pends.
        """
        for frame in reversed(self.try_stack):
            if frame.finally_entry is not None:
                frame.exit_targets.add(dest)
                return frame.finally_entry
        return dest

    def _terminate(self, dest: int) -> None:
        block = self._ensure_current()
        self.cfg.add_edge(block.id, self._route_abnormal(dest))
        self.current = None

    # -- statement dispatch --------------------------------------------------

    def visit_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.If):
            self.visit_if(stmt)
        elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self.visit_loop(stmt)
        elif isinstance(stmt, ast.Try):
            self.visit_try(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            self.visit_with(stmt)
        elif isinstance(stmt, ast.Return):
            block = self._ensure_current()
            self.cfg.place(stmt, block)
            self._terminate(self.cfg.exit_id)
        elif isinstance(stmt, ast.Raise):
            block = self._ensure_current()
            self.cfg.place(stmt, block)
            dest = self._raise_destinations()
            for target in dest:
                self.cfg.add_edge(block.id, target)
            if not dest:
                self._terminate(self.cfg.exit_id)
            else:
                self.current = None
        elif isinstance(stmt, ast.Break):
            block = self._ensure_current()
            self.cfg.place(stmt, block)
            if self.loop_stack:
                self._terminate(self.loop_stack[-1][1])
            else:
                self._terminate(self.cfg.exit_id)
        elif isinstance(stmt, ast.Continue):
            block = self._ensure_current()
            self.cfg.place(stmt, block)
            if self.loop_stack:
                self._terminate(self.loop_stack[-1][0])
            else:
                self._terminate(self.cfg.exit_id)
        else:
            # Simple statement (incl. nested function/class defs whose
            # bodies are opaque to this intraprocedural CFG).
            self.cfg.place(stmt, self._ensure_current())

    def _raise_destinations(self) -> List[int]:
        """Where an explicit ``raise`` can land: innermost handlers.

        A raise inside a try with handlers jumps to those handlers; a
        pending ``finally`` without handlers routes to the exit through
        the finally chain.
        """
        for frame in reversed(self.try_stack):
            if frame.handler_entries:
                return list(frame.handler_entries)
        return [self._route_abnormal(self.cfg.exit_id)]

    def visit_if(self, stmt: ast.If) -> None:
        header = self._ensure_current("if")
        self.cfg.place(stmt, header)
        after = self.cfg.new_block("if-after")

        then_block = self.cfg.new_block("then")
        self.cfg.add_edge(header.id, then_block.id)
        self.current = then_block
        self.visit_body(stmt.body)
        if self.current is not None:
            self.cfg.add_edge(self.current.id, after.id)

        if stmt.orelse:
            else_block = self.cfg.new_block("else")
            self.cfg.add_edge(header.id, else_block.id)
            self.current = else_block
            self.visit_body(stmt.orelse)
            if self.current is not None:
                self.cfg.add_edge(self.current.id, after.id)
        else:
            self.cfg.add_edge(header.id, after.id)
        self.current = after

    def visit_loop(self, stmt: ast.stmt) -> None:
        before = self._ensure_current("loop")
        header = self.cfg.new_block("loop-header")
        self.cfg.add_edge(before.id, header.id)
        self.cfg.place(stmt, header)
        after = self.cfg.new_block("loop-after")
        self.cfg.add_edge(header.id, after.id)  # zero iterations

        body_block = self.cfg.new_block("loop-body")
        self.cfg.add_edge(header.id, body_block.id)
        self.loop_stack.append((header.id, after.id))
        self.current = body_block
        body = getattr(stmt, "body", [])
        self.visit_body(body)
        if self.current is not None:
            self.cfg.add_edge(self.current.id, header.id)  # back edge
        self.loop_stack.pop()

        orelse = getattr(stmt, "orelse", [])
        if orelse:
            self.current = after
            self.visit_body(orelse)
        else:
            self.current = after

    def visit_with(self, stmt: ast.stmt) -> None:
        header = self._ensure_current("with")
        self.cfg.place(stmt, header)
        body = getattr(stmt, "body", [])
        self.visit_body(body)

    def visit_try(self, stmt: ast.Try) -> None:
        frame = _TryFrame()
        for handler in stmt.handlers:
            entry = self.cfg.new_block("except")
            frame.handler_entries.append(entry.id)
            if handler.name:
                self.cfg.extra_defs.setdefault(entry.id, []).append(
                    Definition(
                        name=handler.name,
                        kind="except",
                        node=handler,
                        value=None,
                        block=entry.id,
                        index=-1,
                    )
                )
        if stmt.finalbody:
            frame.finally_entry = self.cfg.new_block("finally").id
        after = self.cfg.new_block("try-after")

        # Body: every block created while the body builds gets a
        # conservative exception edge to every handler entry.  It
        # starts a block of its own, so statements before the try keep
        # only the outer edges.
        before_count = len(self.cfg.blocks)
        entry_block = self.cfg.new_block("try")
        self.cfg.add_edge(self._ensure_current("try").id, entry_block.id)
        self.current = entry_block
        self.try_stack.append(frame)
        self.visit_body(stmt.body)
        body_blocks = [
            b.id for b in self.cfg.blocks[before_count:]
            if not b.label.startswith(("except", "finally", "try-after"))
            and b.id not in self.cfg.caught
        ]
        if any(
            handler.type is None
            or (isinstance(handler.type, ast.Name)
                and handler.type.id == "BaseException")
            for handler in stmt.handlers
        ):
            self.cfg.caught.update(body_blocks)
        for bid in body_blocks:
            raise_dests = list(frame.handler_entries)
            if frame.finally_entry is not None and not raise_dests:
                # An unhandled exception still runs the finally.
                raise_dests.append(frame.finally_entry)
                frame.exit_targets.add(self.cfg.exit_id)
            for dest in raise_dests:
                if dest not in self.cfg.blocks[bid].succs:
                    self.cfg.raise_edges.add((bid, dest))
                    self.cfg.add_edge(bid, dest)
        end_of_body = self.current

        # else clause continues the normal path.
        if stmt.orelse and end_of_body is not None:
            self.current = end_of_body
            self.visit_body(stmt.orelse)
            end_of_body = self.current

        # The frame stops applying inside handlers and finally (an
        # exception raised there propagates to *outer* frames).
        self.try_stack.pop()

        normal_dest = (
            frame.finally_entry
            if frame.finally_entry is not None
            else after.id
        )
        if end_of_body is not None:
            self.cfg.raise_edges.discard((end_of_body.id, normal_dest))
            self.cfg.add_edge(end_of_body.id, normal_dest)

        for handler, entry_id in zip(stmt.handlers, frame.handler_entries):
            self.current = self.cfg.block(entry_id)
            self.visit_body(handler.body)
            if self.current is not None:
                self.cfg.add_edge(self.current.id, normal_dest)

        if frame.finally_entry is not None:
            self.current = self.cfg.block(frame.finally_entry)
            self.visit_body(stmt.finalbody)
            finally_exit = self.current
            if finally_exit is not None:
                self.cfg.add_edge(finally_exit.id, after.id)
                for dest in frame.exit_targets:
                    # Continue abnormal exits through any *outer*
                    # pending finally.
                    self.cfg.add_edge(
                        finally_exit.id, self._route_abnormal(dest)
                    )
        self.current = after


# -- reaching definitions -----------------------------------------------------

@dataclass(frozen=True)
class Definition:
    """One definition site of a local name."""

    name: str
    kind: str  # assign | aug | ann | param | for | with | except | import | def | walrus
    node: Optional[ast.AST]
    #: RHS expression when the definition has one (Assign/AnnAssign
    #: values, the For iterable, the With context expression).
    value: Optional[ast.expr]
    block: int
    index: int


def _target_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def definitions_in(
    stmt: ast.stmt, block: int, index: int
) -> List[Definition]:
    """Name definitions performed by one (possibly control) statement.

    For control statements only the header's definitions count (a
    ``for`` target, a ``with ... as`` alias); their bodies live in
    other blocks.
    """
    defs: List[Definition] = []

    def add(name: str, kind: str, value: Optional[ast.expr]) -> None:
        defs.append(Definition(name, kind, stmt, value, block, index))

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for name in _target_names(target):
                add(name, "assign", stmt.value)
    elif isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name) and stmt.value is not None:
            add(stmt.target.id, "ann", stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            add(stmt.target.id, "aug", stmt.value)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in _target_names(stmt.target):
            add(name, "for", stmt.iter)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    add(name, "with", item.context_expr)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            add(bound, "import", None)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        add(stmt.name, "def", None)

    # Walrus targets anywhere in the statement's header expressions.
    for node in header_walk(stmt):
        if isinstance(node, ast.NamedExpr) and isinstance(
            node.target, ast.Name
        ):
            defs.append(Definition(
                node.target.id, "walrus", stmt, node.value, block, index,
            ))
    return defs


def header_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a block evaluates for this statement.

    For simple statements that is every child expression; for control
    statements only the header (test, iterable, context items, return
    value) — bodies belong to other blocks.
    """
    if isinstance(stmt, ast.If):
        return [stmt.test]
    if isinstance(stmt, ast.While):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    return [
        node for node in ast.iter_child_nodes(stmt)
        if isinstance(node, ast.expr)
    ]


def header_walk(stmt: ast.stmt) -> Iterable[ast.AST]:
    for expr in header_exprs(stmt):
        yield from ast.walk(expr)


def statement_uses_name(stmt: ast.stmt, name: str) -> bool:
    """Does the statement's *header* read the given name?"""
    for node in header_walk(stmt):
        if isinstance(node, ast.Name) and node.id == name and isinstance(
            node.ctx, ast.Load
        ):
            return True
    return False


class ReachingDefinitions:
    """Classic forward may-analysis over a :class:`CFG`.

    ``params`` seed the entry block with parameter definitions so a
    use of an un-reassigned parameter resolves to a ``param`` def
    (rules treat those as externally controlled).
    """

    def __init__(self, cfg: CFG, params: Sequence[str] = ()):
        self.cfg = cfg
        self._param_defs = [
            Definition(name, "param", None, None, cfg.entry_id, -1)
            for name in params
        ]
        self._block_in: Dict[int, Set[Definition]] = {}
        self._run()

    def _transfer(
        self, defs: Set[Definition], block: Block
    ) -> Set[Definition]:
        out = set(defs)
        for extra in self.cfg.extra_defs.get(block.id, []):
            out = {d for d in out if d.name != extra.name}
            out.add(extra)
        for index, stmt in enumerate(block.stmts):
            for new_def in definitions_in(stmt, block.id, index):
                out = {d for d in out if d.name != new_def.name}
                out.add(new_def)
        return out

    def _run(self) -> None:
        for block in self.cfg.blocks:
            self._block_in[block.id] = set()
        self._block_in[self.cfg.entry_id] = set(self._param_defs)
        changed = True
        while changed:
            changed = False
            for block in self.cfg.blocks:
                incoming: Set[Definition] = set(
                    self._param_defs
                ) if block.id == self.cfg.entry_id else set()
                for pred in block.preds:
                    incoming |= self._transfer(
                        self._block_in[pred], self.cfg.block(pred)
                    )
                if incoming != self._block_in[block.id]:
                    self._block_in[block.id] = incoming
                    changed = True

    def at_statement(self, stmt: ast.stmt, name: str) -> List[Definition]:
        """Definitions of ``name`` that can reach ``stmt`` (pre-state)."""
        position = self.cfg.position_of(stmt)
        if position is None:
            return []
        block_id, index = position
        block = self.cfg.block(block_id)
        live = set(self._block_in[block_id])
        for extra in self.cfg.extra_defs.get(block_id, []):
            live = {d for d in live if d.name != extra.name}
            live.add(extra)
        for i in range(index):
            for new_def in definitions_in(block.stmts[i], block_id, i):
                live = {d for d in live if d.name != new_def.name}
                live.add(new_def)
        return sorted(
            (d for d in live if d.name == name),
            key=lambda d: (d.block, d.index),
        )


# -- resource ownership lattice ----------------------------------------------

OPEN = "open"
CLOSED = "closed"
TRANSFERRED = "transferred"

#: Method names that release a resource when called on it.
CLOSE_METHODS = frozenset({
    "close", "shutdown", "stop", "release", "terminate", "aclose",
})


@dataclass(frozen=True)
class ResourceEvent:
    """One resource-lifecycle fact established by the lattice run."""

    kind: str  # "may-leak" | "double-close"
    name: str
    node: ast.AST  # anchor: creation stmt (leak) or close stmt
    detail: str = ""


def _unwrap_await(expr: ast.expr) -> ast.expr:
    return expr.value if isinstance(expr, ast.Await) else expr


def _close_call_on(stmt: ast.stmt, name: str) -> bool:
    """``v.close()`` / ``await v.close()`` as a standalone statement."""
    if not isinstance(stmt, ast.Expr):
        return False
    call = _unwrap_await(stmt.value)
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in CLOSE_METHODS
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == name
    )


def _transfers_ownership(stmt: ast.stmt, name: str) -> bool:
    """Does this statement hand the resource to another owner?

    Ownership transfer (conservatively): returned or yielded, stored
    into an attribute/subscript/container, passed as a call argument,
    or adopted by a ``with`` statement.  After transfer the function
    is no longer responsible for closing.

    A method call *on* the resource (``v.search(...)``) is a use, not
    a transfer: only appearing in data position — argument, container
    element, returned value — hands ownership away.
    """
    def is_var(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Name) and expr.id == name

    def carries(expr: Optional[ast.expr]) -> bool:
        """Does evaluating this expression carry ``name`` as data?"""
        if expr is None:
            return False
        if isinstance(expr, ast.Name):
            return expr.id == name
        if isinstance(expr, ast.Call):
            if any(carries(arg) for arg in expr.args):
                return True
            if any(carries(kw.value) for kw in expr.keywords):
                return True
            # The callee/receiver spine is a use, not a transfer; a
            # nested call there (make(v).run()) is still inspected.
            spine: ast.expr = expr.func
            while isinstance(spine, (ast.Attribute, ast.Subscript)):
                spine = spine.value
            return isinstance(spine, ast.Call) and carries(spine)
        return any(
            carries(child)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    if isinstance(stmt, ast.Return):
        return carries(stmt.value)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return any(
            carries(item.context_expr) for item in stmt.items
        )
    if isinstance(stmt, ast.Assign):
        value_moves = carries(stmt.value)
        stored = any(
            isinstance(t, (ast.Attribute, ast.Subscript))
            for t in stmt.targets
        )
        if value_moves and stored:
            return True
        # v aliased into a container literal then assigned anywhere.
        if value_moves and not any(is_var(t) for t in stmt.targets):
            if not isinstance(stmt.value, ast.Name):
                return True
        return False

    # Passed as an argument (incl. containers built in the call) or
    # yielded: scan header expressions for calls/yields carrying v.
    for expr in header_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    if carries(arg):
                        return True
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                if carries(getattr(node, "value", None)):
                    return True
    return False


def _reassigns(stmt: ast.stmt, name: str) -> bool:
    for new_def in definitions_in(stmt, 0, 0):
        if new_def.name == name:
            return True
    return False


def analyze_resource(
    cfg: CFG, name: str, creation: ast.stmt
) -> List[ResourceEvent]:
    """Run the ownership lattice for one resource-holding local.

    ``creation`` is the statement that binds the freshly constructed
    resource to ``name``.  Returns may-leak (OPEN can reach the
    function exit) and definite double-close (a close whose every
    incoming path already closed) events.
    """
    position = cfg.position_of(creation)
    if position is None:
        return []

    states_in: Dict[int, Set[str]] = {b.id: set() for b in cfg.blocks}

    def transfer(
        states: Set[str],
        block: Block,
        collect: Optional[List[ResourceEvent]],
        raising: bool = False,
    ) -> Set[str]:
        """The block's exit state; with ``raising``, the union of the
        states a raising statement leaves instead: the state before it
        (a completed assignment cannot raise), except that a raising
        ``close()`` still counts as closed."""
        current = set(states)
        raised: Set[str] = set()
        for stmt in block.stmts:
            if raising and not _close_call_on(stmt, name):
                raised |= current
            if stmt is creation:
                current = {OPEN}
                continue
            if not current:
                continue
            if _close_call_on(stmt, name):
                if current == {CLOSED} and collect is not None:
                    collect.append(ResourceEvent(
                        kind="double-close",
                        name=name,
                        node=stmt,
                        detail=(
                            f"every path reaching line {stmt.lineno} "
                            f"already closed {name!r}"
                        ),
                    ))
                current = {CLOSED}
            elif _transfers_ownership(stmt, name):
                current = {TRANSFERRED}
            elif _reassigns(stmt, name):
                current = set()
            if raising and _close_call_on(stmt, name):
                raised |= current
        return raised if raising else current

    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            incoming: Set[str] = set()
            for pred in block.preds:
                incoming |= transfer(
                    states_in[pred], cfg.block(pred), None,
                    raising=(pred, block.id) in cfg.raise_edges,
                )
            if incoming - states_in[block.id]:
                states_in[block.id] |= incoming
                changed = True

    events: List[ResourceEvent] = []
    for block in cfg.blocks:
        transfer(states_in[block.id], block, events)
    exit_states = transfer(
        states_in[cfg.exit_id], cfg.block(cfg.exit_id), None
    )
    if OPEN in exit_states:
        events.append(ResourceEvent(
            kind="may-leak",
            name=name,
            node=creation,
            detail=(
                f"{name!r} (created line {creation.lineno}) can reach "
                f"the function exit still open on some CFG path"
            ),
        ))
    return events


# -- shared AST helpers -------------------------------------------------------

def own_body_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body *excluding* nested function/class bodies.

    Nested ``def``/``async def``/``lambda``/class bodies execute in a
    different context (or not at all), so context-sensitive rules must
    not attribute their statements to the enclosing function.
    """
    body = getattr(fn, "body", [])
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue  # the nested def itself is yielded, not its body
        for child in ast.iter_child_nodes(node):
            stack.append(child)
