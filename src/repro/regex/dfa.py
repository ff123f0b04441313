"""Deterministic scanning engines: eager DFA and lazy (on-the-fly) DFA.

Two size-control ideas make scanning practical:

1. **Alphabet partitioning** — characters that behave identically under
   every transition label of the NFA are grouped into *blocks*
   (:func:`repro.regex.charclass.partition_classes`).  Automata
   transition on block ids, so ``.`` costs one column, not 94.
2. **Lazy determinization** — patterns with counted repetitions under an
   unanchored search (``Σ* ... .{0,200} ...``) have exponentially many
   *reachable* subsets, so eager subset construction diverges.  The
   :class:`LazyDFA` materializes only the subsets the *text actually
   visits* (the RE2 strategy), with a bounded cache that is flushed on
   overflow, preserving linear-time scanning.

Both engines are a :class:`ScanKernel`: one flat, premultiplied
transition list walked by one set of three loops.  A unit is turned into
block ids, a byte each, once (:meth:`BlockAlphabet.translate`, C speed);
after that a step is ``state = flat[state + block]`` and one comparison
``state <= limit`` that is false for every ordinary target.

Table layout.  A state is stored as its row offset ``id * n_blocks``, so
no multiplication happens per character.  Offset 0 is the *dead* state
(its row loops on 0, it never accepts).

* The eager :class:`DFA` orders its states dead, accepting, rest;
  ``limit`` is the last accepting offset, so ``state <= limit`` means
  "dead or accepting".
* The :class:`LazyDFA` cannot order states it has not met.  Its
  ``limit`` is 0, an entry that leads to an accepting state holds the
  *negated* offset, and an entry not computed yet holds
  :data:`UNFILLED`; the kernel calls :meth:`ScanKernel._fill` for the
  latter, which is the only thing the lazy automaton adds.

Every entry that leads to one state is the same ``int`` object, so the
table costs a pointer (8 bytes) per entry.

The three scanning primitives the matcher needs take a translated unit
(a ``memoryview``, so the tail a scan starts from is sliced, not copied):

* ``first_accept_end(data, start)`` — earliest position where an accept
  state is entered (used with the ``Σ* r`` search automaton);
* ``last_accept_backward(data, end, lo)`` — smallest start of a match
  ending at ``end`` (used with the reversed automaton);
* ``last_accept_forward(data, start)`` — largest end of a match starting
  at ``start``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InternalError
from repro.regex.charclass import CharClass, partition_classes
from repro.regex.nfa import NFA

#: Block id handed to characters outside the engine alphabet.  It always
#: transitions to the dead state.
FOREIGN_BLOCK = 0

#: Entry of a lazy table that has not been computed yet.  Never a
#: negated offset: offsets are multiples of ``n_blocks >= 2``.
UNFILLED = -1

#: Lazy cache flush threshold: number of materialized subset states.
LAZY_STATE_CACHE_LIMIT = 20_000

#: UTF-8 continuation bytes.  Deleting them leaves one byte per
#: character: an ASCII character's own, or a lead byte >= 0xC0.
_UTF8_CONTINUATION = bytes(range(0x80, 0xC0))


class BlockAlphabet:
    """One partition of the engine alphabet into equivalence blocks.

    The automata of one pattern share one instance, so a unit is
    translated once whichever of them scans it.

    Attributes:
        reps: ``reps[block]`` is one member character of the block
            (``""`` for :data:`FOREIGN_BLOCK`).
        n_blocks: number of blocks, the foreign one included.
    """

    __slots__ = ("reps", "n_blocks", "_table")

    def __init__(self, classes: Iterable[CharClass]):
        table = bytearray(256)  # every byte starts as FOREIGN_BLOCK
        reps: List[str] = [""]
        for block in partition_classes(classes):
            for ch in block:
                table[ord(ch)] = len(reps)
            reps.append(block[0])
        self.reps = reps
        self.n_blocks = len(reps)
        self._table = bytes(table)

    def translate(self, text: str) -> memoryview:
        """``text`` as block ids, one byte per character.

        ``data[i]`` is the block of ``text[i]``: a non-ASCII character
        (a lone surrogate included) is encoded as a lead byte, which
        maps to :data:`FOREIGN_BLOCK` like any other out-of-alphabet
        byte, and continuation bytes, which are deleted.  Offsets into
        the result are therefore ``str`` offsets.
        """
        return memoryview(text.encode("utf-8", "surrogatepass").translate(
            self._table, _UTF8_CONTINUATION
        ))


class ScanKernel:
    """The flat transition table and the loops that walk it.

    Attributes:
        alphabet: the partition ``flat`` is indexed by.
        n_blocks: row width of ``flat``.
        flat: ``flat[state + block]`` is the next state (see the module
            docstring for how dead, accepting and unfilled targets are
            told apart).
        limit: ``flat`` entries ``<= limit`` need the slow path.
        start: offset of the start state.
        start_accepts: whether the start state accepts.
    """

    __slots__ = (
        "alphabet", "n_blocks", "flat", "limit", "start", "start_accepts",
    )

    def __init__(
        self,
        alphabet: BlockAlphabet,
        flat: List[int],
        limit: int,
        start: int,
        start_accepts: bool,
    ):
        self.alphabet = alphabet
        self.n_blocks = alphabet.n_blocks
        self.flat = flat
        self.limit = limit
        self.start = start
        self.start_accepts = start_accepts

    @property
    def state_count(self) -> int:
        return len(self.flat) // self.n_blocks

    def _fill(self, src: int, block: int) -> int:
        """Compute, store and return the :data:`UNFILLED` entry
        ``flat[src + block]``."""
        raise InternalError("unfilled entry in an eager transition table")

    def matches_empty(self) -> bool:
        return self.start_accepts

    def accepts(self, text: str) -> bool:
        """Whole-string acceptance (False once the automaton dies)."""
        data = self.alphabet.translate(text)
        return self.last_accept_forward(data, 0) == len(data)

    # -- the scan loops (hot: locals only) --------------------------------

    def first_accept_end(self, data: memoryview, start: int) -> int:
        """Earliest i >= start such that an accept state is entered after
        consuming data[start:i]; -1 if never.  On the dead state the scan
        restarts from the automaton start (only foreign characters can
        kill a ``Σ* r`` search automaton, and no match crosses them)."""
        if self.start_accepts:
            return start
        flat = self.flat
        limit = self.limit
        state = restart = self.start
        for i, block in enumerate(data[start:], start + 1):
            src = state
            state = flat[src + block]
            if state <= limit:
                if state == UNFILLED:
                    state = self._fill(src, block)
                    if state > 0:
                        continue
                if state:
                    return i
                state = restart
        return -1

    def last_accept_backward(
        self, data: memoryview, end: int, lo: int
    ) -> int:
        """Smallest s in [lo, end] with an accept after consuming
        data[end-1] ... data[s] (i.e. data[s:end] reversed); -1 if none."""
        flat = self.flat
        limit = self.limit
        state = self.start
        best = end if self.start_accepts else -1
        for i, block in enumerate(data[lo:end][::-1], 1 - end):
            src = state
            state = flat[src + block]
            if state <= limit:
                if state == UNFILLED:
                    state = self._fill(src, block)
                    if state > 0:
                        continue
                if state > 0:
                    best = -i
                elif state < 0:
                    state = -state
                    best = -i
                else:
                    break
        return best

    def last_accept_forward(self, data: memoryview, start: int) -> int:
        """Largest e with an accept after consuming data[start:e]; -1 if
        none (start-state acceptance yields e == start)."""
        flat = self.flat
        limit = self.limit
        state = self.start
        best = start if self.start_accepts else -1
        for i, block in enumerate(data[start:], start + 1):
            src = state
            state = flat[src + block]
            if state <= limit:
                if state == UNFILLED:
                    state = self._fill(src, block)
                    if state > 0:
                        continue
                if state > 0:
                    best = i
                elif state < 0:
                    state = -state
                    best = i
                else:
                    break
        return best


class DFA(ScanKernel):
    """A dense, fully-materialized deterministic automaton.

    States are laid out dead, accepting, rest: a state accepts iff
    ``0 < state <= limit``.
    """

    __slots__ = ()


def build_dfa(
    nfa: NFA,
    minimize: bool = True,
    max_states: int = 50_000,
    alphabet: Optional[BlockAlphabet] = None,
) -> DFA:
    """Eagerly determinize ``nfa`` (and by default minimize the result).

    ``alphabet`` must separate every class of ``nfa``; by default it is
    the partition by those classes.  Raises ``ValueError`` if more than
    ``max_states`` subsets appear — the caller should fall back to
    :class:`LazyDFA`.
    """
    if alphabet is None:
        alphabet = BlockAlphabet(nfa.classes())
    n_blocks = alphabet.n_blocks
    block_reps = alphabet.reps

    start_set = nfa.epsilon_closure({nfa.start})
    subset_ids: Dict[FrozenSet[int], int] = {}
    rows: List[List[int]] = []
    accepting: List[bool] = []

    def intern(subset: FrozenSet[int]) -> int:
        state_id = subset_ids.get(subset)
        if state_id is None:
            state_id = len(rows)
            if state_id > max_states:
                raise ValueError(
                    f"subset construction exceeded {max_states} states"
                )
            subset_ids[subset] = state_id
            rows.append([0] * n_blocks)
            accepting.append(nfa.accept in subset)
        return state_id

    dead = intern(frozenset())
    if dead != 0:
        # The layout below puts the group of state 0 at offset 0.
        raise InternalError(f"dead state interned as {dead}, expected 0")
    start = intern(start_set)

    worklist = [start_set]
    processed = {frozenset(), start_set}
    while worklist:
        subset = worklist.pop()
        src = subset_ids[subset]
        for block_id in range(1, n_blocks):
            target = nfa.step(subset, block_reps[block_id])
            dst = intern(target)
            rows[src][block_id] = dst
            if target not in processed:
                processed.add(target)
                worklist.append(target)

    group_of: Sequence[int] = range(len(rows))
    if minimize:
        group_of = _moore_partition(rows, accepting)
    return _lay_out(rows, accepting, start, group_of, alphabet)


def _moore_partition(
    rows: List[List[int]], accepting: List[bool]
) -> List[int]:
    """Moore partition refinement: the equivalence group of each state."""
    n = len(rows)
    part = [1 if acc else 0 for acc in accepting]
    n_parts = 2
    while True:
        signatures: Dict[Tuple[int, ...], int] = {}
        new_part = [0] * n
        for state in range(n):
            sig = (part[state],) + tuple(part[t] for t in rows[state])
            group = signatures.get(sig)
            if group is None:
                group = len(signatures)
                signatures[sig] = group
            new_part[state] = group
        part = new_part
        if len(signatures) == n_parts:
            return part
        n_parts = len(signatures)


def _lay_out(
    rows: List[List[int]],
    accepting: List[bool],
    start: int,
    group_of: Sequence[int],
    alphabet: BlockAlphabet,
) -> DFA:
    """Emit the flat table, one row per group of states, ordered dead,
    accepting, rest.  State 0 is dead, so its group gets offset 0."""
    rep_of: Dict[int, int] = {}
    for state, group in enumerate(group_of):
        rep_of.setdefault(group, state)
    dead = group_of[0]
    accept = [g for g, rep in rep_of.items() if accepting[rep]]
    rest = [
        g for g, rep in rep_of.items() if not accepting[rep] and g != dead
    ]
    order = [dead] + accept + rest
    n_blocks = alphabet.n_blocks
    # One int object per state: every entry that leads to it shares it.
    offset_of_group = {g: i * n_blocks for i, g in enumerate(order)}
    offset_of = [offset_of_group[g] for g in group_of]
    flat: List[int] = []
    for group in order:
        flat.extend([offset_of[t] for t in rows[rep_of[group]]])
    return DFA(
        alphabet,
        flat,
        limit=len(accept) * n_blocks,
        start=offset_of[start],
        start_accepts=accepting[start],
    )


class LazyDFA(ScanKernel):
    """On-the-fly determinization with a bounded state cache.

    The same :class:`ScanKernel` as :class:`DFA`, but subset states are
    created only when the text first visits them: this class supplies
    :meth:`_fill` and nothing else of the scan.  When the cache exceeds
    :data:`LAZY_STATE_CACHE_LIMIT` states it is flushed and rebuilt from
    the current subset — scanning stays linear with an amortized
    constant factor (the RE2 approach to DFA state blowup).  A flush
    empties ``flat`` in place, so a scan in progress keeps walking the
    same list; the dead and start states keep their offsets.
    """

    __slots__ = (
        "_nfa", "_cache_limit", "_move", "_blank_row", "_start_set",
        "_entry_of", "_subsets", "flush_count",
    )

    def __init__(
        self,
        nfa: NFA,
        cache_limit: int = LAZY_STATE_CACHE_LIMIT,
        alphabet: Optional[BlockAlphabet] = None,
    ):
        if alphabet is None:
            alphabet = BlockAlphabet(nfa.classes())
        self._nfa = nfa
        self._cache_limit = cache_limit
        n_blocks = alphabet.n_blocks
        # Per-NFA-state move sets, precomputed per block for fast stepping.
        self._move: List[List[Tuple[int, ...]]] = []
        for state in range(nfa.state_count):
            moves: List[Tuple[int, ...]] = [()]
            for block_id in range(1, n_blocks):
                rep = alphabet.reps[block_id]
                moves.append(tuple(
                    dst for cls, dst in nfa.transitions[state] if rep in cls
                ))
            self._move.append(moves)
        # A new state's row: the foreign block kills, the rest is unknown.
        self._blank_row = [0] + [UNFILLED] * (n_blocks - 1)
        self.flush_count = 0
        self._start_set = nfa.epsilon_closure({nfa.start})
        super().__init__(
            alphabet, [], limit=0, start=n_blocks,
            start_accepts=nfa.accept in self._start_set,
        )
        self._reset_cache()

    def _reset_cache(self) -> None:
        #: subset -> the entry that leads to it (offset, negated if accepting)
        self._entry_of: Dict[FrozenSet[int], int] = {}
        self._subsets: List[FrozenSet[int]] = []
        del self.flat[:]
        dead = self._intern(frozenset())
        start = abs(self._intern(self._start_set))
        if dead != 0 or start != self.start:
            # The kernel identifies the dead state by offset 0 and
            # restarts a search from self.start; survive -O.
            raise InternalError(
                f"lazy dead/start states interned as {dead}/{start}, "
                f"expected 0/{self.start}"
            )

    def _intern(self, subset: FrozenSet[int]) -> int:
        entry = self._entry_of.get(subset)
        if entry is None:
            entry = len(self.flat)
            if self._nfa.accept in subset:
                entry = -entry
            self._entry_of[subset] = entry
            self._subsets.append(subset)
            self.flat.extend(self._blank_row)
        return entry

    def _fill(self, src: int, block: int) -> int:
        subset = self._subsets[src // self.n_blocks]
        moved = set()
        move = self._move
        for state in subset:
            moved.update(move[state][block])
        target = self._nfa.epsilon_closure(moved) if moved else frozenset()
        if (
            len(self._subsets) >= self._cache_limit
            and target not in self._entry_of
        ):
            # Cache overflow: flush and re-intern only what we need now.
            self.flush_count += 1
            self._reset_cache()
            src = abs(self._intern(subset))
        entry = self._intern(target)
        self.flat[src + block] = entry
        return entry
