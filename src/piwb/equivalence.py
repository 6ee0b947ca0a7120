"""Strong and weak bisimilarity: one class engine, witness partitions.

`BehaviorIndex` is the single engine for behaviour classes.  Transition
graphs of replication-free terms are acyclic, so one bottom-up pass that
interns each state's signature {(action, class of successor)} decides
strong bisimilarity exactly (the rank-based idea of Dovier, Piazza and
Policriti, TCS 2004).  Its weak layer saturates the strong quotient:
visible challenges may be answered through internal steps, and a tau
challenge may be answered by staying put.  The index also records which
classes can reach a stuttering step.

The index stores every set it interns packed: a move (action, id)
becomes the one int `action id << 40 | id`, where the action id is small
and per index (tau is 0), and a set of moves becomes the sorted tuple of
its distinct ints.  A frozenset costs at least 216 bytes even when empty
and a retained `(action, id)` tuple 56 more per move; a sweep interns
tens of thousands of mostly tiny sets, so these made up most of the
index's memory.  The packing is injective while ids stay below 2**40,
and the index raises `TooLarge` rather than allocate that id (far beyond
any memory).  `BehaviorIndex.moves` and `weak_moves` decode the sets;
readers outside this module go through them.

`bisim` explores both terms once through one fresh index under a shared
name universe, both entered at the same pool cursor so input
instantiations align, and compares their class ids; the witness
`Partition` groups the states that index explored.  `refine` runs the
engine over an explicit graph instead, for callers that hold one.

`naive_bisim_oracle` is an intentionally separate decision procedure
(greatest-fixpoint shrinking of the full state-pair relation, with its
own saturation) used to cross-check the engine.
"""

from __future__ import annotations

from .errors import NotFinite, TooLarge
from .lts import Lts, _topological_order, action_weight, build_lts_multi
from .parser import _render
from .semantics import (
    ExplorationMemo,
    NameUniverse,
    _steps_cached,
    derive_steps,
    start_index,
    state_for,
)
from .syntax import (
    NIL,
    Process,
    TAU_ACT,
    alpha_canonical,
    hashcons,
    is_replication_free,
)

STRONG = "strong"
WEAK = "weak"

# Width of the id field of a packed move; the action id sits above it.
_CID_BITS = 40


class Partition:
    """Disjoint blocks of states whose induced relation is a bisimulation.

    `states` are terms and `ids` their class ids, position by position;
    a block is the frozenset of positions sharing one id.
    """

    __slots__ = ("states", "mode", "blocks", "_ids")

    def __init__(self, states, mode: str, ids):
        self.states = tuple(states)
        self.mode = mode
        self._ids = tuple(ids)
        groups: dict[int, list[int]] = {}
        for s, b in enumerate(self._ids):
            groups.setdefault(b, []).append(s)
        self.blocks = tuple(frozenset(members) for members in groups.values())

    def same_block(self, s: int, t: int) -> bool:
        return self._ids[s] == self._ids[t]

    def to_json_dict(self) -> dict:
        """Blocks as sorted lists of rendered states, ordered by text."""
        return {
            "mode": self.mode,
            "blocks": sorted(
                sorted(_render(self.states[s], 0) for s in block)
                for block in self.blocks
            ),
        }


class _ActionIds(dict):
    """Action -> small id, assigned on first sight; `actions` and
    `weights` (its `action_weight`) are indexed by id.  Tau is id 0, so a
    packed tau move equals its successor id and sorts first."""

    __slots__ = ("actions", "weights")

    def __init__(self):
        super().__init__()
        self.actions: list = []
        self.weights: list[int] = []
        self[TAU_ACT]  # id 0

    def __missing__(self, a) -> int:
        aid = self[a] = len(self.actions)
        self.actions.append(a)
        self.weights.append(action_weight(a))
        return aid


def _decoded(keys, actions):
    """(action, id) pairs of the packed moves `keys`."""
    bits = _CID_BITS
    mask = (1 << bits) - 1
    for k in keys:
        yield actions[k >> bits], k & mask


class BehaviorIndex:
    """Integer behaviour-class ids for finite terms under one universe.

    Transition graphs of replication-free terms are acyclic, so strong
    bisimilarity admits a bottom-up canonical form: two states are
    equivalent iff the sets {(action, class of successor)} coincide.
    Interning those sets gives the strong class id.  The weak layer
    saturates the strong quotient (a DAG, since every signature references
    only earlier ids) and interns each class's weak record, read off its
    successors' records.

    Signatures and both halves of weak records are sorted tuples of ints,
    one per move, packed as in the module docstring; `moves` and
    `weak_moves` decode them.  Class ids stop below 2**40, and weak ids
    with them (there are never more weak records than classes).
    """

    def __init__(self, universe: NameUniverse):
        self.universe = universe
        self._class_of: dict[Process, int] = {}
        # Components, pairs and inputs of compositions, for `derive_steps`.
        self._memo = ExplorationMemo(universe)
        self._action_ids = _ActionIds()
        self._by_signature: dict[tuple, int] = {}
        self.signatures: list[tuple[int, ...]] = []
        self.depths: list[int] = []
        # Weak layer, indexed by strong class id and filled on demand.
        self._weak: list[int] = []
        self._stutter_reach: list[bool] = []
        self._weak_sigs: list = []  # weak id -> (vis, proper) record
        self._weak_intern: dict = {}

    def class_of(self, term: Process) -> int:
        return self.class_at(term, start_index(term, self.universe))

    def class_at(self, term: Process, consumed: int) -> int:
        """Class id of `term` entered with pool cursor `consumed`."""
        # The keys are canonical and equality is structural, so a raw term
        # equal to a key is canonical itself and needs no renaming.
        got = self._class_of.get((term, consumed))
        if got is not None:
            return got
        avoid = self.universe.known
        return self._explore((hashcons(alpha_canonical(term, avoid=avoid)), consumed))

    def class_of_root(self, term: Process) -> int:
        """`class_of(term)` for a term no later query reaches: its
        successors are classified and kept, but `term` itself goes into
        neither the class table nor the `hashcons` table.

        A caller may use it when it knows that no state explored later
        has `term` as a successor.  Every step removes at least one
        prefix, so a derivative is strictly smaller than its source, and
        a term at least as large as every term queried after it is never
        reached again (`decompose.upd_sweep` classifies its largest
        terms here).
        """
        u = self.universe
        root = (alpha_canonical(term, avoid=u.known), start_index(term, u))
        got = self._class_of.get(root)
        if got is not None:
            return got
        steps = derive_steps(root, u, self._memo)
        return self.intern((a, self._explore(q)) for a, q in steps)

    def _explore(self, root) -> int:
        class_of = self._class_of
        got = class_of.get(root)
        if got is not None:
            return got
        # Post-order on an explicit stack (the graph is acyclic), so deep
        # terms need no deep recursion.  Each state is derived once (this
        # memo), so the global transition cache would only duplicate
        # memory, and compositions are derived from their components
        # through the index's `ExplorationMemo`.  Successors come back
        # interned and share subterms.
        u, memo = self.universe, self._memo
        steps = derive_steps(root, u, memo)
        stack = [(root, steps, iter(steps))]
        while stack:
            state, steps, todo = stack[-1]
            for _a, q in todo:
                if q not in class_of:
                    succ = derive_steps(q, u, memo)
                    stack.append((q, succ, iter(succ)))
                    break
            else:
                stack.pop()
                class_of[state] = self.intern((a, class_of[q]) for a, q in steps)
        return class_of[root]

    def intern(self, moves) -> int:
        """Class id of a state whose moves are the (action, successor class
        id) pairs `moves`, repeats allowed; every successor id must
        already exist.  Raises TooLarge rather than allocate id 2**40."""
        bits = _CID_BITS
        aids = self._action_ids
        sig = tuple(sorted({aids[a] << bits | c for a, c in moves}))
        cid = self._by_signature.get(sig)
        if cid is None:
            cid = len(self.signatures)
            if cid >> bits:
                raise TooLarge(f"more than 2**{bits} behaviour classes")
            self._by_signature[sig] = cid
            self.signatures.append(sig)
            mask = (1 << bits) - 1
            weights, depths = aids.weights, self.depths
            depths.append(
                max((weights[k >> bits] + depths[k & mask] for k in sig), default=0)
            )
        return cid

    def moves(self, cid: int):
        """The moves of class `cid`: its (action, successor class id) pairs."""
        return _decoded(self.signatures[cid], self._action_ids.actions)

    def weak_moves(self, wid: int):
        """The weak moves of weak class `wid`: (a, weak id) for each
        visible action a it can do through internal steps, then (tau, t)
        for each weak class t of its proper tau-descendants."""
        vis, proper = self._weak_sigs[wid]
        yield from _decoded(vis, self._action_ids.actions)
        for t in proper:
            yield TAU_ACT, t

    def depth_of(self, term: Process) -> int:
        return self.depths[self.class_of(term)]

    # -- weak layer --------------------------------------------------------
    #
    # Signature edges always point to strictly smaller class ids, so the
    # strong quotient is a DAG ordered by id and weak classes extend
    # incrementally.  A class's weak record is (vis, proper): the weak
    # moves (a, weak id) it can make through internal steps, packed, and
    # the weak ids of its proper tau-descendants, both sorted.  It is read
    # off the successors' records, since a successor's weak id together
    # with its record's `proper` is exactly the weak image of its
    # tau-closure.  A class either collapses into the weak class c of a
    # proper tau-descendant, when c's record is (vis, proper - {c}) (its
    # remaining behaviour adds nothing -- the stuttering case), or is the
    # unique class with its record, interned on first sight.  A record's
    # `proper` holds only ids older than its own, so only the largest id
    # of `proper` can pass that test: every other c is older than it.

    def _ensure_weak(self):
        bits = _CID_BITS
        mask = (1 << bits) - 1
        weak, records, reach = self._weak, self._weak_sigs, self._stutter_reach
        signatures, interned = self.signatures, self._weak_intern
        for cid in range(len(weak), len(signatures)):
            sig = signatures[cid]
            vis, proper = set(), set()
            for k in sig:
                c2 = k & mask
                w = weak[c2]
                vis2, proper2 = records[w]
                if k == c2:  # action id 0: tau
                    proper.add(w)
                    proper.update(proper2)
                    vis.update(vis2)
                else:
                    act = k - c2
                    vis.add(act | w)
                    if proper2:
                        vis.update([act | t for t in proper2])
            vis, proper = tuple(sorted(vis)), tuple(sorted(proper))
            wid = None
            if proper:
                top_vis, top_proper = records[proper[-1]]
                if top_vis == vis and top_proper == proper[:-1]:
                    wid = proper[-1]
            if wid is None:
                key = (vis, proper)
                wid = interned.get(key)
                if wid is None:
                    wid = len(records)
                    records.append(key)
                    interned[key] = wid
            weak.append(wid)
            reach.append(
                any(weak[k] == wid for k in sig if k <= mask)
                or any(reach[k & mask] for k in sig)
            )

    def weak_id(self, cid: int) -> int:
        """Weak class id of the strong class `cid`."""
        self._ensure_weak()
        return self._weak[cid]

    def stutters(self, cid: int) -> bool:
        """Can the strong class `cid` reach a stuttering step?"""
        self._ensure_weak()
        return self._stutter_reach[cid]

    def weak_class_of(self, term: Process) -> int:
        return self.weak_id(self.class_of(term))

    def class_in_mode(self, term: Process, mode: str) -> int:
        if mode == STRONG:
            return self.class_of(term)
        if mode == WEAK:
            return self.weak_class_of(term)
        raise ValueError(f"unknown mode: {mode!r}")

    def nil_class_in_mode(self, mode: str) -> int:
        return self.class_in_mode(NIL, mode)


def refine(l: Lts, mode: str) -> Partition:
    """Coarsest (strong or weak) bisimulation partition of an acyclic graph.

    States are interned bottom-up, in reverse topological order, through
    a fresh BehaviorIndex; weak mode reads the index's weak ids.  Raises
    CyclicLts on a graph with a cycle.
    """
    if mode not in (STRONG, WEAK):
        raise ValueError(f"unknown mode: {mode!r}")
    index = BehaviorIndex(l.universe)
    ids = [0] * len(l.states)
    for i in reversed(_topological_order(l)):
        ids[i] = index.intern((a, ids[j]) for a, j in l.edges_from[i])
    if mode == WEAK:
        ids = [index.weak_id(c) for c in ids]
    return Partition(l.states, mode, ids)


def _shared_universe(p: Process, q: Process, u: NameUniverse | None):
    if not (is_replication_free(p) and is_replication_free(q)):
        raise NotFinite("bisimilarity checking requires replication-free terms")
    return NameUniverse.for_terms(p, q) if u is None else u


def bisim(p: Process, q: Process, mode: str, u: NameUniverse | None = None):
    """Decide p ~ q (strong) or p ~~ q (weak); the partition witnesses the
    verdict on every state reachable from either term."""
    if mode not in (STRONG, WEAK):
        raise ValueError(f"unknown mode: {mode!r}")
    u = _shared_universe(p, q, u)
    # Both roots start at the shared pool cursor so input instantiation
    # aligns, as in build_lts_multi.
    k0 = max(start_index(p, u), start_index(q, u))
    index = BehaviorIndex(u)
    cp, cq = index.class_at(p, k0), index.class_at(q, k0)
    ids = list(index._class_of.values())
    if mode == WEAK:
        cp, cq = index.weak_id(cp), index.weak_id(cq)
        ids = [index.weak_id(c) for c in ids]
    states = [t for t, _k in index._class_of]
    return cp == cq, Partition(states, mode, ids)


def strong_bisim(
    p: Process, q: Process, u: NameUniverse | None = None
) -> tuple[bool, Partition]:
    """Decide p ~ q."""
    return bisim(p, q, STRONG, u)


def weak_bisim(
    p: Process, q: Process, u: NameUniverse | None = None
) -> tuple[bool, Partition]:
    """Decide p ~~ q (weak bisimilarity), tau challenges answerable in place."""
    return bisim(p, q, WEAK, u)


def naive_bisim_oracle(
    p: Process,
    q: Process,
    mode: str = STRONG,
    u: NameUniverse | None = None,
    max_pairs: int = 250_000,
) -> bool:
    """Independent oracle: shrink the full state-pair relation to a fixpoint.

    Quadratic in states and meant for small instances only; raises TooLarge
    beyond `max_pairs` candidate pairs.
    """
    if mode not in (STRONG, WEAK):
        raise ValueError(f"unknown mode: {mode!r}")
    u = _shared_universe(p, q, u)
    l = build_lts_multi([p, q], u)
    n = len(l.states)
    if n * n > max_pairs:
        raise TooLarge(f"{n * n} state pairs exceed the configured bound {max_pairs}")

    if mode == STRONG:
        answers = [frozenset(l.edges_from[i]) for i in range(n)]

        def challenges(i):
            return l.edges_from[i]

    else:
        # Local saturation, kept separate from BehaviorIndex's on purpose.
        closure: list[set] = [None] * n  # type: ignore[list-item]

        def clo(i):
            if closure[i] is None:
                acc = {i}
                for a, j in l.edges_from[i]:
                    if a == TAU_ACT:
                        acc |= clo(j)
                closure[i] = acc
            return closure[i]

        answers = []
        for i in range(n):
            acc = {(TAU_ACT, t) for t in clo(i)}
            for s in clo(i):
                for a, j in l.edges_from[s]:
                    if a != TAU_ACT:
                        acc.update((a, t) for t in clo(j))
            answers.append(frozenset(acc))

        def challenges(i):
            return l.edges_from[i]

    related = [[True] * n for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            row = related[i]
            for j in range(n):
                if not row[j]:
                    continue
                ok = _matches(challenges(i), answers[j], related, False) and _matches(
                    challenges(j), answers[i], related, True
                )
                if not ok:
                    row[j] = False
                    changed = True
    return related[l.roots[0]][l.roots[1]]


def _matches(challenge_edges, answer_set, related, flipped):
    for a, i2 in challenge_edges:
        found = False
        for b, j2 in answer_set:
            if b == a and (related[j2][i2] if flipped else related[i2][j2]):
                found = True
                break
        if not found:
            return False
    return True


def bisimilar_to_nil(p: Process, mode: str, u: NameUniverse | None = None) -> bool:
    """Strong: no transitions at all.  Weak: no visible action ever reachable."""
    if not is_replication_free(p):
        raise NotFinite("requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(p)
    if mode == STRONG:
        return not _steps_cached(state_for(p, u), u)
    if mode == WEAK:
        index = BehaviorIndex(u)
        return index.weak_class_of(p) == index.weak_class_of(NIL)
    raise ValueError(f"unknown mode: {mode!r}")
