"""Parallel decomposition, exact split search, and UPD checks.

Decomposition is structural first: restrictions are narrowed, top-level
parallel compositions flattened, and factors equivalent to 0 dropped.
Whether a remaining factor secretly splits (for instance a sum that is
bisimilar to a parallel composition) is then decided exactly, from the
factor's own derivatives (`_split`).  `find_split` is the independent
bounded reference: an exhaustive search of a `TermUniverse`.

`decomposition` and `verify_upd` read every class from one
`BehaviorIndex` over the caller's universe and input discipline; factor
multisets match modulo bisimilarity exactly when their multisets of class
ids from one index are equal.

`upd_sweep` checks the uniqueness claim wholesale: every pair of
equivalent terms in a universe must decompose into matching factor
multisets.  It relies on `BehaviorIndex` (from `equivalence`), which
assigns integer behaviour class ids by interning recursive transition
signatures (exact for strong bisimilarity on the acyclic graphs of finite
terms) and derives weak classes by interning saturated weak signatures
over the strong quotient.  Both sweeps record each term's structural
factors as it is enumerated.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import NamedTuple, Optional

from .equivalence import STRONG, WEAK, BehaviorIndex
from .errors import Aborted, NotFinite
from .parser import _render
from .semantics import (
    NameUniverse,
    _resolve_prefix,
    clear_transition_cache,
    derive_steps,
    start_index,
    state_for,
)
from .syntax import (
    FreeOut,
    In,
    Input,
    Match,
    NIL,
    Nil,
    Output,
    Par,
    Prefixed,
    Process,
    Repl,
    Restrict,
    Sum,
    TAU,
    TAU_ACT,
    alpha_canonical,
    binder_count,
    free_names,
    is_replication_free,
    level_names,
    term_size,
)


# --------------------------------------------------------------------------
# Scope narrowing


def _sink(z, t):
    """`new z.t` with the binder dropped or moved onto a parallel factor,
    possibly under inner restrictions; None when neither law applies, so
    adjacent binders are reordered only when that enables one of them."""
    if z not in free_names(t):
        return t
    if isinstance(t, Par) and z not in free_names(t.left):
        return Par(t.left, _sink(z, t.right) or Restrict(z, t.right))
    if isinstance(t, Restrict):
        inner = _sink(z, t.body)
        if inner is not None:
            return Restrict(t.binder, inner)
    return None


def scope_narrow(p: Process) -> Process:
    """Push every restriction to the smallest enclosing subterm.

    Uses the laws: drop a restriction whose name is unused, move it onto
    the right factor of a parallel composition when the left factor does
    not mention the name, and reorder adjacent restrictions when that
    enables one of the other two.  The result is strongly bisimilar to the
    input, and narrowing it again changes nothing.  Subtrees no law
    touches are returned themselves, so the factors of a canonical term
    are shared, canonical subterms.
    """
    if isinstance(p, Nil):
        return p
    if isinstance(p, Prefixed):
        cont = scope_narrow(p.cont)
        return p if cont is p.cont else Prefixed(p.prefix, cont)
    if isinstance(p, (Sum, Par)):
        left, right = scope_narrow(p.left), scope_narrow(p.right)
        if left is p.left and right is p.right:
            return p
        return type(p)(left, right)
    if isinstance(p, Repl):
        body = scope_narrow(p.body)
        return p if body is p.body else Repl(body)
    if isinstance(p, Restrict):
        body = scope_narrow(p.body)
        sunk = _sink(p.binder, body)
        if sunk is not None:
            return sunk
        return p if body is p.body else Restrict(p.binder, body)
    raise TypeError(f"not a process: {p!r}")


def parallel_factors(p: Process) -> list[Process]:
    """Top-level parallel components after narrowing, in syntactic order."""
    narrowed = scope_narrow(p)
    out = []
    stack = [narrowed]
    while stack:
        t = stack.pop(0)
        if isinstance(t, Par):
            stack.insert(0, t.right)
            stack.insert(0, t.left)
        else:
            out.append(t)
    return out


# --------------------------------------------------------------------------
# Term universe enumeration


class TermUniverse:
    """Exhaustive enumeration of replication-free terms, up to alpha.

    `max_size` bounds the operator count (every node, guard, and 0 counts
    one).  Binders take their level names (`syntax.level_names`: v0, v1,
    ... by nesting depth, skipping the universe's names), so each alpha
    class is produced exactly once and every term comes out in the form
    `alpha_canonical` gives it, which then returns it unchanged.  Guards
    range over the free names and the binders in scope.

    The optional action filters shrink the space for split searches; they
    are stated over the actions a candidate may ever perform, and
    find_split derives them soundly from the behaviour of the term being
    split (see there).  By default everything the grammar allows is
    produced.
    """

    def __init__(
        self,
        names,
        max_size: int,
        allow_restriction: bool = True,
        allow_match: bool = True,
        allow_tau: bool = True,
        out_pairs=None,
        in_channels=None,
        bound_out_channels=None,
    ):
        self.names = tuple(sorted(set(names)))
        self.max_size = max_size
        self.allow_restriction = allow_restriction
        self.allow_match = allow_match
        self.allow_tau = allow_tau
        self.out_pairs = None if out_pairs is None else frozenset(out_pairs)
        self.in_channels = None if in_channels is None else frozenset(in_channels)
        self.bound_out_channels = (
            None if bound_out_channels is None else frozenset(bound_out_channels)
        )
        # Every binder sits under fewer than max_size others.
        self._binders = tuple(islice(level_names(self.names), max_size))
        self._proc_memo: dict = {}
        self._sum_memo: dict = {}
        self._prefix_memo: dict = {}

    # -- filter helpers ------------------------------------------------------

    def _inputs_possible(self) -> bool:
        return self.in_channels is None or bool(self.in_channels)

    def _any_outputs(self) -> bool:
        if self.out_pairs is None or self.bound_out_channels is None:
            return True
        return bool(self.out_pairs) or bool(self.bound_out_channels)

    def _restriction_useful(self) -> bool:
        # A restriction matters only if a hidden name can be extruded or
        # internal communication can happen; otherwise every restricted
        # term is equivalent to an unrestricted one in the same universe.
        if not self.allow_restriction:
            return False
        if self.bound_out_channels is None or self.bound_out_channels:
            return True
        return self.allow_tau

    def _binder(self, scope) -> str:
        return self._binders[len(scope)]

    @property
    def _memo_cap(self) -> int:
        # Sizes up to the cap are materialized once and reused as inner
        # loops; larger sizes stream so a big universe never sits in
        # memory all at once.
        return max(4, (self.max_size + 1) // 2)

    def _basics(self, scope):
        received = tuple(n for k, n in scope if k == "i")
        hidden = tuple(n for k, n in scope if k == "r")
        data = self.names + tuple(n for _k, n in scope)
        out = []
        for chan in self.names:
            for datum in self.names:
                if self.out_pairs is None or (chan, datum) in self.out_pairs:
                    out.append((Output(chan, datum), None))
            for datum in received:
                # The emitted value is whatever was received; only the
                # channel is syntactically fixed.
                if self.out_pairs is None or any(c == chan for c, _ in self.out_pairs):
                    out.append((Output(chan, datum), None))
            for datum in hidden:
                if self.bound_out_channels is None or chan in self.bound_out_channels:
                    out.append((Output(chan, datum), None))
            if self.in_channels is None or chan in self.in_channels:
                binder = self._binder(scope)
                out.append((Input(chan, binder), binder))
        for chan in received:
            # Channel position holds a received name: any visible action
            # could result, so gate on whether such actions exist at all.
            if self._any_outputs():
                for datum in data:
                    out.append((Output(chan, datum), None))
            if self._inputs_possible():
                binder = self._binder(scope)
                out.append((Input(chan, binder), binder))
        for chan in hidden:
            # Prefixes on a hidden channel only ever feed internal steps.
            if self.allow_tau:
                for datum in data:
                    out.append((Output(chan, datum), None))
                binder = self._binder(scope)
                out.append((Input(chan, binder), binder))
        if self.allow_tau:
            out.append((TAU, None))
        return out

    def _gen_prefixes(self, size: int, scope):
        """All prefixes of exactly `size` operators, with their binder."""
        if size < 1:
            return
        if size == 1:
            yield from self._basics(scope)
            return
        if not (self.allow_match and self._inputs_possible()):
            return
        avail = self.names + tuple(n for _k, n in scope)
        for inner, binder in self._gen_prefixes(size - 1, scope):
            for lhs in avail:
                for rhs in avail:
                    yield Match(lhs, rhs, inner), binder

    def _list_prefixes(self, size: int, scope):
        key = (size, scope)
        got = self._prefix_memo.get(key)
        if got is None:
            got = list(self._gen_prefixes(size, scope))
            self._prefix_memo[key] = got
        return got

    def _list_processes(self, size: int, scope) -> list[Process]:
        key = (size, scope)
        got = self._proc_memo.get(key)
        if got is None:
            got = list(self._gen_processes_raw(size, scope))
            self._proc_memo[key] = got
        return got

    def _list_summations(self, size: int, scope) -> list[Process]:
        key = (size, scope)
        got = self._sum_memo.get(key)
        if got is None:
            got = list(self._gen_summations_raw(size, scope))
            self._sum_memo[key] = got
        return got

    def _gen_processes(self, size: int, scope):
        if size <= self._memo_cap:
            return iter(self._list_processes(size, scope))
        return self._gen_processes_raw(size, scope)

    def _gen_summations(self, size: int, scope):
        if size <= self._memo_cap:
            return iter(self._list_summations(size, scope))
        return self._gen_summations_raw(size, scope)

    def _split_pairs(self, total: int, scope, gen_fn, list_fn):
        """Ordered pairs over all size splits; the memoized side is inner."""
        cap = self._memo_cap
        for a in range(1, total):
            b = total - a
            if b <= cap:
                for left in gen_fn(a, scope):
                    for right in list_fn(b, scope):
                        yield left, right
            else:
                for right in gen_fn(b, scope):
                    for left in list_fn(a, scope):
                        yield left, right

    def _gen_processes_raw(self, size: int, scope):
        yield from self._gen_summations_raw(size, scope)
        if size >= 3:
            for left, right in self._split_pairs(
                size - 1, scope, self._gen_processes, self._list_processes
            ):
                yield Par(left, right)
        if self._restriction_useful() and size >= 2:
            binder = self._binder(scope)
            for body in self._gen_processes(size - 1, scope + (("r", binder),)):
                yield Restrict(binder, body)

    def _gen_summations_raw(self, size: int, scope):
        cap = self._memo_cap
        if size == 1:
            yield NIL
        for k in range(1, size):
            cont_size = size - k
            if cont_size <= cap:
                for prefix, binder in self._gen_prefixes(k, scope):
                    inner = scope + (("i", binder),) if binder is not None else scope
                    for cont in self._list_processes(cont_size, inner):
                        yield Prefixed(prefix, cont)
            else:
                for prefix, binder in self._list_prefixes(k, scope):
                    inner = scope + (("i", binder),) if binder is not None else scope
                    for cont in self._gen_processes(cont_size, inner):
                        yield Prefixed(prefix, cont)
        if size >= 3:
            for left, right in self._split_pairs(
                size - 1, scope, self._gen_summations, self._list_summations
            ):
                yield Sum(left, right)

    def enumerate(self):
        """Deterministic streaming enumeration, smaller operator counts first."""
        for size in range(1, self.max_size + 1):
            yield from self._gen_processes(size, ())

    def count(self) -> int:
        return sum(1 for _ in self.enumerate())


# --------------------------------------------------------------------------
# Split search


class SplitFound(NamedTuple):
    left: Process
    right: Process


class NoSplitWithinUniverse:
    """Bounded verdict: no pair in the searched universe composes to the term."""

    def __repr__(self):
        return "NoSplitWithinUniverse"

    def __eq__(self, other):
        return isinstance(other, NoSplitWithinUniverse)

    def __hash__(self):
        return hash("NoSplitWithinUniverse")


NO_SPLIT = NoSplitWithinUniverse()


def _label(a) -> tuple:
    """Comparable initial-action label; binder-valued parts abstracted."""
    if a == TAU_ACT:
        return ("t",)
    if isinstance(a, FreeOut):
        return ("o", a.chan, a.datum)
    if isinstance(a, In):
        return ("i", a.chan)
    return ("b", a.chan)


def _top_capabilities(t: Process, hidden: frozenset):
    """Initial action labels plus comm-capable channels, syntactically.

    Matches the transition relation on root states over closed terms:
    guards at the root resolve exactly (no binder is in scope yet) and
    hidden channels contribute communication capability but no label.
    """
    if isinstance(t, Nil):
        return frozenset(), frozenset(), frozenset()
    if isinstance(t, Prefixed):
        core = _resolve_prefix(t.prefix)
        if core is None:
            return frozenset(), frozenset(), frozenset()
        if isinstance(core, Output):
            labels: frozenset = frozenset()
            if core.chan not in hidden:
                if core.datum in hidden:
                    labels = frozenset({("b", core.chan)})
                else:
                    labels = frozenset({("o", core.chan, core.datum)})
            return labels, frozenset({core.chan}), frozenset()
        if isinstance(core, Input):
            labels = (
                frozenset()
                if core.chan in hidden
                else frozenset({("i", core.chan)})
            )
            return labels, frozenset(), frozenset({core.chan})
        return frozenset({("t",)}), frozenset(), frozenset()
    if isinstance(t, Sum):
        l1, o1, i1 = _top_capabilities(t.left, hidden)
        l2, o2, i2 = _top_capabilities(t.right, hidden)
        return l1 | l2, o1 | o2, i1 | i2
    if isinstance(t, Par):
        l1, o1, i1 = _top_capabilities(t.left, hidden)
        l2, o2, i2 = _top_capabilities(t.right, hidden)
        labels = l1 | l2
        if (o1 & i2) or (o2 & i1):
            labels = labels | {("t",)}
        return labels, o1 | o2, i1 | i2
    if isinstance(t, Restrict):
        return _top_capabilities(t.body, hidden | {t.binder})
    if isinstance(t, Repl):
        labels, outs, ins = _top_capabilities(t.body, hidden)
        if outs & ins:
            labels = labels | {("t",)}
        return labels, outs, ins
    raise TypeError(f"not a process: {t!r}")


class _Observed(NamedTuple):
    out_pairs: frozenset
    bound_out_channels: frozenset
    in_channels: frozenset
    tau: bool


def _observed(index: BehaviorIndex, root: int) -> _Observed:
    """Actions reachable from a behaviour class, summarized for pruning."""
    memo: dict[int, _Observed] = {}

    def go(cid: int) -> _Observed:
        got = memo.get(cid)
        if got is not None:
            return got
        pairs: set = set()
        bouts: set = set()
        ins: set = set()
        tau = False
        for a, c2 in index.signatures[cid]:
            if a == TAU_ACT:
                tau = True
            elif isinstance(a, In):
                ins.add(a.chan)
            elif isinstance(a, FreeOut):
                pairs.add((a.chan, a.datum))
            else:
                bouts.add(a.chan)
            sub = go(c2)
            pairs |= sub.out_pairs
            bouts |= sub.bound_out_channels
            ins |= sub.in_channels
            tau = tau or sub.tau
        got = _Observed(frozenset(pairs), frozenset(bouts), frozenset(ins), tau)
        memo[cid] = got
        return got

    return go(root)


def find_split(
    p: Process,
    mode: str,
    tu: TermUniverse,
    u: NameUniverse | None = None,
    budget: int = 2_000_000,
):
    """Search `tu` exhaustively for q, r with q | r equivalent to `p`.

    The search is exhaustive over the universe modulo reductions that
    cannot change the existence verdict:

    * any factor of a composition equivalent to `p` can only ever perform
      actions `p` performs, because factor moves surface unchanged in the
      composition -- so candidate prefixes are filtered by the output
      pairs, bound-output channels, input channels, and internal steps
      observed in `p` (in weak mode internal steps stay allowed: a tau
      challenge may be answered by standing still);
    * restrictions are generated only when hiding can matter (possible
      extrusion or internal communication); otherwise every restricted
      term has an unrestricted equivalent inside the universe;
    * candidates are deduplicated by behaviour class, and factor depths
      must be positive and, in strong mode, sum to depth(p) exactly by
      depth additivity.

    A given universe `u` must know `tu.names` and hold a pool of at least
    `tu.max_size + 4` names.  Raises Aborted with a progress count when
    enumeration plus pair checking exceeds `budget` steps.
    """
    if not is_replication_free(p):
        raise NotFinite("split search requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(
            p, extra_known=tu.names, pool_size=tu.max_size + 4
        )
    index = BehaviorIndex(u)
    target = index.class_in_mode(p, mode)
    nil = index.nil_class_in_mode(mode)
    if target == nil:
        return NO_SPLIT
    obs = _observed(index, index.class_of(p))
    # A weak tau challenge may be answered by staying put, so tau-prefixed
    # candidates stay legal in weak mode even if p itself never steps
    # internally.
    #
    # When candidates can neither extrude a name nor receive from the
    # environment, a restriction can only implement internal
    # communication.  Its machinery costs at least five operators
    # (restriction, parallel, send and receive prefixes, continuation),
    # so below nine operators total the reachable behaviour is a small
    # tau tree that the same universe expresses restriction-free; the
    # suppression is therefore class-complete at these sizes.
    allow_res = tu.allow_restriction
    if not obs.bound_out_channels and not obs.in_channels and tu.max_size <= 8:
        allow_res = False
    pruned = TermUniverse(
        tu.names,
        tu.max_size,
        allow_restriction=allow_res,
        allow_match=tu.allow_match,
        allow_tau=obs.tau or mode == WEAK,
        out_pairs=obs.out_pairs,
        in_channels=obs.in_channels,
        bound_out_channels=obs.bound_out_channels,
    )
    depth_p = index.depth_of(p)
    root_state = state_for(p, u)
    if mode == STRONG:
        allowed_initials = frozenset(
            _label(a) for a, _ in derive_steps(root_state, u)
        )
    else:
        # Weak answers may absorb internal steps, so a factor's initial
        # visible action only needs to be weakly initial in p; internal
        # steps can always be answered by standing still.
        allowed = {("t",)}
        seen_states = set()
        stack = [root_state]
        while stack:
            s = stack.pop()
            if s in seen_states:
                continue
            seen_states.add(s)
            for a, q2 in derive_steps(s, u):
                allowed.add(_label(a))
                if a == TAU_ACT:
                    stack.append(q2)
        allowed_initials = frozenset(allowed)

    candidates: dict[int, list[Process]] = {}
    seen_classes: set[int] = set()
    checked = 0
    for term in pruned.enumerate():
        checked += 1
        if checked > budget:
            raise Aborted("split search budget exceeded", progress=checked)
        # A factor's initial actions all surface in the composition, so
        # they must sit inside p's initial action set; checked before the
        # expensive behaviour classification.
        labels, _, _ = _top_capabilities(term, frozenset())
        if not labels <= allowed_initials:
            continue
        cid = index.class_in_mode(term, mode)
        if cid == nil or cid in seen_classes:
            continue
        seen_classes.add(cid)
        d = index.depth_of(term)
        if mode == STRONG and not (1 <= d <= depth_p - 1):
            continue
        candidates.setdefault(d, []).append(term)
    if mode == STRONG:
        # Depth additivity: the two factors' depths sum to depth(p).
        pairs = (
            (q, r)
            for d in sorted(candidates)
            if 2 * d <= depth_p
            for i, q in enumerate(candidates[d])
            for r in candidates.get(depth_p - d, [])[i if 2 * d == depth_p else 0 :]
        )
    else:
        # Weak mode: no depth additivity available; check every class pair.
        terms = [term for bucket in candidates.values() for term in bucket]
        pairs = ((q, r) for i, q in enumerate(terms) for r in terms[i:])
    for q, r in pairs:
        checked += 1
        if checked > budget:
            raise Aborted("split search budget exceeded", progress=checked)
        if index.class_in_mode(Par(q, r), mode) == target:
            return SplitFound(q, r)
    return NO_SPLIT


# --------------------------------------------------------------------------
# Decomposition


class Decomposition:
    """Multiset of alpha-canonical factors; their composition is equivalent
    to the source in the declared mode under the recorded input
    discipline."""

    __slots__ = ("factors", "mode", "input_mode")

    def __init__(self, factors, mode: str, input_mode: str = "early"):
        canon = [alpha_canonical(f) for f in factors]
        canon.sort(key=lambda f: (term_size(f), _render(f, 0)))
        self.factors = tuple(canon)
        self.mode = mode
        self.input_mode = input_mode

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def composed(self) -> Process:
        if not self.factors:
            return NIL
        term = self.factors[0]
        for f in self.factors[1:]:
            term = Par(term, f)
        return term

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "factors": [_render(f, 0) for f in self.factors],
        }

    def __repr__(self):
        inner = ", ".join(_render(f, 0) for f in self.factors)
        return f"Decomposition[{self.mode}]{{{inner}}}"


def _widened(u: NameUniverse, terms) -> NameUniverse:
    """`u` (same input discipline, same pool as a prefix) knowing the free
    names of the finite `terms`, with a pool of twice their most binders
    plus 2: each pool name a run takes consumes a binder, so no
    composition of two split candidates (`_split`) exhausts it."""
    if not all(map(is_replication_free, terms)):
        raise NotFinite("decomposition requires a replication-free term")
    pool = u.fresh_pool
    known = u.known.union(*map(free_names, terms)) - set(pool)
    need = 2 * max(map(binder_count, terms)) + 2 - len(pool)
    more = NameUniverse.for_terms(extra_known=known | set(pool), pool_size=max(0, need))
    return NameUniverse(known, pool + more.fresh_pool, u.input_mode)


def _summarize(index: BehaviorIndex, mode: str, table: list) -> list:
    """Extend `table` to every strong class id of `index` with (measure,
    labels), both invariant under the mode's bisimilarity: depth and
    initial actions (strong), or the longest visible trace and the weakly
    initial visible actions (weak).  Signatures name only smaller ids."""
    for cid in range(len(table), len(index.signatures)):
        sig = index.signatures[cid]
        if mode == STRONG:
            table.append((index.depths[cid], frozenset(a for a, _c in sig)))
            continue
        labels: set = set()
        for a, c in sig:
            labels.update(table[c][1] if a == TAU_ACT else (a,))
        vis = max(((a != TAU_ACT) + table[c][0] for a, c in sig), default=0)
        table.append((vis, frozenset(labels)))
    return table


def _split(p: Process, mode: str, index: BehaviorIndex, table: list):
    """Parts (q, r), neither equivalent to 0, with q | r equivalent to
    `p`, or None when there are none; `table` caches `_summarize`.

    Candidates come from `p`'s derivatives.  If p ~ q | r, let r run to a
    state r' with no transitions; p follows to some p' = (t, k) with
    p' ~ q | r'.  Restriction and `|` preserve both bisimilarities, so
    with W the pool names t mentions (taken by r's run, unknown to q),
    new W.t ~ new W.(q | r') ~ q | new W.r' ~ q.  So every factor is
    equivalent to a `new W.t` classified at cursor 0, and one candidate
    per class of those makes the search complete; a pair counts only if
    class(q | r) == class(p), so every split is sound.  In weak mode r'
    is weakly equivalent to 0 too, so the argument is the same.
    """
    u = index.universe
    pool = frozenset(u.fresh_pool)
    candidates: dict[int, tuple[int, Process]] = {}
    root = state_for(p, u)
    seen, stack = {root}, [root]
    while stack:
        state = stack.pop()
        t = state[0]
        for z in sorted(free_names(t) & pool):
            t = Restrict(z, t)
        strong = index.class_at(t, 0)
        cid = strong if mode == STRONG else index.weak_id(strong)
        candidates.setdefault(cid, (strong, t))
        for _a, q in derive_steps(state, u):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    _summarize(index, mode, table)
    measure_p, labels_p = table[index.class_of(p)]
    # Necessary conditions, checked before classifying a composition:
    # * Depth is additive over `|` (a communication weighs what its two
    #   halves weigh), and so is the longest visible trace (interleaving
    #   reaches the sum; each visible step of q | r is one of a part's).
    #   A part not equivalent to 0 has measure at least 1.
    # * A part's (weakly) initial actions are the composition's, so p's.
    # * Strong only: a visible initial action of q | r is one of q's or
    #   r's.  Weakly, a communication between the parts may enable one.
    by_measure: dict[int, list] = {}
    for strong, t in candidates.values():
        measure, labels = table[strong]
        if 1 <= measure < measure_p and labels <= labels_p:
            by_measure.setdefault(measure, []).append((labels, t))
    covered = labels_p - {TAU_ACT} if mode == STRONG else frozenset()
    target = index.class_in_mode(p, mode)
    for m in sorted(by_measure):
        if 2 * m > measure_p:
            break
        partners = by_measure.get(measure_p - m, [])
        for i, (labels_q, q) in enumerate(by_measure[m]):
            for labels_r, r in partners[i if 2 * m == measure_p else 0 :]:
                if covered <= labels_q | labels_r and (
                    index.class_in_mode(Par(q, r), mode) == target
                ):
                    return q, r
    return None


def _factor_classes(term: Process, index: BehaviorIndex, mode: str, nil: int):
    """(class id, factor) for each structural parallel factor of `term`
    that is not equivalent to 0 (`nil` is the class id of 0)."""
    return [
        (cid, f)
        for f in parallel_factors(term)
        if (cid := index.class_in_mode(f, mode)) != nil
    ]


def _decompose(p: Process, mode: str, index: BehaviorIndex):
    """Decomposition of `p`, with the sorted class ids of its factors."""
    nil = index.nil_class_in_mode(mode)
    queue = _factor_classes(p, index, mode, nil)
    table: list = []
    final = []
    while queue:
        cid, f = queue.pop()
        got = _split(f, mode, index, table)
        if got is None:
            final.append((cid, f))
        else:
            for part in got:
                queue += _factor_classes(part, index, mode, nil)
    factors = Decomposition([f for _c, f in final], mode, index.universe.input_mode)
    return factors, sorted(c for c, _f in final)


def decomposition(
    p: Process,
    mode: str = STRONG,
    u: NameUniverse | None = None,
) -> Decomposition:
    """Parallel factors of `p` modulo the chosen bisimilarity.

    Structural phase: narrow scopes, flatten top-level parallel
    composition, drop factors equivalent to 0.  Each remaining factor is
    then split while its derivatives hold two parts that compose to it
    (`_split`, exact).  All classes come from one BehaviorIndex over `u`
    (default: the term's names, early inputs).
    """
    if u is None:
        u = NameUniverse.for_terms(p)
    return _decompose(p, mode, BehaviorIndex(_widened(u, [p])))[0]


def multiset_eq_mod_bisim(d1: Decomposition, d2: Decomposition) -> bool:
    """Perfect matching of factors under the declared bisimilarity, in
    the input discipline the decompositions were computed in.

    Bisimilarity is an equivalence, so a matching exists exactly when the
    multisets of the factors' class ids from one index coincide.
    """
    if d1.mode != d2.mode:
        raise ValueError("decompositions compare only within one mode")
    if d1.input_mode != d2.input_mode:
        raise ValueError("decompositions compare only within one input discipline")
    index = BehaviorIndex(
        NameUniverse.for_terms(*d1.factors, *d2.factors, input_mode=d1.input_mode)
    )
    ids = [sorted(index.class_in_mode(f, d.mode) for f in d) for d in (d1, d2)]
    return ids[0] == ids[1]


class Verdict(NamedTuple):
    equivalent: bool
    unique: Optional[bool]
    left: Decomposition
    right: Decomposition
    detail: str

    def to_json_dict(self):
        return {
            "equivalent": self.equivalent,
            "unique": self.unique,
            "left_factors": self.left.to_json_dict()["factors"],
            "right_factors": self.right.to_json_dict()["factors"],
            "detail": self.detail,
        }


def verify_upd(
    p: Process,
    q: Process,
    mode: str = STRONG,
    u: NameUniverse | None = None,
) -> Verdict:
    """If p and q are mode-equivalent, their factor multisets must match.

    Both decompositions, the equivalence of p and q and the comparison of
    factor class ids all read one BehaviorIndex over `u` (default: the
    terms' names, early inputs), widened as in `decomposition`.
    """
    if u is None:
        u = NameUniverse.for_terms(p, q)
    index = BehaviorIndex(_widened(u, [p, q]))
    (dp, ids_p), (dq, ids_q) = (_decompose(t, mode, index) for t in (p, q))
    # Both roots enter at the shared pool cursor, as in `bisim`.
    k0 = max(start_index(t, index.universe) for t in (p, q))
    cp, cq = (index.class_at(t, k0) for t in (p, q))
    if mode == WEAK:
        cp, cq = index.weak_id(cp), index.weak_id(cq)
    if cp != cq:
        return Verdict(False, None, dp, dq, "terms are not equivalent; no claim")
    matched = ids_p == ids_q
    detail = "factor multisets match" if matched else "factor multisets differ"
    return Verdict(True, matched, dp, dq, detail)


# --------------------------------------------------------------------------
# Whole-universe sweep


class SweepReport(NamedTuple):
    mode: str
    names: tuple
    max_size: int
    input_mode: str
    term_count: int
    class_count: int
    classes_with_pairs: int
    violations: list
    normalization_failures: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "universe": {"names": list(self.names), "max_size": self.max_size,
                         "inputs": self.input_mode},
            "terms": self.term_count,
            "classes": self.class_count,
            "classes_with_pairs": self.classes_with_pairs,
            "violations": self.violations,
            "normalization_failures": self.normalization_failures,
        }


def upd_sweep(
    names,
    max_size: int,
    mode: str = STRONG,
    input_mode: str | None = None,
) -> SweepReport:
    """Unique-decomposition consistency over a whole term universe.

    Every term is decomposed structurally; factor multisets are refined
    through the per-class factorization map (a class whose members expose
    a parallel split contributes its parts' factorizations).  All members
    of one equivalence class must agree on the refined multiset; each
    disagreement is reported as a violation.  This is exactly pairwise
    multiset_eq_mod_bisim over equivalent pairs, computed class-wise.

    In weak mode terms are swept in fresh-only input discipline by
    default.  `normalization_failures` stays in the report for its
    readers and is always empty: no term is rewritten before its factors
    are read.
    """
    if input_mode is None:
        input_mode = "fresh-only" if mode == WEAK else "early"
    clear_transition_cache()
    tu = TermUniverse(names, max_size)
    u = NameUniverse.for_terms(
        extra_known=tu.names, pool_size=max_size + 2, input_mode=input_mode
    )
    index = BehaviorIndex(u)
    sweep = _Sweep(index, mode)

    term_count = 0
    for term in tu.enumerate():
        term_count += 1
        sweep.add_term(term)

    violations = sweep.collect_violations()
    with_pairs = sum(1 for n in sweep.member_count.values() if n > 1)
    return SweepReport(
        mode=mode,
        names=tuple(tu.names),
        max_size=max_size,
        input_mode=input_mode,
        term_count=term_count,
        class_count=len(sweep.member_count),
        classes_with_pairs=with_pairs,
        violations=violations,
        normalization_failures=[],
    )


class _Sweep:
    """Class-wise bookkeeping for upd_sweep; holds ids and text only.

    Terms are recorded as they are enumerated, in both modes: the index
    fills its weak layer in class-id order and each class depends only
    on smaller ids, so a term's weak id is final as soon as it is read.
    """

    def __init__(self, index: BehaviorIndex, mode: str):
        self.index = index
        self.mode = mode
        self.member_count: dict[int, int] = {}
        self.factorizations: dict[int, dict[tuple[int, ...], str]] = {}
        self.class_depth: dict[int, int] = {}
        self.nil = index.nil_class_in_mode(mode)

    def add_term(self, term: Process):
        index = self.index
        strong = index.class_of(term)
        cid = strong if self.mode == STRONG else index.weak_id(strong)
        if cid == self.nil:
            return
        factors = _factor_classes(term, index, self.mode, self.nil)
        key = tuple(sorted(cid for cid, _f in factors))
        self.member_count[cid] = self.member_count.get(cid, 0) + 1
        by_class = self.factorizations.setdefault(cid, {})
        if key not in by_class:
            by_class[key] = _render(term, 0)
        if cid not in self.class_depth:
            self.class_depth[cid] = index.depths[strong]

    def collect_violations(self) -> list:
        final: dict[int, Counter] = {}
        violations: list = []

        def finalize(cid: int) -> Counter:
            got = final.get(cid)
            if got is not None:
                return got
            refined: Counter | None = None
            witness = None
            for fids, text in self.factorizations.get(cid, {(cid,): ""}).items():
                if len(fids) == 1 and fids[0] == cid:
                    continue  # structurally unsplit; no new information
                acc: Counter = Counter()
                for fid in fids:
                    if fid == cid:
                        acc[cid] += 1  # defensive; impossible for non-nil parts
                    else:
                        acc.update(finalize(fid))
                if refined is None:
                    refined = acc
                    witness = text
                elif acc != refined:
                    violations.append(
                        {
                            "class": cid,
                            "term": text,
                            "other": witness,
                            "factors": sorted(acc.elements()),
                            "other_factors": sorted(refined.elements()),
                        }
                    )
            if refined is None:
                refined = Counter({cid: 1})
            final[cid] = refined
            return refined

        for cid in sorted(
            self.factorizations, key=lambda c: self.class_depth.get(c, 0)
        ):
            finalize(cid)
        return violations
