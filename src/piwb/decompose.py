"""Parallel decomposition, exact split search, and UPD checks.

Decomposition is structural first: restrictions are narrowed, top-level
parallel compositions flattened, and factors equivalent to 0 dropped.
Whether a remaining factor secretly splits (for instance a sum that is
bisimilar to a parallel composition) is then decided exactly, from the
factor's own derivatives (`_split`).  `find_split` asks the bounded
question of a `TermUniverse`: two of its terms that compose to the
factor, paired under `_split`'s conditions.

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
    clear_transition_cache,
    derive_steps,
    start_index,
    state_for,
)
from .syntax import (
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
    adjacent binders are reordered only when that enables one of them.

    The binder descends right factors that the left one does not need
    and inner restrictions, in a loop; the nodes passed wait on `path`
    and are rebuilt around the result."""
    path = []
    while True:
        if z not in free_names(t):
            sunk = t
            break
        if isinstance(t, Par) and z not in free_names(t.left):
            path.append(t)
            t = t.right
        elif isinstance(t, Restrict):
            path.append(t)
            t = t.body
        else:
            sunk = None
            break
    for t in reversed(path):
        if isinstance(t, Par):
            sunk = Par(t.left, sunk or Restrict(z, t.right))
        elif sunk is not None:
            sunk = Restrict(t.binder, sunk)
    return sunk


def scope_narrow(p: Process) -> Process:
    """Push every restriction to the smallest enclosing subterm.

    Uses the laws: drop a restriction whose name is unused, move it onto
    the right factor of a parallel composition when the left factor does
    not mention the name, and reorder adjacent restrictions when that
    enables one of the other two.  The result is strongly bisimilar to the
    input, and narrowing it again changes nothing.  Subtrees no law
    touches are returned themselves, so the factors of a canonical term
    are shared, canonical subterms.

    Post-order on an explicit stack, so deep terms need no deep
    recursion: a node (marked by a 1-tuple) is rebuilt once its narrowed
    parts wait on `done`.
    """
    done: list[Process] = []
    todo: list = [p]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t = t[0]
            cls = type(t)
            if cls is Sum or cls is Par:
                right = done.pop()
                left = done.pop()
                if left is not t.left or right is not t.right:
                    t = cls(left, right)
            elif cls is Prefixed:
                cont = done.pop()
                if cont is not t.cont:
                    t = Prefixed(t.prefix, cont)
            elif cls is Repl:
                body = done.pop()
                if body is not t.body:
                    t = Repl(body)
            else:
                body = done.pop()
                sunk = _sink(t.binder, body)
                if sunk is not None:
                    t = sunk
                elif body is not t.body:
                    t = Restrict(t.binder, body)
            done.append(t)
            continue
        cls = type(t)
        if cls is Nil:
            done.append(t)
        elif cls is Sum or cls is Par:
            todo += ((t,), t.right, t.left)
        elif cls is Prefixed:
            todo += ((t,), t.cont)
        elif cls is Restrict or cls is Repl:
            todo += ((t,), t.body)
        else:
            raise TypeError(f"not a process: {t!r}")
    return done[0]


def parallel_factors(p: Process) -> list[Process]:
    """Top-level parallel components after narrowing, in syntactic order."""
    out = []
    stack = [scope_narrow(p)]
    while stack:
        t = stack.pop()
        if isinstance(t, Par):
            stack += (t.right, t.left)
        else:
            out.append(t)
    return out


def _never_equal(lhs, rhs, scope: dict) -> bool:
    """Can the names of a guard [lhs=rhs] never be made equal?  Only an
    input can rename a name, and only to one already in scope when it
    fires: a free name or one bound further out.  `scope` maps each
    bound name to (its binder's nesting depth, bound by an input)."""
    if lhs == rhs:
        return False
    depth_l, input_l = scope.get(lhs, (-1, False))
    depth_r, input_r = scope.get(rhs, (-1, False))
    return not (input_l and depth_r < depth_l) and not (input_r and depth_l < depth_r)


def _without_dead_guards(p: Process, scope: dict, depth: int = 0) -> Process:
    """`p` with every prefix whose guard can never hold removed: it
    becomes 0, and a 0 left as a summand or a parallel component goes.
    Such a prefix never fires, so the result is strongly bisimilar to
    `p`.  A restricted name differs from every name bound outside its
    scope, so under `new z` a guard [a=z] with `a` free is dead.
    `scope` (see `_never_equal`) and `depth` describe the binders
    enclosing `p`.

    Post-order on an explicit stack, so deep terms need no deep
    recursion.  One copy of `scope` serves the whole walk: entering a
    binder sets its entry, and the binder node's rebuild, which waits on
    `todo` behind the binder's whole scope, restores it.
    """
    scope = dict(scope)
    done: list[Process] = []
    todo: list = [p]
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            t, binder, saved = t
            if binder is not None:
                depth -= 1
                if saved is None:
                    del scope[binder]
                else:
                    scope[binder] = saved
            cls = type(t)
            if cls is Sum or cls is Par:
                right = done.pop()
                left = done.pop()
                if isinstance(right, Nil):
                    t = left
                elif isinstance(left, Nil):
                    t = right
                elif left is not t.left or right is not t.right:
                    t = cls(left, right)
            elif cls is Prefixed:
                cont = done.pop()
                if cont is not t.cont:
                    t = Prefixed(t.prefix, cont)
            else:
                body = done.pop()
                if body is not t.body:
                    t = Restrict(t.binder, body) if cls is Restrict else Repl(body)
            done.append(t)
            continue
        cls = type(t)
        binder = None
        if cls is Prefixed:
            pi = t.prefix
            while isinstance(pi, Match) and not _never_equal(pi.lhs, pi.rhs, scope):
                pi = pi.inner
            if isinstance(pi, Match):
                done.append(NIL)
                continue
            if isinstance(pi, Input):
                binder, by_input = pi.binder, True
            body = t.cont
        elif cls is Sum or cls is Par:
            todo += ((t, None, None), t.right, t.left)
            continue
        elif cls is Restrict:
            binder, by_input, body = t.binder, False, t.body
        elif cls is Repl:
            body = t.body
        else:
            done.append(t)
            continue
        todo.append((t, binder, scope.get(binder)))
        if binder is not None:
            scope[binder] = (depth, by_input)
            depth += 1
        todo.append(body)
    return done[0]


# --------------------------------------------------------------------------
# Term universe enumeration


class TermUniverse:
    """Exhaustive enumeration of replication-free terms, up to alpha.

    `max_size` bounds the operator count (every node, guard, and 0 counts
    one).  Binders take their level names (`syntax.level_names`: v0, v1,
    ... by nesting depth, skipping the universe's names), so each alpha
    class is produced exactly once and every term comes out in the form
    `alpha_canonical` gives it, which then returns it unchanged.  Guards
    range over the free names and the binders in scope.  Every term the
    grammar allows is produced.
    """

    def __init__(self, names, max_size: int):
        self.names = tuple(sorted(set(names)))
        self.max_size = max_size
        # Every binder sits under fewer than max_size others.
        self._binders = tuple(islice(level_names(self.names), max_size))
        self._memo: dict = {}

    def _binder(self, scope) -> str:
        return self._binders[len(scope)]

    @property
    def _memo_cap(self) -> int:
        # Sizes up to the cap are materialized once and reused as inner
        # loops; larger sizes stream so a big universe never sits in
        # memory all at once.
        return max(4, (self.max_size + 1) // 2)

    def _basics(self, scope):
        """All prefixes of one operator, with their binder."""
        received = tuple(n for k, n in scope if k == "i")
        hidden = tuple(n for k, n in scope if k == "r")
        data = self.names + tuple(n for _k, n in scope)
        binder = self._binder(scope)
        out = []
        for chan in self.names:
            for datum in self.names + received + hidden:
                out.append((Output(chan, datum), None))
            out.append((Input(chan, binder), binder))
        for chan in received + hidden:
            for datum in data:
                out.append((Output(chan, datum), None))
            out.append((Input(chan, binder), binder))
        out.append((TAU, None))
        return out

    def _gen_prefixes(self, size: int, scope):
        """All prefixes of exactly `size` operators, with their binder."""
        if size < 1:
            return
        if size == 1:
            yield from self._basics(scope)
            return
        avail = self.names + tuple(n for _k, n in scope)
        for inner, binder in self._gen_prefixes(size - 1, scope):
            for lhs in avail:
                for rhs in avail:
                    yield Match(lhs, rhs, inner), binder

    def _listed(self, gen, size: int, scope) -> list:
        """`gen(size, scope)` as a list, built once per universe.  Keyed by
        the method's name: a bound method would make the universe a
        cycle, freed only by the cyclic collector."""
        key = (gen.__name__, size, scope)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = list(gen(size, scope))
        return got

    def _list_prefixes(self, size: int, scope):
        return self._listed(self._gen_prefixes, size, scope)

    def _list_processes(self, size: int, scope) -> list[Process]:
        return self._listed(self._gen_processes_raw, size, scope)

    def _list_summations(self, size: int, scope) -> list[Process]:
        return self._listed(self._gen_summations_raw, size, scope)

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
        if size >= 2:
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


def find_split(
    p: Process,
    mode: str,
    tu: TermUniverse,
    u: NameUniverse | None = None,
    budget: int = 2_000_000,
):
    """Search `tu` for q, r with q | r equivalent to `p`.

    A bounded query over `_split`'s exact verdict.  When `p` has no split
    at all, there is none in `tu`, which is then not enumerated.
    Otherwise the first term of each class of `tu` that passes `_split`'s
    necessary conditions on a part (`_part_conditions`) joins the terms
    of its measure, and is then paired with each kept term of the
    complementary measure, itself included.

    A given universe `u` must know `tu.names` and the free names of `p`
    (the default).  Raises Aborted with a progress count when the
    enumerated terms plus the pairs checked exceed `budget`.
    """
    if not is_replication_free(p):
        raise NotFinite("split search requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(p, extra_known=tu.names)
    index = BehaviorIndex(u)
    table: list = []
    if _split(p, mode, index, table) is None:
        return NO_SPLIT
    measure_p, admits, composes = _part_conditions(p, mode, index, table)
    by_measure: dict[int, list] = {}
    seen: set[int] = set()
    checked = 0
    for term in tu.enumerate():
        checked += 1
        if checked > budget:
            raise Aborted("split search budget exceeded", progress=checked)
        strong = index.class_of(term)
        cid = strong if mode == STRONG else index.weak_id(strong)
        if cid in seen:
            continue
        seen.add(cid)
        part = admits(strong)
        if part is None:
            continue
        measure, labels = part
        by_measure.setdefault(measure, []).append((labels, term))
        for labels_q, q in by_measure.get(measure_p - measure, ()):
            checked += 1
            if checked > budget:
                raise Aborted("split search budget exceeded", progress=checked)
            if composes(q, labels_q, term, labels):
                return SplitFound(q, term)
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
    """`u` (same input discipline, same pool) also knowing the free names
    of the finite `terms` that are not pool names of `u`."""
    if not all(map(is_replication_free, terms)):
        raise NotFinite("decomposition requires a replication-free term")
    names = frozenset().union(*map(free_names, terms))
    known = u.known | {n for n in names if not u.is_pool_name(n)}
    return NameUniverse(known, u.input_mode)


def _summarize(index: BehaviorIndex, mode: str, table: list) -> list:
    """Extend `table` to every strong class id of `index` with (measure,
    labels), both invariant under the mode's bisimilarity: depth and
    initial actions (strong), or the longest visible trace and the weakly
    initial visible actions (weak).  Signatures name only smaller ids."""
    for cid in range(len(table), len(index.signatures)):
        moves = list(index.moves(cid))
        if mode == STRONG:
            table.append((index.depths[cid], frozenset(a for a, _c in moves)))
            continue
        labels: set = set()
        for a, c in moves:
            labels.update(table[c][1] if a == TAU_ACT else (a,))
        vis = max(((a != TAU_ACT) + table[c][0] for a, c in moves), default=0)
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
    candidates: dict[int, tuple[int, Process]] = {}
    root = state_for(p, u)
    seen, stack = {root}, [root]
    while stack:
        state = stack.pop()
        t = state[0]
        for z in sorted(filter(u.is_pool_name, free_names(t))):
            t = Restrict(z, t)
        strong = index.class_at(t, 0)
        cid = strong if mode == STRONG else index.weak_id(strong)
        candidates.setdefault(cid, (strong, t))
        for _a, q in derive_steps(state, u, index._memo):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    measure_p, admits, composes = _part_conditions(p, mode, index, table)
    by_measure: dict[int, list] = {}
    for strong, t in candidates.values():
        part = admits(strong)
        if part is not None:
            by_measure.setdefault(part[0], []).append((part[1], t))
    for m in sorted(by_measure):
        if 2 * m > measure_p:
            break
        partners = by_measure.get(measure_p - m, [])
        for i, (labels_q, q) in enumerate(by_measure[m]):
            for labels_r, r in partners[i if 2 * m == measure_p else 0 :]:
                if composes(q, labels_q, r, labels_r):
                    return q, r
    return None


def _part_conditions(p: Process, mode: str, index: BehaviorIndex, table: list):
    """`p`'s measure (see `_summarize`), `admits` and `composes`.

    `admits(strong)` is the (measure, labels) of a would-be part of `p`
    with strong class `strong`, or None when it fails a necessary
    condition; `composes(q, labels_q, r, labels_r)` says whether two
    admitted parts compose to `p`, checking the pair's condition before
    classifying the composition.  The necessary conditions:
    * Depth is additive over `|` (a communication weighs what its two
      halves weigh), and so is the longest visible trace (interleaving
      reaches the sum; each visible step of q | r is one of a part's).
      A part not equivalent to 0 has measure at least 1.
    * A part's (weakly) initial actions are the composition's, so p's.
    * Strong only: a visible initial action of q | r is one of q's or
      r's.  Weakly, a communication between the parts may enable one.
    """
    _summarize(index, mode, table)
    measure_p, labels_p = table[index.class_of(p)]
    covered = labels_p - {TAU_ACT} if mode == STRONG else frozenset()
    target = index.class_in_mode(p, mode)

    def admits(strong: int):
        _summarize(index, mode, table)
        measure, labels = table[strong]
        if 1 <= measure < measure_p and labels <= labels_p:
            return measure, labels
        return None

    def composes(q: Process, labels_q, r: Process, labels_r) -> bool:
        return covered <= labels_q | labels_r and (
            index.class_in_mode(Par(q, r), mode) == target
        )

    return measure_p, admits, composes


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
    # Split parts are restricted derivatives of their parent: the guards
    # and restrictions they inherit and can no longer use do not show.
    reported = [scope_narrow(_without_dead_guards(f, {})) for _c, f in final]
    factors = Decomposition(reported, mode, index.universe.input_mode)
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


def _checked_decomposition(p: Process, mode: str, u: NameUniverse):
    """`decomposition(p, mode, u)`, and whether each reported factor has
    the class of the factor it stands for in the index that found them.
    A split is accepted only when class(q | r) == class(f), and `|` is a
    congruence, so then the reported factors compose to `p`'s class."""
    index = BehaviorIndex(_widened(u, [p]))
    d, ids = _decompose(p, mode, index)
    return d, sorted(index.class_in_mode(f, mode) for f in d) == ids


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

    Terms come smallest first, and every step removes at least one
    prefix, so each derivative is strictly smaller than its source: size
    ranks the states as rank ranks them in `BehaviorIndex`, and no later
    term ever reaches a term of `max_size`.  From the first such term on
    (all later ones have that size too) terms are classified through
    `BehaviorIndex.class_of_root`, which keeps their successors but not
    the terms themselves.  The derivation tables are cleared on entry
    and on exit, so a sweep leaves nothing interned behind.

    In weak mode terms are swept in fresh-only input discipline by
    default.  `normalization_failures` stays in the report for its
    readers and is always empty: no term is rewritten before its factors
    are read.
    """
    if input_mode is None:
        input_mode = "fresh-only" if mode == WEAK else "early"
    clear_transition_cache()
    try:
        tu = TermUniverse(names, max_size)
        index = BehaviorIndex(NameUniverse(tu.names, input_mode))
        sweep = _Sweep(index, mode)

        term_count = 0
        retain = True
        for term in tu.enumerate():
            term_count += 1
            if retain and term_size(term) == max_size:
                retain = False
            sweep.add_term(term, retain)

        violations = sweep.collect_violations()
    finally:
        clear_transition_cache()
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

    Every class keeps its member count and depth.  Only a class with a
    member that splits structurally keeps its factorizations, each with
    the rendered text of its first member: an unsplit member adds no
    information and its text is never reported.
    """

    def __init__(self, index: BehaviorIndex, mode: str):
        self.index = index
        self.mode = mode
        self.member_count: dict[int, int] = {}
        self.factorizations: dict[int, dict[tuple[int, ...], str]] = {}
        self.class_depth: dict[int, int] = {}
        self.nil = index.nil_class_in_mode(mode)

    def add_term(self, term: Process, retain: bool = True):
        """Record `term`; with `retain` False it is classified through
        `BehaviorIndex.class_of_root`, so no later term may reach it."""
        index = self.index
        strong = index.class_of(term) if retain else index.class_of_root(term)
        cid = strong if self.mode == STRONG else index.weak_id(strong)
        if cid == self.nil:
            return
        self.member_count[cid] = self.member_count.get(cid, 0) + 1
        if cid not in self.class_depth:
            self.class_depth[cid] = index.depths[strong]
        key = self.factor_key(term, cid)
        if key != (cid,):
            by_class = self.factorizations.setdefault(cid, {})
            if key not in by_class:
                by_class[key] = _render(term, 0)

    def factor_key(self, term: Process, cid: int) -> tuple[int, ...]:
        """Sorted class ids of the factors of `term`, whose class `cid` is
        not 0's.  A summation is its own only factor (narrowing it leaves
        an equivalent summation), and so is a term that narrowing leaves
        as it is."""
        if isinstance(term, (Nil, Prefixed, Sum)):
            return (cid,)
        factors = parallel_factors(term)
        if factors == [term]:
            return (cid,)
        nil, index, mode = self.nil, self.index, self.mode
        return tuple(sorted(
            c for f in factors if (c := index.class_in_mode(f, mode)) != nil
        ))

    def collect_violations(self) -> list:
        final: dict[int, Counter] = {}
        violations: list = []

        def finalize(cid: int) -> Counter:
            got = final.get(cid)
            if got is not None:
                return got
            by_class = self.factorizations.get(cid)
            if by_class is None:
                return Counter({cid: 1})  # no member splits
            refined: Counter | None = None
            witness = None
            for fids, text in by_class.items():
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
            final[cid] = refined
            return refined

        # Classes in order of depth, then of first member, as enumerated.
        split = [c for c in self.member_count if c in self.factorizations]
        for cid in sorted(split, key=self.class_depth.__getitem__):
            finalize(cid)
        return violations
