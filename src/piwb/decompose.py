"""Parallel decomposition, bounded indecomposability search, and UPD checks.

Decomposition is structural first: restrictions are narrowed, top-level
parallel compositions flattened, and factors equivalent to 0 dropped.
Whether a remaining factor secretly splits (for instance a sum that is
bisimilar to a parallel composition) is the job of `find_split`, an
exhaustive bounded search over a term universe; `decomposition` runs it by
default so that equivalent terms decompose consistently.

`upd_sweep` checks the uniqueness claim wholesale: every pair of
equivalent terms in a universe must decompose into matching factor
multisets.  It relies on `BehaviorIndex`, which assigns integer behaviour
class ids by interning recursive transition signatures (exact for strong
bisimilarity on the acyclic graphs of finite terms) and derives weak
classes by saturated refinement of the strong quotient.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Optional

from .equivalence import STRONG, WEAK, bisim
from .errors import Aborted, NormalizationIncomplete, NotFinite
from .lts import action_weight
from .normalize import HeadNormalForm, _hnf, stutter_free
from .parser import _render
from .semantics import (
    NameUniverse,
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
    Tau,
    alpha_canonical,
    free_names,
    hashcons,
    is_replication_free,
    term_size,
)


# --------------------------------------------------------------------------
# Scope narrowing


def _push_restriction(z, t):
    if z not in free_names(t):
        return t
    if isinstance(t, Par) and z not in free_names(t.left):
        return Par(t.left, _push_restriction(z, t.right))
    if isinstance(t, Restrict):
        return Restrict(t.binder, _push_restriction(z, t.body))
    return Restrict(z, t)


def scope_narrow(p: Process) -> Process:
    """Push every restriction to the smallest enclosing subterm.

    Uses the laws: drop a restriction whose name is unused, move it onto
    the right factor of a parallel composition when the left factor does
    not mention the name, and reorder adjacent restrictions to enable the
    other two.  The result is strongly bisimilar to the input.
    """
    if isinstance(p, (Nil,)):
        return p
    if isinstance(p, Prefixed):
        return Prefixed(p.prefix, scope_narrow(p.cont))
    if isinstance(p, Sum):
        return Sum(scope_narrow(p.left), scope_narrow(p.right))
    if isinstance(p, Par):
        return Par(scope_narrow(p.left), scope_narrow(p.right))
    if isinstance(p, Repl):
        return Repl(scope_narrow(p.body))
    if isinstance(p, Restrict):
        return _push_restriction(p.binder, scope_narrow(p.body))
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
# Behaviour classes


class BehaviorIndex:
    """Integer behaviour-class ids for finite terms under one universe.

    Transition graphs of replication-free terms are acyclic, so strong
    bisimilarity admits a bottom-up canonical form: two states are
    equivalent iff the frozensets {(action, class of successor)} coincide.
    Interning those sets gives the strong class id.  The weak layer
    saturates the strong quotient (a DAG, since every signature references
    only earlier ids) and refines it with weak signatures.
    """

    def __init__(self, universe: NameUniverse):
        self.universe = universe
        self._class_of: dict[Process, int] = {}
        self._intern: dict[frozenset, int] = {}
        self.signatures: list[frozenset] = []
        self.depths: list[int] = []
        self._weak: Optional[list[int]] = None
        self._weak_closure: list = []
        self._weak_sigs: list = []
        self._weak_intern: dict = {}
        self._stutter_here: list = []
        self._stutter_reach: list = []

    def class_of(self, term: Process) -> int:
        u = self.universe
        state = (
            hashcons(alpha_canonical(term, avoid=u.all_names)),
            start_index(term, u),
        )
        return self._explore(state)

    def _explore(self, state) -> int:
        got = self._class_of.get(state)
        if got is not None:
            return got
        # Each state is derived exactly once (this memo), so the global
        # transition cache would only duplicate memory here.  Successors
        # come back interned, so states share their subterms.
        sig = frozenset(
            (a, self._explore(q))
            for a, q in derive_steps(state, self.universe)
        )
        cid = self._intern.get(sig)
        if cid is None:
            cid = len(self.signatures)
            self._intern[sig] = cid
            self.signatures.append(sig)
            self.depths.append(
                max((action_weight(a) + self.depths[c] for a, c in sig), default=0)
            )
        self._class_of[state] = cid
        return cid

    @property
    def nil_class(self) -> int:
        return self.class_of(NIL)

    def depth_of(self, term: Process) -> int:
        return self.depths[self.class_of(term)]

    # -- weak layer --------------------------------------------------------
    #
    # Signature edges always point to strictly smaller class ids, so the
    # strong quotient is a DAG ordered by id and weak classes extend
    # incrementally: a class either collapses into the weak class of a
    # proper tau-descendant (its remaining behaviour adds nothing -- the
    # stuttering case) or is the unique class with its saturated weak
    # signature, interned on first sight.

    def _ensure_weak(self):
        if self._weak is None:
            self._weak = []
            self._weak_closure = []
            self._weak_sigs = []  # weak id -> (visible part, tau part)
            self._weak_intern = {}
            self._stutter_here = []
            self._stutter_reach = []
        weak = self._weak
        closures = self._weak_closure
        for cid in range(len(weak), len(self.signatures)):
            sig = self.signatures[cid]
            clo = {cid}
            for a, c2 in sig:
                if a == TAU_ACT:
                    clo |= closures[c2]
            proper = frozenset(weak[m] for m in clo if m != cid)
            vis = set()
            for m in clo:
                for a, c2 in self.signatures[m]:
                    if a != TAU_ACT:
                        vis.update((a, weak[t]) for t in closures[c2])
            vis = frozenset(vis)
            wid = None
            for c in proper:
                if self._weak_sigs[c] == (vis, proper - {c}):
                    wid = c
                    break
            if wid is None:
                key = (vis, proper)
                wid = self._weak_intern.get(key)
                if wid is None:
                    wid = len(self._weak_sigs)
                    self._weak_sigs.append(key)
                    self._weak_intern[key] = wid
            weak.append(wid)
            closures.append(frozenset(clo))
            here = any(a == TAU_ACT and weak[c2] == wid for a, c2 in sig)
            self._stutter_here.append(here)
            self._stutter_reach.append(
                here or any(self._stutter_reach[c2] for _a, c2 in sig)
            )

    def weak_class_of(self, term: Process) -> int:
        cid = self.class_of(term)
        self._ensure_weak()
        return self._weak[cid]

    def class_in_mode(self, term: Process, mode: str) -> int:
        if mode == STRONG:
            return self.class_of(term)
        if mode == WEAK:
            return self.weak_class_of(term)
        raise ValueError(f"unknown mode: {mode!r}")

    def nil_class_in_mode(self, mode: str) -> int:
        return self.class_in_mode(NIL, mode)

    def stutter_reachable(self, term: Process) -> bool:
        cid = self.class_of(term)
        self._ensure_weak()
        return self._stutter_reach[cid]


# --------------------------------------------------------------------------
# Term universe enumeration


class TermUniverse:
    """Exhaustive enumeration of replication-free terms, up to alpha.

    `max_size` bounds the operator count (every node, guard, and 0 counts
    one).  Binders take canonical names indexed by nesting depth, so each
    alpha class is produced exactly once.  Guards range over the free
    names and the binders in scope.

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
        i = len(scope)
        taken = {name for _kind, name in scope}
        name = f"u{i}"
        while name in self.names or name in taken:
            i += 1
            name = f"u{i}"
        return name

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
        core = _resolve_prefix_static(t.prefix)
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


def _resolve_prefix_static(pi):
    while isinstance(pi, Match):
        if pi.lhs != pi.rhs:
            return None
        pi = pi.inner
    return pi


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

    Raises Aborted with a progress count when enumeration plus pair
    checking exceeds `budget` steps.
    """
    if not is_replication_free(p):
        raise NotFinite("split search requires a replication-free term")
    if mode not in (STRONG, WEAK):
        raise ValueError(f"unknown mode: {mode!r}")
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

    candidates: dict[int, list[tuple[int, Process]]] = {}
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
        candidates.setdefault(d, []).append((cid, term))
    if mode == STRONG:
        pairs = []
        for d in sorted(candidates):
            d2 = depth_p - d
            if d2 < d or d2 not in candidates:
                continue
            if d == d2:
                pairs.append((candidates[d], candidates[d], True))
            else:
                pairs.append((candidates[d], candidates[d2], False))
        for left_bucket, right_bucket, triangular in pairs:
            for i, (cl, q) in enumerate(left_bucket):
                start = i if triangular else 0
                for cr, r in right_bucket[start:]:
                    checked += 1
                    if checked > budget:
                        raise Aborted("split search budget exceeded", progress=checked)
                    if index.class_of(Par(q, r)) == target:
                        return SplitFound(q, r)
        return NO_SPLIT

    # Weak mode: no depth additivity available; check every class pair.
    all_terms = [term for bucket in candidates.values() for _, term in bucket]
    for i, q in enumerate(all_terms):
        for r in all_terms[i:]:
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
    to the source in the declared mode."""

    __slots__ = ("factors", "mode")

    def __init__(self, factors, mode: str):
        canon = [alpha_canonical(f) for f in factors]
        canon.sort(key=lambda f: (term_size(f), _render(f, 0)))
        self.factors = tuple(canon)
        self.mode = mode

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


def _default_oracle(p: Process) -> TermUniverse:
    # Split parts are almost always smaller than the composed term (the
    # composition pays a parallel operator and interleaving duplicates);
    # the cap keeps the default search affordable and remains an explicit
    # bounded claim either way.
    names = sorted(free_names(p)) or ["a"]
    return TermUniverse(names, max_size=min(term_size(p), 6))


def decomposition(
    p: Process,
    mode: str = STRONG,
    u: NameUniverse | None = None,
    oracle: TermUniverse | None | bool = None,
    budget: int = 2_000_000,
) -> Decomposition:
    """Parallel factors of `p` modulo the chosen bisimilarity.

    Structural phase: narrow scopes, flatten top-level parallel
    composition, drop factors equivalent to 0.  Each remaining factor is
    then handed to find_split (over `oracle`, defaulting to a universe
    over the factor's names at the input's size; pass oracle=False to
    skip) and split further while the search finds anything.  In weak
    mode the input is first replaced by its verified stutter-free
    representative.
    """
    if not is_replication_free(p):
        raise NotFinite("decomposition requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(p)
    work = p
    if mode == WEAK:
        work, _report = stutter_free(p, u)
    nil_free = []
    todo = parallel_factors(work)
    index = BehaviorIndex(
        NameUniverse.for_terms(work, extra_known=u.known, pool_size=len(u.fresh_pool))
    )
    nil = index.nil_class_in_mode(mode)
    while todo:
        f = todo.pop(0)
        if index.class_in_mode(f, mode) == nil:
            continue
        sub = parallel_factors(f)
        if len(sub) > 1 or sub[0] != f:
            todo = sub + todo
            continue
        nil_free.append(f)

    if oracle is False:
        return Decomposition(nil_free, mode)

    final = []
    queue = nil_free
    while queue:
        f = queue.pop(0)
        tu = oracle if isinstance(oracle, TermUniverse) else _default_oracle(f)
        got = find_split(f, mode, tu, budget=budget)
        if isinstance(got, SplitFound):
            for part in (got.left, got.right):
                if index.class_in_mode(part, mode) != nil:
                    queue.extend(
                        x
                        for x in parallel_factors(part)
                        if index.class_in_mode(x, mode) != nil
                    )
        else:
            final.append(f)
    return Decomposition(final, mode)


def multiset_eq_mod_bisim(d1: Decomposition, d2: Decomposition) -> bool:
    """Perfect matching of factors under the declared bisimilarity."""
    if d1.mode != d2.mode:
        raise ValueError("decompositions compare only within one mode")
    if len(d1.factors) != len(d2.factors):
        return False
    if not d1.factors:
        return True
    mode = d1.mode
    left = list(d1.factors)
    right = list(d2.factors)
    cache: dict[tuple[Process, Process], bool] = {}

    def related(a: Process, b: Process) -> bool:
        key = (a, b)
        got = cache.get(key)
        if got is None:
            got = bisim(a, b, mode)[0]
            cache[key] = got
        return got

    assignment = [-1] * len(right)

    def try_assign(i: int, taken: set) -> bool:
        if i == len(left):
            return True
        for j in range(len(right)):
            if j in taken or not related(left[i], right[j]):
                continue
            taken.add(j)
            if try_assign(i + 1, taken):
                assignment[j] = i
                return True
            taken.remove(j)
        return False

    return try_assign(0, set())


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
    oracle: TermUniverse | None | bool = None,
) -> Verdict:
    """If p and q are mode-equivalent, their factor multisets must match."""
    if u is None:
        u = NameUniverse.for_terms(p, q)
    equivalent = bisim(p, q, mode, u)[0]
    dp = decomposition(p, mode, u, oracle=oracle)
    dq = decomposition(q, mode, u, oracle=oracle)
    if not equivalent:
        return Verdict(False, None, dp, dq, "terms are not equivalent; no claim")
    matched = multiset_eq_mod_bisim(dp, dq)
    detail = "factor multisets match" if matched else "factor multisets differ"
    return Verdict(True, matched, dp, dq, detail)


# --------------------------------------------------------------------------
# Whole-universe sweep


class SweepReport(NamedTuple):
    mode: str
    names: tuple
    max_size: int
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
            "universe": {"names": list(self.names), "max_size": self.max_size},
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
    allow_restriction: bool = True,
) -> SweepReport:
    """Unique-decomposition consistency over a whole term universe.

    Every term is decomposed structurally; factor multisets are refined
    through the per-class factorization map (a class whose members expose
    a parallel split contributes its parts' factorizations).  All members
    of one equivalence class must agree on the refined multiset; each
    disagreement is reported as a violation.  This is exactly pairwise
    multiset_eq_mod_bisim over equivalent pairs, computed class-wise.

    In weak mode terms are swept in fresh-only input discipline by
    default, and every term whose class can reach a stuttering step is
    first replaced by an index-verified stutter-free representative.
    """
    if input_mode is None:
        input_mode = "fresh-only" if mode == WEAK else "early"
    clear_transition_cache()
    tu = TermUniverse(names, max_size, allow_restriction=allow_restriction)
    pool = []
    i = 0
    while len(pool) < max_size + 2:
        w = f"w{i}"
        i += 1
        if w not in tu.names:
            pool.append(w)
    u = NameUniverse(frozenset(tu.names), pool, input_mode)
    index = BehaviorIndex(u)
    sweep = _Sweep(index, mode, u)

    term_count = 0
    for term in tu.enumerate():
        term_count += 1
        sweep.add_term(term)
    sweep.settle()

    violations = sweep.collect_violations()
    with_pairs = sum(1 for n in sweep.member_count.values() if n > 1)
    return SweepReport(
        mode=mode,
        names=tuple(tu.names),
        max_size=max_size,
        term_count=term_count,
        class_count=len(sweep.member_count),
        classes_with_pairs=with_pairs,
        violations=violations,
        normalization_failures=sweep.normalization_failures,
    )


class _Sweep:
    """Class-wise bookkeeping for upd_sweep; holds ids and text only."""

    def __init__(self, index: BehaviorIndex, mode: str, u: NameUniverse):
        self.index = index
        self.mode = mode
        self.u = u
        self.member_count: dict[int, int] = {}
        self.factorizations: dict[int, dict[tuple[int, ...], str]] = {}
        self.class_depth: dict[int, int] = {}
        self.normalization_failures: list = []
        self.nil_strong = index.class_of(NIL)
        # (strong cid, text, term) for members whose class may stutter;
        # processed in settle() once the weak layer is complete.
        self._deferred: list = []
        self._rep_memo: dict[Process, Process] = {}

    # -- streaming ----------------------------------------------------------

    def add_term(self, term: Process):
        cid_s = self.index.class_of(term)
        if self.mode == STRONG:
            if cid_s == self.nil_strong:
                return
            self._record(cid_s, cid_s, term, parallel_factors(term))
        else:
            self._deferred.append((cid_s, term))

    def _weak_of(self, cid: int) -> int:
        self.index._ensure_weak()
        return self.index._weak[cid]

    def _stutters(self, cid: int) -> bool:
        self.index._ensure_weak()
        return self.index._stutter_reach[cid]

    def settle(self):
        if self.mode == STRONG:
            return
        nil_w = self._weak_of(self.nil_strong)
        for cid_s, term in self._deferred:
            if self._weak_of(cid_s) == nil_w:
                continue
            if not self._stutters(cid_s):
                self._record(self._weak_of(cid_s), cid_s, term, parallel_factors(term))
                continue
            rep = self._rep(term)
            rep_cid = self.index.class_of(rep)
            if self._weak_of(rep_cid) != self._weak_of(cid_s) or self._stutters(
                rep_cid
            ):
                # Index-guided construction failed; fall back to the full
                # verified normalizer, and report honestly if that fails.
                try:
                    rep, _report = stutter_free(term, self.u)
                except NormalizationIncomplete as exc:
                    self.normalization_failures.append(
                        {"term": _render(term, 0), "error": str(exc)}
                    )
                    continue
            self._record(self._weak_of(cid_s), cid_s, term, parallel_factors(rep))
        self._deferred = []

    def _rep(self, term: Process):
        """Stutter-free representative, verified through the class index."""
        got = self._rep_memo.get(term)
        if got is not None:
            return got
        rep = self._rep_uncached(term)
        self._rep_memo[term] = rep
        return rep

    def _rep_uncached(self, term: Process):
        index = self.index
        if not self._stutters(index.class_of(term)):
            return term
        if isinstance(term, Prefixed) and isinstance(term.prefix, Tau):
            # An internal prefix is always weakly equivalent to its
            # continuation.
            return self._rep(term.cont)
        if isinstance(term, Par):
            cand = Par(self._rep(term.left), self._rep(term.right))
            if not self._stutters(index.class_of(cand)):
                return cand
            term = cand
        elif isinstance(term, Restrict):
            cand = Restrict(term.binder, self._rep(term.body))
            if not self._stutters(index.class_of(cand)):
                return cand
            term = cand
        my_weak = self._weak_of(index.class_of(term))
        summands = _hnf(alpha_canonical(term, avoid=self.u.all_names))
        for guard, cont in summands:
            if isinstance(guard, Tau):
                if self._weak_of(index.class_of(cont)) == my_weak:
                    return self._rep(cont)
        return HeadNormalForm(
            [(guard, self._rep(cont)) for guard, cont in summands]
        ).to_process()

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, cid, strong_cid, term, factors):
        index = self.index
        nil = self.nil_strong if self.mode == STRONG else self._weak_of(self.nil_strong)
        fids = []
        for f in factors:
            fid_s = index.class_of(f)
            fid = fid_s if self.mode == STRONG else self._weak_of(fid_s)
            if fid != nil:
                fids.append(fid)
        key = tuple(sorted(fids))
        self.member_count[cid] = self.member_count.get(cid, 0) + 1
        by_class = self.factorizations.setdefault(cid, {})
        if key not in by_class:
            by_class[key] = _render(term, 0)
        if cid not in self.class_depth:
            self.class_depth[cid] = index.depths[strong_cid]

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
