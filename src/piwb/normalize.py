"""Head normal forms, stuttering detection, and stutter-free normalization.

A head normal form is a sum of prefixed continuations that is strongly
bisimilar to its source term: the term's own steps, as `semantics._derive`
derives them with inputs left unopened.  Labels are prefixes, so each
label is its guard, and an unopened input is read back as its `Input`
prefix.  A bound-output summand (output of a hidden name) is guarded by
its `BoundOut` label, since the two-level grammar cannot put a
restriction directly under a sum; `HeadNormalForm.to_process` still
produces the operationally faithful term, which is for equivalence
checking and display rather than re-parsing.

A stuttering transition is an internal step between weakly bisimilar
states.  Every verdict here reads one `BehaviorIndex`: its weak classes
and stuttering flags decide stuttering and guide
`stutter_free_representative`, which rewrites a term into a weakly
bisimilar one from which no stuttering transition is reachable.
`stutter_free` verifies that result through the same index and raises
NormalizationIncomplete, with a witness read from the index, instead of
claiming an unverified result.  No walk here recurses.
"""

from __future__ import annotations

from functools import reduce

from .equivalence import BehaviorIndex
from .errors import NormalizationIncomplete, NotFinite
from .parser import _render
from .semantics import NameUniverse, _derive, derive_steps, start_index, state_for
from .syntax import (
    BoundOut,
    In,
    Input,
    NIL,
    Output,
    Par,
    Prefixed,
    Process,
    Restrict,
    Sum,
    TAU_ACT,
    Tau,
    alpha_canonical,
    is_replication_free,
)


# Older name of the bound-output guard of a head normal form.
BoundOutputPrefix = BoundOut


class HeadNormalForm:
    """Sum of guarded continuations, strongly bisimilar to the source term."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        self.summands = tuple(summands)

    def __len__(self):
        return len(self.summands)

    def __iter__(self):
        return iter(self.summands)

    def to_process(self) -> Process:
        """Fold the summands back into one term.

        Bound-output summands become restriction-wrapped outputs, which is
        operationally the same behaviour but, inside a sum, falls outside
        the two-level grammar; use the result for semantics, not parsing.
        """
        parts = []
        for guard, cont in self.summands:
            if isinstance(guard, BoundOut):
                parts.append(
                    Restrict(guard.binder, Prefixed(Output(guard.chan, guard.binder), cont))
                )
            else:
                parts.append(Prefixed(guard, cont))
        return reduce(Sum, parts) if parts else NIL


def _hnf(t: Process, u: NameUniverse) -> list:
    """Summands of the head normal form of the alpha-canonical term `t`:
    its derivation under `u` read symbolically (`semantics._derive` with
    inputs left unopened).  A label is its own guard, except that an
    unopened `In(chan, binder)` becomes the `Input` prefix it came from.

    A bound output extrudes the next pool name of `u`, never the
    restricted binder: canonical siblings share binder names, and a
    receiver under a restriction of the extruded name would not take it.
    """
    return [
        (Input(a.chan, a.datum) if type(a) is In else a, cont)
        for a, cont in _derive(t, None, u.row(start_index(t, u))[1])
    ]


def expand_hnf(p: Process) -> HeadNormalForm:
    """Expansion-law head normal form of a replication-free term.

    The input is alpha-canonicalized first, so the binders along any path
    are mutually distinct and never free in a sibling (a sibling's free
    names are free in the whole term or bound above it), which discharges
    every freshness side condition of the expansion.
    """
    if not is_replication_free(p):
        raise NotFinite("head normal form requires a replication-free term")
    return HeadNormalForm(_hnf(alpha_canonical(p), NameUniverse.for_terms(p)))


# --------------------------------------------------------------------------
# Stuttering


def has_stuttering(p: Process, u: NameUniverse | None = None):
    """Is some internal step between weakly bisimilar states reachable?

    Returns (verdict, witness) where the witness is the offending pair of
    terms (source, target of the stuttering step), or None.
    """
    if not is_replication_free(p):
        raise NotFinite("stuttering detection requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(p)
    witness = _stuttering_step(BehaviorIndex(u), p)
    return witness is not None, witness


def _stuttering_step(index: BehaviorIndex, p: Process):
    """The first stuttering step breadth first from `p`, as (source,
    target), or None when `p`'s class reaches none.

    A state that reaches a stuttering step stutters, and so do all its
    predecessors, so the walk enters only states whose class stutters and
    still meets them in the order of a breadth-first graph of `p`."""
    u = index.universe
    classes = index._class_of
    root = state_for(p, u)
    if not index.stutters(index.class_at(*root)):
        return None
    seen, queue = {root}, [root]
    for state in queue:
        weak = index.weak_id(classes[state])
        for a, q in derive_steps(state, u, index._memo):
            if a == TAU_ACT and index.weak_id(classes[q]) == weak:
                return state[0], q[0]
            if q not in seen and index.stutters(classes[q]):
                seen.add(q)
                queue.append(q)
    return None


def stutter_free_representative(term: Process, index: BehaviorIndex, memo: dict):
    """Weakly bisimilar term from which, by the index, no stuttering step
    is reachable.

    Terms whose class reaches no stuttering step are kept as they are
    (preserving parallel structure); an internal prefix is dropped;
    parallel compositions and restrictions are normalized componentwise
    and rechecked; otherwise the term is expanded to head normal form --
    an internal summand whose continuation is weakly bisimilar to the
    whole term replaces it (depth strictly decreases), and otherwise
    every continuation is normalized in place.

    Unverified: `stutter_free` checks the result's weak class and
    stuttering through `index`.  `memo` maps terms to results.  A term
    waiting for a part's result waits on an explicit stack with the
    `_rebuild` generator that asked for it, so deep terms need no deep
    recursion.
    """
    stack: list = []
    while True:
        result = memo.get(term)
        if result is None:
            cid = index.class_of(term)
            if index.stutters(cid):
                stack.append((term, _rebuild(term, cid, index)))
            else:
                result = memo[term] = term
        # Hand the result to the terms waiting for it (a new generator
        # starts on None) until one asks for another part.
        while stack:
            waiting, rebuild = stack[-1]
            try:
                term = rebuild.send(result)
                break
            except StopIteration as finished:
                result = finished.value
            stack.pop()
            memo[waiting] = result
        else:
            return result


def _rebuild(term, cid, index):
    """Componentwise, then head-normal-form rebuild of a stuttering term.

    A generator: it yields each part whose representative it needs and
    is sent that representative back."""
    if isinstance(term, Prefixed) and isinstance(term.prefix, Tau):
        # An internal prefix is always weakly equivalent to its continuation.
        return (yield term.cont)
    if isinstance(term, Par):
        term = Par((yield term.left), (yield term.right))
        cid = index.class_of(term)
    elif isinstance(term, Restrict):
        term = Restrict(term.binder, (yield term.body))
        cid = index.class_of(term)
    if not index.stutters(cid):
        return term
    weak, u = index.weak_id(cid), index.universe
    summands = _hnf(alpha_canonical(term, avoid=u.known), u)
    for guard, cont in summands:
        if isinstance(guard, Tau) and index.weak_class_of(cont) == weak:
            return (yield cont)
    normalized = []
    for guard, cont in summands:
        normalized.append((guard, (yield cont)))
    return HeadNormalForm(normalized).to_process()


def _normalized(p: Process, u: NameUniverse | None):
    """`stutter_free`'s result and report, and the result's depth by the
    index that verified it."""
    if not is_replication_free(p):
        raise NotFinite("stutter-free normalization requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(p)
    index = BehaviorIndex(u)
    result = stutter_free_representative(alpha_canonical(p, avoid=u.known), index, {})
    cid = index.class_of(result)
    equivalent = index.weak_id(cid) == index.weak_class_of(p)
    still = index.stutters(cid)
    report = {"equivalent-to-input": equivalent, "stutter-free": not still}
    if equivalent and not still:
        return result, report, index.depths[cid]
    witness = _stuttering_step(index, result) if still else None
    if witness is not None:
        report["witness"] = {
            "state": _render(witness[0], 0), "successor": _render(witness[1], 0)
        }
    raise NormalizationIncomplete(
        "stutter-free normalization could not be verified",
        report=report,
        witness=witness,
    )


def stutter_free(p: Process, u: NameUniverse | None = None):
    """Weakly bisimilar, stuttering-free normal form of `p`, with a report.

    The construction is `stutter_free_representative` over a fresh
    BehaviorIndex, and the result is verified through that index: it must
    be in the weak class of the input and reach no stuttering step.  On
    verification failure the report and a stuttering witness, read from
    the same index, travel in NormalizationIncomplete rather than being
    silently accepted.
    """
    return _normalized(p, u)[:2]


def weak_depth(p: Process, u: NameUniverse | None = None) -> int:
    """Depth of the stutter-free representative of `p`'s weak class."""
    return _normalized(p, u)[2]
