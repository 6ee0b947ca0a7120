"""Head normal forms, stuttering detection, and stutter-free normalization.

A head normal form is a sum of prefixed continuations that is strongly
bisimilar to its source term.  Bound-output summands (output of a hidden
name) get their own prefix class since the two-level grammar cannot put a
restriction directly under a sum; `HeadNormalForm.to_process` still
produces the operationally faithful term, which is for equivalence
checking and display rather than re-parsing.

A stuttering transition is an internal step between weakly bisimilar
states.  `stutter_free_representative` rewrites a term into a weakly
bisimilar one from which no stuttering transition is reachable, guided
by the weak classes and stuttering flags of a `BehaviorIndex`.
`stutter_free` builds on it, verifies its output through the same index
and raises NormalizationIncomplete instead of claiming an unverified
result.
"""

from __future__ import annotations

from .equivalence import WEAK, BehaviorIndex, refine
from .errors import NormalizationIncomplete, NotFinite
from .lts import build_lts_multi
from .parser import _render
from .semantics import NameUniverse, _resolve_prefix
from .syntax import (
    Input,
    Nil,
    NIL,
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
    is_replication_free,
    substitute,
)


class BoundOutputPrefix:
    """Output of the private name `binder` on `chan`; binds the continuation."""

    __slots__ = ("chan", "binder", "_hash")

    def __init__(self, chan, binder):
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "_hash", hash(("bout-prefix", chan, binder)))

    def __eq__(self, other):
        return (
            type(other) is BoundOutputPrefix
            and self.chan == other.chan
            and self.binder == other.binder
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BoundOutputPrefix({self.chan!r}, {self.binder!r})"


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
            if isinstance(guard, BoundOutputPrefix):
                parts.append(
                    Restrict(guard.binder, Prefixed(Output(guard.chan, guard.binder), cont))
                )
            else:
                parts.append(Prefixed(guard, cont))
        if not parts:
            return NIL
        term = parts[0]
        for part in parts[1:]:
            term = Sum(term, part)
        return term


def _hnf(t: Process):
    if isinstance(t, Nil):
        return []
    if isinstance(t, Prefixed):
        core = _resolve_prefix(t.prefix)
        if core is None:
            return []
        return [(core, t.cont)]
    if isinstance(t, Sum):
        return _hnf(t.left) + _hnf(t.right)
    if isinstance(t, Par):
        left = _hnf(t.left)
        right = _hnf(t.right)
        out = [(g, Par(cont, t.right)) for g, cont in left]
        out += [(g, Par(t.left, cont)) for g, cont in right]
        out += _hnf_comm(left, right)
        out += _hnf_comm(right, left)
        return out
    if isinstance(t, Restrict):
        z = t.binder
        out = []
        for g, cont in _hnf(t.body):
            if isinstance(g, Output):
                if g.chan == z:
                    continue
                if g.datum == z:
                    out.append((BoundOutputPrefix(g.chan, z), cont))
                else:
                    out.append((g, Restrict(z, cont)))
            elif isinstance(g, (Input, BoundOutputPrefix)):
                if g.chan == z:
                    continue
                out.append((g, Restrict(z, cont)))
            else:
                out.append((g, Restrict(z, cont)))
        return out
    if isinstance(t, Repl):
        raise NotFinite("head normal form requires a replication-free term")
    raise TypeError(f"not a process: {t!r}")


def _hnf_comm(senders, receivers):
    """Tau summands for communications from `senders` into `receivers`."""
    out = []
    for g, cont in senders:
        if isinstance(g, Output):
            for g2, cont2 in receivers:
                if isinstance(g2, Input) and g2.chan == g.chan:
                    merged = Par(cont, substitute(cont2, g.datum, g2.binder))
                    out.append((TAU, merged))
        elif isinstance(g, BoundOutputPrefix):
            for g2, cont2 in receivers:
                if isinstance(g2, Input) and g2.chan == g.chan:
                    merged = Par(cont, substitute(cont2, g.binder, g2.binder))
                    out.append((TAU, Restrict(g.binder, merged)))
    return out


def expand_hnf(p: Process) -> HeadNormalForm:
    """Expansion-law head normal form of a replication-free term.

    The input is alpha-canonicalized first, so the binders along any path
    are mutually distinct and never free in a sibling (a sibling's free
    names are free in the whole term or bound above it), which discharges
    every freshness side condition of the expansion.
    """
    if not is_replication_free(p):
        raise NotFinite("head normal form requires a replication-free term")
    return HeadNormalForm(_hnf(alpha_canonical(p)))


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
    l = build_lts_multi([p], u)
    part = refine(l, WEAK)
    for i in range(len(l.states)):
        for a, j in l.edges_from[i]:
            if a == TAU_ACT and part.same_block(i, j):
                return True, (l.states[i], l.states[j])
    return False, None


def _witness_json(witness):
    if witness is None:
        return None
    return {"state": _render(witness[0], 0), "successor": _render(witness[1], 0)}


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
    stuttering through `index`.  `memo` maps terms to results.
    """
    got = memo.get(term)
    if got is not None:
        return got
    cid = index.class_of(term)
    if not index.stutters(cid):
        result = term
    elif isinstance(term, Prefixed) and isinstance(term.prefix, Tau):
        # An internal prefix is always weakly equivalent to its continuation.
        result = stutter_free_representative(term.cont, index, memo)
    else:
        result = _rebuild(term, cid, index, memo)
    memo[term] = result
    return result


def _rebuild(term, cid, index, memo):
    """Componentwise, then head-normal-form rebuild of a stuttering term."""

    def rep(t):
        return stutter_free_representative(t, index, memo)

    if isinstance(term, Par):
        term = Par(rep(term.left), rep(term.right))
        cid = index.class_of(term)
    elif isinstance(term, Restrict):
        term = Restrict(term.binder, rep(term.body))
        cid = index.class_of(term)
    if not index.stutters(cid):
        return term
    weak = index.weak_id(cid)
    summands = _hnf(alpha_canonical(term, avoid=index.universe.known))
    for guard, cont in summands:
        if isinstance(guard, Tau) and index.weak_class_of(cont) == weak:
            return rep(cont)
    return HeadNormalForm([(guard, rep(cont)) for guard, cont in summands]).to_process()


def stutter_free(p: Process, u: NameUniverse | None = None):
    """Weakly bisimilar, stuttering-free normal form of `p`, with a report.

    The construction is `stutter_free_representative` over a fresh
    BehaviorIndex, and the result is verified through that index: it must
    be in the weak class of the input and reach no stuttering step.  On
    verification failure the report and a stuttering witness travel in
    NormalizationIncomplete rather than being silently accepted.
    """
    if not is_replication_free(p):
        raise NotFinite("stutter-free normalization requires a replication-free term")
    if u is None:
        u = NameUniverse.for_terms(p)
    index = BehaviorIndex(u)
    result = stutter_free_representative(
        alpha_canonical(p, avoid=u.known), index, {}
    )
    cid = index.class_of(result)
    equivalent = index.weak_id(cid) == index.weak_class_of(p)
    still = index.stutters(cid)
    report = {
        "equivalent-to-input": equivalent,
        "stutter-free": not still,
    }
    if equivalent and not still:
        return result, report
    witness = has_stuttering(result, u)[1] if still else None
    if witness is not None:
        report["witness"] = _witness_json(witness)
    raise NormalizationIncomplete(
        "stutter-free normalization could not be verified",
        report=report,
        witness=witness,
    )


def weak_depth(p: Process, u: NameUniverse | None = None) -> int:
    """Depth of the stutter-free representative of `p`'s weak class."""
    if u is None:
        u = NameUniverse.for_terms(p)
    representative, _report = stutter_free(p, u)
    return BehaviorIndex(u).depth_of(representative)
