"""Early labelled transition relation with finite input branching.

Exploration states are pairs (term, consumed) where `consumed` counts how
many reserved pool names the run has already introduced (by receiving a
fresh name or extruding a private one).  Input prefixes are instantiated
with every name the environment could plausibly send: the universe's
known names, every pool name introduced so far (whether or not the term
still mentions it), and the single next unused pool name.  In
``fresh-only`` mode the instantiation set is just that next name.

Keying the cursor into the state keeps instantiation aligned across
compared processes: matching transition labels imply matching
consumption, so related states always face identical input choices, even
when one of them has dropped a received name the other still mentions.

Successors are alpha-canonical and interned (`syntax.hashcons`), so a
successor shares every subterm that the step left unchanged with its
parent state, and equal successors derived since the last clear are one
object.
Actions are interned in a table of this module.  Both are fast paths
only: equality stays structural, and `clear_transition_cache` empties
the transition cache and both tables together.

A state's steps are distinct and listed in derivation order, which the
term's structure alone fixes (left before right, each component's own
moves before communications, known names before pool names).  Every
exploration that walks them -- graphs, class indices, split searches --
therefore visits states in the same order under every hash seed, with
no sorting or rendering.

Communication (the tau steps between parallel components) is derived
structurally from the sender's output and the receiver's input prefixes,
so it never depends on the input instantiation mode.  Bound outputs
extrude the next pool name, which discharges the freshness side
conditions of the parallel and close rules by construction.
"""

from __future__ import annotations

from .errors import UniverseTooSmall
from .syntax import (
    Action,
    BoundOut,
    FreeOut,
    In,
    Input,
    Match,
    Nil,
    Output,
    Par,
    Prefix,
    Prefixed,
    Process,
    Repl,
    Restrict,
    Sum,
    TAU_ACT,
    action_names,
    alpha_canonical,
    binder_count,
    clear_hashcons,
    free_names,
    hashcons,
    substitute,
    validate,
)

_POOL_PREFIX = "w"


class NameUniverse:
    """Immutable name supply shared by every term of one analysis.

    `known` holds the free names of all terms under analysis; `fresh_pool`
    is an ordered reserve of names disjoint from `known` used for input
    instantiation and extruded binders.
    """

    __slots__ = ("known", "fresh_pool", "input_mode", "_hash", "_all")

    def __init__(self, known, fresh_pool, input_mode="early"):
        if input_mode not in ("early", "fresh-only"):
            raise ValueError(f"unknown input mode: {input_mode!r}")
        known = frozenset(known)
        fresh_pool = tuple(fresh_pool)
        if known & set(fresh_pool):
            raise ValueError("fresh pool collides with known names")
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "fresh_pool", fresh_pool)
        object.__setattr__(self, "input_mode", input_mode)
        object.__setattr__(self, "_all", known | frozenset(fresh_pool))
        object.__setattr__(self, "_hash", hash((known, fresh_pool, input_mode)))

    @classmethod
    def for_terms(cls, *terms, pool_size=None, extra_known=(), input_mode="early"):
        known = set(extra_known)
        demand = 2
        for t in terms:
            known |= free_names(t)
            demand = max(demand, binder_count(t) + 2)
        if pool_size is None:
            pool_size = demand
        pool = []
        i = 0
        while len(pool) < pool_size:
            name = f"{_POOL_PREFIX}{i}"
            i += 1
            if name not in known:
                pool.append(name)
        return cls(known, pool, input_mode)

    @property
    def all_names(self):
        return self._all

    def next_fresh(self, occupied):
        """First pool name not in `occupied`; the pool is finite by design."""
        for name in self.fresh_pool:
            if name not in occupied:
                return name
        raise UniverseTooSmall(
            f"fresh pool of size {len(self.fresh_pool)} exhausted"
        )

    def covers(self, p: Process) -> bool:
        return free_names(p) <= self._all

    def __eq__(self, other):
        return (
            isinstance(other, NameUniverse)
            and self.known == other.known
            and self.fresh_pool == other.fresh_pool
            and self.input_mode == other.input_mode
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"NameUniverse(known={sorted(self.known)}, "
            f"pool={len(self.fresh_pool)}, mode={self.input_mode})"
        )


def _resolve_prefix(pi: Prefix):
    """Strip satisfied guards; None when some guard can never fire."""
    while isinstance(pi, Match):
        if pi.lhs != pi.rhs:
            return None
        pi = pi.inner
    return pi


def _input_derivatives(t: Process, chan, datum):
    """All continuations of `t` after receiving `datum` on `chan`."""
    if isinstance(t, Nil):
        return ()
    if isinstance(t, Prefixed):
        core = _resolve_prefix(t.prefix)
        if isinstance(core, Input) and core.chan == chan:
            return (substitute(t.cont, datum, core.binder),)
        return ()
    if isinstance(t, Sum):
        return _input_derivatives(t.left, chan, datum) + _input_derivatives(
            t.right, chan, datum
        )
    if isinstance(t, Par):
        outs = tuple(
            Par(l2, t.right) for l2 in _input_derivatives(t.left, chan, datum)
        )
        outs += tuple(
            Par(t.left, r2) for r2 in _input_derivatives(t.right, chan, datum)
        )
        return outs
    if isinstance(t, Restrict):
        if t.binder == chan or t.binder == datum:
            return ()
        return tuple(
            Restrict(t.binder, b2)
            for b2 in _input_derivatives(t.body, chan, datum)
        )
    if isinstance(t, Repl):
        return tuple(
            Par(b2, t) for b2 in _input_derivatives(t.body, chan, datum)
        )
    raise TypeError(f"not a process: {t!r}")


def _derive(t: Process, data, ext):
    """Raw transition derivation; successors not yet canonicalized."""
    if isinstance(t, Nil):
        return []
    if isinstance(t, Prefixed):
        core = _resolve_prefix(t.prefix)
        if core is None:
            return []
        if isinstance(core, Output):
            return [(FreeOut(core.chan, core.datum), t.cont)]
        if isinstance(core, Input):
            return [
                (In(core.chan, y), substitute(t.cont, y, core.binder)) for y in data
            ]
        return [(TAU_ACT, t.cont)]
    if isinstance(t, Sum):
        return _derive(t.left, data, ext) + _derive(t.right, data, ext)
    if isinstance(t, Par):
        lefts = _derive(t.left, data, ext)
        rights = _derive(t.right, data, ext)
        out = [(a, Par(p2, t.right)) for a, p2 in lefts]
        out += [(a, Par(t.left, q2)) for a, q2 in rights]
        for a, p2 in lefts:
            if isinstance(a, FreeOut):
                for q2 in _input_derivatives(t.right, a.chan, a.datum):
                    out.append((TAU_ACT, Par(p2, q2)))
            elif isinstance(a, BoundOut):
                for q2 in _input_derivatives(t.right, a.chan, a.binder):
                    out.append((TAU_ACT, Restrict(a.binder, Par(p2, q2))))
        for a, q2 in rights:
            if isinstance(a, FreeOut):
                for p2 in _input_derivatives(t.left, a.chan, a.datum):
                    out.append((TAU_ACT, Par(p2, q2)))
            elif isinstance(a, BoundOut):
                for p2 in _input_derivatives(t.left, a.chan, a.binder):
                    out.append((TAU_ACT, Restrict(a.binder, Par(p2, q2))))
        return out
    if isinstance(t, Restrict):
        z = t.binder
        out = []
        for a, b2 in _derive(t.body, data, ext):
            if isinstance(a, FreeOut) and a.datum == z and a.chan != z:
                out.append((BoundOut(a.chan, ext), substitute(b2, ext, z)))
            elif z in action_names(a):
                continue
            else:
                out.append((a, Restrict(z, b2)))
        return out
    if isinstance(t, Repl):
        base = _derive(t.body, data, ext)
        out = [(a, Par(p2, t)) for a, p2 in base]
        for a, p2 in base:
            if isinstance(a, FreeOut):
                for p3 in _input_derivatives(t.body, a.chan, a.datum):
                    out.append((TAU_ACT, Par(Par(p2, p3), t)))
            elif isinstance(a, BoundOut):
                for p3 in _input_derivatives(t.body, a.chan, a.binder):
                    out.append((TAU_ACT, Par(Restrict(a.binder, Par(p2, p3)), t)))
        return out
    raise TypeError(f"not a process: {t!r}")


def start_index(p: Process, u: NameUniverse) -> int:
    """Pool cursor for a term entering analysis: past the highest pool
    name it already mentions (zero for terms over user names only)."""
    fn = free_names(p)
    k = 0
    for i, w in enumerate(u.fresh_pool):
        if w in fn:
            k = i + 1
    return k


_actions: dict = {}


def derive_steps(state: tuple[Process, int], u: NameUniverse) -> tuple:
    """Uncached step derivation on an exploration state.

    Returns the distinct (action, successor-state) pairs in derivation
    order, the same under every hash seed; successors are
    alpha-canonical, interned with `hashcons` (so they share every
    unchanged subterm with `state` and with each other), and carry the
    updated pool cursor.  Actions are interned too.
    """
    term, consumed = state
    if consumed >= len(u.fresh_pool):
        raise UniverseTooSmall(
            f"fresh pool of size {len(u.fresh_pool)} exhausted"
        )
    fresh = u.fresh_pool[consumed]
    if u.input_mode == "early":
        data = tuple(sorted(u.known)) + u.fresh_pool[: consumed + 1]
    else:
        data = (fresh,)
    avoid = u.all_names
    out = []
    for a, q in _derive(term, data, fresh):
        bump = isinstance(a, BoundOut) or (isinstance(a, In) and a.datum == fresh)
        a = _actions.setdefault(a, a)
        q = hashcons(alpha_canonical(q, avoid=avoid))
        out.append((a, (q, consumed + 1 if bump else consumed)))
    return tuple(dict.fromkeys(out))


_cache: dict = {}


def clear_transition_cache():
    """Release everything derivation retains: the transition cache and
    the action and `hashcons` tables that `derive_steps` fills."""
    _cache.clear()
    _actions.clear()
    clear_hashcons()


def _steps_cached(state: tuple[Process, int], u: NameUniverse) -> tuple:
    key = (state, u)
    hit = _cache.get(key)
    if hit is None:
        hit = derive_steps(state, u)
        _cache[key] = hit
    return hit


def state_for(p: Process, u: NameUniverse) -> tuple[Process, int]:
    return alpha_canonical(p, avoid=u.all_names), start_index(p, u)


def transitions(p: Process, u: NameUniverse) -> frozenset[tuple[Action, Process]]:
    """Derivable transitions of `p`, with alpha-canonical successors."""
    validate(p)
    if not u.covers(p):
        missing = sorted(free_names(p) - u.all_names)
        raise ValueError(f"universe does not cover free names {missing}")
    return frozenset(
        (a, q) for a, (q, _k) in _steps_cached(state_for(p, u), u)
    )
