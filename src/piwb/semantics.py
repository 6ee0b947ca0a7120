"""Early labelled transition relation with finite input branching.

Exploration states are pairs (term, consumed) where `consumed` counts how
many pool names the run has already introduced (by receiving a fresh
name or extruding a private one).  The pool is unbounded (w0, w1, ...
without the known names, see `NameUniverse`), so no finite term runs
out of fresh names.  Input prefixes are instantiated with every name the
environment could plausibly send: the universe's known names, every pool
name introduced so far (whether or not the term still mentions it), and
the single next unused pool name.  In ``fresh-only`` mode the
instantiation set is just that next name.

Keying the cursor into the state keeps instantiation aligned across
compared processes: matching transition labels imply matching
consumption, so related states always face identical input choices, even
when one of them has dropped a received name the other still mentions.

Successors are alpha-canonical and interned (`syntax.hashcons`), so a
successor shares every subterm that the step left unchanged with its
parent state, and equal successors derived since the last clear are one
object.

Every step that opens a binder with a name -- an input instantiation, a
communication, an extrusion -- goes through `_instance`, which memoizes
the interned, level-named result per continuation in `_instances`.
Early inputs open each continuation with every name of the universe, and
interned continuations recur across states and terms: the strong size-5
sweep opens 11,534 continuations 90,515 times.  An unused binder opens
to the continuation's canonical form whatever the name.

A state whose term is a parallel composition is derived through an
`ExplorationMemo`, which belongs to one exploration under one universe:
`build_lts_multi` makes one per graph and each `BehaviorIndex` holds one.
It has three tables:

- component steps, keyed by (component, pool cursor), which the one Par
  rule `_par_steps` combines: each side's moves lifted, then the
  communications and closes between them;
- a pair table from (left, right) to the canonical, interned `Par(left,
  right)`, through which every lifted move and free communication builds
  its successor, so a product successor is canonicalized once per
  exploration, not once per edge that reaches it;
- an input table from (component, channel, datum) to the component's
  input continuations, so a receiver is opened once per channel and
  datum, not once per product state with a matching output.

The product states of `p | q` then derive the states of `p` and `q` once
each instead of once per product state.  Only closes, `new w.(p' | q')`,
are canonicalized and interned per step.  States whose root is a prefix,
sum or restriction, and every state explored without a memo, are derived
whole by `_derive`, and their successors are canonicalized and interned.
Either way the steps are the same tuples in the same order.  Universes
with equal known names and input modes are one object while any holder
lives (see `NameUniverse`), so analyses over few name sets share their
pool rows.

Actions are interned in a table of this module.  The transition cache
`_cache` behind `_steps_cached` serves only the bounded exploration of
replicated terms, strong `bisimilar_to_nil` and `transitions`; graph
builds and class indices derive each state once themselves and call
`derive_steps`.  All of these are fast paths only: equality stays
structural, and `clear_transition_cache` empties the transition cache
and the three tables together.

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

import re
import weakref

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
    alpha_canonical,
    clear_hashcons,
    free_names,
    hashcons,
    substitute,
    validate,
)

_POOL_NAME = re.compile(r"w(?:0|[1-9][0-9]*)")


_universes: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class NameUniverse:
    """Name supply shared by every term of one analysis.

    `known` holds the free names of all terms under analysis.  The pool
    of fresh names, taken by input instantiation and extruded binders, is
    w0, w1, ... without the known names: unbounded, since a finite run
    takes one only when it opens a binder of its own.  `row` lists the
    names of each pool cursor, built once per universe and cursor.
    Universes are equal when their known names and input modes are, and
    equal universes alive at one time are one object: constructing one
    returns the live instance, rows included, from a table that holds
    universes weakly (a batch of analyses over a few name sets keeps a
    few universes, not one per analysis).
    """

    __slots__ = ("known", "input_mode", "_skipped", "_rows", "_hash", "__weakref__")

    def __new__(cls, known, input_mode="early"):
        if input_mode not in ("early", "fresh-only"):
            raise ValueError(f"unknown input mode: {input_mode!r}")
        known = frozenset(known)
        key = (known, input_mode)
        self = _universes.get(key)
        if self is None:
            self = _universes[key] = super().__new__(cls)
            self.known = known
            self.input_mode = input_mode
            # Numbers of the known names the pool skips, ascending.
            self._skipped = tuple(sorted(int(n[1:]) for n in known if _POOL_NAME.fullmatch(n)))
            self._rows: list[tuple] = []
            self._hash = hash(key)
        return self

    @classmethod
    def for_terms(cls, *terms, extra_known=(), input_mode="early"):
        """The universe knowing `extra_known` and the free names of `terms`."""
        return cls(frozenset(extra_known).union(*map(free_names, terms)), input_mode)

    def is_pool_name(self, name) -> bool:
        return name not in self.known and _POOL_NAME.fullmatch(name) is not None

    def row(self, consumed: int) -> tuple:
        """(input data, fresh name) at pool cursor `consumed`: the fresh
        name is the pool's `consumed`-th, and an input receives it alone
        (fresh-only) or after the known names, sorted, and every pool name
        before it (early)."""
        rows = self._rows
        while len(rows) <= consumed:
            i = len(rows)
            for n in self._skipped:
                if n <= i:
                    i += 1
            fresh = f"w{i}"
            if self.input_mode == "fresh-only":
                data = (fresh,)
            else:
                data = (rows[-1][0] if rows else tuple(sorted(self.known))) + (fresh,)
            rows.append((data, fresh))
        return rows[consumed]

    def __reduce__(self):
        return NameUniverse, (self.known, self.input_mode)

    def __eq__(self, other):
        return (
            isinstance(other, NameUniverse)
            and self.known == other.known
            and self.input_mode == other.input_mode
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NameUniverse(known={sorted(self.known)}, mode={self.input_mode})"


def _resolve_prefix(pi: Prefix):
    """Strip satisfied guards; None when some guard can never fire."""
    while isinstance(pi, Match):
        if pi.lhs != pi.rhs:
            return None
        pi = pi.inner
    return pi


_instances: dict = {}


def _instance(cont: Process, y, x) -> Process:
    """`cont` with its binder `x` opened by the name `y`: the substitution
    cont{y/x}, level-named from depth 0 and interned.

    Every input instantiation, communication and extrusion opens its
    binder here.  Memoized per continuation, in one table for each
    (binder, name) pair: interned continuations are shared between the
    states that hold them, so one opening serves them all.  An unused
    binder opens to the continuation's canonical form whatever the name.
    """
    if x not in free_names(cont):
        y = x
    row = _instances.get((x, y))
    if row is None:
        row = _instances[x, y] = {}
    got = row.get(cont)
    if got is None:
        got = row[cont] = hashcons(alpha_canonical(substitute(cont, y, x)))
    return got


def _input_derivatives(t: Process, chan, datum) -> tuple:
    """All continuations of `t` after receiving `datum` on `chan`.

    Post-order on an explicit stack, as in `_derive`."""
    done: list[tuple] = []
    todo: list = []
    while True:
        cls = type(t)
        if cls is Prefixed:
            core = t.prefix
            if type(core) is Match:
                core = _resolve_prefix(core)
            if type(core) is Input and core.chan == chan:
                done.append((_instance(t.cont, datum, core.binder),))
            else:
                done.append(())
        elif cls is Sum or cls is Par:
            todo += ((t,), t.right)
            t = t.left
            continue
        elif cls is Restrict or cls is Repl:
            if cls is Repl or (t.binder != chan and t.binder != datum):
                todo.append((t,))
                t = t.body
                continue
            done.append(())
        elif cls is Nil:
            done.append(())
        else:
            raise TypeError(f"not a process: {t!r}")
        # Combine every node whose parts are now all done.
        while True:
            if not todo:
                return done[0]
            t = todo.pop()
            if type(t) is not tuple:
                break
            t = t[0]
            cls = type(t)
            if cls is Sum:
                right = done.pop()
                done[-1] += right
            elif cls is Par:
                right = done.pop()
                done[-1] = tuple(Par(l2, t.right) for l2 in done[-1]) + tuple(
                    Par(t.left, r2) for r2 in right
                )
            elif cls is Restrict:
                done[-1] = tuple(Restrict(t.binder, b2) for b2 in done[-1])
            else:
                done[-1] = tuple(Par(b2, t) for b2 in done[-1])


def _derive(t: Process, data, ext) -> list:
    """Raw transition derivation; successors not yet canonicalized.

    Post-order on an explicit stack: a node's steps are combined from its
    parts' once those are done, so deeply nested sums, compositions and
    restrictions need no deep recursion.  The first part is followed in
    place; later parts and the pending combinations wait on `todo`.
    """
    done: list[list] = []
    todo: list = []
    while True:
        cls = type(t)
        if cls is Prefixed:
            core = t.prefix
            if type(core) is Match:
                core = _resolve_prefix(core)
            kind = type(core)
            if kind is Output:
                done.append([(FreeOut(core.chan, core.datum), t.cont)])
            elif kind is Input:
                cont, x = t.cont, core.binder
                done.append([(In(core.chan, y), _instance(cont, y, x)) for y in data])
            elif core is None:
                done.append([])
            else:
                done.append([(TAU_ACT, t.cont)])
        elif cls is Sum or cls is Par:
            todo += ((t,), t.right)
            t = t.left
            continue
        elif cls is Restrict or cls is Repl:
            todo.append((t,))
            t = t.body
            continue
        elif cls is Nil:
            done.append([])
        else:
            raise TypeError(f"not a process: {t!r}")
        # Combine every node whose parts are now all done.
        while True:
            if not todo:
                return done[0]
            t = todo.pop()
            if type(t) is not tuple:
                break
            t = t[0]
            cls = type(t)
            if cls is Sum:
                right = done.pop()
                done[-1] += right
            elif cls is Par:
                rights = done.pop()
                done[-1] = _par_steps(t, done[-1], rights, Par, _input_derivatives)
            elif cls is Restrict:
                done[-1] = _restrict_steps(t.binder, done[-1], ext)
            else:
                done[-1] = _repl_steps(t, done[-1])


def _par_steps(t: Par, lefts: list, rights: list, pair, receive) -> list:
    """Steps of `t` from its components' steps: each side moving alone,
    then communications (close when the sender extrudes).

    `pair(l, r)` builds the composition of a moved component with the
    other, and `receive(c, chan, datum)` lists the continuations of the
    component `c` receiving `datum` on `chan`: `Par` and
    `_input_derivatives` for a raw derivation, or an `ExplorationMemo`'s
    tables.  A close is built raw either way."""
    out = [(a, pair(p2, t.right)) for a, p2 in lefts]
    out += [(a, pair(t.left, q2)) for a, q2 in rights]
    for a, p2 in lefts:
        if type(a) is FreeOut:
            for q2 in receive(t.right, a.chan, a.datum):
                out.append((TAU_ACT, pair(p2, q2)))
        elif type(a) is BoundOut:
            for q2 in receive(t.right, a.chan, a.binder):
                out.append((TAU_ACT, Restrict(a.binder, Par(p2, q2))))
    for a, q2 in rights:
        if type(a) is FreeOut:
            for p2 in receive(t.left, a.chan, a.datum):
                out.append((TAU_ACT, pair(p2, q2)))
        elif type(a) is BoundOut:
            for p2 in receive(t.left, a.chan, a.binder):
                out.append((TAU_ACT, Restrict(a.binder, Par(p2, q2))))
    return out


def _restrict_steps(z, body_steps: list, ext) -> list:
    """Steps of `new z.body` from the body's: an output of z extrudes it
    as the pool name `ext`, other actions on z are blocked.  `_derive`
    labels every internal step with the one `TAU_ACT`."""
    out = []
    for a, b2 in body_steps:
        if a is TAU_ACT:
            out.append((a, Restrict(z, b2)))
        elif a.chan == z:
            continue
        elif type(a) is FreeOut and a.datum == z:
            out.append((BoundOut(a.chan, ext), _instance(b2, ext, z)))
        elif (a.binder if type(a) is BoundOut else a.datum) != z:
            out.append((a, Restrict(z, b2)))
    return out


def _repl_steps(t: Repl, base: list) -> list:
    """Steps of `!body` from one copy's: a copy moves, or two copies
    communicate."""
    out = [(a, Par(p2, t)) for a, p2 in base]
    for a, p2 in base:
        if type(a) is FreeOut:
            for p3 in _input_derivatives(t.body, a.chan, a.datum):
                out.append((TAU_ACT, Par(Par(p2, p3), t)))
        elif type(a) is BoundOut:
            for p3 in _input_derivatives(t.body, a.chan, a.binder):
                out.append((TAU_ACT, Par(Restrict(a.binder, Par(p2, p3)), t)))
    return out


def start_index(p: Process, u: NameUniverse) -> int:
    """Pool cursor for a term entering analysis: past the highest pool
    name it already mentions (zero for terms over known names only)."""
    fn = free_names(p)
    if fn <= u.known:
        return 0
    top = max((int(n[1:]) for n in fn if u.is_pool_name(n)), default=-1)
    return top + 1 - sum(1 for n in u._skipped if n < top)


_actions: dict = {}


def _canonical_steps(steps: list, avoid) -> list:
    """`steps` with every action and successor interned, successors
    alpha-canonical, each pair kept at its first occurrence."""
    return list(dict.fromkeys(
        (_actions.setdefault(a, a), hashcons(alpha_canonical(q, avoid=avoid)))
        for a, q in steps
    ))


class ExplorationMemo:
    """What one exploration under one universe derives once for the
    compositions among its states.

    - `steps` maps (component, pool cursor) to the component's steps,
      successors canonical and interned.
    - `pairs` maps (left, right) to the canonical, interned `Par(left,
      right)`: the successor of a composition when one side moves or the
      two communicate freely.
    - `inputs` maps (component, channel, datum) to the component's
      `_input_derivatives`.

    Component steps and canonical forms depend on the universe (its input
    data and known names), so a memo serves one universe: `build_lts_multi`
    makes one per graph and each `BehaviorIndex` holds one.
    """

    __slots__ = ("avoid", "steps", "pairs", "inputs")

    def __init__(self, u: NameUniverse):
        self.avoid = u.known
        self.steps: dict = {}
        self.pairs: dict = {}
        self.inputs: dict = {}

    def pair(self, left: Process, right: Process) -> Process:
        got = self.pairs.get((left, right))
        if got is None:
            got = self.pairs[left, right] = hashcons(
                alpha_canonical(Par(left, right), avoid=self.avoid)
            )
        return got

    def receive(self, t: Process, chan, datum) -> tuple:
        got = self.inputs.get((t, chan, datum))
        if got is None:
            got = self.inputs[t, chan, datum] = _input_derivatives(t, chan, datum)
        return got


def _composed_steps(t: Par, consumed: int, u: NameUniverse, memo: ExplorationMemo) -> list:
    """Steps of the composition `t` at pool cursor `consumed`, combined by
    `_par_steps` from its components' steps, successors canonical and
    interned and each kept at its first occurrence.

    Components' steps come from `memo.steps`; the Par spine is walked on
    an explicit stack, and a composed component is entered in the memo
    once both of its parts are.  Moves and free communications take their
    successors from the pair table, which are final; only closes, `new
    w.(p' | q')`, are canonicalized here.  Every action is a component's,
    interned with its steps, or `TAU_ACT`.  Canonical or not, a component
    successor is alpha-equivalent to the raw one, so every successor
    built from it canonicalizes to the same term as in a whole
    derivation, and dropping repeated component steps drops only steps
    that repeat in `t`.
    """
    data, fresh = u.row(consumed)
    avoid = u.known
    table = memo.steps
    todo = [t]
    while True:
        c = todo[-1]
        parts = []
        for x in (c.left, c.right):
            got = table.get((x, consumed))
            if got is None and type(x) is not Par:
                got = table[x, consumed] = _canonical_steps(_derive(x, data, fresh), avoid)
            parts.append(got)
        lefts, rights = parts
        if lefts is None or rights is None:
            if rights is None:
                todo.append(c.right)
            if lefts is None:
                todo.append(c.left)
            continue
        todo.pop()
        steps = list(dict.fromkeys(
            (a, hashcons(alpha_canonical(q, avoid=avoid)) if type(q) is Restrict else q)
            for a, q in _par_steps(c, lefts, rights, memo.pair, memo.receive)
        ))
        if not todo:
            return steps
        table[c, consumed] = steps


def derive_steps(
    state: tuple[Process, int], u: NameUniverse, memo: ExplorationMemo | None = None
) -> tuple:
    """Uncached step derivation on an exploration state.

    Returns the distinct (action, successor-state) pairs in derivation
    order, the same under every hash seed; successors are
    alpha-canonical, interned with `hashcons` (so they share every
    unchanged subterm with `state` and with each other), and carry the
    updated pool cursor.  Actions are interned too.

    `memo`, owned by one exploration under `u`, derives compositions
    from their components (see `_composed_steps`), so a composition
    derives each component once per cursor and builds each successor
    pair once; other states, and every state when `memo` is None, are
    derived whole.
    """
    term, consumed = state
    data, fresh = u.row(consumed)
    if memo is not None and type(term) is Par:
        steps = _composed_steps(term, consumed, u, memo)
    else:
        steps = _canonical_steps(_derive(term, data, fresh), u.known)
    out = []
    for a, q in steps:
        bump = isinstance(a, BoundOut) or (isinstance(a, In) and a.datum == fresh)
        out.append((a, (q, consumed + 1 if bump else consumed)))
    return tuple(out)


_cache: dict = {}


def clear_transition_cache():
    """Release everything derivation retains: the transition cache, the
    instantiation table, and the action and `hashcons` tables that
    `derive_steps` fills."""
    _cache.clear()
    _instances.clear()
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
    return alpha_canonical(p, avoid=u.known), start_index(p, u)


def transitions(p: Process, u: NameUniverse) -> frozenset[tuple[Action, Process]]:
    """Derivable transitions of `p`, with alpha-canonical successors."""
    validate(p)
    missing = sorted(n for n in free_names(p) - u.known if not u.is_pool_name(n))
    if missing:
        raise ValueError(f"universe does not cover free names {missing}")
    return frozenset(
        (a, q) for a, (q, _k) in _steps_cached(state_for(p, u), u)
    )
