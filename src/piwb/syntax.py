"""Process terms, transition labels, name binding, and capture-avoiding
substitution.

A transition label is the prefix that fired wherever the two coincide:
a free output is labelled with its `Output` prefix and every internal
step with `TAU`.  Only an early input, which names the received datum,
and a bound output, which names the extruded binder, have label classes
of their own (`In`, `BoundOut`).  `FreeOut`, `TauAction` and `TAU_ACT`
are older names of `Output`, `Tau` and `TAU`.

Terms are immutable and hashable; all operations here are pure.  Bound
names are ordinary strings: alpha_canonical renames every binder into the
reserved indexed namespace ``v0, v1, ...`` so that alpha-equivalent terms
become equal.  A binder is named by its nesting depth (de Bruijn levels):
under d enclosing binders it takes the d-th of those names that no free
or avoided name already uses.  Nested binders therefore get v0, v1, ...
from the outside in, while siblings share names (`a?(x).0 | b?(y).0` is
`a?(v0).0 | b?(v0).0`), and every factor or summand of a canonical term
is canonical on its own.

Both renamings are one walk, `_level_walk`, which names every binder by
its level and maps free names through an environment that starts empty
for alpha_canonical and as `{old: new}` for substitute.  A substitution
therefore cannot capture, and its result is level-named itself.

Terms share structure.  The walk returns the input node itself wherever
nothing under it changes, and hashcons interns terms so that equal
subtrees become one object.  Each node caches its free names and a level
tag, so a term built from canonical parts is recognized as canonical in
time proportional to its new nodes.  The cached free-name sets are shared
too: equal sets are one `frozenset` object, held in a table that
`clear_hashcons` empties with the interning table.  Equality is
structural throughout; `self is other` is only its fast path, so no
result depends on whether two equal terms were interned.  The name
analysis, renaming and interning use explicit stacks, so deep terms need
no deep recursion.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import MalformedSum

Name = str

_CANON_BINDER = "v"


def canonical_binder(i: int) -> Name:
    return f"{_CANON_BINDER}{i}"


# Level tags besides a depth (see "Level naming" below).
_NO_BINDERS = -1
_UNLEVELLED = -2


# --------------------------------------------------------------------------
# Prefixes


class Prefix:
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


class Output(Prefix):
    """Send prefix: emit `datum` on channel `chan`."""

    __slots__ = ("chan", "datum")

    def __init__(self, chan: Name, datum: Name):
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "_hash", hash(("out", chan, datum)))

    def __eq__(self, other):
        return (
            type(other) is Output
            and self.chan == other.chan
            and self.datum == other.datum
        )

    __hash__ = Prefix.__hash__

    def __repr__(self):
        return f"Output({self.chan!r}, {self.datum!r})"


class Input(Prefix):
    """Receive prefix: `binder` scopes only the continuation of the term."""

    __slots__ = ("chan", "binder")

    def __init__(self, chan: Name, binder: Name):
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "_hash", hash(("in", chan, binder)))

    def __eq__(self, other):
        return (
            type(other) is Input
            and self.chan == other.chan
            and self.binder == other.binder
        )

    __hash__ = Prefix.__hash__

    def __repr__(self):
        return f"Input({self.chan!r}, {self.binder!r})"


class Tau(Prefix):
    """Internal-step prefix."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("tau-prefix"))

    def __eq__(self, other):
        return type(other) is Tau

    __hash__ = Prefix.__hash__

    def __repr__(self):
        return "Tau"


TAU = Tau()


class Match(Prefix):
    """Guard: `inner` may fire only when lhs and rhs are the same name."""

    __slots__ = ("lhs", "rhs", "inner")

    def __init__(self, lhs: Name, rhs: Name, inner: Prefix):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_hash", hash(("match", lhs, rhs, inner._hash)))

    def __eq__(self, other):
        return (
            type(other) is Match
            and self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.inner == other.inner
        )

    __hash__ = Prefix.__hash__

    def __repr__(self):
        return f"Match({self.lhs!r}, {self.rhs!r}, {self.inner!r})"


# --------------------------------------------------------------------------
# Processes


class Process:
    # `_fn` caches free_names and `_lv` the level tag (see "Level
    # naming").  `_fn` is None until first asked for; `_lv` is set
    # together with it and never read before.
    __slots__ = ("_hash", "_fn", "_lv")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # Structural, without recursion so deep terms compare: single
        # children are followed in place, right branches wait on a stack,
        # and a shared subtree ends a descent.
        a, b = self, other
        pending = []
        while True:
            if a is not b:
                cls = type(a)
                if type(b) is not cls or a._hash != b._hash:
                    return False
                if cls is Prefixed:
                    if a.prefix != b.prefix:
                        return False
                    a, b = a.cont, b.cont
                    continue
                if cls is Sum or cls is Par:
                    pending.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
                if cls is Restrict:
                    if a.binder != b.binder:
                        return False
                    a, b = a.body, b.body
                    continue
                if cls is Repl:
                    a, b = a.body, b.body
                    continue
            if not pending:
                return True
            a, b = pending.pop()


class Nil(Process):
    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("nil-process"))
        object.__setattr__(self, "_fn", frozenset())
        object.__setattr__(self, "_lv", _NO_BINDERS)

    def __repr__(self):
        return "Nil"


NIL = Nil()


class Prefixed(Process):
    __slots__ = ("prefix", "cont")

    def __init__(self, prefix: Prefix, cont: Process):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cont", cont)
        object.__setattr__(self, "_hash", hash(("pre", prefix._hash, cont._hash)))
        object.__setattr__(self, "_fn", None)

    def __repr__(self):
        return f"Prefixed({self.prefix!r}, {self.cont!r})"


class Sum(Process):
    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("sum", left._hash, right._hash)))
        object.__setattr__(self, "_fn", None)

    def __repr__(self):
        return f"Sum({self.left!r}, {self.right!r})"


class Par(Process):
    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("par", left._hash, right._hash)))
        object.__setattr__(self, "_fn", None)

    def __repr__(self):
        return f"Par({self.left!r}, {self.right!r})"


class Restrict(Process):
    __slots__ = ("binder", "body")

    def __init__(self, binder: Name, body: Process):
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(("res", binder, body._hash)))
        object.__setattr__(self, "_fn", None)

    def __repr__(self):
        return f"Restrict({self.binder!r}, {self.body!r})"


class Repl(Process):
    __slots__ = ("body",)

    def __init__(self, body: Process):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(("repl", body._hash)))
        object.__setattr__(self, "_fn", None)

    def __repr__(self):
        return f"Repl({self.body!r})"


# --------------------------------------------------------------------------
# Transition labels (see the module docstring)


class BoundOut:
    """Output of a private name on `chan`; `binder` is the extruded name."""

    __slots__ = ("chan", "binder", "_hash")

    def __init__(self, chan: Name, binder: Name):
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "_hash", hash(("abo", chan, binder)))

    def __eq__(self, other):
        return (
            type(other) is BoundOut
            and self.chan == other.chan
            and self.binder == other.binder
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"BoundOut({self.chan!r}, {self.binder!r})"


class In:
    """Reception of the concrete name `datum` on channel `chan`."""

    __slots__ = ("chan", "datum", "_hash")

    def __init__(self, chan: Name, datum: Name):
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "_hash", hash(("ain", chan, datum)))

    def __eq__(self, other):
        return (
            type(other) is In
            and self.chan == other.chan
            and self.datum == other.datum
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"In({self.chan!r}, {self.datum!r})"


# `|`, not `typing.Union`: Union caches its arguments, so every fresh
# import of this module would stay alive.
Action = Output | Tau | In | BoundOut

FreeOut = Output
TauAction = Tau
TAU_ACT = TAU


# --------------------------------------------------------------------------
# Name analysis


def _prefix_free_names(pi: Prefix) -> tuple[frozenset[Name], Optional[Name]]:
    """Free names of a prefix and its binder (None when it has none)."""
    free: set[Name] = set()
    binder = None
    while isinstance(pi, Match):
        free.add(pi.lhs)
        free.add(pi.rhs)
        pi = pi.inner
    if isinstance(pi, Output):
        free.add(pi.chan)
        free.add(pi.datum)
    elif isinstance(pi, Input):
        free.add(pi.chan)
        binder = pi.binder
    return frozenset(free), binder


def _prefix_binder(pi: Prefix) -> Optional[Name]:
    """The name a prefix binds in its continuation, or None."""
    while isinstance(pi, Match):
        pi = pi.inner
    return pi.binder if isinstance(pi, Input) else None


def free_names(p: Process) -> frozenset[Name]:
    """Names with at least one occurrence not captured by an enclosing binder."""
    fn = p._fn
    if fn is None:
        _annotate(p)
        fn = p._fn
    return fn


_fn_table: dict = {}


def _annotate(p: Process) -> None:
    """Cache the free names and the level tag of `p` and of every node
    under it that lacks them; the two are set together.

    Free-name sets are shared: each new set is stored through
    `_fn_table`, so equal sets are one object (a sweep's tens of thousands
    of nodes have a few dozen distinct sets), and a node whose set equals
    a child's takes the child's.  `clear_hashcons` empties the table.

    Post-order on an explicit stack: a node is computed once its children
    are, so deep terms need no deep recursion.
    """
    shared = _fn_table
    stack = [p]
    while stack:
        t = stack[-1]
        cls = type(t)
        if cls is Prefixed:
            cont = t.cont
            fn = cont._fn
            if fn is None:
                stack.append(cont)
                continue
            pi, tag = t.prefix, cont._lv
            if type(pi) is Output:
                if pi.chan not in fn or pi.datum not in fn:
                    fn = fn | {pi.chan, pi.datum}
            elif type(pi) is Input:
                if pi.binder in fn or pi.chan not in fn:
                    fn = (fn - {pi.binder}) | {pi.chan}
                tag = _bind_level(pi.binder, tag)
            elif type(pi) is Match:
                pre_free, binder = _prefix_free_names(pi)
                if binder is not None:
                    fn = fn - {binder}
                    tag = _bind_level(binder, tag)
                fn = pre_free | fn
        elif cls is Sum or cls is Par:
            left, right = t.left, t.right
            if left._fn is None or right._fn is None:
                if left._fn is None:
                    stack.append(left)
                if right._fn is None:
                    stack.append(right)
                continue
            fn = left._fn
            if right._fn is not fn:
                fn = fn | right._fn
            tag = left._lv
            if right._lv != tag:
                tag = _join_levels(tag, right._lv)
        elif cls is Restrict or cls is Repl:
            body = t.body
            fn = body._fn
            if fn is None:
                stack.append(body)
                continue
            tag = body._lv
            if cls is Restrict:
                if t.binder in fn:
                    fn = fn - {t.binder}
                tag = _bind_level(t.binder, tag)
        else:
            raise TypeError(f"not a process: {t!r}")
        object.__setattr__(t, "_fn", shared.setdefault(fn, fn))
        object.__setattr__(t, "_lv", tag)
        stack.pop()


def bound_names(p: Process) -> frozenset[Name]:
    """Names occurring in binder position (restriction or input)."""
    out: set[Name] = set()
    stack = [p]
    while stack:
        t = stack.pop()
        if isinstance(t, Prefixed):
            binder = _prefix_binder(t.prefix)
            if binder is not None:
                out.add(binder)
            stack.append(t.cont)
        elif isinstance(t, (Sum, Par)):
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, Restrict):
            out.add(t.binder)
            stack.append(t.body)
        elif isinstance(t, Repl):
            stack.append(t.body)
    return frozenset(out)


def names(p: Process) -> frozenset[Name]:
    return free_names(p) | bound_names(p)


# --------------------------------------------------------------------------
# Structural accounting


def term_size(p: Process) -> int:
    """Operator count: every constructor, prefix, and guard counts one."""
    n = 0
    for t in subterms(p):
        n += 1
        if isinstance(t, Prefixed):
            pi = t.prefix
            while isinstance(pi, Match):
                n += 1
                pi = pi.inner
    return n


def prefix_count(p: Process) -> int:
    """Number of basic prefix occurrences (guards not counted)."""
    return sum(isinstance(t, Prefixed) for t in subterms(p))


def binder_count(p: Process) -> int:
    """Total number of binder occurrences (inputs and restrictions)."""
    n = 0
    for t in subterms(p):
        if isinstance(t, Restrict):
            n += 1
        elif isinstance(t, Prefixed) and _prefix_binder(t.prefix) is not None:
            n += 1
    return n


def is_replication_free(p: Process) -> bool:
    """True iff no replication node occurs anywhere in the term."""
    stack = [p]
    while stack:
        t = stack.pop()
        if isinstance(t, Repl):
            return False
        if isinstance(t, Prefixed):
            stack.append(t.cont)
        elif isinstance(t, (Sum, Par)):
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, Restrict):
            stack.append(t.body)
    return True


def subterms(p: Process) -> Iterator[Process]:
    stack = [p]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, Prefixed):
            stack.append(t.cont)
        elif isinstance(t, (Sum, Par)):
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, (Restrict, Repl)):
            stack.append(t.body)


def _is_summation(p: Process) -> bool:
    return isinstance(p, (Nil, Prefixed, Sum))


def validate(p: Process) -> None:
    """Check the two-level grammar; raise MalformedSum naming the violation.

    Sum children must themselves be summations (0, prefixed, or sums);
    anything else (parallel, restriction, replication) under + is rejected.
    """
    for t in subterms(p):
        if isinstance(t, Sum):
            for child in (t.left, t.right):
                if not _is_summation(child):
                    raise MalformedSum(
                        f"summation has non-summation child {child!r}",
                        subterm=child,
                    )
        elif not isinstance(t, (Nil, Prefixed, Par, Restrict, Repl)):
            raise MalformedSum(f"not a process node: {t!r}", subterm=t)


# --------------------------------------------------------------------------
# Substitution and alpha-canonical form


def substitute(p: Process, new: Name, old: Name) -> Process:
    """Replace every free occurrence of `old` by `new`, avoiding capture.

    One level walk (`_level_walk`) seeded with the renaming: every binder
    takes its level name, skipping the result's free names, so no binder
    can capture `new`.  The output is therefore level-named, alpha-
    equivalent to any capture-avoiding substitution, and shares every
    subtree that neither mentions `old` nor needs renaming.  `p` itself
    when `old` is not free in it.
    """
    if old == new or old not in free_names(p):
        return p
    return _level_walk(p, (free_names(p) - {old}) | {new}, {old: new})


# Level naming.  A binder under d enclosing binders takes the d-th
# canonical name not in the avoided set, so a subterm's canonical spelling
# depends only on its depth: the factors and summands of a canonical term
# are canonical themselves, and a step that leaves binders at their
# depth leaves its successor canonical.
#
# Each node caches a level tag in `_lv`: the depth d at which its binders
# are level-named (its outermost binders are v{d}, those under them
# v{d+1}, ...), _NO_BINDERS, or _UNLEVELLED.  `_annotate` sets it with the
# node's free names, from its children's, so tagging costs one step per
# new node.

# The first level names with their levels.  Tags count only binders
# named from this table, so every binder of a tagged node is a key here:
# a node tagged 0 is its own canonical form whenever no key is free in it
# or avoided.  A term nested deeper is canonicalized by a walk.
_LEVELS: dict[Name, int] = {canonical_binder(i): i for i in range(128)}


def level_names(taken) -> Iterator[Name]:
    """v0, v1, ... without the names in `taken`: in a term whose free and
    avoided names are `taken`, the d-th is the canonical name of a binder
    under d enclosing binders."""
    i = 0
    while True:
        name = canonical_binder(i)
        if name not in taken:
            yield name
        i += 1


def _bind_level(binder: Name, inner: int) -> int:
    """Tag of a binder node whose scope is tagged `inner`."""
    d = _LEVELS.get(binder)
    if d is not None and (inner == d + 1 or inner == _NO_BINDERS):
        return d
    return _UNLEVELLED


def _join_levels(left: int, right: int) -> int:
    """Tag of a sum or parallel composition of parts tagged `left` and
    `right`."""
    if right == left or right == _NO_BINDERS:
        return left
    if left == _NO_BINDERS:
        return right
    return _UNLEVELLED


def _level_walk(
    p: Process, taken: frozenset[Name], env: dict[Name, Name]
) -> Process:
    """Rename every binder of `p` to its level name, skipping `taken`, and
    every free name that is a key of `env` to its value.

    A node whose binder keeps its name and whose children come back
    unchanged is returned as is.  `env` starts as the free-name renaming
    (empty for a canonical form, `{old: new}` for a substitution); the
    walk adds the bound names in scope with their new names, and it holds
    no name that keeps its own.  `taken` must hold every free name of the
    result, so no binder captures a renamed occurrence.  A subtree
    already level-named at its depth, none of whose free names is
    renamed, is returned without a visit when its level names are the
    ones this walk hands out: no name below its depth was skipped, and
    its own binders' names (all in `_LEVELS`) are not taken.  Iterative:
    visits and rebuilds (marked by depth -1) wait on one stack, finished
    subtrees on another.
    """
    names: list[Name] = []
    supply = level_names(taken)
    unskipped = 0  # names[:unskipped] are v0, v1, ...

    def name_at(depth: int) -> Name:
        nonlocal unskipped
        while len(names) <= depth:
            name = next(supply)
            if unskipped == len(names) and name == canonical_binder(unskipped):
                unskipped += 1
            names.append(name)
        return names[depth]

    levels_free = _LEVELS.keys().isdisjoint(taken)
    done: list[Process] = []
    todo: list = [(p, 0, env)]
    while todo:
        t, depth, env = todo.pop()
        if depth < 0:
            # A rebuild: `env` holds the node's new binder or prefix.
            cls = type(t)
            if cls is Sum or cls is Par:
                right = done.pop()
                left = done.pop()
                if left is not t.left or right is not t.right:
                    t = cls(left, right)
            elif cls is Prefixed:
                cont = done.pop()
                if env is not t.prefix or cont is not t.cont:
                    t = Prefixed(env, cont)
            elif cls is Restrict:
                body = done.pop()
                if env != t.binder or body is not t.body:
                    t = Restrict(env, body)
            else:
                body = done.pop()
                if body is not t.body:
                    t = Repl(body)
            done.append(t)
            continue
        if t._fn is None:
            _annotate(t)
        tag = t._lv
        if tag == _NO_BINDERS or (tag == depth and levels_free and unskipped >= depth):
            if not env or env.keys().isdisjoint(t._fn):
                done.append(t)
                continue
        cls = type(t)
        if cls is Prefixed:
            binder = _prefix_binder(t.prefix)
            if binder is None:
                todo.append((t, -1, _rename_prefix(t.prefix, env, None)))
            else:
                fresh = name_at(depth)
                todo.append((t, -1, _rename_prefix(t.prefix, env, fresh)))
                env = _bind(env, binder, fresh)
                depth += 1
            todo.append((t.cont, depth, env))
        elif cls is Sum or cls is Par:
            todo.append((t, -1, None))
            todo.append((t.right, depth, env))
            todo.append((t.left, depth, env))
        elif cls is Restrict:
            fresh = name_at(depth)
            todo.append((t, -1, fresh))
            todo.append((t.body, depth + 1, _bind(env, t.binder, fresh)))
        elif cls is Repl:
            todo.append((t, -1, None))
            todo.append((t.body, depth, env))
        else:
            done.append(t)
    return done[0]


def _rename_prefix(pi: Prefix, env: dict[Name, Name], fresh: Optional[Name]) -> Prefix:
    """`pi` with its names mapped through `env` and its binder (if any)
    renamed to `fresh`; `pi` itself when nothing changes."""
    guards = []
    while isinstance(pi, Match):
        guards.append(pi)
        pi = pi.inner
    if isinstance(pi, Output):
        chan, datum = env.get(pi.chan, pi.chan), env.get(pi.datum, pi.datum)
        if chan != pi.chan or datum != pi.datum:
            pi = Output(chan, datum)
    elif isinstance(pi, Input):
        chan = env.get(pi.chan, pi.chan)
        if chan != pi.chan or fresh != pi.binder:
            pi = Input(chan, fresh)
    for guard in reversed(guards):
        lhs, rhs = env.get(guard.lhs, guard.lhs), env.get(guard.rhs, guard.rhs)
        if pi is guard.inner and lhs == guard.lhs and rhs == guard.rhs:
            pi = guard
        else:
            pi = Match(lhs, rhs, pi)
    return pi


def _bind(env: dict[Name, Name], binder: Name, fresh: Name) -> dict[Name, Name]:
    """Scope of a binder renamed to `fresh`, given the enclosing `env`."""
    if fresh != binder:
        env = dict(env)
        env[binder] = fresh
    elif binder in env:
        env = dict(env)
        del env[binder]
    return env


def alpha_canonical(p: Process, avoid: frozenset[Name] = frozenset()) -> Process:
    """Deterministic renaming of all binders into the reserved namespace.

    A binder under d enclosing binders is named by its depth: it takes the
    d-th name of v0, v1, ... that is neither free in `p` nor in `avoid`
    (de Bruijn levels).  Alpha-equivalent inputs map to equal outputs,
    free names are left untouched, and canonical binders never shadow
    anything relevant.  Nested binders get distinct names; siblings share
    them, so `a?(x).0 | b?(y).0` becomes `a?(v0).0 | b?(v0).0`.

    The output shares every unchanged subtree with `p`.  An input that is
    already canonical is returned itself: the cached level tags show it
    without a walk, unless a level name is free in `p` or avoided or its
    binders nest deeper than the tags record (then the walk shows it).
    """
    if p._fn is None:
        _annotate(p)
    tag = p._lv
    if tag == _NO_BINDERS:
        return p
    fn = free_names(p)
    if tag == 0 and _LEVELS.keys().isdisjoint(fn) and _LEVELS.keys().isdisjoint(avoid):
        return p
    return _level_walk(p, fn | avoid, {})


_hashcons_table: dict = {}


def hashcons(p: Process) -> Process:
    """Return the shared instance equal to `p`, interning `p` if new.

    Large state sets (term sweeps, transition graphs) hold millions of
    mostly-overlapping trees; interning collapses equal subtrees to one
    object.  A node whose children are already the shared ones is itself
    interned, so nothing is copied.  Equality stays structural: identity
    is only a fast path, and clearing the table changes no comparison.
    """
    table = _hashcons_table
    got = table.get(p)
    if got is not None:
        return got
    # Explicit stacks, so deep terms need no deep recursion: a node is
    # visited (and looked up once), then rebuilt from its children's
    # shared instances, which wait on `done`.
    done: list[Process] = []
    todo: list = [p]
    looked_up = p
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
            else:
                body = done.pop()
                if body is not t.body:
                    t = Restrict(t.binder, body) if cls is Restrict else Repl(body)
            done.append(table.setdefault(t, t))
            continue
        if t is not looked_up:
            got = table.get(t)
            if got is not None:
                done.append(got)
                continue
        cls = type(t)
        if cls is Sum or cls is Par:
            todo += ((t,), t.right, t.left)
        elif cls is Prefixed:
            todo += ((t,), t.cont)
        elif cls is Restrict or cls is Repl:
            todo += ((t,), t.body)
        else:
            done.append(table.setdefault(t, t))
    return done[0]


def clear_hashcons():
    """Empty the interning table and the table of shared free-name sets."""
    _hashcons_table.clear()
    _fn_table.clear()


def alpha_equivalent(p: Process, q: Process) -> bool:
    return alpha_canonical(p) == alpha_canonical(q)
