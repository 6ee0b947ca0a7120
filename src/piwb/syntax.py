"""Process terms, actions, name binding, and capture-avoiding substitution.

Terms are immutable and hashable; all operations here are pure.  Bound
names are ordinary strings: alpha_canonical renames every binder into the
reserved indexed namespace ``v0, v1, ...`` (skipping indices that would
collide with free names) so that alpha-equivalent terms become equal.

Terms share structure.  alpha_canonical and substitute return the input
node itself wherever nothing under it changes, and hashcons interns
terms so that equal subtrees become one object.  Equality is structural
throughout; `self is other` is only its fast path, so no result depends
on whether two equal terms were interned.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .errors import MalformedSum

Name = str

_CANON_BINDER = "v"


def canonical_binder(i: int) -> Name:
    return f"{_CANON_BINDER}{i}"


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
    __slots__ = ("_hash", "_fn")

    def __hash__(self):
        return self._hash


class Nil(Process):
    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("nil-process"))
        object.__setattr__(self, "_fn", frozenset())

    def __eq__(self, other):
        return type(other) is Nil

    __hash__ = Process.__hash__

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

    def __eq__(self, other):
        return self is other or (
            type(other) is Prefixed
            and self._hash == other._hash
            and self.prefix == other.prefix
            and self.cont == other.cont
        )

    __hash__ = Process.__hash__

    def __repr__(self):
        return f"Prefixed({self.prefix!r}, {self.cont!r})"


class Sum(Process):
    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("sum", left._hash, right._hash)))
        object.__setattr__(self, "_fn", None)

    def __eq__(self, other):
        return self is other or (
            type(other) is Sum
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Process.__hash__

    def __repr__(self):
        return f"Sum({self.left!r}, {self.right!r})"


class Par(Process):
    __slots__ = ("left", "right")

    def __init__(self, left: Process, right: Process):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("par", left._hash, right._hash)))
        object.__setattr__(self, "_fn", None)

    def __eq__(self, other):
        return self is other or (
            type(other) is Par
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = Process.__hash__

    def __repr__(self):
        return f"Par({self.left!r}, {self.right!r})"


class Restrict(Process):
    __slots__ = ("binder", "body")

    def __init__(self, binder: Name, body: Process):
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(("res", binder, body._hash)))
        object.__setattr__(self, "_fn", None)

    def __eq__(self, other):
        return self is other or (
            type(other) is Restrict
            and self._hash == other._hash
            and self.binder == other.binder
            and self.body == other.body
        )

    __hash__ = Process.__hash__

    def __repr__(self):
        return f"Restrict({self.binder!r}, {self.body!r})"


class Repl(Process):
    __slots__ = ("body",)

    def __init__(self, body: Process):
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash(("repl", body._hash)))
        object.__setattr__(self, "_fn", None)

    def __eq__(self, other):
        return self is other or (type(other) is Repl and self.body == other.body)

    __hash__ = Process.__hash__

    def __repr__(self):
        return f"Repl({self.body!r})"


# --------------------------------------------------------------------------
# Actions (transition labels)


class Action:
    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash


class FreeOut(Action):
    """Output of the free name `datum` on channel `chan`."""

    __slots__ = ("chan", "datum")

    def __init__(self, chan: Name, datum: Name):
        object.__setattr__(self, "chan", chan)
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "_hash", hash(("afo", chan, datum)))

    def __eq__(self, other):
        return (
            type(other) is FreeOut
            and self.chan == other.chan
            and self.datum == other.datum
        )

    __hash__ = Action.__hash__

    def __repr__(self):
        return f"FreeOut({self.chan!r}, {self.datum!r})"


class BoundOut(Action):
    """Output of a private name on `chan`; `binder` is the extruded name."""

    __slots__ = ("chan", "binder")

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

    __hash__ = Action.__hash__

    def __repr__(self):
        return f"BoundOut({self.chan!r}, {self.binder!r})"


class In(Action):
    """Reception of the concrete name `datum` on channel `chan`."""

    __slots__ = ("chan", "datum")

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

    __hash__ = Action.__hash__

    def __repr__(self):
        return f"In({self.chan!r}, {self.datum!r})"


class TauAction(Action):
    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash("tau-action"))

    def __eq__(self, other):
        return type(other) is TauAction

    __hash__ = Action.__hash__

    def __repr__(self):
        return "TauAction"


TAU_ACT = TauAction()


def action_names(a: Action) -> frozenset[Name]:
    """All names mentioned by an action, bound or free."""
    if isinstance(a, FreeOut):
        return frozenset((a.chan, a.datum))
    if isinstance(a, BoundOut):
        return frozenset((a.chan, a.binder))
    if isinstance(a, In):
        return frozenset((a.chan, a.datum))
    return frozenset()


def action_bound_names(a: Action) -> frozenset[Name]:
    if isinstance(a, BoundOut):
        return frozenset((a.binder,))
    return frozenset()


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


def free_names(p: Process) -> frozenset[Name]:
    """Names with at least one occurrence not captured by an enclosing binder."""
    cached = p._fn
    if cached is not None:
        return cached
    if isinstance(p, Prefixed):
        pre_free, binder = _prefix_free_names(p.prefix)
        inner = free_names(p.cont)
        if binder is not None:
            inner = inner - {binder}
        fn = pre_free | inner
    elif isinstance(p, (Sum, Par)):
        fn = free_names(p.left) | free_names(p.right)
    elif isinstance(p, Restrict):
        fn = free_names(p.body) - {p.binder}
    elif isinstance(p, Repl):
        fn = free_names(p.body)
    else:
        raise TypeError(f"not a process: {p!r}")
    object.__setattr__(p, "_fn", fn)
    return fn


def bound_names(p: Process) -> frozenset[Name]:
    """Names occurring in binder position (restriction or input)."""
    out: set[Name] = set()
    stack = [p]
    while stack:
        t = stack.pop()
        if isinstance(t, Prefixed):
            _, binder = _prefix_free_names(t.prefix)
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
    if isinstance(p, Nil):
        return 1
    if isinstance(p, Prefixed):
        n = 1
        pi = p.prefix
        while isinstance(pi, Match):
            n += 1
            pi = pi.inner
        return n + term_size(p.cont)
    if isinstance(p, (Sum, Par)):
        return 1 + term_size(p.left) + term_size(p.right)
    if isinstance(p, (Restrict, Repl)):
        return 1 + term_size(p.body)
    raise TypeError(f"not a process: {p!r}")


def prefix_count(p: Process) -> int:
    """Number of basic prefix occurrences (guards not counted)."""
    if isinstance(p, Nil):
        return 0
    if isinstance(p, Prefixed):
        return 1 + prefix_count(p.cont)
    if isinstance(p, (Sum, Par)):
        return prefix_count(p.left) + prefix_count(p.right)
    if isinstance(p, (Restrict, Repl)):
        return prefix_count(p.body)
    raise TypeError(f"not a process: {p!r}")


def input_nesting(p: Process) -> int:
    """Maximum number of input binders along any root-to-leaf path."""
    if isinstance(p, Nil):
        return 0
    if isinstance(p, Prefixed):
        _, binder = _prefix_free_names(p.prefix)
        return (1 if binder is not None else 0) + input_nesting(p.cont)
    if isinstance(p, (Sum, Par)):
        return max(input_nesting(p.left), input_nesting(p.right))
    if isinstance(p, (Restrict, Repl)):
        return input_nesting(p.body)
    raise TypeError(f"not a process: {p!r}")


def binder_count(p: Process) -> int:
    """Total number of binder occurrences (inputs and restrictions)."""
    if isinstance(p, Nil):
        return 0
    if isinstance(p, Prefixed):
        _, binder = _prefix_free_names(p.prefix)
        return (1 if binder is not None else 0) + binder_count(p.cont)
    if isinstance(p, (Sum, Par)):
        return binder_count(p.left) + binder_count(p.right)
    if isinstance(p, (Restrict, Repl)):
        return 1 + binder_count(p.body)
    raise TypeError(f"not a process: {p!r}")


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


def _fresh_name(avoid: set[Name]) -> Name:
    i = 0
    while canonical_binder(i) in avoid:
        i += 1
    return canonical_binder(i)


def _subst_prefix(pi: Prefix, new: Name, old: Name):
    """Substitute in a prefix; returns (prefix-rebuilder, binder, core)."""
    guards = []
    while isinstance(pi, Match):
        guards.append(
            (
                new if pi.lhs == old else pi.lhs,
                new if pi.rhs == old else pi.rhs,
            )
        )
        pi = pi.inner
    return guards, pi


def _rebuild_prefix(guards, core: Prefix) -> Prefix:
    for lhs, rhs in reversed(guards):
        core = Match(lhs, rhs, core)
    return core


def substitute(p: Process, new: Name, old: Name) -> Process:
    """Replace every free occurrence of `old` by `new`, avoiding capture.

    Binders named `new` are renamed apart before descending so that no
    substituted occurrence becomes bound.
    """
    if old == new or old not in free_names(p):
        return p
    if isinstance(p, Prefixed):
        guards, core = _subst_prefix(p.prefix, new, old)
        if isinstance(core, Output):
            core2 = Output(
                new if core.chan == old else core.chan,
                new if core.datum == old else core.datum,
            )
            return Prefixed(_rebuild_prefix(guards, core2), substitute(p.cont, new, old))
        if isinstance(core, Input):
            chan = new if core.chan == old else core.chan
            binder, cont = core.binder, p.cont
            if binder == old:
                # old is re-bound below; only the channel position is free.
                return Prefixed(_rebuild_prefix(guards, Input(chan, binder)), cont)
            if binder == new and old in free_names(cont):
                fresh = _fresh_name(set(free_names(cont)) | {new, old})
                cont = substitute(cont, fresh, binder)
                binder = fresh
            return Prefixed(
                _rebuild_prefix(guards, Input(chan, binder)),
                substitute(cont, new, old),
            )
        return Prefixed(_rebuild_prefix(guards, core), substitute(p.cont, new, old))
    if isinstance(p, Sum):
        return Sum(substitute(p.left, new, old), substitute(p.right, new, old))
    if isinstance(p, Par):
        return Par(substitute(p.left, new, old), substitute(p.right, new, old))
    if isinstance(p, Restrict):
        binder, body = p.binder, p.body
        if binder == old:
            return p
        if binder == new and old in free_names(body):
            fresh = _fresh_name(set(free_names(body)) | {new, old})
            body = substitute(body, fresh, binder)
            binder = fresh
        return Restrict(binder, substitute(body, new, old))
    if isinstance(p, Repl):
        return Repl(substitute(p.body, new, old))
    raise TypeError(f"not a process: {p!r}")


class _Canonizer:
    """Renames binders to v0, v1, ... in traversal order, skipping `avoid`.

    A node whose binder keeps its name and whose children come back
    unchanged is returned as is, so new nodes are allocated only along
    paths that actually change.  `env` maps the bound names in scope to
    their new names and holds no name that keeps its own.
    """

    def __init__(self, avoid: frozenset[Name]):
        self.avoid = avoid
        self.next_index = 0

    def allocate(self) -> Name:
        while True:
            name = canonical_binder(self.next_index)
            self.next_index += 1
            if name not in self.avoid:
                return name

    def bind(self, binder: Name, env: dict[Name, Name]):
        """Allocate the canonical name for `binder`: (name, inner env)."""
        fresh = self.allocate()
        if fresh != binder:
            env = dict(env)
            env[binder] = fresh
        elif binder in env:
            env = dict(env)
            del env[binder]
        return fresh, env

    def walk(self, p: Process, env: dict[Name, Name]) -> Process:
        if isinstance(p, Nil):
            return p
        if isinstance(p, Prefixed):
            pi, env2 = self.walk_prefix(p.prefix, env)
            cont = self.walk(p.cont, env2)
            if pi is p.prefix and cont is p.cont:
                return p
            return Prefixed(pi, cont)
        if isinstance(p, (Sum, Par)):
            left = self.walk(p.left, env)
            right = self.walk(p.right, env)
            if left is p.left and right is p.right:
                return p
            return type(p)(left, right)
        if isinstance(p, Restrict):
            fresh, env2 = self.bind(p.binder, env)
            body = self.walk(p.body, env2)
            if fresh == p.binder and body is p.body:
                return p
            return Restrict(fresh, body)
        if isinstance(p, Repl):
            body = self.walk(p.body, env)
            return p if body is p.body else Repl(body)
        raise TypeError(f"not a process: {p!r}")

    def walk_prefix(self, pi: Prefix, env: dict[Name, Name]):
        if isinstance(pi, Match):
            inner, env2 = self.walk_prefix(pi.inner, env)
            lhs = env.get(pi.lhs, pi.lhs)
            rhs = env.get(pi.rhs, pi.rhs)
            if inner is pi.inner and lhs == pi.lhs and rhs == pi.rhs:
                return pi, env2
            return Match(lhs, rhs, inner), env2
        if isinstance(pi, Output):
            chan = env.get(pi.chan, pi.chan)
            datum = env.get(pi.datum, pi.datum)
            if chan == pi.chan and datum == pi.datum:
                return pi, env
            return Output(chan, datum), env
        if isinstance(pi, Input):
            chan = env.get(pi.chan, pi.chan)
            fresh, env2 = self.bind(pi.binder, env)
            if chan == pi.chan and fresh == pi.binder:
                return pi, env2
            return Input(chan, fresh), env2
        return pi, env


def alpha_canonical(p: Process, avoid: frozenset[Name] = frozenset()) -> Process:
    """Deterministic renaming of all binders into the reserved namespace.

    Alpha-equivalent inputs map to equal outputs; free names are left
    untouched.  Indices colliding with free names of `p` or with `avoid`
    are skipped, so canonical binders never shadow anything relevant.
    The output shares every unchanged subtree with `p`, and an input that
    is already canonical is returned itself.
    """
    return _Canonizer(free_names(p) | avoid).walk(p, {})


_hashcons_table: dict = {}


def hashcons(p: Process) -> Process:
    """Return the shared instance equal to `p`, interning `p` if new.

    Large state sets (term sweeps, transition graphs) hold millions of
    mostly-overlapping trees; interning collapses equal subtrees to one
    object.  A node whose children are already the shared ones is itself
    interned, so nothing is copied.  Equality stays structural: identity
    is only a fast path, and clearing the table changes no comparison.
    """
    got = _hashcons_table.get(p)
    if got is not None:
        return got
    if isinstance(p, Prefixed):
        cont = hashcons(p.cont)
        if cont is not p.cont:
            p = Prefixed(p.prefix, cont)
    elif isinstance(p, (Sum, Par)):
        left, right = hashcons(p.left), hashcons(p.right)
        if left is not p.left or right is not p.right:
            p = type(p)(left, right)
    elif isinstance(p, Restrict):
        body = hashcons(p.body)
        if body is not p.body:
            p = Restrict(p.binder, body)
    elif isinstance(p, Repl):
        body = hashcons(p.body)
        if body is not p.body:
            p = Repl(body)
    _hashcons_table[p] = p
    return p


def clear_hashcons():
    _hashcons_table.clear()


def alpha_equivalent(p: Process, q: Process) -> bool:
    return alpha_canonical(p) == alpha_canonical(q)
