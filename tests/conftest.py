import hypothesis.strategies as st

from piwb.gen import TermGen
from piwb.syntax import TAU, Par, Prefixed, Restrict, Sum


@st.composite
def processes(draw, max_size=8, names=("a", "b", "c"), **kwargs):
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(1, max_size))
    return TermGen(seed, names, **kwargs).term(size)


@st.composite
def process_pairs(draw, max_size=6, names=("a", "b", "c"), **kwargs):
    """Two terms with mutually disjoint binders, per the freshness convention."""
    seed = draw(st.integers(0, 2**32 - 1))
    size = draw(st.integers(1, max_size))
    gen = TermGen(seed, names, **kwargs)
    return gen.term(size), gen.term(size)


def tau_pad(p, rng):
    """Weakly bisimilar copy: internal steps after some prefixes (a.P ~~
    a.tau.P) and possibly one in front of the whole term."""

    def go(t):
        if isinstance(t, Prefixed):
            cont = go(t.cont)
            if rng.random() < 0.5:
                cont = Prefixed(TAU, cont)
            return Prefixed(t.prefix, cont)
        if isinstance(t, (Sum, Par)):
            return type(t)(go(t.left), go(t.right))
        if isinstance(t, Restrict):
            return Restrict(t.binder, go(t.body))
        return t

    q = go(p)
    return Prefixed(TAU, q) if rng.random() < 0.5 else q


def level_canonical(p, avoid=frozenset()):
    """Reference canonical form, rebuilding every node: a binder under d
    enclosing binders is named the d-th of v0, v1, ... that is neither
    free in `p` nor in `avoid`.  Recursive, so for small terms only."""
    from piwb.syntax import (
        Input, Match, Nil, Output, Repl, binder_count, free_names,
    )

    taken = free_names(p) | avoid
    names = []
    i = 0
    while len(names) <= binder_count(p):
        if f"v{i}" not in taken:
            names.append(f"v{i}")
        i += 1

    def prefix(pi, env, depth):
        if isinstance(pi, Match):
            inner, env2, depth2 = prefix(pi.inner, env, depth)
            lhs, rhs = env.get(pi.lhs, pi.lhs), env.get(pi.rhs, pi.rhs)
            return Match(lhs, rhs, inner), env2, depth2
        if isinstance(pi, Output):
            return Output(env.get(pi.chan, pi.chan), env.get(pi.datum, pi.datum)), env, depth
        if isinstance(pi, Input):
            fresh = names[depth]
            return Input(env.get(pi.chan, pi.chan), fresh), {**env, pi.binder: fresh}, depth + 1
        return pi, env, depth

    def walk(t, env, depth):
        if isinstance(t, Nil):
            return t
        if isinstance(t, Prefixed):
            pi, env2, depth2 = prefix(t.prefix, env, depth)
            return Prefixed(pi, walk(t.cont, env2, depth2))
        if isinstance(t, (Sum, Par)):
            return type(t)(walk(t.left, env, depth), walk(t.right, env, depth))
        if isinstance(t, Restrict):
            fresh = names[depth]
            return Restrict(fresh, walk(t.body, {**env, t.binder: fresh}, depth + 1))
        if isinstance(t, Repl):
            return Repl(walk(t.body, env, depth))
        raise TypeError(t)

    return walk(p, {}, 0)
