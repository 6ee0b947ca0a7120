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
