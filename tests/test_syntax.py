import random

from hypothesis import given
import hypothesis.strategies as st
import pytest

from piwb import (
    MalformedSum,
    NIL,
    Par,
    Prefixed,
    Sum,
    alpha_canonical,
    alpha_equivalent,
    bound_names,
    free_names,
    is_replication_free,
    names,
    parse,
    substitute,
    validate,
)
from piwb.gen import TermGen
from piwb.parser import pretty
from piwb.syntax import (
    Input,
    Match,
    Nil,
    Output,
    Repl,
    Restrict,
    binder_count,
    clear_hashcons,
    hashcons,
    subterms,
)

from conftest import level_canonical, processes


def test_free_names_nil():
    assert free_names(NIL) == frozenset()


def test_free_names_restriction_hides_binder():
    assert free_names(parse("new z.x!z.0")) == {"x"}


def test_free_names_stutter_example():
    # a(x).(x!b + tau.c!b) mentions a, b, c freely; x is bound.
    p = parse("a?(x).(x!b.0 + tau.c!b.0)")
    assert free_names(p) == {"a", "b", "c"}


def test_names_is_union_of_free_and_bound():
    p = parse("new z.(a?(x).x!z.0 | b!c.0)")
    assert names(p) == free_names(p) | bound_names(p)
    assert bound_names(p) == {"z", "x"}


def _occurrence_oracle(p):
    """Single-pass scope-tracking walk, independent of free_names/bound_names."""
    free, bound = set(), set()

    def visit_prefix(pi, scope):
        from piwb.syntax import Input, Match, Output

        while isinstance(pi, Match):
            for n in (pi.lhs, pi.rhs):
                (bound if n in scope else free).add(n)
            pi = pi.inner
        if isinstance(pi, Output):
            for n in (pi.chan, pi.datum):
                (bound if n in scope else free).add(n)
            return None
        if isinstance(pi, Input):
            (bound if pi.chan in scope else free).add(pi.chan)
            bound.add(pi.binder)
            return pi.binder
        return None

    def visit(t, scope):
        from piwb.syntax import Nil, Par, Prefixed, Repl, Restrict, Sum

        if isinstance(t, Nil):
            return
        if isinstance(t, Prefixed):
            binder = visit_prefix(t.prefix, scope)
            visit(t.cont, scope | {binder} if binder else scope)
        elif isinstance(t, (Sum, Par)):
            visit(t.left, scope)
            visit(t.right, scope)
        elif isinstance(t, Restrict):
            bound.add(t.binder)
            visit(t.body, scope | {t.binder})
        elif isinstance(t, Repl):
            visit(t.body, scope)

    visit(p, frozenset())
    return free, bound


@given(processes())
def test_name_sets_against_occurrence_oracle(p):
    free, bound = _occurrence_oracle(p)
    # A name can be both free and bound (different occurrences); free_names
    # must report exactly the ones with an unbound occurrence.
    assert free_names(p) == frozenset(free)
    assert names(p) == frozenset(free) | bound_names(p)


def test_substitute_noncongruence_example():
    p = parse("z!x.0 | a?(y).0")
    assert alpha_equivalent(substitute(p, "a", "z"), parse("a!x.0 | a?(y).0"))


@given(processes())
def test_substitute_identity(p):
    for n in sorted(free_names(p)) or ["a"]:
        assert alpha_equivalent(substitute(p, n, n), p)


def test_substitute_capture_avoidance():
    # new a.(a!z.0) {a/z}: the binder must be renamed, not capture.
    p = Restrict("a", Prefixed(Output("a", "z"), NIL))
    q = substitute(p, "a", "z")
    assert free_names(q) == {"a"}
    # The restricted channel is still distinct from the new free datum.
    assert q.binder != "a"
    assert q.body.prefix.datum == "a"


@given(processes(), st.sampled_from(["a", "b", "c", "d"]))
def test_substitute_free_name_law(p, new):
    for old in sorted(free_names(p)):
        expected = (free_names(p) - {old}) | {new}
        assert free_names(substitute(p, new, old)) == expected


def test_substitute_absent_name_is_identity():
    p = parse("a!b.0")
    assert substitute(p, "x", "q") is p


def test_alpha_canonical_identifies_variants():
    assert alpha_canonical(parse("new z.z!a.0")) == alpha_canonical(parse("new w.w!a.0"))


def test_alpha_canonical_renames_input_binder():
    p = alpha_canonical(parse("a?(x).x!b.0"))
    assert p.prefix.binder == "v0"
    assert free_names(p) == {"a", "b"}


@given(processes())
def test_alpha_canonical_idempotent(p):
    c = alpha_canonical(p)
    assert alpha_canonical(c) == c


@given(processes())
def test_alpha_canonical_preserves_free_names(p):
    assert free_names(alpha_canonical(p)) == free_names(p)


def test_alpha_canonical_skips_colliding_indices():
    # v0 occurs free, so the binder allocator must not reuse it.
    p = parse("new z.z!v0.0")
    c = alpha_canonical(p)
    assert c.binder != "v0"
    assert free_names(c) == {"v0"}


def test_is_replication_free_examples():
    assert is_replication_free(parse("new z.(a!z.0) | a?(x).x!a.0"))
    assert not is_replication_free(parse("new z.(a!z.0) | a?(x).!x!a.0"))
    assert is_replication_free(NIL)


def test_validate_rejects_parallel_under_sum():
    bad = Sum(Par(NIL, NIL), NIL)
    with pytest.raises(MalformedSum):
        validate(bad)


def test_validate_accepts_sum_of_prefixes():
    validate(parse("z!x.a?(y).0 + a?(y).z!x.0"))
    validate(NIL)


@given(processes())
def test_generated_terms_validate(p):
    validate(p)


@given(processes())
def test_generated_terms_replication_free(p):
    assert is_replication_free(p)


@given(processes())
def test_generator_respects_freshness_convention(p):
    # every binder is distinct from every other binder and free name
    binders = []
    for t in subterms(p):
        if isinstance(t, Restrict):
            binders.append(t.binder)
        if isinstance(t, Prefixed):
            pi = t.prefix
            from piwb.syntax import Match

            while isinstance(pi, Match):
                pi = pi.inner
            if isinstance(pi, Input):
                binders.append(pi.binder)
    assert len(binders) == len(set(binders))
    assert not (set(binders) & free_names(p))


_AVOID = frozenset({"v0", "v2", "w0"})

# Binders named like canonical ones, some shadowing others, so that
# binders keeping their name and binders renamed under them both occur.
_SHADOWING = [
    "new v1.new v0.v1!v0.0",
    "new x.new x.x!a.0",
    "new v1.new v1.v1!a.0",
    "a?(v0).new v0.(v0!a.0 | a?(v1).v1!v0.0)",
    "new v0.(a?(v0).v0!b.0 | v0!a.0)",
    "[a=a]b?(v1).[v1=b]v1!v1.0 + tau.0 | !tau.0",
]


def _sample_terms():
    """300 generated terms of sizes 3-7 over {a, b, c}, half of them with
    binders drawn from the canonical namespace, plus hand-made ones."""
    plain = TermGen(11, ("a", "b", "c"))
    canonical_like = TermGen(12, ("a", "b", "c"), binder_prefix="v")
    terms = []
    for i in range(150):
        terms.append(plain.term(3 + i % 5))
        terms.append(canonical_like.term(3 + i % 5))
    return terms + [parse(text) for text in _SHADOWING]


def _rename_binders(p, rng):
    """Alpha-variant of `p`: every binder gets a distinct new name, some
    of them canonical-looking, none free in `p`."""
    pool = [n for n in [f"r{i}" for i in range(60)] + [f"v{i}" for i in range(60)]
            if n not in free_names(p)]
    fresh = iter(rng.sample(pool, binder_count(p)))

    def prefix(pi, env):
        if isinstance(pi, Match):
            inner, env2 = prefix(pi.inner, env)
            return Match(env.get(pi.lhs, pi.lhs), env.get(pi.rhs, pi.rhs), inner), env2
        if isinstance(pi, Output):
            return Output(env.get(pi.chan, pi.chan), env.get(pi.datum, pi.datum)), env
        if isinstance(pi, Input):
            name = next(fresh)
            return Input(env.get(pi.chan, pi.chan), name), {**env, pi.binder: name}
        return pi, env

    def walk(t, env):
        if isinstance(t, Prefixed):
            pi, env2 = prefix(t.prefix, env)
            return Prefixed(pi, walk(t.cont, env2))
        if isinstance(t, (Sum, Par)):
            return type(t)(walk(t.left, env), walk(t.right, env))
        if isinstance(t, Restrict):
            name = next(fresh)
            return Restrict(name, walk(t.body, {**env, t.binder: name}))
        if isinstance(t, Repl):
            return Repl(walk(t.body, env))
        return t

    return walk(p, {})


def test_alpha_canonical_matches_full_rebuild():
    rng = random.Random(7)
    for p in _sample_terms():
        for avoid in (frozenset(), _AVOID):
            got = alpha_canonical(p, avoid=avoid)
            want = level_canonical(p, avoid)
            assert got == want
            assert pretty(got) == pretty(want)
            # Idempotent, and blind to how the binders were named.
            assert alpha_canonical(got, avoid=avoid) == got
            for _ in range(3):
                assert alpha_canonical(_rename_binders(p, rng), avoid=avoid) == got


def test_siblings_share_level_names_and_nested_binders_do_not():
    assert pretty(parse("a?(x).0 | b?(y).0")) == "a?(v0).0 | b?(v0).0"
    assert pretty(parse("new z.(a?(x).x!z.0 + b?(y).y!z.0)")) == (
        "new v0.(a?(v1).v1!v0.0 + b?(v1).v1!v0.0)"
    )
    assert pretty(parse("a?(x).new y.b?(z).x!y.z!a.0")) == (
        "a?(v0).new v1.b?(v2).v0!v1.v2!a.0"
    )
    # A free v0 is skipped at every depth.
    assert pretty(parse("a?(x).(x!v0.0 | new y.y!x.0)")) == (
        "a?(v1).(v1!v0.0 | new v2.v2!v1.0)"
    )


def test_alpha_canonical_of_deep_input_chain():
    # 3,000 nested inputs with user names, each sending on the previous
    # binder: the walk and the name analysis take no frame per level.
    chain = NIL
    for i in reversed(range(3000)):
        chain = Prefixed(Input(f"x{i - 1}" if i else "a", f"x{i}"), chain)
    c = alpha_canonical(chain)
    assert alpha_canonical(c) is c
    assert free_names(c) == {"a"}
    t, depth = c, 0
    while isinstance(t, Prefixed):
        assert t.prefix == Input(f"v{depth - 1}" if depth else "a", f"v{depth}")
        t, depth = t.cont, depth + 1
    assert depth == 3000


def test_alpha_canonical_returns_canonical_input_itself():
    for p in _sample_terms():
        for avoid in (frozenset(), _AVOID):
            c = alpha_canonical(p, avoid=avoid)
            assert alpha_canonical(c, avoid=avoid) is c


def test_alpha_canonical_shares_unchanged_subtrees():
    p = parse("new z.z!a.0 | (b!c.0 + tau.0)")
    c = alpha_canonical(p)
    assert c.left.binder == "v0" and c.left is not p.left
    assert c.right is p.right


def test_hashcons_interns_new_terms_without_copying():
    text = "a!b.0 | new z.(z!a.0 + tau.0)"
    clear_hashcons()
    p = parse(text)
    assert hashcons(p) is p
    assert all(hashcons(t) is t for t in subterms(p))
    q = parse(text)
    assert q is not p and hashcons(q) is p
    clear_hashcons()
