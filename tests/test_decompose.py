from functools import lru_cache
import random
import time

from hypothesis import example, given, settings
import pytest

from piwb import (
    Aborted,
    NIL,
    NameUniverse,
    Par,
    STRONG,
    WEAK,
    alpha_canonical,
    alpha_equivalent,
    bisim,
    decomposition,
    find_split,
    multiset_eq_mod_bisim,
    parse,
    pretty,
    scope_narrow,
    strong_bisim,
    upd_sweep,
    verify_upd,
)
from piwb import decompose, semantics, syntax
from piwb.decompose import (
    BehaviorIndex,
    Decomposition,
    NO_SPLIT,
    SplitFound,
    SweepReport,
    TermUniverse,
    _Sweep,
    _factor_classes,
    _widened,
    _without_dead_guards,
    parallel_factors,
)
from piwb.equivalence import naive_bisim_oracle
from piwb.gen import TermGen
from piwb.normalize import expand_hnf
from piwb.semantics import start_index

from conftest import level_canonical, processes, tau_pad


def test_scope_narrow_unused_binder_on_par():
    got = scope_narrow(parse("new z.(0 | z!a.0)"))
    assert alpha_equivalent(got, parse("0 | new z.z!a.0"))


def test_scope_narrow_keeps_left_occupied_restriction():
    p = parse("new z.(a!z.0 | a?(x).0)")
    assert alpha_equivalent(scope_narrow(p), p)


def test_scope_narrow_drops_unused():
    assert scope_narrow(parse("new z.x!y.0")) == parse("x!y.0")


def test_scope_narrow_swap_enables_push():
    # The outer binder dives under the inner one to reach its factor.
    got = scope_narrow(parse("new z.new w.(w!a.0 | z!b.0)"))
    assert alpha_equivalent(got, parse("new w.(w!a.0 | new z.z!b.0)"))


@given(processes(max_size=10))
@example(parse("new x.new y.y!x.0"))
@settings(max_examples=200, deadline=None)
def test_scope_narrow_idempotent(p):
    once = scope_narrow(p)
    assert scope_narrow(once) == once


@given(processes(max_size=6))
@settings(max_examples=50, deadline=None)
def test_scope_narrow_preserves_strong_bisimilarity(p):
    q = scope_narrow(p)
    u = NameUniverse.for_terms(p, q)
    assert strong_bisim(p, q, u)[0]


def test_term_universe_exhaustive_small():
    tu = TermUniverse(["a"], 2)
    got = {pretty(t) for t in tu.enumerate()}
    assert got == {"0", "a!a.0", "a?(v0).0", "tau.0", "new v0.0"}


def test_term_universe_deterministic():
    tu1 = list(TermUniverse(["a", "b"], 3).enumerate())
    tu2 = list(TermUniverse(["a", "b"], 3).enumerate())
    assert tu1 == tu2


def test_term_universe_sizes_monotone():
    from piwb import term_size

    for t in TermUniverse(["a"], 4).enumerate():
        assert term_size(t) <= 4


def _grammar_count(n_names: int, max_size: int) -> int:
    """Terms of at most `max_size` operators over `n_names` names, counted
    from `TermUniverse`'s grammar without enumerating: a process is a
    summation, two processes in parallel or a restriction of one; a
    summation is 0, a prefixed process or a sum of two summations; a
    prefix of k operators is k - 1 guards over a basic prefix.  With m
    names in scope, free or bound, there are m * m guards and m * m
    outputs, m inputs (which bind one more name) and tau, so only the
    number of binders in scope matters."""

    @lru_cache(maxsize=None)
    def processes(size, bound):
        got = summations(size, bound)
        if size >= 2:
            got += processes(size - 1, bound + 1)
        return got + sum(
            processes(a, bound) * processes(size - 1 - a, bound) for a in range(1, size - 1)
        )

    @lru_cache(maxsize=None)
    def summations(size, bound):
        m = n_names + bound
        got = int(size == 1)
        for k in range(1, size):
            conts = (m * m + 1) * processes(size - k, bound) + m * processes(size - k, bound + 1)
            got += (m * m) ** (k - 1) * conts
        return got + sum(
            summations(a, bound) * summations(size - 1 - a, bound) for a in range(1, size - 1)
        )

    return sum(processes(size, 0) for size in range(1, max_size + 1))


def test_term_universe_count_follows_its_grammar():
    for names, want in ((["a"], 349), (["a", "b"], 2_136), (["a", "b", "c"], 10_281)):
        assert _grammar_count(len(names), 4) == TermUniverse(names, 4).count() == want
    # The sweeps' pinned term counts, too large to enumerate here, and the
    # {a, b} universe at size 7.
    assert [_grammar_count(2, size) for size in (5, 6, 7)] == [49_051, 1_437_668, 52_427_052]
    assert [_grammar_count(3, size) for size in (5, 6)] == [342_847, 13_549_335]


def test_decomposition_nil_is_empty():
    d = decomposition(parse("0"), STRONG)
    assert len(d) == 0
    assert d.composed() == NIL


def test_decomposition_parallel_pair():
    d = decomposition(parse("z!x.0 | a?(y).0"), STRONG)
    assert [pretty(f) for f in d] == ["a?(v0).0", "z!x.0"]
    # oracle confirms both factors indecomposable over the term's names
    for f in d:
        tu = TermUniverse(["z", "x", "a", "y"], 4)
        assert find_split(f, STRONG, tu) == NO_SPLIT


def test_decomposition_norm_example():
    d = decomposition(parse("new z.(a!z.0) | a?(x).x!a.0"), STRONG)
    texts = [pretty(f) for f in d]
    assert texts == ["a?(v0).v0!a.0", "new v0.a!v0.0"]


def test_decomposition_splits_expansion():
    d = decomposition(parse("a!a.b!b.0 + b!b.a!a.0"), STRONG)
    assert sorted(pretty(f) for f in d) == ["a!a.0", "b!b.0"]


def test_decomposition_drops_nil_factors():
    d = decomposition(parse("a!a.0 | (0 | new z.z!b.0)"), STRONG)
    assert [pretty(f) for f in d] == ["a!a.0"]


def test_weak_decomposition_uses_stutter_free_representative():
    d = decomposition(parse("tau.(a!a.0 | b!b.0)"), WEAK)
    assert sorted(pretty(f) for f in d) == ["a!a.0", "b!b.0"]


def test_decomposition_of_nine_operator_factor_is_prompt():
    p = parse("tau.([c=c]b!b.0 + c!c.b?(x).a?(y).0)")
    for mode in (STRONG, WEAK):
        start = time.perf_counter()
        assert len(decomposition(p, mode)) == 1
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_split_parts_restrict_received_names(mode):
    # Each part is reached only after an input, and mentions the received
    # pool name until that name is restricted.
    p = parse("b?(x).b?(y).[a=x]x!x.0")
    u = NameUniverse.for_terms(p, input_mode="fresh-only")
    d = decomposition(p, mode, u)
    assert len(d) == 2
    assert multiset_eq_mod_bisim(
        d, Decomposition([parse("b?(x).0")] * 2, mode, "fresh-only")
    )
    # The parts' dead guards and unused restrictions are not reported.
    assert [pretty(f) for f in d] == ["b?(v0).0", "b?(v0).0"]


def test_dead_guard_pruning_against_oracle():
    # Pruning a prefix whose guard can never hold keeps the term strongly
    # bisimilar, by the independent oracle.  A guard on a name an input
    # may still receive stays: pruning it would change the behaviour.
    gen = TermGen(57, ("a", "b"))
    pruned = 0
    for i in range(400):
        p = gen.term(3 + i % 5)
        q = _without_dead_guards(p, {})
        if q == p:
            continue
        pruned += 1
        assert naive_bisim_oracle(p, q, STRONG), pretty(p)
    assert pruned > 20
    live = parse("new z.(a!z.0 | a?(x).[x=z]b!b.0)")
    assert _without_dead_guards(live, {}) is live
    wrong = parse("new z.(a!z.0 | a?(x).0)")
    assert not naive_bisim_oracle(live, wrong, STRONG)
    dead = parse("new z.(a!z.0 | c?(x).new y.[x=y]b!b.0 + [z=a]b!b.0)")
    assert _without_dead_guards(dead, {}) == parse("new z.(a!z.0 | c?(x).new y.0)")


def test_dead_guards_see_only_the_binders_in_scope():
    # A binder's scope ends with its subterm: past it, the name is free
    # again.  Two free names never become equal, while an input bound
    # further in may receive a free name.
    p = parse("a?(x).0 + [x=b]c!c.0")
    assert _without_dead_guards(p, {}) == parse("a?(x).0")
    live = parse("new z.0 | a?(y).[y=z]b!b.0")
    assert _without_dead_guards(live, {}) is live


@pytest.mark.parametrize("mode", [STRONG, WEAK])
@pytest.mark.parametrize("inputs", ["early", "fresh-only"])
def test_derivative_split_agrees_with_bounded_search(mode, inputs):
    # The reference prunes nothing: the classes of q | r over every pair
    # of part classes of size at most 3, each part paired with itself
    # too.  Every single-factor term over {a, b} of size at most 4 splits
    # exactly when its class is one of them, by `decomposition` and by
    # `find_split` alike.
    u = NameUniverse.for_terms(extra_known=["a", "b"], input_mode=inputs)
    index = BehaviorIndex(u)
    nil = index.nil_class_in_mode(mode)
    reps = {}
    for t in TermUniverse(["a", "b"], 3).enumerate():
        cid = index.class_in_mode(t, mode)
        if cid != nil:
            reps.setdefault(cid, t)
    reps = list(reps.values())
    assert len(reps) == {STRONG: 70, WEAK: 56}[mode]
    composed = {
        index.class_in_mode(Par(q, r), mode)
        for i, q in enumerate(reps)
        for r in reps[i:]
    }
    parts = TermUniverse(["a", "b"], 3)
    splits = []
    for t in TermUniverse(["a", "b"], 4).enumerate():
        if len(parallel_factors(t)) != 1:
            continue
        want = index.class_in_mode(t, mode) in composed
        assert (len(decomposition(t, mode, u)) > 1) == want, pretty(t)
        assert isinstance(find_split(t, mode, parts, u), SplitFound) == want, pretty(t)
        splits.append(want)
    assert sum(splits) == {STRONG: 65, WEAK: 74}[mode]


def test_find_split_parallel():
    got = find_split(parse("a!b.0 | c!d.0"), STRONG, TermUniverse(["a", "b", "c", "d"], 5))
    assert isinstance(got, SplitFound)
    assert strong_bisim(Par(got.left, got.right), parse("a!b.0 | c!d.0"))[0]


def test_find_split_single_action_indecomposable():
    assert find_split(parse("a!b.0"), STRONG, TermUniverse(["a", "b"], 3)) == NO_SPLIT


def test_find_split_scope_extrusion_state():
    # The fused post-handshake state has no split: its only transition is
    # internal and both would-be halves would need visible initial actions.
    R = parse("new z.(z!c.c!a.0 | z?(y).y!b.0)")
    got = find_split(R, STRONG, TermUniverse(["a", "b", "c"], 6))
    assert got == NO_SPLIT


def test_find_split_of_a_long_chain_needs_no_deep_recursion():
    # The chain splits (a!b.0 | the rest), so the universe is searched,
    # and holds no part of measure 1,999.  The exact search walks the
    # chain's derivatives on an explicit stack and summarizes class ids
    # in order, so this is no RecursionError.
    chain = parse("a!b." * 2000 + "0")
    assert find_split(chain, STRONG, TermUniverse(["a", "b"], 2)) == NO_SPLIT


def test_find_split_budget_aborts():
    with pytest.raises(Aborted) as err:
        find_split(
            parse("a!a.0 | a?(x).x!b.0"),
            STRONG,
            TermUniverse(["a", "b"], 6),
            budget=10,
        )
    assert err.value.progress > 0


def test_multiset_examples():
    d1 = Decomposition([parse("a!b.0"), parse("c!d.0")], STRONG)
    d2 = Decomposition([parse("c!d.0"), parse("a!b.0")], STRONG)
    assert multiset_eq_mod_bisim(d1, d2)
    d3 = Decomposition([parse("z!x.0"), parse("a?(y).0")], STRONG)
    d4 = Decomposition([parse("z!x.a?(y).0 + a?(y).z!x.0")], STRONG)
    assert not multiset_eq_mod_bisim(d3, d4)
    assert multiset_eq_mod_bisim(
        Decomposition([], STRONG), Decomposition([], STRONG)
    )


def test_multiset_matches_bisimilar_not_identical():
    d1 = Decomposition([parse("a!a.0 + a!a.0")], STRONG)
    d2 = Decomposition([parse("a!a.0")], STRONG)
    assert multiset_eq_mod_bisim(d1, d2)


def test_verify_upd_commuted_pair():
    v = verify_upd(parse("a!b.0 | c!d.0"), parse("c!d.0 | a!b.0"), STRONG)
    assert v.equivalent and v.unique


def test_verify_upd_expansion_pair():
    v = verify_upd(
        parse("a!a.0 | b!b.0"), parse("a!a.b!b.0 + b!b.a!a.0"), STRONG
    )
    assert v.equivalent and v.unique


def test_verify_upd_keeps_a_known_pool_shaped_name():
    # A caller's known `w` name stays known: the pool skips it, and a
    # term that mentions it enters at cursor 0.
    u = NameUniverse({"a", "w1"})
    p, q = parse("a!w1.0 | a?(x).0"), parse("a?(x).0 | a!w1.0")
    wide = _widened(u, [p, q])
    assert wide.known == {"a", "w1"} and start_index(p, wide) == 0
    v = verify_upd(p, q, STRONG, u)
    assert v.equivalent and v.unique


def test_verify_upd_inequivalent_pair_makes_no_claim():
    v = verify_upd(parse("a!a.0"), parse("b!b.0"), STRONG)
    assert not v.equivalent and v.unique is None


@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_verify_upd_fresh_only_factors_compared_in_that_discipline(mode):
    # A received name is never `a` under fresh-only inputs, so the guarded
    # factor behaves as `a?(x).0`; under early inputs it does not.
    p = parse("a?(x).[x=a]b!b.0 | c!c.0")
    q = parse("a?(x).0 | c!c.0")
    fresh = NameUniverse.for_terms(p, q, input_mode="fresh-only")
    v = verify_upd(p, q, mode, fresh)
    assert v.equivalent and v.unique, v.detail
    assert multiset_eq_mod_bisim(v.left, v.right)
    early = verify_upd(p, q, mode)
    assert not early.equivalent
    assert not multiset_eq_mod_bisim(early.left, early.right)
    with pytest.raises(ValueError):
        multiset_eq_mod_bisim(v.left, early.right)


@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_verify_upd_builds_one_index(mode, monkeypatch):
    made = []
    init = BehaviorIndex.__init__

    def counting_init(self, universe):
        made.append(universe)
        init(self, universe)

    monkeypatch.setattr(BehaviorIndex, "__init__", counting_init)
    samples = [
        ("a!a.0 | b!b.0", "a!a.b!b.0 + b!b.a!a.0"),
        ("tau.(a!a.0 | b!b.0)", "a!a.0 | b!b.0"),
        ("new u0.(a!a.0 | u0!b.0)", "a!a.0"),
    ]
    for left, right in samples:
        made.clear()
        verify_upd(parse(left), parse(right), mode)
        assert len(made) == 1, (left, right)


def _pairwise_matching(d1, d2, u_for):
    """Reference: the backtracking perfect matching of factors under
    pairwise `bisim` that multiset_eq_mod_bisim once ran."""
    left, right = list(d1.factors), list(d2.factors)
    if len(left) != len(right):
        return False

    def try_assign(i, taken):
        if i == len(left):
            return True
        for j, r in enumerate(right):
            if j in taken or not bisim(left[i], r, d1.mode, u_for(left[i], r))[0]:
                continue
            if try_assign(i + 1, taken | {j}):
                return True
        return False

    return try_assign(0, frozenset())


def _differential_pairs():
    gen = TermGen(11, ("a", "b", "c"))
    rng = random.Random(11)
    pairs = []
    for i in range(120):
        p = gen.term(3 + i % 4)
        kind = i % 4
        if kind == 0:
            q = gen.term(3 + i % 4)
        elif kind == 1:
            q = Par(p.right, p.left) if isinstance(p, Par) else Par(NIL, p)
        elif kind == 2:
            q = expand_hnf(p).to_process()
        else:
            q = tau_pad(p, rng)
        pairs.append((p, q))
    return pairs


@pytest.mark.parametrize("mode", [STRONG, WEAK])
@pytest.mark.parametrize("inputs", ["early", "fresh-only"])
def test_factor_multisets_match_pairwise_reference(mode, inputs):
    seen_multiset, seen_equivalent = set(), set()
    for p, q in _differential_pairs():
        u = NameUniverse.for_terms(p, q, input_mode=inputs)
        v = verify_upd(p, q, mode, u)
        assert v.equivalent == bisim(p, q, mode, u)[0]
        seen_equivalent.add(v.equivalent)
        if v.equivalent:
            want = _pairwise_matching(
                v.left, v.right,
                lambda a, b: NameUniverse.for_terms(a, b, input_mode=inputs),
            )
            assert v.unique == want, (p, q)
        got = multiset_eq_mod_bisim(v.left, v.right)
        assert got == _pairwise_matching(
            v.left, v.right,
            lambda a, b: NameUniverse.for_terms(a, b, input_mode=inputs),
        )
        seen_multiset.add(got)
    assert seen_multiset == {True, False}
    assert seen_equivalent == {True, False}


@given(processes(max_size=6))
@settings(max_examples=40, deadline=None)
def test_decomposition_composes_back(p):
    d = decomposition(p, STRONG)
    u = NameUniverse.for_terms(p, d.composed())
    assert strong_bisim(d.composed(), p, u)[0]


@given(processes(max_size=5))
@settings(max_examples=20, deadline=None)
def test_weak_decomposition_composes_back(p):
    u = NameUniverse.for_terms(p, input_mode="fresh-only")
    d = decomposition(p, WEAK, u)
    u2 = NameUniverse.for_terms(p, d.composed(), input_mode="fresh-only")
    assert bisim(d.composed(), p, WEAK, u2)[0]


@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_sweep_factor_key_shortcut(mode):
    # A summation's key is read off its own class; every other term's
    # from its narrowed structural factors.  Both must agree.  Size-4
    # terms have at most one factor that is not 0, so generated terms
    # add compositions and restrictions that split.
    inputs = "early" if mode == STRONG else "fresh-only"
    terms = list(TermUniverse(["a", "b"], 4).enumerate())
    gen = TermGen(61, ("a", "b"))
    terms += [gen.term(3 + i % 5) for i in range(300)]
    u = NameUniverse.for_terms(*terms, input_mode=inputs)
    index = BehaviorIndex(u)
    sweep = _Sweep(index, mode)
    narrowed = split = 0
    for t in terms:
        cid = index.class_in_mode(t, mode)
        if cid == sweep.nil:
            continue
        want = tuple(sorted(c for c, _f in _factor_classes(t, index, mode, sweep.nil)))
        assert sweep.factor_key(t, cid) == want, pretty(t)
        narrowed += len(parallel_factors(t)) == 1 and scope_narrow(t) is not t
        split += len(want) > 1
    assert narrowed > 0 and split > 0


def test_mini_sweep_strong():
    rep = upd_sweep(["a", "b"], 4, STRONG)
    assert rep.ok
    assert rep.term_count > 1000
    assert rep.classes_with_pairs > 0


def test_mini_sweep_weak():
    rep = upd_sweep(["a", "b"], 4, WEAK)
    assert rep.ok
    assert not rep.normalization_failures


def test_mini_sweep_weak_early_inputs():
    rep = upd_sweep(["a", "b"], 4, WEAK, input_mode="early")
    assert (rep.term_count, rep.class_count, rep.classes_with_pairs) == (2136, 646, 94)
    assert rep.violations == []
    assert rep.normalization_failures == []


def test_sweep_reports_conflicting_factorizations():
    # Two members of one class whose refined factor multisets differ make
    # a violation, whose witness is the class's first split member.  The
    # keys of two unsplit members are overridden to conflict; the deeper
    # class is recorded first, but classes are settled shallowest first,
    # so the shallow class's violation comes first although the deep
    # class's third factorization refines through it.
    index = BehaviorIndex(NameUniverse(frozenset("ab"), "early"))
    sweep = _Sweep(index, STRONG)
    a, b = index.class_of(parse("a!b.0")), index.class_of(parse("b!a.0"))
    p = index.class_of(parse("a!b.0 | a!b.0"))
    forced = {
        parse("a!b.a!b.a!b.0"): (a, a, b),
        parse("a!b.a!b.0"): (a, b),
    }
    real_key = sweep.factor_key
    sweep.factor_key = lambda t, cid: forced.get(t) or real_key(t, cid)
    for text in [
        "a!b.0 | a!b.0 | a!b.0",
        "a!b.a!b.a!b.0",
        "a!b.0 | a!b.a!b.0",
        "a!b.0 | a!b.0",
        "a!b.a!b.0",
        "b!a.0",
        "a!b.0",
    ]:
        sweep.add_term(parse(text))
    q = index.class_of(parse("a!b.0 | a!b.0 | a!b.0"))
    assert (a, b, p, q) == (1, 2, 3, 4)
    assert sweep.collect_violations() == [
        {
            "class": 3,
            "term": "a!b.a!b.0",
            "other": "a!b.0 | a!b.0",
            "factors": [1, 2],
            "other_factors": [1, 1],
        },
        {
            "class": 4,
            "term": "a!b.a!b.a!b.0",
            "other": "a!b.0 | a!b.0 | a!b.0",
            "factors": [1, 1, 2],
            "other_factors": [1, 1, 1],
        },
    ]


def _reference_sweep(names, size, mode, inputs) -> SweepReport:
    """`upd_sweep`'s report from an index that keeps every term: each is
    classified with `class_of`, and every factorization is kept."""
    tu = TermUniverse(names, size)
    index = BehaviorIndex(NameUniverse(tu.names, inputs))
    nil = index.nil_class_in_mode(mode)
    keys: dict = {}  # class -> {factor key: first member's text}
    members: dict = {}
    depth: dict = {}
    terms = 0
    for t in tu.enumerate():
        terms += 1
        strong = index.class_of(t)
        cid = strong if mode == STRONG else index.weak_id(strong)
        if cid != nil:
            key = tuple(sorted(c for c, _f in _factor_classes(t, index, mode, nil)))
            keys.setdefault(cid, {}).setdefault(key, pretty(t))
            members[cid] = members.get(cid, 0) + 1
            depth.setdefault(cid, index.depths[strong])
    refined: dict = {}
    violations = []

    def refine(cid):
        if cid not in refined:
            splits = [(k, text) for k, text in keys.get(cid, {}).items() if k != (cid,)]
            multisets = [sorted(x for f in k for x in refine(f)) for k, _t in splits]
            for (_k, text), got in zip(splits[1:], multisets[1:]):
                if got != multisets[0]:
                    violations.append({"class": cid, "term": text, "other": splits[0][1],
                                       "factors": got, "other_factors": multisets[0]})
            refined[cid] = multisets[0] if splits else [cid]
        return refined[cid]

    for cid in sorted(keys, key=depth.__getitem__):
        refine(cid)
    return SweepReport(mode, tuple(tu.names), size, inputs, terms, len(keys),
                       sum(n > 1 for n in members.values()), violations, [])


@pytest.mark.parametrize("size", [3, 4])
@pytest.mark.parametrize("mode", [STRONG, WEAK])
@pytest.mark.parametrize("inputs", ["early", "fresh-only"])
def test_sweep_keeps_no_max_size_term(size, mode, inputs, monkeypatch):
    # A term of the largest size is classified, but neither it nor its
    # class's bookkeeping outlives its own step; the report is that of a
    # reference that keeps everything.  Identity, not equality: a
    # narrowed factor may be an equal term, interned in its own right.
    enumerated = []
    real_enumerate = TermUniverse.enumerate

    def recording(self):
        for t in real_enumerate(self):
            enumerated.append(t)
            yield t

    kept = []
    real_clear = decompose.clear_transition_cache

    def clear():
        table = syntax._hashcons_table
        kept.append(sum(
            syntax.term_size(t) == size and table.get(t) is t for t in enumerated
        ))
        real_clear()

    monkeypatch.setattr(TermUniverse, "enumerate", recording)
    monkeypatch.setattr(decompose, "clear_transition_cache", clear)
    report = upd_sweep(["a", "b"], size, mode, inputs)
    monkeypatch.undo()
    assert kept == [0, 0]  # cleared on entry and before it exits
    assert any(syntax.term_size(t) == size for t in enumerated)
    assert report == _reference_sweep(["a", "b"], size, mode, inputs)
    assert report.classes_with_pairs > 0


def test_sweep_leaves_no_tables_behind():
    upd_sweep(["a", "b"], 3, STRONG)
    assert not syntax._hashcons_table and not syntax._fn_table
    assert not semantics._instances
    assert not semantics._cache


def test_behavior_index_matches_bisim():
    # The substituted non-congruence pair: the parallel form has a
    # communication step, so only the expansion with the tau summand
    # matches it.
    u = NameUniverse(frozenset(("a", "b")), "early")
    index = BehaviorIndex(u)
    p1 = parse("a!b.0 | a?(y).0")
    plain = parse("a!b.a?(y).0 + a?(y).a!b.0")
    full = parse("a!b.a?(y).0 + a?(y).a!b.0 + tau.(0 | 0)")
    assert index.class_of(p1) != index.class_of(plain)
    assert not strong_bisim(p1, plain, u)[0]
    assert index.class_of(p1) == index.class_of(full)
    assert strong_bisim(p1, full, u)[0]


def test_enumerated_terms_are_their_own_canonical_form():
    # Binders are enumerated under their level names, so the sweep's
    # roots need no renaming: alpha_canonical returns each one itself.
    tu = TermUniverse(["a", "b"], 5)
    u = NameUniverse.for_terms(extra_known=tu.names)
    count = 0
    for t in tu.enumerate():
        assert alpha_canonical(t, avoid=u.known) is t
        if count % 50 == 0:
            assert level_canonical(t, u.known) == t
        count += 1
    assert count == 49051


def test_scope_narrow_returns_untouched_terms_themselves():
    terms = list(TermUniverse(["a", "b"], 4).enumerate())
    gen = TermGen(31)
    terms += [gen.term(3 + i % 5) for i in range(300)]
    untouched = 0
    for t in terms:
        narrowed = scope_narrow(t)
        if narrowed == t:
            assert narrowed is t
            untouched += 1
    assert 0 < untouched < len(terms)
    p = parse("a!b.0 | new z.(z!a.0 | a?(x).z!x.0)")
    assert scope_narrow(p) is p
    # Where a law applies, the subtrees it leaves alone are still shared.
    q = parse("new z.(a!b.0 | z!a.0) | c!c.0")
    assert scope_narrow(q).right is q.right
