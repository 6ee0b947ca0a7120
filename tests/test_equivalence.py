import json
import random

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from piwb import (
    NIL,
    TAU,
    BehaviorIndex,
    NameUniverse,
    NotFinite,
    Par,
    Prefixed,
    STRONG,
    Sum,
    TermGen,
    TermUniverse,
    TooLarge,
    WEAK,
    bisim,
    bisimilar_to_nil,
    build_lts,
    depth,
    naive_bisim_oracle,
    parse,
    refine,
    strong_bisim,
    substitute,
    weak_bisim,
)
from piwb.decompose import scope_narrow
from piwb.lts import build_lts_multi
from piwb.syntax import Input, Output
from piwb.normalize import expand_hnf, has_stuttering

from conftest import process_pairs, processes, tau_pad


def test_noncongruence_pair_before_substitution():
    par = parse("z!x.0 | a?(y).0")
    sm = parse("z!x.a?(y).0 + a?(y).z!x.0")
    verdict, partition = strong_bisim(par, sm)
    assert verdict
    assert partition.mode == STRONG


def test_noncongruence_pair_after_substitution():
    par = substitute(parse("z!x.0 | a?(y).0"), "a", "z")
    sm = substitute(parse("z!x.a?(y).0 + a?(y).z!x.0"), "a", "z")
    assert not strong_bisim(par, sm)[0]
    assert not weak_bisim(par, sm)[0]


@given(processes(max_size=6))
@settings(max_examples=40, deadline=None)
def test_strong_bisim_reflexive(p):
    assert strong_bisim(p, p)[0]


def test_weak_tau_chain():
    assert weak_bisim(parse("x!y.0"), parse("tau.tau.x!y.0"))[0]
    assert weak_bisim(parse("tau.0"), parse("0"))[0]
    assert not weak_bisim(parse("x!y.0"), parse("0"))[0]


def test_weak_respects_branching():
    # a + tau.0 is not weakly bisimilar to a alone: the tau commits.
    assert not weak_bisim(parse("a!a.0 + tau.0"), parse("a!a.0"))[0]


def test_replication_not_finite():
    with pytest.raises(NotFinite):
        strong_bisim(parse("!a!b.0"), parse("0"))


def test_naive_oracle_agrees_on_examples():
    par = parse("z!x.0 | a?(y).0")
    sm = parse("z!x.a?(y).0 + a?(y).z!x.0")
    assert naive_bisim_oracle(par, sm, STRONG) is True
    assert naive_bisim_oracle(NIL, NIL, STRONG) is True
    assert naive_bisim_oracle(parse("x!y.0"), parse("tau.tau.x!y.0"), WEAK) is True
    assert naive_bisim_oracle(parse("x!y.0"), parse("tau.tau.x!y.0"), STRONG) is False


def test_naive_oracle_too_large():
    p = parse("a?(x).a?(y).a?(z).0")
    with pytest.raises(TooLarge):
        naive_bisim_oracle(p, p, STRONG, max_pairs=4)


@given(process_pairs(max_size=5))
@settings(max_examples=60, deadline=None)
def test_oracle_agreement_random(pq):
    p, q = pq
    u = NameUniverse.for_terms(p, q)
    for mode in (STRONG, WEAK):
        assert bisim(p, q, mode, u)[0] == naive_bisim_oracle(p, q, mode, u)


def test_class_engine_agrees_with_oracle():
    # BehaviorIndex class ids and bisim are one engine; both are checked
    # against the independent oracle, and bisim's witness against refine
    # over the explicit union graph, in
    # both verdict directions, on independent, tau-padded and
    # scope-narrowed pairs, and on p against p + tau.0, which differ
    # only in what p can silently become.
    gen = TermGen(71, ("a", "b"))
    rng = random.Random(71)
    pairs = []
    for _ in range(50):
        p, q = gen.pair(5)
        pairs += [(p, q), (p, tau_pad(p, rng)), (q, tau_pad(p, rng)),
                  (q, scope_narrow(q)), (p, Sum(p, Prefixed(TAU, NIL)))]
    for input_mode in ("early", "fresh-only"):
        for mode in (STRONG, WEAK):
            verdicts = []
            for p, q in pairs:
                u = NameUniverse.for_terms(p, q, input_mode=input_mode)
                want = naive_bisim_oracle(p, q, mode, u)
                index = BehaviorIndex(u)
                same = index.class_in_mode(p, mode) == index.class_in_mode(q, mode)
                assert same == want, (input_mode, mode, p, q)
                verdict, part = bisim(p, q, mode, u)
                assert verdict == want, (input_mode, mode, p, q)
                # The witness groups the index's states exactly as refine
                # groups the union graph's.
                graph = refine(build_lts_multi([p, q], u), mode)
                assert part.to_json_dict() == graph.to_json_dict(), (p, q)
                verdicts.append(want)
            assert set(verdicts) == {True, False}, (input_mode, mode)


def test_bisimilar_to_nil_examples():
    assert bisimilar_to_nil(parse("new z.z!a.0"), STRONG)
    assert not bisimilar_to_nil(parse("tau.0"), STRONG)
    assert bisimilar_to_nil(parse("tau.0"), WEAK)
    assert bisimilar_to_nil(parse("[a=b]tau.0"), STRONG)
    assert bisimilar_to_nil(parse("[a=b]tau.0"), WEAK)


@given(process_pairs(max_size=5))
@settings(max_examples=40, deadline=None)
def test_strong_implies_weak(pq):
    p, q = pq
    u = NameUniverse.for_terms(p, q)
    if strong_bisim(p, q, u)[0]:
        assert weak_bisim(p, q, u)[0]


@given(processes(max_size=6))
@settings(max_examples=40, deadline=None)
def test_bisimilar_terms_have_equal_depth(p):
    # Theorem: strong bisimilarity preserves depth.  Exercised through
    # semantics-preserving transformations of p.  Head normal forms may
    # leave the two-level grammar, so the tolerant graph builder is used.
    u = NameUniverse.for_terms(p)
    variants = [scope_narrow(p), expand_hnf(p).to_process(), _commute(p)]
    d = depth(build_lts(p, u))
    for q in variants:
        u2 = NameUniverse.for_terms(p, q)
        assert strong_bisim(p, q, u2)[0]
        assert depth(build_lts_multi([q], u2)) == d


def _commute(p):
    from piwb.syntax import Par, Prefixed, Restrict, Sum

    if isinstance(p, Sum):
        return Sum(_commute(p.right), _commute(p.left))
    if isinstance(p, Par):
        return Par(_commute(p.right), _commute(p.left))
    if isinstance(p, Prefixed):
        return Prefixed(p.prefix, _commute(p.cont))
    if isinstance(p, Restrict):
        return Restrict(p.binder, _commute(p.body))
    return p


@given(process_pairs(max_size=4), process_pairs(max_size=4))
@settings(max_examples=30, deadline=None)
def test_compatible_with_parallel(pq, rs):
    # if p1 ~ q1 and p2 ~ q2 then p1|p2 ~ q1|q2 (on commuted variants)
    p, q = pq
    p1, q1 = _commute(p), _commute(q)
    u = NameUniverse.for_terms(Par(p, q), Par(p1, q1))
    assert strong_bisim(p, p1, u)[0]
    assert strong_bisim(q, q1, u)[0]
    assert strong_bisim(Par(p, q), Par(p1, q1), u)[0]


@given(process_pairs(max_size=4))
@settings(max_examples=30, deadline=None)
def test_composition_strictly_deeper_than_parts(pq):
    # for parts not bisimilar to 0, any term bisimilar to the composition
    # is strictly deeper than each part
    p, q = pq
    u = NameUniverse.for_terms(Par(p, q))
    if bisimilar_to_nil(p, STRONG, u) or bisimilar_to_nil(q, STRONG, u):
        return
    r = _commute(Par(p, q))
    u2 = NameUniverse.for_terms(Par(p, q), r)
    assert strong_bisim(Par(p, q), r, u2)[0]
    dr = depth(build_lts(r, u2))
    assert depth(build_lts(p, u2)) < dr
    assert depth(build_lts(q, u2)) < dr


def test_partition_json():
    verdict, partition = strong_bisim(parse("tau.0"), parse("0"))
    payload = json.loads(json.dumps(partition.to_json_dict()))
    assert payload["mode"] == STRONG
    assert isinstance(payload["blocks"], list)
    assert not verdict


def test_long_chain_against_tau_copy():
    chain = NIL
    for _ in range(450):
        chain = Prefixed(Output("a", "b"), chain)
    padded = Prefixed(TAU, chain)
    assert not strong_bisim(chain, padded)[0]
    assert weak_bisim(chain, padded)[0]


def test_roots_share_the_pool_cursor():
    # p mentions the pool name w0, so on its own it would start past it
    # and q would not; entered together, both receive the same names.
    u = NameUniverse(frozenset({"a", "c"}), "early")
    p, q = parse("[w0=w0]a?(x).x!x.0"), parse("a?(x).x!x.0")
    assert naive_bisim_oracle(p, q, STRONG, u)
    for mode in (STRONG, WEAK):
        assert bisim(p, q, mode, u)[0]


def test_deep_chain_classified_without_deep_recursion():
    # 800 nested prefixes, built without the parser: exploring them must
    # not take one Python frame per state.
    chain = NIL
    for _ in range(800):
        chain = Prefixed(Output("a", "a"), chain)
    assert not bisim(chain, Prefixed(TAU, chain), STRONG)[0]
    assert bisim(chain, Prefixed(TAU, chain), WEAK)[0]


def test_input_over_1000_prefix_continuation():
    # The input step substitutes into the whole continuation; that walk
    # takes no frame per level (it raised RecursionError when
    # substitution recursed).
    d = NIL
    for _ in range(1000):
        d = Prefixed(Output("x", "a"), d)
    d = Prefixed(Input("a", "x"), d)
    assert strong_bisim(d, d)[0] is True
    assert weak_bisim(d, Prefixed(TAU, d))[0] is True


def test_weak_layer_against_references():
    # Every term of the size-4 universe over {a, b}, in both input
    # disciplines: the index's stuttering flags against has_stuttering
    # (explicit graph and refine), and its weak classes against the
    # independent oracle on random pairs, on pairs from one weak class,
    # on tau-padded copies, and on sums of universe terms whose weak
    # records need internal steps on both sides of a visible one.
    tu = TermUniverse(["a", "b"], 4)
    terms = list(tu.enumerate())
    rng = random.Random(9)
    for input_mode in ("early", "fresh-only"):
        u = NameUniverse.for_terms(extra_known=tu.names, input_mode=input_mode)
        index = BehaviorIndex(u)
        flags = []
        for t in terms:
            flag = index.stutters(index.class_of(t))
            assert flag == has_stuttering(t, u)[0], (input_mode, t)
            flags.append(flag)
        assert set(flags) == {True, False}, input_mode
        by_class = {}
        for t in terms:
            by_class.setdefault(index.weak_class_of(t), []).append(t)
        shared = [ts for ts in by_class.values() if len(ts) > 1]
        pairs = [rng.sample(terms, 2) for _ in range(200)]
        pairs += [rng.sample(rng.choice(shared), 2) for _ in range(200)]
        pairs += [(p, tau_pad(p, rng)) for p, _q in rng.sample(pairs, 200)]
        summations = [t for t in terms if isinstance(t, (Prefixed, Sum))]
        out = Output("a", "b")
        for _ in range(100):
            x, y, z = rng.sample(summations, 3)
            inner = Sum(y, Prefixed(TAU, z))
            s = Sum(x, Prefixed(TAU, inner))
            pairs += [
                (s, Prefixed(TAU, s)),
                (Prefixed(out, s), Sum(Prefixed(out, s), Prefixed(out, inner))),
                (s, Sum(x, inner)),
            ]
        verdicts = []
        for p, q in pairs:
            want = naive_bisim_oracle(p, q, WEAK, u)
            same = index.weak_class_of(p) == index.weak_class_of(q)
            assert same == want, (input_mode, p, q)
            verdicts.append(want)
        assert set(verdicts) == {True, False}, input_mode


def test_chain_of_3000_prefixes_against_tau_copy():
    # Name analysis, canonical forms and interning take no frame per
    # level either, so a much longer chain is decided, not a RecursionError.
    chain = NIL
    for _ in range(3000):
        chain = Prefixed(Output("a", "a"), chain)
    padded = Prefixed(TAU, chain)
    assert strong_bisim(chain, padded)[0] is False
    assert weak_bisim(chain, padded)[0] is True
