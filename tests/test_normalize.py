import random

from hypothesis import given, settings
import pytest

from piwb import (
    NIL,
    NameUniverse,
    NormalizationIncomplete,
    NotFinite,
    Par,
    TermGen,
    WEAK,
    alpha_equivalent,
    depth,
    expand_hnf,
    has_stuttering,
    naive_bisim_oracle,
    parse,
    strong_bisim,
    stutter_free,
    weak_bisim,
    weak_depth,
)
from piwb.lts import build_lts_multi
from piwb.normalize import BoundOutputPrefix
from piwb.syntax import TAU_ACT, Tau

from conftest import processes, tau_pad


def test_expand_hnf_parallel_pair():
    p = parse("z!x.0 | a?(y).0")
    h = expand_hnf(p)
    assert len(h) == 2
    assert strong_bisim(h.to_process(), p)[0]
    assert strong_bisim(h.to_process(), parse("z!x.a?(y).0 + a?(y).z!x.0"))[0]


def test_expand_hnf_bound_output_case():
    h = expand_hnf(parse("new z.a!z.0"))
    assert len(h) == 1
    guard, cont = h.summands[0]
    assert isinstance(guard, BoundOutputPrefix) and guard.chan == "a"
    assert cont == NIL


def test_expand_hnf_dead_restriction_case():
    assert len(expand_hnf(parse("new z.z!c.0"))) == 0
    assert expand_hnf(parse("new z.z!c.0")).to_process() == NIL


def test_expand_hnf_inner_restriction_case():
    h = expand_hnf(parse("new z.tau.z!c.0"))
    assert len(h) == 1
    guard, cont = h.summands[0]
    assert isinstance(guard, Tau)
    assert alpha_equivalent(cont, parse("new z.z!c.0"))


def test_expand_hnf_communication_summand():
    h = expand_hnf(parse("a!b.0 | a?(x).x!c.0"))
    tau_conts = [cont for g, cont in h if isinstance(g, Tau)]
    assert len(tau_conts) == 1
    assert alpha_equivalent(tau_conts[0], parse("0 | b!c.0"))


def test_expand_hnf_rejects_replication():
    with pytest.raises(NotFinite):
        expand_hnf(parse("!a!b.0"))


@given(processes(max_size=6))
@settings(max_examples=60, deadline=None)
def test_expand_hnf_sound(p):
    assert strong_bisim(expand_hnf(p).to_process(), p)[0]


def test_has_stuttering_tau_nil():
    verdict, witness = has_stuttering(parse("tau.0"))
    assert verdict
    assert alpha_equivalent(witness[0], parse("tau.0"))
    assert witness[1] == NIL


def test_has_stuttering_visible_only():
    assert has_stuttering(parse("x!y.0")) == (False, None)


def test_stutter_composition_example():
    # Both components are stutter-free (fresh-only inputs) but their
    # composition stutters after the hidden-name handshake.
    left = parse("new z.a!z.0")
    right = parse("a?(x).(x!b.0 + tau.c!b.0)")
    mode = "fresh-only"
    assert not has_stuttering(left, NameUniverse.for_terms(left, input_mode=mode))[0]
    assert not has_stuttering(right, NameUniverse.for_terms(right, input_mode=mode))[0]
    comp = Par(left, right)
    verdict, witness = has_stuttering(comp, NameUniverse.for_terms(comp, input_mode=mode))
    assert verdict
    src, dst = witness
    assert weak_bisim(src, dst, NameUniverse.for_terms(src, dst, input_mode=mode))[0]


def test_input_classification_depends_on_discipline():
    # Under early instantiation the received name can collide with a free
    # one and expose a stuttering step; fresh-only instantiation cannot.
    p = parse("a?(x).(x!b.0 + tau.c!b.0)")
    assert has_stuttering(p, NameUniverse.for_terms(p, input_mode="early"))[0]
    assert not has_stuttering(p, NameUniverse.for_terms(p, input_mode="fresh-only"))[0]


def test_stutter_free_tau_nil():
    result, report = stutter_free(parse("tau.0"))
    assert result == NIL
    assert report == {"equivalent-to-input": True, "stutter-free": True}


def test_stutter_free_tau_chain():
    result, _report = stutter_free(parse("tau.tau.x!y.0"))
    assert alpha_equivalent(result, parse("x!y.0"))
    assert weak_bisim(result, parse("tau.tau.x!y.0"))[0]


def test_stutter_free_keeps_sum_with_distinct_tau_target():
    p = parse("x!b.0 + tau.c!b.0")
    result, _report = stutter_free(p)
    assert alpha_equivalent(result, p)


def test_stutter_free_preserves_parallel_structure():
    from piwb.syntax import Par as ParNode

    result, _report = stutter_free(parse("tau.a!a.0 | b!b.0"))
    assert isinstance(result, ParNode)
    assert alpha_equivalent(result, parse("a!a.0 | b!b.0"))


def test_stutter_free_rejects_replication():
    with pytest.raises(NotFinite):
        stutter_free(parse("!tau.0"))


@given(processes(max_size=6))
@settings(max_examples=40, deadline=None)
def test_stutter_free_verified_fresh_only(p):
    u = NameUniverse.for_terms(p, input_mode="fresh-only")
    result, report = stutter_free(p, u)
    assert report["stutter-free"] and report["equivalent-to-input"]
    assert not has_stuttering(result, u)[0]
    assert weak_bisim(result, p, u)[0]


@given(processes(max_size=6))
@settings(max_examples=30, deadline=None)
def test_stutter_free_early_verified_or_reported(p):
    # Under faithful early instantiation, normalization must either verify
    # its output or raise with a report, never claim silently.
    u = NameUniverse.for_terms(p, input_mode="early")
    try:
        result, report = stutter_free(p, u)
    except NormalizationIncomplete as exc:
        assert exc.report is not None
        return
    assert report["stutter-free"] and report["equivalent-to-input"]
    assert weak_bisim(result, p, u)[0]


@given(processes(max_size=5))
@settings(max_examples=25, deadline=None)
def test_equal_depth_for_weakly_bisimilar_normal_forms(p):
    # Stutter-free weakly bisimilar terms have equal depth; tested via the
    # representative against a tau-padded variant of itself.
    from piwb.syntax import Prefixed, TAU

    u = NameUniverse.for_terms(p, input_mode="fresh-only")
    rep, _ = stutter_free(p, u)
    padded, _ = stutter_free(Prefixed(TAU, rep), u)
    assert weak_bisim(rep, padded, u)[0]
    assert depth(build_lts_multi([rep], u)) == depth(build_lts_multi([padded], u))


@given(processes(max_size=5))
@settings(max_examples=25, deadline=None)
def test_stutter_free_closed_under_reachability(p):
    # Every state reachable from a verified stutter-free term is itself
    # stutter-free.
    u = NameUniverse.for_terms(p, input_mode="fresh-only")
    rep, _ = stutter_free(p, u)
    l = build_lts_multi([rep], u)
    for state in l.states:
        assert not has_stuttering(state, u)[0]


@given(processes(max_size=5))
@settings(max_examples=30, deadline=None)
def test_visible_steps_change_weak_class(p):
    # A visible transition never connects weakly bisimilar states.
    u = NameUniverse.for_terms(p)
    l = build_lts_multi([p], u)
    for i, a, j in l.edges():
        if a != TAU_ACT:
            assert not weak_bisim(l.states[i], l.states[j], u)[0]


@given(processes(max_size=5))
@settings(max_examples=20, deadline=None)
def test_stutter_free_pairs_answer_with_real_steps(p):
    # For stutter-free weakly bisimilar q1, q2: every move of q1 is matched
    # by at least one actual transition of q2.
    from piwb.semantics import derive_steps, state_for

    u = NameUniverse.for_terms(p, input_mode="fresh-only")
    q1, _ = stutter_free(p, u)
    q2, _ = stutter_free(Par(q1, NIL), u)
    if not weak_bisim(q1, q2, u)[0]:
        return
    # Weak moves of q2: the actions of every state tau-reachable from it.
    l = build_lts_multi([q2], u)
    reach, todo = {l.root}, [l.root]
    while todo:
        for a, j in l.edges_from[todo.pop()]:
            if a == TAU_ACT and j not in reach:
                reach.add(j)
                todo.append(j)
    weak_actions = {a for i in reach for a, _j in l.edges_from[i]}
    for a, _t in derive_steps(state_for(q1, u), u):
        assert a in weak_actions


def test_stutter_free_agrees_with_oracle():
    # Every verified result is weakly bisimilar to its input by the
    # independent oracle and has no stuttering step; early mode may
    # report failure instead, fresh-only mode never does.
    gen = TermGen(83, ("a", "b", "c"))
    rng = random.Random(83)
    terms = []
    for i in range(150):
        p = gen.term(3 + i % 4)
        terms.append(tau_pad(p, rng) if i % 3 == 0 else p)
    for input_mode in ("early", "fresh-only"):
        verified = 0
        for p in terms:
            u = NameUniverse.for_terms(p, input_mode=input_mode)
            try:
                result, _report = stutter_free(p, u)
            except NormalizationIncomplete:
                assert input_mode == "early"
                continue
            both = NameUniverse.for_terms(p, result, input_mode=input_mode)
            assert naive_bisim_oracle(result, p, WEAK, both), (input_mode, p)
            assert not has_stuttering(result, u)[0], (input_mode, p)
            verified += 1
        assert verified >= len(terms) // 2


def test_weak_depth_examples():
    assert weak_depth(parse("tau.tau.x!y.0")) == 1
    assert weak_depth(parse("0")) == 0
    assert weak_depth(parse("tau.0")) == 0
