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
    pretty,
    strong_bisim,
    stutter_free,
    weak_bisim,
    weak_depth,
)
from piwb.lts import build_lts_multi
from piwb.normalize import BoundOutputPrefix
from piwb.syntax import Input, TAU_ACT, Tau

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


# --------------------------------------------------------------------------
# Differential references: the hand-written expansion law and the graph
# route to stuttering, kept here as independent oracles.


def _reference_hnf(t):
    """The expansion law by structural recursion on an alpha-canonical
    term, with its own communication, restriction and extrusion rules;
    a bound output extrudes the restricted binder itself."""
    from piwb.semantics import _resolve_prefix
    from piwb.syntax import Nil, Output, Prefixed, Restrict, Sum, TAU, substitute

    def comm(senders, receivers):
        out = []
        for g, cont in senders:
            if isinstance(g, (Output, BoundOutputPrefix)):
                datum = g.datum if isinstance(g, Output) else g.binder
                for g2, cont2 in receivers:
                    if isinstance(g2, Input) and g2.chan == g.chan:
                        merged = Par(cont, substitute(cont2, datum, g2.binder))
                        if isinstance(g, BoundOutputPrefix):
                            merged = Restrict(g.binder, merged)
                        out.append((TAU, merged))
        return out

    if isinstance(t, Nil):
        return []
    if isinstance(t, Prefixed):
        core = _resolve_prefix(t.prefix)
        return [] if core is None else [(core, t.cont)]
    if isinstance(t, Sum):
        return _reference_hnf(t.left) + _reference_hnf(t.right)
    if isinstance(t, Par):
        left, right = _reference_hnf(t.left), _reference_hnf(t.right)
        out = [(g, Par(cont, t.right)) for g, cont in left]
        out += [(g, Par(t.left, cont)) for g, cont in right]
        return out + comm(left, right) + comm(right, left)
    z = t.binder
    out = []
    for g, cont in _reference_hnf(t.body):
        if isinstance(g, Tau):
            out.append((g, Restrict(z, cont)))
        elif g.chan == z:
            continue
        elif isinstance(g, Output) and g.datum == z:
            out.append((BoundOutputPrefix(g.chan, z), cont))
        else:
            out.append((g, Restrict(z, cont)))
    return out


def _assert_hnf_matches_reference(p):
    from piwb.syntax import alpha_canonical, substitute

    got = list(expand_hnf(p))
    want = _reference_hnf(alpha_canonical(p))
    # Extruded names differ (a pool name against the restricted binder),
    # so bound outputs compare by channel, with the reference's
    # continuation renamed to the extruded name.
    assert [
        ("bout", g.chan) if isinstance(g, BoundOutputPrefix) else g for g, _c in got
    ] == [
        ("bout", g.chan) if isinstance(g, BoundOutputPrefix) else g for g, _c in want
    ], pretty(p)
    for (g, cont), (g2, cont2) in zip(got, want):
        if isinstance(g, BoundOutputPrefix):
            cont2 = substitute(cont2, g.binder, g2.binder)
        u = NameUniverse.for_terms(cont, cont2)
        assert strong_bisim(cont, cont2, u)[0], (pretty(p), pretty(cont), pretty(cont2))


def test_hnf_agrees_with_expansion_law_reference():
    from piwb.syntax import Output, Prefixed, Restrict

    # Half the terms sit beside a sender of a private name, so that
    # extrusions and closes are common.
    gen = TermGen(161, ("a", "b"))
    closes = 0
    for i in range(600):
        p = gen.term(2 + i % 6)
        if i % 2:
            sender = Restrict("z", Prefixed(Output("a", "z"), gen.term(2, ("z",))))
            p = Par(sender, p) if i % 4 == 1 else Par(p, sender)
        _assert_hnf_matches_reference(p)
        closes += any(isinstance(c, Restrict) for g, c in expand_hnf(p) if isinstance(g, Tau))
    assert closes >= 50


def test_hnf_keeps_close_between_sibling_binders():
    # Canonically both restrictions bind v0; the extruded name must not
    # be the receiver's own restricted name, or the close is lost.
    p = parse("new z.a!z.0 | new y.a?(x).y!x.0")
    _assert_hnf_matches_reference(p)
    h = expand_hnf(p)
    assert [type(g) for g, _c in h] == [BoundOutputPrefix, Input, Tau]
    assert strong_bisim(h.to_process(), p)[0]


def _reference_has_stuttering(p, u):
    """A tau edge inside one block of the weak partition of the graph."""
    from piwb import refine

    l = build_lts_multi([p], u)
    part = refine(l, WEAK)
    for i, a, j in l.edges():
        if a == TAU_ACT and part.same_block(i, j):
            return True, (l.states[i], l.states[j])
    return False, None


def test_has_stuttering_agrees_with_graph_reference():
    from piwb.parser import _render

    gen = TermGen(162, ("a", "b", "c"))
    rng = random.Random(162)
    terms = []
    for i in range(1000):
        p = gen.term(2 + i % 5)
        terms.append(tau_pad(p, rng) if i % 2 else p)
    stuttering = 0
    for input_mode in ("early", "fresh-only"):
        for p in terms:
            u = NameUniverse.for_terms(p, input_mode=input_mode)
            got, want = has_stuttering(p, u), _reference_has_stuttering(p, u)
            assert got[0] == want[0], (input_mode, pretty(p))
            if want[1] is not None:
                stuttering += 1
                got_text = [_render(t, 0) for t in got[1]]
                assert got_text == [_render(t, 0) for t in want[1]], (input_mode, pretty(p))
    assert 300 <= stuttering <= 2 * len(terms) - 300
