from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from piwb import (
    NIL,
    STRONG,
    TAU,
    WEAK,
    NameUniverse,
    Par,
    Prefixed,
    TermGen,
    UniverseTooSmall,
    alpha_equivalent,
    bisim,
    free_names,
    parse,
    prefix_count,
    refine,
    substitute,
    transitions,
)
from piwb.lts import build_lts_multi
from piwb.semantics import _cache, clear_transition_cache, derive_steps, state_for
from piwb.syntax import BoundOut, FreeOut, In, TAU_ACT, clear_hashcons, hashcons

from conftest import level_canonical, process_pairs, processes


def test_open_rule_single_bound_output():
    p = parse("new z.a!z.0")
    u = NameUniverse.for_terms(p)
    ts = transitions(p, u)
    assert len(ts) == 1
    ((action, target),) = ts
    assert isinstance(action, BoundOut) and action.chan == "a"
    assert target == NIL


def test_close_rule_communication():
    q = parse("new z.(a!z.0) | a?(x).x!a.0")
    u = NameUniverse.for_terms(q)
    taus = [t for a, t in transitions(q, u) if a == TAU_ACT]
    assert len(taus) == 1
    assert alpha_equivalent(taus[0], parse("new z.(0 | z!a.0)"))


def test_input_enumeration_known_plus_one_fresh():
    # Derived by hand from the input rule: with known {a, b} the datum
    # ranges over a, b, and exactly one fresh pool name.
    p = parse("a?(x).0")
    u = NameUniverse(known={"a", "b"}, fresh_pool=("w0", "w1"))
    ts = transitions(p, u)
    assert ts == frozenset({(In("a", "a"), NIL), (In("a", "b"), NIL), (In("a", "w0"), NIL)})


def test_fresh_only_mode_single_instantiation():
    p = parse("a?(x).x!b.0")
    u = NameUniverse(known={"a", "b"}, fresh_pool=("w0",), input_mode="fresh-only")
    ts = transitions(p, u)
    assert len(ts) == 1
    ((action, target),) = ts
    assert action == In("a", "w0")
    assert alpha_equivalent(target, parse("w0!b.0"))


def test_match_blocks_on_distinct_names():
    u = NameUniverse.for_terms(parse("[a=b]tau.0"), extra_known=("a", "b"))
    assert transitions(parse("[a=b]tau.0"), u) == frozenset()
    satisfied = transitions(parse("[a=a]tau.0"), u)
    assert {a for a, _ in satisfied} == {TAU_ACT}


def test_restricted_channel_is_silent():
    p = parse("new z.z!a.0")
    u = NameUniverse.for_terms(p)
    assert transitions(p, u) == frozenset()


def test_comm_datum_not_in_receiver_universe():
    # Communication is structural: the sent datum reaches the receiver
    # even when it is not among the receiver's own instantiation names.
    p = parse("a!c.0 | a?(x).x!b.0")
    u = NameUniverse.for_terms(p)
    taus = [t for a, t in transitions(p, u) if a == TAU_ACT]
    assert len(taus) == 1
    assert alpha_equivalent(taus[0], parse("0 | c!b.0"))


def test_universe_too_small():
    p = parse("a?(x).0")
    u = NameUniverse(known={"a"}, fresh_pool=())
    with pytest.raises(UniverseTooSmall):
        transitions(p, u)


def test_universe_must_cover_free_names():
    u = NameUniverse(known={"a"}, fresh_pool=("w0",))
    with pytest.raises(ValueError):
        transitions(parse("b!a.0"), u)


def test_replication_act():
    p = parse("!a!b.0")
    u = NameUniverse.for_terms(p)
    ts = transitions(p, u)
    assert len(ts) == 1
    ((action, target),) = ts
    assert action == FreeOut("a", "b")
    assert alpha_equivalent(target, parse("0 | !a!b.0"))


def test_replication_comm():
    p = parse("!(a!b.0 + a?(x).x!c.0)")
    u = NameUniverse.for_terms(p)
    taus = [t for a, t in transitions(p, u) if a == TAU_ACT]
    assert any(alpha_equivalent(t, parse("(0 | b!c.0) | !(a!b.0 + a?(x).x!c.0)")) for t in taus)


@given(processes(max_size=6))
@settings(max_examples=60, deadline=None)
def test_transitions_decrease_prefix_count(p):
    u = NameUniverse.for_terms(p)
    n = prefix_count(p)
    for _a, q in transitions(p, u):
        assert prefix_count(q) < n


@given(process_pairs(max_size=5))
@settings(max_examples=40, deadline=None)
def test_parallel_left_closure(pq):
    # Every move of p lifts to a move of p | q with the same label.
    p, q = pq
    par = Par(p, q)
    u = NameUniverse.for_terms(par)
    lifted = transitions(par, u)
    lifted_labels = {a for a, _ in lifted}
    for a, _p2 in transitions(p, u):
        assert a in lifted_labels


@given(processes(max_size=5))
@settings(max_examples=40, deadline=None)
def test_fresh_name_stability(p):
    # Enlarging the known set with an unused name only adds input
    # transitions that mirror the fresh-instantiated ones.
    u = NameUniverse.for_terms(p)
    extra = "zfresh"
    assert extra not in free_names(p)
    u2 = NameUniverse.for_terms(p, extra_known=[extra])
    base = transitions(p, u)
    enlarged = transitions(p, u2)
    fresh0 = u.next_fresh(free_names(p))
    expected = set(base)
    for a, t in base:
        if isinstance(a, In) and a.datum == fresh0:
            expected.add((In(a.chan, extra), substitute(t, extra, fresh0)))
    # The enlarged set may renumber its own fresh instantiation but must
    # contain the base moves plus the mirrored ones.
    assert expected <= set(enlarged)


def test_derived_successors_are_interned():
    gen = TermGen(5)
    for _ in range(60):
        p = gen.term(6)
        u = NameUniverse.for_terms(p)
        for _a, (q, _k) in derive_steps(state_for(p, u), u):
            assert hashcons(q) is q


def test_successor_shares_the_side_that_did_not_move():
    # Neither step renumbers a binder: the receiver's binder is v0 before
    # and after the output fires, and the output side has no binder.
    p = parse("a!b.0 | c?(x).x!a.0")
    u = NameUniverse.for_terms(p)
    term, k = state_for(p, u)
    term = hashcons(term)
    steps = derive_steps((term, k), u)
    (left_moved,) = [q for a, (q, _k) in steps if a == FreeOut("a", "b")]
    assert left_moved.right is term.right
    right_moved = [q for a, (q, _k) in steps if isinstance(a, In)]
    assert right_moved
    for q in right_moved:
        assert q.left is term.left


def _verdicts(pairs):
    # bisim explores through a fresh index; refine over the union graph
    # reads the transition cache, so both kinds of successor meet there.
    out = []
    for p, q in pairs:
        u = NameUniverse.for_terms(p, q)
        l = build_lts_multi([p, q], u)
        verdicts = (bisim(p, q, STRONG, u)[0], bisim(p, q, WEAK, u)[0])
        assert verdicts == tuple(
            refine(l, mode).same_block(*l.roots) for mode in (STRONG, WEAK)
        )
        out.append(verdicts)
    return out


def test_verdicts_unchanged_after_clearing_intern_table():
    gen = TermGen(9)
    independent = [gen.pair(5) for _ in range(12)]
    equivalent = []
    for _ in range(12):
        p = gen.term(5)
        equivalent.append((p, Par(p, NIL)))
        equivalent.append((p, Prefixed(TAU, p)))
    pairs = independent + equivalent
    clear_transition_cache()
    reference = _verdicts(pairs)
    assert {v for v, _ in reference} == {True, False}
    assert {w for _, w in reference} == {True, False}
    assert all(w for _, w in reference[len(independent):])

    # Warm half the cache, drop the interned objects, then answer every
    # query again: cached successors and newly interned ones now are
    # equal but distinct objects.
    clear_transition_cache()
    _verdicts(pairs[::2])
    clear_hashcons()
    assert _cache
    assert _verdicts(pairs) == reference
    clear_transition_cache()


@pytest.mark.parametrize("mode", ["early", "fresh-only"])
def test_successors_match_full_rebuild(mode):
    # Most successors are returned by the cached level tags without a
    # walk; each must still be exactly the rebuilt canonical form.
    # Binders drawn from the canonical namespace and free names that
    # look canonical take the walk instead.
    gens = [
        TermGen(21, ("a", "b", "c")),
        TermGen(22, ("a", "b", "c"), binder_prefix="v"),
        TermGen(23, ("a", "v0", "v1")),
    ]
    checked = 0
    for gen in gens:
        for i in range(60):
            p = gen.term(3 + i % 5)
            u = NameUniverse.for_terms(p, input_mode=mode)
            seen = {state_for(p, u)}
            queue = list(seen)
            while queue and len(seen) < 60:
                for _a, state in derive_steps(queue.pop(), u):
                    assert state[0] == level_canonical(state[0], u.all_names)
                    checked += 1
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
    assert checked > 500
