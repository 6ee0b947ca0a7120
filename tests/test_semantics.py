from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

import piwb
from piwb import (
    NIL,
    STRONG,
    TAU,
    WEAK,
    NameUniverse,
    Par,
    Prefixed,
    TermGen,
    action_text,
    alpha_equivalent,
    bisim,
    free_names,
    parse,
    prefix_count,
    refine,
    substitute,
    transitions,
)
from piwb import semantics
from piwb.lts import build_lts_multi
from piwb.decompose import TermUniverse
from piwb.equivalence import BehaviorIndex
from piwb.semantics import (
    ExplorationMemo,
    _input_derivatives,
    _instance,
    _instances,
    _resolve_prefix,
    _universes,
    clear_transition_cache,
    derive_steps,
    start_index,
    state_for,
)
from piwb.syntax import (
    BoundOut,
    FreeOut,
    In,
    Input,
    Match,
    Nil,
    Output,
    Repl,
    Restrict,
    Sum,
    TAU_ACT,
    Tau,
    TauAction,
    clear_hashcons,
    hashcons,
)

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
    u = NameUniverse(known={"a", "b"})
    ts = transitions(p, u)
    assert ts == frozenset({(In("a", "a"), NIL), (In("a", "b"), NIL), (In("a", "w0"), NIL)})


def test_fresh_only_mode_single_instantiation():
    p = parse("a?(x).x!b.0")
    u = NameUniverse(known={"a", "b"}, input_mode="fresh-only")
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


def test_pool_skips_known_names():
    # A free user name w0 is known, so the pool starts at w1, and an
    # input receives the known names and then the first pool name.
    u = NameUniverse(known={"a", "w0"})
    assert u.row(0) == (("a", "w0", "w1"), "w1")
    ts = transitions(parse("a?(x).0"), u)
    assert {a.datum for a, _ in ts} == {"a", "w0", "w1"}
    gaps = NameUniverse(known={"a", "w0", "w2"})
    assert [gaps.row(k)[1] for k in range(4)] == ["w1", "w3", "w4", "w5"]
    assert gaps.row(2)[0] == ("a", "w0", "w2", "w1", "w3", "w4")
    fresh_only = NameUniverse(known={"a", "w0"}, input_mode="fresh-only")
    assert fresh_only.row(1) == (("w2",), "w2")


def test_equal_universes_are_one_object():
    # Names no other test uses, so no earlier universe is alive.
    p = parse("ua?(x).x!ub.0 | new z.uc!z.0")
    u = NameUniverse.for_terms(p)
    assert NameUniverse.for_terms(p) is u
    assert NameUniverse(known=["uc", "ub", "ua"]) is u
    # Rows are built once, for every holder of the universe.
    row = u.row(3)
    assert NameUniverse.for_terms(p).row(3) is row
    assert len(u._rows) == 4
    # Equality and hashing still follow the known names and input mode.
    fresh = NameUniverse.for_terms(p, input_mode="fresh-only")
    assert fresh is not u and fresh != u
    assert u == NameUniverse({"ua", "ub", "uc"}) and hash(u) == hash((u.known, "early"))
    assert u != NameUniverse({"ua", "ub"})
    with pytest.raises(ValueError, match="unknown input mode"):
        NameUniverse({"a"}, "late")
    # The table holds universes weakly: an entry goes with its last holder.
    key = (frozenset({"only-here"}), "early")
    v = NameUniverse({"only-here"})
    assert _universes[key] is v
    del v
    assert key not in _universes


def test_pool_names_are_w_and_a_plain_number():
    u = NameUniverse(known={"a", "w0"})
    names = ("w", "w01", "w0", "w1", "w12", "v1", "a")
    assert [n for n in names if u.is_pool_name(n)] == ["w1", "w12"]


def test_start_index_is_past_the_highest_pool_name():
    u = NameUniverse(known={"a"})
    assert start_index(parse("a!w3.0"), u) == 4
    assert start_index(parse("a!w1.w0!a.0"), u) == 2
    assert start_index(parse("a!a.0"), u) == 0
    # Known w names are no pool names and take no position in the pool.
    assert start_index(parse("a!w3.0"), NameUniverse(known={"a", "w1"})) == 3
    assert start_index(parse("a!w3.0"), NameUniverse(known={"a", "w3"})) == 0


def test_universe_must_cover_free_names():
    u = NameUniverse(known={"a"})
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
    fresh0 = u.row(0)[1]  # the first pool name
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
    # bisim explores through a fresh index and refine runs over the union
    # graph; both open binders through the instantiation table, so
    # instances memoized before a clear meet newly interned terms.
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

    # Warm half the instantiation table, drop the interned objects, then
    # answer every query again: memoized instances and newly interned
    # terms now are equal but distinct objects.
    clear_transition_cache()
    _verdicts(pairs[::2])
    clear_hashcons()
    assert _instances
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
                    assert state[0] == level_canonical(state[0], u.known)
                    checked += 1
                    if state not in seen:
                        seen.add(state)
                        queue.append(state)
    assert checked > 500


def _reachable_steps(roots, u, cap):
    """(state, steps) for up to `cap` states reachable from each root,
    derived with the instantiation table kept warm throughout."""
    out = []
    for p in roots:
        seen = {state_for(p, u)}
        queue = list(seen)
        while queue and len(seen) < cap:
            state = queue.pop()
            steps = derive_steps(state, u)
            out.append((state, steps))
            for _a, q in steps:
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
    return out


@pytest.mark.parametrize("mode", ["early", "fresh-only"])
def test_instantiation_table_changes_no_step(mode):
    # Each state's steps, derived with the table warm from every earlier
    # state and term, equal tuple for tuple and in order the steps derived
    # with the table emptied just before, and every successor is exactly
    # the rebuilt canonical form.
    gen = TermGen(41, ("a", "b", "c"))
    roots = [gen.term(3 + i % 5) for i in range(60)]
    roots += list(TermUniverse(["a", "b"], 4).enumerate())
    roots += [
        parse("a?(x).b!b.0 | c?(y).b!b.0"),  # unused binders, one continuation
        parse("a?(x).x!x.0 + b?(y).y!y.0 + [a=a]c?(z).z!z.0"),
        parse("new z.a!z.z?(x).x!z.0 | a?(y).y!y.0"),  # extrusion and close
    ]
    u = NameUniverse.for_terms(*roots, input_mode=mode)
    clear_transition_cache()
    warm = _reachable_steps(roots, u, cap=40)
    assert len(warm) > 5000
    for state, steps in warm:
        _instances.clear()
        assert derive_steps(state, u) == steps
        for _a, (q, _k) in steps:
            assert q == level_canonical(q, u.known)
    clear_transition_cache()


def test_one_opening_per_continuation():
    # The three inputs share one continuation; a name opens it once, so
    # receiving that name on any of them gives the same object.
    p = parse("a?(x).x!x.0 + b?(y).y!y.0 + [a=a]c?(z).z!z.0")
    u = NameUniverse.for_terms(p)
    clear_transition_cache()
    by_datum: dict = {}
    for a, (q, _k) in derive_steps(state_for(p, u), u):
        by_datum.setdefault(a.datum, []).append(q)
    assert set(by_datum) == {"a", "b", "c", "w0"}
    for d, qs in by_datum.items():
        assert len(qs) == 3 and qs[0] is qs[1] is qs[2]
        assert qs[0] == parse(f"{d}!{d}.0")
    # An unused binder opens to the continuation's canonical form,
    # whatever the name, in one table entry.
    clear_transition_cache()
    p = parse("a?(x).b?(y).y!y.0")
    u = NameUniverse.for_terms(p)
    qs = {q for _a, (q, _k) in derive_steps(state_for(p, u), u)}
    assert len(qs) == 1
    (q,) = qs
    assert q == level_canonical(parse("b?(y).y!y.0"))
    assert sum(map(len, _instances.values())) == 1
    # One continuation under two different binders opens per binder.
    clear_transition_cache()
    p = parse("a?(x).x!y.0 + b?(y).x!y.0")
    u = NameUniverse.for_terms(p)
    got = {a: q for a, (q, _k) in derive_steps((p, 0), u)}
    assert got[In("a", "b")] == parse("b!y.0")
    assert got[In("b", "b")] == parse("x!b.0")
    clear_transition_cache()
    assert not _instances


def test_steps_distinct_in_derivation_order():
    # Left summand before right, each component's own moves before a
    # communication, known names before the pool name; a step derived
    # twice is listed once.
    p = parse("a!b.0 + c?(x).0 + a!b.0")
    u = NameUniverse.for_terms(p)
    assert [a for a, _q in derive_steps(state_for(p, u), u)] == [
        FreeOut("a", "b"), In("c", "a"), In("c", "b"), In("c", "c"), In("c", "w0"),
    ]
    p = parse("a!b.0 | a?(x).0")
    u = NameUniverse.for_terms(p)
    acts = [a for a, _q in derive_steps(state_for(p, u), u)]
    assert acts == [FreeOut("a", "b"), In("a", "a"), In("a", "b"), In("a", "w0"), TAU_ACT]
    assert isinstance(transitions(p, u), frozenset)
    # Labels are prefixes: a free output is labelled with the prefix that
    # fired, an internal step with TAU; the older names are aliases.
    assert acts[0] is p.left.prefix and type(acts[0]) is Output
    assert TAU_ACT is TAU and FreeOut is Output and TauAction is Tau
    assert piwb.TAU_ACT is TAU and piwb.FreeOut is Output and piwb.TauAction is Tau
    assert piwb.BoundOutputPrefix is BoundOut and piwb.Action is semantics.Action
    p = parse("a!b.0 | a?(x).0 | new z.c!z.0 | tau.0")
    u = NameUniverse.for_terms(p)
    acts = [a for a, _q in derive_steps(state_for(p, u), u)]
    assert [action_text(a) for a in acts] == [
        "a!b", "a?a", "a?b", "a?c", "a?w0", "tau", "c!(w0)", "tau",
    ]


def _memo_against_whole(roots, u, cap):
    """Walk up to `cap` states from each root with one component memo
    for all of them; each state's steps must equal, tuple for tuple and
    in order, its steps derived whole.  Returns the number of composed
    states and the memo."""
    memo = ExplorationMemo(u)
    composed = 0
    for p in roots:
        seen = {state_for(p, u)}
        queue = list(seen)
        while queue and len(seen) < cap:
            state = queue.pop(0)
            steps = derive_steps(state, u, memo)
            assert steps == derive_steps(state, u), state
            composed += type(state[0]) is Par
            for _a, q in steps:
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
    return composed, memo


@pytest.mark.parametrize("mode", ["early", "fresh-only"])
def test_component_memo_changes_no_step(mode):
    gen = TermGen(61, ("a", "b", "c"))
    roots = [Par(*gen.pair(2 + i % 5)) for i in range(60)]
    small = list(TermUniverse(["a", "b"], 4).enumerate())
    roots += [Par(small[i], small[(7 * i) % len(small)]) for i in range(0, len(small), 5)]
    roots += [
        parse("(a!b.0 | b?(x).x!a.0) | (a?(y).y!y.0 | new z.b!z.0)"),  # nested |
        parse("a!b.0 | (b?(x).0 | (a?(y).b!y.0 | b!a.0))"),
        parse("new z.(z!a.0 | z?(x).x!b.0) | a?(y).y!y.0"),  # | under new
        parse("new z.(a!z.0 | b?(x).x!z.0)"),
        parse("new z.a!z.z?(x).x!z.0 | a?(y).y!y.0"),  # extrusion and close
        parse("a?(y).y!y.0 | new z.a!z.z?(x).0"),  # the right side extrudes
        # Communication both ways, then a close whose partners talk back.
        parse("a!b.c?(x).x!a.0 | a?(y).c!y.y?(z).0"),
        parse("new z.a!z.z?(x).z!x.0 | a?(y).y!b.y?(w).w!w.0 | a!c.0"),
        parse("a?(x).new z.x!z.z?(y).y!y.0 | (a!b.b?(w).w!c.0 | a!c.0)"),
    ]
    u = NameUniverse.for_terms(*roots, input_mode=mode)
    composed, memo = _memo_against_whole(roots, u, cap=60)
    assert composed > 5000
    # Components recur at several pool cursors; the pair and input
    # tables serve the compositions.
    assert len({c for c, _k in memo.steps}) < len(memo.steps)
    assert memo.pairs and memo.inputs

    # A universe that also knows v0 names binders from v1 on, so one
    # (left, right) pair canonicalizes differently under the two: a pair
    # table kept from the other universe would hand out the wrong term.
    both_ways = roots[-3:] + [parse("a!b.0 | a?(x).c?(y).y!x.0")]
    plain = NameUniverse.for_terms(*both_ways, input_mode=mode)
    with_v0 = NameUniverse.for_terms(*both_ways, extra_known={"v0"}, input_mode=mode)
    memos = [_memo_against_whole(both_ways, w, cap=200)[1] for w in (plain, with_v0)]
    shared = memos[0].pairs.keys() & memos[1].pairs.keys()
    assert any(memos[0].pairs[k] != memos[1].pairs[k] for k in shared)

    # A free v0 is avoided by every canonical form, so no successor takes
    # the level-tag shortcut.
    odd = [parse("v0!a.0 | a?(x).x!v0.0"), parse("a?(x).b?(y).y!x.0 | new z.(v0!z.0 | a!v0.0)")]
    u = NameUniverse.for_terms(*odd, input_mode=mode)
    composed, _memo = _memo_against_whole(odd, u, cap=200)
    assert composed > 10


def test_right_component_communicates_with_the_left():
    for text, want in [
        ("a?(x).x!x.0 | a!b.0", "b!b.0 | 0"),
        ("a?(x).x!x.0 | new z.a!z.0", "new z.(z!z.0 | 0)"),  # close
    ]:
        p = parse(text)
        u = NameUniverse.for_terms(p)
        memo = ExplorationMemo(u)
        for steps in (derive_steps(state_for(p, u), u, memo), derive_steps(state_for(p, u), u)):
            taus = [q for a, (q, _k) in steps if a == TAU_ACT]
            assert taus == [level_canonical(parse(want), u.known)]


def test_input_continuations_derived_once_per_exploration(monkeypatch):
    # Every receiver meets each (channel, datum) in many product states;
    # an exploration derives its continuations once and reuses them.
    calls = []
    asked = []
    derive_inputs = semantics._input_derivatives
    receive = ExplorationMemo.receive

    def counted(t, chan, datum):
        calls.append((t, chan, datum))
        return derive_inputs(t, chan, datum)

    def asking(memo, t, chan, datum):
        asked.append((t, chan, datum))
        return receive(memo, t, chan, datum)

    monkeypatch.setattr(semantics, "_input_derivatives", counted)
    monkeypatch.setattr(ExplorationMemo, "receive", asking)
    p = parse("a!b.a!c.c?(x).x!a.0 | a?(y).c!y.a?(z).0 | a!c.c?(w).0")
    u = NameUniverse.for_terms(p)
    for explore in (lambda: build_lts_multi([p], u), lambda: BehaviorIndex(u).class_of(p)):
        calls.clear()
        asked.clear()
        explore()
        assert calls and len(calls) == len(set(calls))
        assert set(calls) == set(asked) and len(asked) > 2 * len(calls)


def _reference_input_derivatives(t, chan, datum) -> tuple:
    """The dedicated reception walker that `_input_derivatives` replaced:
    a restriction of the channel or the datum blocks, `|` and `!` lift,
    and no communication is derived."""
    done: list[tuple] = []
    todo: list = []
    while True:
        cls = type(t)
        if cls is Prefixed:
            core = t.prefix
            if type(core) is Match:
                core = _resolve_prefix(core)
            if type(core) is Input and core.chan == chan:
                done.append((_instance(t.cont, datum, core.binder),))
            else:
                done.append(())
        elif cls is Sum or cls is Par:
            todo += ((t,), t.right)
            t = t.left
            continue
        elif cls is Restrict or cls is Repl:
            if cls is Repl or (t.binder != chan and t.binder != datum):
                todo.append((t,))
                t = t.body
                continue
            done.append(())
        elif cls is Nil:
            done.append(())
        else:
            raise TypeError(f"not a process: {t!r}")
        while True:
            if not todo:
                return done[0]
            t = todo.pop()
            if type(t) is not tuple:
                break
            t = t[0]
            cls = type(t)
            if cls is Sum:
                right = done.pop()
                done[-1] += right
            elif cls is Par:
                right = done.pop()
                done[-1] = tuple(Par(l2, t.right) for l2 in done[-1]) + tuple(
                    Par(t.left, r2) for r2 in right
                )
            elif cls is Restrict:
                done[-1] = tuple(Restrict(t.binder, b2) for b2 in done[-1])
            else:
                done[-1] = tuple(Par(b2, t) for b2 in done[-1])


def test_receptions_match_the_reference_walker():
    # Receptions come from `_derive` with only inputs on one channel
    # firing; they must be the reference walker's, tuple for tuple and in
    # order, for every channel and datum among the free names and w0.
    named = [
        "new a.a?(x).x!x.0 | a?(y).0",  # restriction of the channel
        "new b.a?(x).x!b.0 | a?(y).y!b.0",  # restriction of a datum
        "new w0.a?(x).x!w0.0",  # restriction of the pool name
        "[a=a]a?(x).x!x.0 + [a=b]a?(y).0 + b?(z).0 + a!b.0",  # guards, sums
        "tau.a?(x).0 + a?(y).y!y.0 + a?(z).0",
        "!a?(x).x!x.0",
        "!(a?(x).0 | b?(y).y!y.0) | a?(z).tau.0",
        "new c.!(a?(x).c!x.0 | c?(y).a!y.0)",
        "a!b.0 | a?(x).x!x.0 | (b?(y).0 + a?(z).z!a.0)",  # outputs, no comm
        "new z.(z?(x).0 | a?(y).z!y.0 | new a.a?(w).0)",
    ]
    gen = TermGen(19, ("a", "b", "c"))
    terms = [parse(t) for t in named] + [gen.term(1 + i % 10) for i in range(300)]
    received = 0
    for t in terms:
        names = sorted(free_names(t) | {"w0"})
        for chan in names:
            for datum in names:
                got = _input_derivatives(t, chan, datum)
                assert got == _reference_input_derivatives(t, chan, datum), (t, chan, datum)
                received += len(got)
    assert received > 400


def _whole_graph(p, u):
    """States and edges of `p`'s graph in `build_lts_multi`'s order, each
    state derived whole."""
    root = state_for(p, u)
    index, states, edges = {root: 0}, [root], []
    for s in states:
        out = []
        for a, q in derive_steps(s, u):
            if q not in index:
                index[q] = len(states)
                states.append(q)
            out.append((a, index[q]))
        edges.append(tuple(out))
    return states, edges


def test_component_memo_serves_one_universe():
    # One term under three universes in turn: a memo kept from an earlier
    # universe would hand out its input choices.
    p = parse("a?(x).x!b.0 | b!a.0")
    for u in (
        NameUniverse.for_terms(p),
        NameUniverse.for_terms(p, input_mode="fresh-only"),
        NameUniverse.for_terms(p, extra_known={"c"}),
    ):
        states, edges = _whole_graph(p, u)
        l = build_lts_multi([p], u)
        assert list(l.states) == [t for t, _k in states]
        assert list(l.edges_from) == edges
        index = BehaviorIndex(u)
        index.class_of(p)
        assert set(index._class_of) == set(states)
