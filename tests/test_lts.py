
import random

from hypothesis import given, settings
import pytest

from piwb import (
    Inconclusive,
    NameUniverse,
    NotFinite,
    Par,
    Restrict,
    action_weight,
    build_lts,
    build_lts_bounded,
    depth,
    is_deadlocked,
    is_replication_free,
    norm,
    parse,
    state_depths,
    strong_bisim,
)
from piwb.decompose import scope_narrow
from piwb.gen import TermGen
from piwb.lts import build_lts_multi
from piwb.normalize import expand_hnf
from piwb.parser import _render, action_text
from piwb.semantics import derive_steps, start_index
from piwb.syntax import TAU_ACT, FreeOut, alpha_canonical

from conftest import process_pairs, processes, tau_pad

Q_TEXT = "new z.(a!z.0) | a?(x).x!a.0"


def test_nil_graph():
    l = build_lts(parse("0"))
    assert len(l) == 1
    assert list(l.edges()) == []


def test_norm_example_graph_contains_close_tau():
    l = build_lts(parse(Q_TEXT))
    tau_targets = [
        l.state_text(j) for i, a, j in l.edges() if i == l.root and a == TAU_ACT
    ]
    assert tau_targets == ["new v0.(0 | v0!a.0)"]


def test_scope_extrusion_two_tau_chain():
    l = build_lts(parse("new z.(a!z.z!c.c!a.0) | a?(x).x?(y).y!b.0"))
    first = [j for a, j in l.edges_from[l.root] if a == TAU_ACT]
    assert len(first) == 1
    second = l.edges_from[first[0]]
    assert len(second) == 1 and second[0][0] == TAU_ACT
    assert l.state_text(second[0][1]) == "new v0.(c!a.0 | c!b.0)"


def test_replication_rejected_without_bound():
    with pytest.raises(NotFinite):
        build_lts(parse("!a!b.0"))


def test_bounded_replication_truncates():
    p = parse("new z.(a!z.0) | a?(x).!x!a.0")
    l, truncated = build_lts_bounded(p, max_weight=10)
    assert truncated
    assert l.truncated


def test_bounded_zero_weight():
    p = parse("a!b.0")
    l, truncated = build_lts_bounded(p, max_weight=0)
    assert len(l) == 1
    assert truncated
    l2, truncated2 = build_lts_bounded(parse("0"), max_weight=0)
    assert len(l2) == 1 and not truncated2


def test_depth_examples():
    assert depth(build_lts(parse("0"))) == 0
    assert depth(build_lts(parse(Q_TEXT))) == 3
    assert depth(build_lts(parse("tau.x!y.0"))) == 3
    assert depth(build_lts(parse("tau.tau.x!y.0"))) == 5


def test_norm_examples():
    assert norm(build_lts(parse(Q_TEXT))) == 2
    assert norm(build_lts(parse("new z.a!z.0"))) == 1
    assert norm(build_lts(parse("a?(x).x!a.0"))) == 2
    assert norm(build_lts(parse("0"))) == 0


def test_norm_inconclusive_when_truncated_without_deadlock():
    l, truncated = build_lts_bounded(parse("!a!b.0"), max_weight=3)
    assert truncated
    with pytest.raises(Inconclusive):
        norm(l)


def test_norm_exact_on_truncated_graph_with_deadlock():
    p = parse("new z.(z!c.0 | z?(x).!a!b.0 | z?(y).0)")
    l, truncated = build_lts_bounded(p, max_weight=10)
    assert truncated
    assert norm(l) == 2


def test_is_deadlocked():
    l = build_lts(parse("0"))
    assert is_deadlocked(l, l.root)
    l2 = build_lts(parse("tau.0"))
    assert not is_deadlocked(l2, l2.root)
    l3 = build_lts(parse("new z.(0 | z!a.0)"))
    assert is_deadlocked(l3, l3.root)


def test_action_weights():
    assert action_weight(TAU_ACT) == 2
    assert action_weight(FreeOut("a", "b")) == 1


def test_dot_deterministic():
    p = parse(Q_TEXT)
    assert build_lts(p).to_dot() == build_lts(p).to_dot()
    assert "digraph" in build_lts(p).to_dot()


@given(processes(max_size=6))
@settings(max_examples=50, deadline=None)
def test_every_edge_satisfies_depth_recurrence(p):
    # depth(s) = max over edges of weight + depth(target), achieved by some edge
    l = build_lts(p)
    depths = state_depths(l)
    for i in range(len(l)):
        edges = l.edges_from[i]
        if not edges:
            assert depths[i] == 0
        else:
            candidates = [action_weight(a) + depths[j] for a, j in edges]
            assert depths[i] == max(candidates)


@given(process_pairs(max_size=5))
@settings(max_examples=50, deadline=None)
def test_depth_additive_over_parallel(pq):
    p, q = pq
    u = NameUniverse.for_terms(Par(p, q))
    whole = depth(build_lts(Par(p, q), u))
    assert whole == depth(build_lts(p, u)) + depth(build_lts(q, u))


@given(processes(max_size=5))
@settings(max_examples=50, deadline=None)
def test_restriction_never_increases_depth(p):
    u = NameUniverse.for_terms(p, extra_known=("a",))
    name = sorted(free_names_or_default(p))
    for z in name:
        restricted = Restrict(z, p)
        u2 = NameUniverse.for_terms(restricted, p)
        assert depth(build_lts(restricted, u2)) <= depth(build_lts(p, u2))


def free_names_or_default(p):
    from piwb import free_names

    return free_names(p) or {"a"}


@given(process_pairs(max_size=5))
@settings(max_examples=30, deadline=None)
def test_finiteness_conjunction(pq):
    p, q = pq
    assert is_replication_free(Par(p, q)) == (
        is_replication_free(p) and is_replication_free(q)
    )


@given(processes(max_size=5))
@settings(max_examples=40, deadline=None)
def test_depth_zero_iff_bisimilar_to_nil(p):
    from piwb import NIL

    u = NameUniverse.for_terms(p)
    zero_depth = depth(build_lts(p, u)) == 0
    assert zero_depth == strong_bisim(p, NIL, u)[0]


def _check_style_pairs():
    """Pairs shaped like the benchmark's `check` items: independent size-6
    terms over three names, and terms with a narrowed, head-normal-form
    or tau-padded variant."""
    gen = TermGen(3, ("a", "b", "c"))
    rng = random.Random(3)
    pairs = []
    for i in range(40):
        if i % 2 == 0:
            pairs.append(gen.pair(6))
            continue
        p = gen.term(6)
        kind = i // 2 % 3
        if kind == 0:
            q = scope_narrow(p)
        elif kind == 1:
            q = expand_hnf(p).to_process()
        else:
            q = tau_pad(p, rng)
        pairs.append((p, q))
    return pairs


def _reference_json(terms, u):
    """The graph `build_lts_multi` defines, rendering one text per edge:
    breadth first, successors ordered by action, rendered successor and
    pool cursor."""
    k0 = max(start_index(t, u) for t in terms)
    index, states, roots = {}, [], []
    for t in terms:
        state = (alpha_canonical(t, avoid=u.all_names), k0)
        if state not in index:
            index[state] = len(states)
            states.append(state)
        roots.append(index[state])
    edges = []
    pos = 0
    while pos < len(states):
        i = pos
        pos += 1
        steps = sorted(
            derive_steps(states[i], u),
            key=lambda aq: (type(aq[0]).__name__, action_text(aq[0]),
                            _render(aq[1][0], 0), aq[1][1]),
        )
        for a, q in steps:
            if q not in index:
                index[q] = len(states)
                states.append(q)
            edges.append([i, action_text(a), index[q]])
    return {
        "states": [_render(t, 0) for t, _k in states],
        "roots": roots,
        "edges": edges,
        "truncated": [],
    }


def test_graph_order_and_json_unchanged_by_rendering_once():
    for p, q in _check_style_pairs():
        for terms in ([p, q], [Par(p, q)]):
            u = NameUniverse.for_terms(*terms)
            l = build_lts_multi(terms, u)
            assert l.to_json_dict() == _reference_json(terms, u)
