"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; every tolerance is exact (integer metrics and boolean
verdicts), and each criterion enforces its own wall-clock budget.
"""

import time

import pytest

from piwb import (
    NameUniverse,
    NormalizationIncomplete,
    Par,
    STRONG,
    WEAK,
    TermUniverse,
    bisim,
    build_lts,
    build_lts_bounded,
    depth,
    expand_hnf,
    find_split,
    is_replication_free,
    naive_bisim_oracle,
    norm,
    parse,
    pretty,
    scope_narrow,
    strong_bisim,
    stutter_free,
    substitute,
    upd_sweep,
    verify_upd,
    weak_bisim,
)
from piwb.decompose import NO_SPLIT
from piwb.gen import TermGen
from piwb.lts import build_lts_multi
from piwb.syntax import TAU_ACT, Prefixed, TAU


def _report(number, title, elapsed, budget):
    print(f"ACCEPTANCE {number} PASS ({title}) in {elapsed:.2f}s (budget {budget}s)")


def _commute(p):
    from piwb.syntax import Par as ParNode, Prefixed as Pre, Restrict as Res, Sum

    if isinstance(p, Sum):
        return Sum(_commute(p.right), _commute(p.left))
    if isinstance(p, ParNode):
        return ParNode(_commute(p.right), _commute(p.left))
    if isinstance(p, Pre):
        return Pre(p.prefix, _commute(p.cont))
    if isinstance(p, Res):
        return Res(p.binder, _commute(p.body))
    return p


def test_criterion_1_norm_non_additivity():
    t0 = time.time()
    whole = parse("new z.(a!z.0) | a?(x).x!a.0")
    left = parse("new z.(a!z.0)")
    right = parse("a?(x).x!a.0")
    assert norm(build_lts(whole)) == 2
    assert norm(build_lts(left)) == 1
    assert norm(build_lts(right)) == 2
    assert depth(build_lts(whole)) == 3
    assert depth(build_lts(left)) + depth(build_lts(right)) == 3
    elapsed = time.time() - t0
    assert elapsed < 1
    _report(1, "norm non-additivity, depth additivity", elapsed, 1)


def test_criterion_2_tau_chain():
    t0 = time.time()
    chain = [parse("x!y.0"), parse("tau.x!y.0"), parse("tau.tau.x!y.0")]
    assert [depth(build_lts(p)) for p in chain] == [1, 3, 5]
    for i, p in enumerate(chain):
        for q in chain[i + 1 :]:
            u = NameUniverse.for_terms(p, q)
            assert weak_bisim(p, q, u)[0]
            assert not strong_bisim(p, q, u)[0]
    elapsed = time.time() - t0
    assert elapsed < 1
    _report(2, "tau chain depths 1/3/5, weakly but not strongly bisimilar", elapsed, 1)


def test_criterion_3_non_congruence_pair():
    t0 = time.time()
    par = parse("z!x.0 | a?(y).0")
    sm = parse("z!x.a?(y).0 + a?(y).z!x.0")
    assert strong_bisim(par, sm)[0]
    par2 = substitute(par, "a", "z")
    sm2 = substitute(sm, "a", "z")
    assert not strong_bisim(par2, sm2)[0]
    assert not weak_bisim(par2, sm2)[0]
    elapsed = time.time() - t0
    assert elapsed < 1
    _report(3, "substitution breaks the bisimilarity", elapsed, 1)


def test_criterion_4_depth_additivity_random():
    t0 = time.time()
    gen = TermGen(42, ("a", "b", "c"))
    checked = 0
    while checked < 200:
        p, q = gen.pair(6)
        u = NameUniverse.for_terms(Par(p, q))
        assert depth(build_lts(Par(p, q), u)) == depth(build_lts(p, u)) + depth(
            build_lts(q, u)
        )
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(4, f"depth additive on {checked} random pairs", elapsed, 60)


def test_criterion_5_bisimilarity_depth_coherence():
    t0 = time.time()
    gen = TermGen(43, ("a", "b", "c"))
    checked = 0
    while checked < 200:
        p = gen.term(6)
        variants = [
            scope_narrow(p),
            expand_hnf(p).to_process(),
            _commute(p),
        ]
        d = depth(build_lts(p))
        for q in variants:
            u = NameUniverse.for_terms(p, q)
            assert strong_bisim(p, q, u)[0]
            assert depth(build_lts_multi([q], u)) == d
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(5, f"{checked} transformed pairs bisimilar with equal depth", elapsed, 120)


def test_criterion_6_expansion_soundness():
    t0 = time.time()
    gen = TermGen(44, ("a", "b", "c"))
    checked = 0
    while checked < 200:
        p = gen.term(6)
        assert strong_bisim(expand_hnf(p).to_process(), p)[0]
        checked += 1
    # The three restriction branches, pinned explicitly.
    for text, summands in [
        ("new z.tau.z!c.0", 1),   # restriction passes an unrelated prefix
        ("new z.a!z.0", 1),       # restricted datum becomes a bound output
        ("new z.z!c.0", 0),       # restricted channel silences the prefix
    ]:
        h = expand_hnf(parse(text))
        assert len(h) == summands
        assert strong_bisim(h.to_process(), parse(text))[0]
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(6, f"expansion sound on {checked} random terms + branch cases", elapsed, 120)


def test_criterion_7_oracle_agreement():
    t0 = time.time()
    gen = TermGen(45, ("a", "b"))
    checked = 0
    while checked < 500:
        p, q = gen.pair(5)
        u = NameUniverse.for_terms(p, q)
        for mode in (STRONG, WEAK):
            assert bisim(p, q, mode, u)[0] == naive_bisim_oracle(p, q, mode, u)
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(7, f"refinement and naive fixpoint agree on {checked} pairs", elapsed, 300)


def test_criterion_8_stutter_normalization():
    t0 = time.time()
    gen = TermGen(46, ("a", "b", "c"))
    verified = []
    early_incomplete = 0
    checked = 0
    while checked < 200:
        p = gen.term(6)
        checked += 1
        u = NameUniverse.for_terms(p, input_mode="fresh-only")
        result, report = stutter_free(p, u)
        assert report["stutter-free"] is True
        assert report["equivalent-to-input"] is True
        assert weak_bisim(result, p, u)[0]
        verified.append((result, u))
        # Faithful early mode must verify or raise, never claim silently.
        u_early = NameUniverse.for_terms(p, input_mode="early")
        try:
            r2, rep2 = stutter_free(p, u_early)
            assert rep2["stutter-free"] and rep2["equivalent-to-input"]
        except NormalizationIncomplete as exc:
            assert exc.report is not None
            early_incomplete += 1
    # Equal depth for weakly bisimilar stutter-free outputs: compare each
    # verified output against a tau-padded weakly bisimilar variant.
    for result, u in verified[:50]:
        padded, _ = stutter_free(Prefixed(TAU, result), u)
        assert weak_bisim(result, padded, u)[0]
        assert depth(build_lts_multi([result], u)) == depth(
            build_lts_multi([padded], u)
        )
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(
        8,
        f"{checked} fresh-only normalizations verified "
        f"({early_incomplete} early-mode incompletes surfaced honestly)",
        elapsed,
        300,
    )


@pytest.mark.slow
def test_criterion_9_upd_sweep():
    t0 = time.time()
    strong_rep = upd_sweep(["a", "b"], 6, STRONG)
    assert strong_rep.violations == []
    assert strong_rep.classes_with_pairs > 0
    weak_rep = upd_sweep(["a", "b"], 6, WEAK)
    assert weak_rep.violations == []
    assert weak_rep.normalization_failures == []
    # Cross-check the batch verdicts against the per-pair route on sample
    # equivalent pairs.
    samples = [
        ("a!a.0 | b!b.0", "a!a.b!b.0 + b!b.a!a.0", STRONG),
        ("a!a.0 | b!b.0", "b!b.0 | a!a.0", STRONG),
        ("tau.(a!a.0 | b!b.0)", "a!a.0 | b!b.0", WEAK),
        ("new u0.(a!a.0 | u0!b.0)", "a!a.0", STRONG),
    ]
    for left, right, mode in samples:
        verdict = verify_upd(parse(left), parse(right), mode)
        assert verdict.equivalent and verdict.unique, (left, right, mode)
    elapsed = time.time() - t0
    assert elapsed < 900
    _report(
        9,
        f"UPD sweep: strong {strong_rep.term_count} terms "
        f"({strong_rep.classes_with_pairs} classes with pairs), "
        f"weak {weak_rep.term_count} terms "
        f"({weak_rep.classes_with_pairs} classes with pairs), zero violations",
        elapsed,
        900,
    )


def test_criterion_10_scope_extrusion_fusion():
    t0 = time.time()
    whole = parse("new z.(a!z.z!c.c!a.0) | a?(x).x?(y).y!b.0")
    l = build_lts(whole)
    first_taus = [j for a, j in l.edges_from[l.root] if a == TAU_ACT]
    assert len(first_taus) == 1
    intermediate = first_taus[0]
    edges = l.edges_from[intermediate]
    assert len(edges) == 1, "the fused state must have exactly one transition"
    assert edges[0][0] == TAU_ACT
    final = l.states[edges[0][1]]
    assert pretty(final) == "new v0.(c!a.0 | c!b.0)"
    fused = l.states[intermediate]
    got = find_split(fused, STRONG, TermUniverse(["a", "b", "c"], 8), budget=100_000_000)
    assert got == NO_SPLIT
    elapsed = time.time() - t0
    assert elapsed < 600
    _report(10, "two-tau extrusion trace; fused state unsplittable (size<=8)", elapsed, 600)


def test_criterion_11_weak_normed_counterexample():
    t0 = time.time()
    p = parse("new z.(z!c.0 | z?(x).!a!b.0 | z?(y).0)")
    assert not is_replication_free(p)
    l, truncated = build_lts_bounded(p, max_weight=10)
    assert truncated, "replicated branch must be cut off"
    bounded_norm = norm(l)
    assert bounded_norm == 2, "the tau handshake reaches a deadlocked state"
    deadlocks = [i for i in range(len(l)) if l.is_deadlocked(i)]
    assert deadlocks, "normedness witness"
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(11, "bounded exploration: deadlock reachable, truncation flagged", elapsed, 5)
