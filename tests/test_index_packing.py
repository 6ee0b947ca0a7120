"""BehaviorIndex stores each class's moves and each weak record as a
sorted tuple of packed ints.  These tests replay the moves the index is
given into the frozenset engine it replaced and require the same class
ids, depths, weak ids and stuttering flags, and check the packing itself.
"""

import random

import pytest

from piwb import (
    STRONG,
    TAU_ACT,
    WEAK,
    BehaviorIndex,
    FreeOut,
    NameUniverse,
    Par,
    Prefixed,
    Sum,
    TermGen,
    TooLarge,
    bisim,
    upd_sweep,
)
from piwb import equivalence
from piwb.decompose import scope_narrow
from piwb.lts import action_weight
from piwb.syntax import TAU, NIL

from conftest import tau_pad


class _FrozensetIndex:
    """The interning, weak records and stutter reach of the frozenset
    engine, kept as they were: a signature is the frozenset of its
    (action, class id) moves, a weak record (vis, proper) a pair of
    frozensets, and every tau-descendant is tried as a collapse target."""

    def __init__(self):
        self.by_signature = {}
        self.signatures = []
        self.depths = []
        self.weak = []
        self.stutter_reach = []
        self.records = []
        self.weak_intern = {}

    def intern(self, sig):
        cid = self.by_signature.get(sig)
        if cid is None:
            cid = len(self.signatures)
            self.by_signature[sig] = cid
            self.signatures.append(sig)
            self.depths.append(
                max((action_weight(a) + self.depths[c] for a, c in sig), default=0)
            )
        return cid

    def ensure_weak(self):
        weak, records = self.weak, self.records
        for cid in range(len(weak), len(self.signatures)):
            sig = self.signatures[cid]
            vis, proper = set(), set()
            for a, c2 in sig:
                w = weak[c2]
                vis2, proper2 = records[w]
                if a == TAU_ACT:
                    proper.add(w)
                    proper |= proper2
                    vis |= vis2
                else:
                    vis.add((a, w))
                    vis.update((a, t) for t in proper2)
            vis, proper = frozenset(vis), frozenset(proper)
            wid = None
            for c in proper:
                if records[c] == (vis, proper - {c}):
                    wid = c
                    break
            if wid is None:
                key = (vis, proper)
                wid = self.weak_intern.get(key)
                if wid is None:
                    wid = len(records)
                    records.append(key)
                    self.weak_intern[key] = wid
            weak.append(wid)
            self.stutter_reach.append(
                any(a == TAU_ACT and weak[c2] == wid for a, c2 in sig)
                or any(self.stutter_reach[c2] for _a, c2 in sig)
            )


@pytest.fixture
def interned(monkeypatch):
    """Log of (index, moves, class id), one entry per `intern` call."""
    log = []
    original = BehaviorIndex.intern

    def recording(self, moves):
        moves = list(moves)
        cid = original(self, moves)
        log.append((self, moves, cid))
        return cid

    monkeypatch.setattr(BehaviorIndex, "intern", recording)
    return log


def _assert_packed(index):
    for sig in index.signatures:
        assert type(sig) is tuple and all(type(k) is int for k in sig), sig
        assert list(sig) == sorted(set(sig)), sig
    for vis, proper in index._weak_sigs:
        for half in (vis, proper):
            assert type(half) is tuple and all(type(k) is int for k in half), half
            assert list(half) == sorted(set(half)), half
        if not proper:
            assert proper is ()


def _assert_matches_reference(log):
    """Replay each index's `intern` calls into the frozenset engine."""
    calls = {}
    for index, moves, cid in log:
        calls.setdefault(index, []).append((moves, cid))
    repeated = 0
    for index, replay in calls.items():
        ref = _FrozensetIndex()
        for moves, cid in replay:
            assert ref.intern(frozenset(moves)) == cid, moves
            repeated += len(moves) > len(set(moves))
        n = len(index.signatures)
        assert len(ref.signatures) == n
        assert index.depths == ref.depths
        for cid in range(n):
            assert frozenset(index.moves(cid)) == ref.signatures[cid], cid
        ref.ensure_weak()
        assert [index.weak_id(c) for c in range(n)] == ref.weak
        assert [index.stutters(c) for c in range(n)] == ref.stutter_reach
        assert len(index._weak_sigs) == len(ref.records)
        for wid, (vis, proper) in enumerate(ref.records):
            want = vis | {(TAU_ACT, t) for t in proper}
            assert frozenset(index.weak_moves(wid)) == want, wid
        _assert_packed(index)
    return len(calls), repeated


@pytest.mark.parametrize("input_mode", ["early", "fresh-only"])
def test_bisim_indices_match_frozenset_engine(interned, input_mode):
    # Independent, tau-padded, scope-narrowed and p + tau.0 pairs, and
    # p | p, whose symmetric moves repeat (action, class) pairs.
    gen = TermGen(23, ("a", "b"))
    rng = random.Random(23)
    pairs = []
    for _ in range(30):
        p, q = gen.pair(5)
        pairs += [(p, q), (p, tau_pad(p, rng)), (q, scope_narrow(q)),
                  (p, Sum(p, Prefixed(TAU, NIL))), (p, Par(p, p))]
    verdicts = set()
    for mode in (STRONG, WEAK):
        for p, q in pairs:
            u = NameUniverse.for_terms(p, q, input_mode=input_mode)
            verdicts.add(bisim(p, q, mode, u)[0])
    assert verdicts == {True, False}
    indices, repeated = _assert_matches_reference(interned)
    assert indices == 2 * len(pairs)
    assert repeated > 0


@pytest.mark.parametrize("input_mode", ["early", "fresh-only"])
@pytest.mark.parametrize("mode", [STRONG, WEAK])
def test_sweep_index_matches_frozenset_engine(interned, mode, input_mode):
    # The size-4 universe over {a, b}, max-size terms through
    # `class_of_root` included.
    report = upd_sweep(["a", "b"], 4, mode, input_mode)
    assert report.violations == []
    assert _assert_matches_reference(interned)[0] == 1


def _chain(index, length):
    """Classes 0 (no moves) up to length - 1, each a tau step below the next."""
    cids = [index.intern([])]
    for _ in range(length - 1):
        cids.append(index.intern([(TAU_ACT, cids[-1])]))
    return cids


def test_moves_at_the_edges_of_both_fields_round_trip(monkeypatch):
    # With a 3-bit id field, ids 0-7 exist and id 6 is the largest a
    # stored move can name.  Action ids have no upper field edge: 300
    # actions put the last one well above the id field.
    monkeypatch.setattr(equivalence, "_CID_BITS", 3)
    index = BehaviorIndex(NameUniverse.for_terms(extra_known=("a",)))
    assert _chain(index, 7) == list(range(7))
    actions = [FreeOut("a", f"n{i}") for i in range(300)]
    moves = [(x, 0) for x in actions] + [(TAU_ACT, 0), (actions[0], 6), (actions[-1], 6)]
    cid = index.intern(moves + moves[::-1])
    assert cid == 7
    assert index._action_ids[actions[-1]] == 300
    assert len(index.signatures[cid]) == len(moves)
    assert set(index.moves(cid)) == set(moves)
    assert index.depths[cid] == 1 + 2 * 6
    index.weak_id(cid)
    _assert_packed(index)
    for wid in range(len(index._weak_sigs)):
        assert all(t < 8 for _a, t in index.weak_moves(wid))


def test_class_ids_past_the_field_raise_without_aliasing(monkeypatch):
    monkeypatch.setattr(equivalence, "_CID_BITS", 3)
    index = BehaviorIndex(NameUniverse.for_terms(extra_known=("a",)))
    a = FreeOut("a", "a")
    _chain(index, 7)
    last = index.intern([(a, 6)])
    assert last == 7
    # Id 8 would pack (tau, 8) as (a, 0), since a has action id 1.
    with pytest.raises(TooLarge):
        index.intern([(TAU_ACT, last)])
    assert len(index.signatures) == len(index.depths) == 8
    assert index.intern([(a, 6)]) == last
    assert list(index.moves(last)) == [(a, 6)]
    with pytest.raises(TooLarge):
        index.intern([(a, 0)])
    assert len(index.signatures) == 8
