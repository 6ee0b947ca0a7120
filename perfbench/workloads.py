"""The benchmark's workloads: inputs, one timed repetition, reference checks.

Each workload is a `Workload`:

* `make_inputs(piwb, draw, seed)` builds the inputs (untimed set-up). The
  draw seed picks the terms; the run seed maps the draw's free names,
  order-preservingly, onto other letters. Costs per term are heavy-tailed
  (one `find_split` call or bisimilarity item can take a thousand times
  the median), so fresh random draws per run would move wall time by a
  factor of two or more. A renamed copy of the same draw does the same
  work, so runs with different seeds agree while still feeding piwb
  different terms. Item order stays fixed: it decides which items pay
  for shared cache misses and garbage-collection pauses.
* `run_item(piwb, item)` performs one item; its result is the outcome.
  The first field of an item is its label.
* `check(piwb, inputs, outcomes, pinned)` compares outcomes with
  references that do not come from the code path being timed, and
  returns a list of error messages (one per item at fault) plus a count
  of items the reference could not decide.
* `pins(draw)` gives the pinned reference values for a draw.

Only piwb's public functions are called. The workloads never clear or
share state themselves; the runner does that between repetitions.
"""

from __future__ import annotations

import random
from typing import NamedTuple

# Letters the run seed may rename free names to. The sources a, b, c are
# excluded so renaming never captures, and so are u, v and w, the first
# letters of generated binders (u0), canonical binders (v0) and
# fresh-pool names (w0).
LETTERS = "defghijklmnopqrstxyz"

DEFAULT_DRAW = 1
HELD_OUT_DRAW = 2


def renaming(seed: int, sources: tuple[str, ...]) -> dict[str, str]:
    """Order-preserving map of `sources` onto letters picked by `seed`."""
    targets = sorted(random.Random(seed).sample(LETTERS, len(sources)))
    return dict(zip(sorted(sources), targets))


def rename(piwb, p, mapping):
    for old, new in mapping.items():
        p = piwb.substitute(p, new, old)
    return p


def as_parsed(piwb, p):
    """The input as a user would hand it over: as text, parsed."""
    return piwb.parse(piwb.pretty(p))


class Outcome(NamedTuple):
    value: object
    inconclusive: bool = False


class Workload(NamedTuple):
    make_inputs: object
    run_item: object
    check: object
    pins: object  # draw seed -> reference values for `check`


# --------------------------------------------------------------------------
# sweep: whole-universe UPD sweeps, strong then weak


SWEEP_SIZE = 5

# Reference counts for names {a, b} at size 5; renaming the two names
# cannot change them.
SWEEP_PINNED = {
    "strong": {"terms": 49051, "classes": 12948, "classes_with_pairs": 2361},
    "weak": {"terms": 49051, "classes": 9126, "classes_with_pairs": 1014},
}


def sweep_inputs(piwb, draw, seed):
    # An exhaustive sweep draws nothing; the seed only picks the two names.
    names = tuple(renaming(seed, ("a", "b")).values())
    return [(piwb.STRONG, names), (piwb.WEAK, names)]


def sweep_item(piwb, item):
    mode, names = item
    report = piwb.upd_sweep(list(names), SWEEP_SIZE, mode)
    return Outcome({
        "mode": mode,
        "terms": report.term_count,
        "classes": report.class_count,
        "classes_with_pairs": report.classes_with_pairs,
        "violations": len(report.violations),
        "normalization_failures": len(report.normalization_failures),
    }, inconclusive=bool(report.normalization_failures))


def sweep_check(piwb, inputs, outcomes, pinned):
    errors = []
    for (mode, names), out in zip(inputs, outcomes):
        got = out.value
        want = dict(pinned[mode], violations=0, normalization_failures=0)
        diff = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        if diff:
            errors.append(f"sweep {mode} over {names}: got/want {diff}")
    return errors, 0


# --------------------------------------------------------------------------
# check: interactive bisimilarity / metrics / normalization items


CHECK_ITEMS = 200
CHECK_SIZE = 6
VARIANTS = ("narrow", "hnf", "tau")


def _tau_pad(piwb, p, rng):
    """Weakly bisimilar copy: internal steps right after prefixes (a.P ~~
    a.tau.P, a congruence law) and possibly one in front of the whole term."""
    def go(t):
        if isinstance(t, piwb.Prefixed):
            cont = go(t.cont)
            if rng.random() < 0.5:
                cont = piwb.Prefixed(piwb.TAU, cont)
            return piwb.Prefixed(t.prefix, cont)
        if isinstance(t, piwb.Sum):
            return piwb.Sum(go(t.left), go(t.right))
        if isinstance(t, piwb.Par):
            return piwb.Par(go(t.left), go(t.right))
        if isinstance(t, piwb.Restrict):
            return piwb.Restrict(t.binder, go(t.body))
        return t

    q = go(p)
    return piwb.Prefixed(piwb.TAU, q) if rng.random() < 0.5 else q


def _variant(piwb, p, kind, rng):
    if kind == "hnf":
        hnf = piwb.expand_hnf(p)
        # Bound-output summands fold back into restrictions under a sum,
        # which the concrete syntax cannot express; use narrowing there.
        if not any(isinstance(g, piwb.BoundOutputPrefix) for g, _ in hnf):
            return kind, hnf.to_process()
        kind = "narrow"
    if kind == "narrow":
        return kind, piwb.scope_narrow(p)
    return kind, _tau_pad(piwb, p, rng)


def check_inputs(piwb, draw, seed):
    gen = piwb.TermGen(draw, ("a", "b", "c"))
    rng = random.Random(draw)
    drawn = []
    for i in range(CHECK_ITEMS):
        if i % 2 == 0:
            p, q = gen.pair(CHECK_SIZE)
            kind = "independent"
        else:
            p = gen.term(CHECK_SIZE)
            kind, q = _variant(piwb, p, VARIANTS[(i // 2) % len(VARIANTS)], rng)
        drawn.append((i, kind, p, q))
    mapping = renaming(seed, ("a", "b", "c"))
    return [
        (i, kind, as_parsed(piwb, rename(piwb, p, mapping)),
         as_parsed(piwb, rename(piwb, q, mapping)))
        for i, kind, p, q in drawn
    ]


def check_item(piwb, item):
    _i, _kind, p, q = item
    text = piwb.pretty(p)
    back = piwb.parse(text)
    u = piwb.NameUniverse.for_terms(p, q)
    strong = piwb.strong_bisim(p, q, u)[0]
    weak = piwb.weak_bisim(p, q, u)[0]
    lts = piwb.build_lts(piwb.Par(p, q))
    depth = piwb.depth(lts)
    norm = piwb.norm(lts)
    fresh = piwb.NameUniverse.for_terms(p, input_mode="fresh-only")
    try:
        normal, _report = piwb.stutter_free(p, fresh)
    except piwb.NormalizationIncomplete:
        normal = None
    return Outcome(
        {"back": back, "u": u, "strong": strong, "weak": weak,
         "depth": depth, "norm": norm, "normal": normal},
        inconclusive=normal is None,
    )


def check_check(piwb, inputs, outcomes, pinned):
    errors = []
    unchecked = 0
    for (i, kind, p, q), out in zip(inputs, outcomes):
        got = out.value
        faults = []
        if not piwb.alpha_equivalent(got["back"], p):
            faults.append("parse(pretty(p)) is not alpha-equal to p")
        for mode in (piwb.STRONG, piwb.WEAK):
            try:
                want = piwb.naive_bisim_oracle(p, q, mode, got["u"])
            except piwb.TooLarge:
                unchecked += 1
                continue
            if got[mode] != want:
                faults.append(f"{mode} verdict {got[mode]}, oracle says {want}")
        if kind in ("narrow", "hnf") and not (got["strong"] and got["weak"]):
            faults.append(f"{kind} variant not found equivalent")
        if kind == "tau" and not got["weak"]:
            faults.append("tau-padded variant not found weakly equivalent")
        parts = piwb.depth(piwb.build_lts(p)) + piwb.depth(piwb.build_lts(q))
        if got["depth"] != parts:
            faults.append(f"depth(p|q) = {got['depth']}, depth(p) + depth(q) = {parts}")
        if got["normal"] is not None:
            fresh = piwb.NameUniverse.for_terms(
                p, got["normal"], input_mode="fresh-only")
            try:
                if not piwb.naive_bisim_oracle(got["normal"], p, piwb.WEAK, fresh):
                    faults.append("stutter-free form not weakly bisimilar to p")
            except piwb.TooLarge:
                unchecked += 1
        if faults:
            errors.append(f"check item {i} ({kind}) {piwb.pretty(p)!r} vs "
                          f"{piwb.pretty(q)!r}: " + "; ".join(faults))
    return errors, unchecked


# --------------------------------------------------------------------------
# split: bounded parallel-split search


SPLIT_STRONG_ITEMS = 96
SPLIT_WEAK_ITEMS = 24
SPLIT_SIZE = 5
SPLIT_STRONG_UNIVERSE = 4
SPLIT_WEAK_UNIVERSE = 3
# Acceptance criterion 10: the state reached after the first internal step
# of this term has no split within sizes up to 8 over {a, b, c}.
FUSION_SOURCE = "new z.(a!z.z!c.c!a.0) | a?(x).x?(y).y!b.0"
FUSION_UNIVERSE = 8
FUSION_BUDGET = 100_000_000
SPLIT_BUDGET = 2_000_000  # find_split's default
KNOWN_SPLIT = "a!a.b!b.0 + b!b.a!a.0"


def _fusion_state(piwb, mapping):
    whole = rename(piwb, piwb.parse(FUSION_SOURCE), mapping)
    lts = piwb.build_lts(whole)
    (first,) = [j for a, j in lts.edges_from[lts.root] if a == piwb.TAU_ACT]
    return lts.states[first]


def split_inputs(piwb, draw, seed):
    gen = piwb.TermGen(draw, ("a", "b"))
    drawn = [("strong", gen.term(SPLIT_SIZE)) for _ in range(SPLIT_STRONG_ITEMS)]
    drawn += [("weak", gen.term(SPLIT_SIZE)) for _ in range(SPLIT_WEAK_ITEMS)]
    mapping = renaming(seed, ("a", "b", "c"))
    two = tuple(mapping[n] for n in ("a", "b"))
    items = [
        (f"draw{i}", mode, as_parsed(piwb, rename(piwb, p, mapping)), two,
         SPLIT_STRONG_UNIVERSE if mode == "strong" else SPLIT_WEAK_UNIVERSE,
         SPLIT_BUDGET)
        for i, (mode, p) in enumerate(drawn)
    ]
    items.append(("fusion", "strong", _fusion_state(piwb, mapping),
                  tuple(mapping.values()), FUSION_UNIVERSE, FUSION_BUDGET))
    items.append(("known", "strong",
                  rename(piwb, piwb.parse(KNOWN_SPLIT), mapping), two,
                  SPLIT_STRONG_UNIVERSE, SPLIT_BUDGET))
    return items


def split_item(piwb, item):
    _key, mode, p, names, size, budget = item
    universe = piwb.TermUniverse(list(names), size)
    try:
        got = piwb.find_split(p, mode, universe, budget=budget)
    except piwb.Aborted:
        return Outcome(None, inconclusive=True)
    return Outcome(got)


def split_check(piwb, inputs, outcomes, pinned):
    errors = []
    unchecked = 0
    found = {}
    for (key, mode, p, _names, _size, _budget), out in zip(inputs, outcomes):
        got = out.value
        if got is None:
            continue
        split = isinstance(got, piwb.SplitFound)
        found[key] = split
        if split:
            try:
                ok = piwb.naive_bisim_oracle(piwb.Par(got.left, got.right), p, mode)
            except piwb.TooLarge:
                unchecked += 1
                ok = True
            if not ok:
                errors.append(f"split {key}: {piwb.pretty(got.left)!r} | "
                              f"{piwb.pretty(got.right)!r} is not {mode}ly "
                              f"bisimilar to {piwb.pretty(p)!r}")
        elif got != piwb.NoSplitWithinUniverse():
            errors.append(f"split {key}: unexpected verdict {got!r}")
    for key, want in pinned.items():
        if key in found and found[key] != want:
            errors.append(f"split {key}: split found = {found[key]}, "
                          f"reference says {want}")
    return errors, unchecked


# The two named items hold for every draw.
SPLIT_PINNED = {"fusion": False, "known": True}
# Draw items on the default draw where a split is found; every other
# draw item of that draw has no split within its universe.
SPLIT_FOUND_ON_DEFAULT_DRAW = frozenset({25, 26, 28, 34, 44, 51, 92, 94, 114})


def split_pins(draw):
    pins = dict(SPLIT_PINNED)
    if draw == DEFAULT_DRAW:
        for i in range(SPLIT_STRONG_ITEMS + SPLIT_WEAK_ITEMS):
            pins[f"draw{i}"] = i in SPLIT_FOUND_ON_DEFAULT_DRAW
    return pins


WORKLOADS = {
    "sweep": Workload(sweep_inputs, sweep_item, sweep_check,
                      lambda draw: SWEEP_PINNED),
    "check": Workload(check_inputs, check_item, check_check, lambda draw: {}),
    "split": Workload(split_inputs, split_item, split_check, split_pins),
}
