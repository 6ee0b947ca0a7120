"""Command-line front end and demo suite.

Exit codes: 0 success, 1 property violation, 2 usage or syntax error,
3 inconclusive (truncated norm or unverifiable normalization).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .decompose import (
    NO_SPLIT,
    TermUniverse,
    decomposition,
    find_split,
    upd_sweep,
    verify_upd,
)
from .equivalence import STRONG, WEAK, bisim
from .errors import (
    Inconclusive,
    MalformedSum,
    NormalizationIncomplete,
    ParseError,
    PiwbError,
    UnknownDemo,
)
from .lts import build_lts, build_lts_bounded, depth, norm
from .normalize import has_stuttering, stutter_free
from .parser import parse, pretty
from .semantics import NameUniverse
from .syntax import (
    Par,
    TAU_ACT,
    free_names,
    is_replication_free,
    substitute,
)

_POOL_ENV = "PIWB_FRESH_POOL"


class UsageError(PiwbError):
    """Missing operands or a malformed setting; exits with code 2."""


def _universe(args, *terms) -> NameUniverse:
    pool = args.fresh_pool
    if pool is None:
        env = os.environ.get(_POOL_ENV)
        try:
            pool = int(env) if env else None
        except ValueError:
            raise UsageError(f"{_POOL_ENV} must be an integer, got {env!r}") from None
    return NameUniverse.for_terms(
        *terms, pool_size=pool, input_mode=args.inputs
    )


def _report(args, command, inputs, results, t0) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
        "universe": {
            "inputs": args.inputs,
            "fresh_pool": args.fresh_pool,
        },
    }


def _emit(args, report) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        results = report["results"]
        if isinstance(results, dict):
            for key, value in results.items():
                print(f"{key}: {value}")
        else:
            print(results)


def _norm_value(value):
    return "infinity" if value == math.inf else value


# --------------------------------------------------------------------------
# Subcommands


def cmd_parse(args, t0):
    p = parse(args.term)
    return _report(args, "parse", [args.term], {"pretty": pretty(p)}, t0), 0


def cmd_lts(args, t0):
    p = parse(args.term)
    u = _universe(args, p)
    if args.max_weight is not None:
        l, truncated = build_lts_bounded(p, u, args.max_weight)
    else:
        l, truncated = build_lts(p, u), False
    if args.dot:
        print(l.to_dot())
        return None, 0
    results = {"lts": l.to_json_dict(), "truncated": truncated}
    return _report(args, "lts", [pretty(p)], results, t0), 0


def cmd_depth(args, t0):
    p = parse(args.term)
    l = build_lts(p, _universe(args, p))
    return _report(args, "depth", [pretty(p)], {"depth": depth(l)}, t0), 0


def cmd_norm(args, t0):
    p = parse(args.term)
    u = _universe(args, p)
    if args.max_weight is not None:
        l, _ = build_lts_bounded(p, u, args.max_weight)
    else:
        l = build_lts(p, u)
    return _report(args, "norm", [pretty(p)], {"norm": _norm_value(norm(l))}, t0), 0


def cmd_bisim(args, t0):
    p, q = parse(args.left), parse(args.right)
    u = _universe(args, p, q)
    verdict, partition = bisim(p, q, args.mode, u)
    results = {"bisimilar": verdict, "mode": args.mode}
    if args.witness:
        results["partition"] = partition.to_json_dict()
    return _report(args, "bisim", [pretty(p), pretty(q)], results, t0), 0


def cmd_stutter_check(args, t0):
    p = parse(args.term)
    u = _universe(args, p)
    verdict, witness = has_stuttering(p, u)
    results = {"has_stuttering": verdict}
    if witness is not None:
        results["witness"] = {
            "state": pretty(witness[0]),
            "successor": pretty(witness[1]),
        }
    return _report(args, "stutter-check", [pretty(p)], results, t0), 0


def cmd_normalize(args, t0):
    p = parse(args.term)
    u = _universe(args, p)
    result, report = stutter_free(p, u)
    results = {"normal_form": pretty(result), "verification": report}
    return _report(args, "normalize", [pretty(p)], results, t0), 0


def cmd_decompose(args, t0):
    p = parse(args.term)
    u = _universe(args, p)
    d = decomposition(p, args.mode, u, oracle=False if args.no_oracle else None)
    composed_ok = bisim(d.composed(), p, args.mode, _universe(args, p, d.composed()))[0]
    results = {
        "input": pretty(p),
        "mode": args.mode,
        "factors": d.to_json_dict()["factors"],
        "verified_equivalent": composed_ok,
        "oracle_universe": None
        if args.no_oracle
        else {"names": sorted(free_names(p)), "max_size": None},
    }
    code = 0 if composed_ok else 1
    return _report(args, "decompose", [pretty(p)], results, t0), code


def cmd_verify_upd(args, t0):
    if args.sweep:
        names = args.names.split(",") if args.names else ["a", "b"]
        report = upd_sweep(names, args.max_size, args.mode)
        results = report.to_json_dict()
        return _report(args, "verify-upd", [], results, t0), (0 if report.ok else 1)
    if args.left is None or args.right is None:
        raise UsageError("verify-upd needs two terms, or --sweep")
    p, q = parse(args.left), parse(args.right)
    verdict = verify_upd(p, q, args.mode)
    code = 0 if verdict.unique in (True, None) else 1
    return _report(args, "verify-upd", [pretty(p), pretty(q)], verdict.to_json_dict(), t0), code


# --------------------------------------------------------------------------
# Demos


def _demo_non_congruence(args, t0):
    par = parse("z!x.0 | a?(y).0")
    sm = parse("z!x.a?(y).0 + a?(y).z!x.0")
    u = _universe(args, par, sm)
    before = bisim(par, sm, STRONG, u)[0]
    par2, sm2 = substitute(par, "a", "z"), substitute(sm, "a", "z")
    u2 = _universe(args, par2, sm2)
    after_strong = bisim(par2, sm2, STRONG, u2)[0]
    after_weak = bisim(par2, sm2, WEAK, u2)[0]
    results = {
        "pair": [pretty(par), pretty(sm)],
        "strongly_bisimilar": before,
        "after_substitution": [pretty(par2), pretty(sm2)],
        "strongly_bisimilar_after": after_strong,
        "weakly_bisimilar_after": after_weak,
    }
    ok = before and not after_strong and not after_weak
    return results, ok


def _demo_norm_gap(args, t0):
    whole = parse("new z.(a!z.0) | a?(x).x!a.0")
    left = parse("new z.(a!z.0)")
    right = parse("a?(x).x!a.0")
    u = _universe(args, whole)
    values = {
        "norm_whole": norm(build_lts(whole, u)),
        "norm_left": norm(build_lts(left, _universe(args, left))),
        "norm_right": norm(build_lts(right, _universe(args, right))),
        "depth_whole": depth(build_lts(whole, u)),
        "depth_left": depth(build_lts(left, _universe(args, left))),
        "depth_right": depth(build_lts(right, _universe(args, right))),
    }
    ok = (
        values["norm_whole"] == 2
        and values["norm_left"] == 1
        and values["norm_right"] == 2
        and values["depth_whole"] == 3
        and values["depth_whole"] == values["depth_left"] + values["depth_right"]
    )
    return values, ok


def _demo_tau_chain(args, t0):
    chain = [parse("x!y.0"), parse("tau.x!y.0"), parse("tau.tau.x!y.0")]
    depths = [depth(build_lts(p, _universe(args, p))) for p in chain]
    weak_all = all(
        bisim(p, q, WEAK, _universe(args, p, q))[0]
        for i, p in enumerate(chain)
        for q in chain[i + 1 :]
    )
    strong_none = not any(
        bisim(p, q, STRONG, _universe(args, p, q))[0]
        for i, p in enumerate(chain)
        for q in chain[i + 1 :]
    )
    results = {
        "terms": [pretty(p) for p in chain],
        "depths": depths,
        "pairwise_weakly_bisimilar": weak_all,
        "pairwise_strongly_bisimilar": not strong_none,
    }
    return results, depths == [1, 3, 5] and weak_all and strong_none


def _demo_stutter_par(args, t0):
    left = parse("new z.a!z.0")
    right = parse("a?(x).(x!b.0 + tau.c!b.0)")
    both = Par(left, right)
    u = NameUniverse.for_terms(both, input_mode="fresh-only")
    l_st = has_stuttering(left, NameUniverse.for_terms(left, input_mode="fresh-only"))[0]
    r_st = has_stuttering(right, NameUniverse.for_terms(right, input_mode="fresh-only"))[0]
    c_st, witness = has_stuttering(both, u)
    results = {
        "left": pretty(left),
        "right": pretty(right),
        "left_stutters": l_st,
        "right_stutters": r_st,
        "composition_stutters": c_st,
        "witness": None
        if witness is None
        else {"state": pretty(witness[0]), "successor": pretty(witness[1])},
    }
    return results, (not l_st) and (not r_st) and c_st


def _demo_scope_extrusion(args, t0):
    whole = parse("new z.(a!z.z!c.c!a.0) | a?(x).x?(y).y!b.0")
    u = _universe(args, whole)
    l = build_lts(whole, u)
    first = [j for a, j in l.edges_from[l.root] if a == TAU_ACT]
    trace_ok = False
    one_transition = False
    intermediate = None
    if first:
        intermediate = first[0]
        edges = l.edges_from[intermediate]
        one_transition = len(edges) == 1
        if edges and edges[0][0] == TAU_ACT:
            final = l.states[edges[0][1]]
            trace_ok = sorted(free_names(final)) == ["a", "b", "c"]
    split = None
    if intermediate is not None:
        tu = TermUniverse(["a", "b", "c"], 8)
        split = find_split(
            l.states[intermediate], STRONG, tu, budget=100_000_000
        )
    results = {
        "term": pretty(whole),
        "intermediate": None if intermediate is None else l.state_text(intermediate),
        "intermediate_single_transition": one_transition,
        "two_tau_trace": trace_ok,
        "split": "none-within-universe" if split == NO_SPLIT else repr(split),
    }
    ok = trace_ok and one_transition and split == NO_SPLIT
    return results, ok


def _demo_weak_normed_counterexample(args, t0):
    p = parse("new z.(z!c.0 | z?(x).!a!b.0 | z?(y).0)")
    u = _universe(args, p)
    l, truncated = build_lts_bounded(p, u, args.max_weight or 10)
    try:
        bounded_norm = _norm_value(norm(l))
    except Inconclusive:
        bounded_norm = "inconclusive"
    deadlock_reachable = bounded_norm not in ("inconclusive", math.inf)
    results = {
        "term": pretty(p),
        "replication_free": is_replication_free(p),
        "truncated": truncated,
        "bounded_norm": bounded_norm,
        "note": "the weak self-composition equivalence is infinite-state; "
        "bounded exploration only witnesses normedness",
    }
    return results, truncated and deadlock_reachable and not results["replication_free"]


_DEMOS = {
    "non-congruence": _demo_non_congruence,
    "norm-gap": _demo_norm_gap,
    "tau-chain": _demo_tau_chain,
    "stutter-par": _demo_stutter_par,
    "scope-extrusion": _demo_scope_extrusion,
    "weak-normed-counterexample": _demo_weak_normed_counterexample,
}


def cmd_demo(args, t0):
    if args.name not in _DEMOS:
        raise UnknownDemo(
            f"unknown demo {args.name!r}; available: {', '.join(sorted(_DEMOS))}"
        )
    results, ok = _DEMOS[args.name](args, t0)
    results["demo"] = args.name
    results["ok"] = ok
    return _report(args, f"demo {args.name}", [], results, t0), (0 if ok else 1)


# --------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="piwb",
        description="workbench for finite pi-calculus processes",
    )
    ap.add_argument("--version", action="version", version=f"piwb {__version__}")
    ap.add_argument("--json", action="store_true", help="emit a JSON report")
    ap.add_argument(
        "--inputs",
        choices=["early", "fresh-only"],
        default="early",
        help="input instantiation discipline",
    )
    ap.add_argument(
        "--fresh-pool", type=int, default=None, help="fresh-name pool size"
    )
    ap.add_argument(
        "--max-weight", type=int, default=None, help="bounded exploration weight"
    )
    ap.add_argument("--seed", type=int, default=0, help="random seed (sweeps)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("parse", help="parse and pretty-print a term")
    s.add_argument("term")
    s.set_defaults(func=cmd_parse)

    s = sub.add_parser("lts", help="reachable transition graph")
    s.add_argument("term")
    s.add_argument("--dot", action="store_true", help="emit graphviz")
    s.set_defaults(func=cmd_lts)

    s = sub.add_parser("depth", help="longest weighted execution")
    s.add_argument("term")
    s.set_defaults(func=cmd_depth)

    s = sub.add_parser("norm", help="shortest weighted execution to deadlock")
    s.add_argument("term")
    s.set_defaults(func=cmd_norm)

    s = sub.add_parser("bisim", help="bisimilarity of two terms")
    s.add_argument("--mode", choices=[STRONG, WEAK], default=STRONG)
    s.add_argument("--witness", action="store_true", help="include the partition")
    s.add_argument("left")
    s.add_argument("right")
    s.set_defaults(func=cmd_bisim)

    s = sub.add_parser("stutter-check", help="reachable stuttering step?")
    s.add_argument("term")
    s.set_defaults(func=cmd_stutter_check)

    s = sub.add_parser("normalize", help="stutter-free normal form")
    s.add_argument("term")
    s.set_defaults(func=cmd_normalize)

    s = sub.add_parser("decompose", help="parallel factors")
    s.add_argument("--mode", choices=[STRONG, WEAK], default=STRONG)
    s.add_argument("--no-oracle", action="store_true", help="structural only")
    s.add_argument("term")
    s.set_defaults(func=cmd_decompose)

    s = sub.add_parser("verify-upd", help="unique-decomposition check")
    s.add_argument("--mode", choices=[STRONG, WEAK], default=STRONG)
    s.add_argument("--sweep", action="store_true", help="whole-universe sweep")
    s.add_argument("--names", default=None, help="comma-separated universe names")
    s.add_argument("--max-size", type=int, default=6)
    s.add_argument("left", nargs="?")
    s.add_argument("right", nargs="?")
    s.set_defaults(func=cmd_verify_upd)

    s = sub.add_parser("demo", help="run a worked example")
    s.add_argument("name")
    s.set_defaults(func=cmd_demo)

    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.perf_counter()
    try:
        report, code = args.func(args, t0)
    except (ParseError, MalformedSum, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Inconclusive, NormalizationIncomplete) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except UnknownDemo as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PiwbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if report is not None:
        _emit(args, report)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
