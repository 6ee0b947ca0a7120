"""piwb benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload check --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --report          # every workload, every metric
    python3 perfbench/run.py --self-test       # flipped references are caught

A run imports piwb from the `src/` directory next to this one, builds the
workload's inputs (set-up), then repeats the workload from cleared caches
and prints one metric per line followed, as the last line, by a JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` it runs the workload twice, then again while another
repetition fits in `--seconds`, and reports the end-to-end metrics; a few
more set-ups are timed before each repetition, so that `setup_s` samples
the whole run rather than its first second. With `--trace 1` it
alternates two untraced and two traced repetitions, reports the per-layer
metrics and writes the first traced repetition's spans next to the run
record; the two traced repetitions must give identical counts. Outputs
are checked after timing. The exit code is 1 when a check fails and 2
when piwb cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS_PER_REPETITION = 4
MIN_REPETITIONS = 2

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from workloads import DEFAULT_DRAW, HELD_OUT_DRAW, WORKLOADS, Outcome  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("correct_rate", "ratio"),
    ("conclusive_rate", "ratio"),
]


class Failed(str):
    """Outcome of an item that raised: the exception as text."""


def import_piwb():
    """Fresh import of piwb from this checkout's src/, never from elsewhere."""
    for name in [n for n in sys.modules if n == "piwb" or n.startswith("piwb.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    piwb = importlib.import_module("piwb")
    if Path(piwb.__file__).resolve().parent != SRC / "piwb":
        raise ImportError(f"piwb imported from {piwb.__file__}, not from {SRC}")
    return piwb


def piwb_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "piwb" or n.startswith("piwb.")}


def set_up(workload, draw, seed):
    """Import piwb afresh and build the inputs: (piwb, inputs, seconds)."""
    gc.collect()
    start = time.perf_counter()
    piwb = import_piwb()
    inputs = workload.make_inputs(piwb, draw, seed)
    return piwb, inputs, time.perf_counter() - start


def timed_set_ups(piwb, workload, draw, seed, n) -> list:
    """Times of `n` more set-ups; the run's piwb modules are put back."""
    in_use = piwb_modules()
    piwb.semantics.clear_transition_cache()
    piwb.syntax.clear_hashcons()
    times = [set_up(workload, draw, seed)[2] for _ in range(n)]
    for name in piwb_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return times


class Repetition(NamedTuple):
    wall: float  # first item to last verdict
    times: list  # per item
    outcomes: list


def repetition(piwb, workload, inputs) -> Repetition:
    """One timed pass over the inputs, from empty module-global caches."""
    piwb.semantics.clear_transition_cache()
    piwb.syntax.clear_hashcons()
    gc.collect()
    clock = time.perf_counter
    outcomes, times = [], []
    start = clock()
    for item in inputs:
        t = clock()
        try:
            out = workload.run_item(piwb, item)
        except Exception as exc:  # counted as an error; the run goes on
            out = Outcome(Failed(f"{type(exc).__name__}: {exc}"))
        times.append(clock() - t)
        outcomes.append(out)
    return Repetition(clock() - start, times, outcomes)


def verify(piwb, workload, draw, inputs, reps):
    """Reference checks on the first repetition; the others must agree.

    Returns the error messages and the number of failed items, counted
    over all repetitions."""
    first = reps[0].outcomes
    raised = {i for i, o in enumerate(first) if isinstance(o.value, Failed)}
    errors = [f"item {i} raised {first[i].value}" for i in sorted(raised)]
    keep = [i for i in range(len(inputs)) if i not in raised]
    found, unchecked = workload.check(
        piwb, [inputs[i] for i in keep], [first[i] for i in keep],
        workload.pins(draw))
    errors += found
    per_rep = len(errors)
    failed = per_rep
    for rep in reps[1:]:
        differ = sum(1 for a, b in zip(first, rep.outcomes) if a != b)
        if differ:
            errors.append(f"{differ} outcomes differ from the first repetition")
        failed += min(len(inputs), per_rep + differ)
    return errors, failed, unchecked


def provenance():
    rev = "unknown (not a git checkout)"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            rev = top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_revision": rev,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def end_to_end(piwb, workload, args, inputs, setup_s):
    reps, setups = [], [setup_s]
    start = time.perf_counter()
    while len(reps) < MIN_REPETITIONS or (
            time.perf_counter() - start + reps[-1].wall <= args.seconds):
        setups += timed_set_ups(piwb, workload, args.draw, args.seed,
                                SETUPS_PER_REPETITION)
        reps.append(repetition(piwb, workload, inputs))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors, failed, unchecked = verify(piwb, workload, args.draw, inputs, reps)
    attempted = len(inputs) * len(reps)
    inconclusive = sum(o.inconclusive for rep in reps for o in rep.outcomes)
    times = [t for rep in reps for t in rep.times]
    metrics = {
        "wall_s": statistics.median(rep.wall for rep in reps),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[-1] * 1000,
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
        "correct_rate": 1 - failed / attempted,
        "conclusive_rate": 1 - inconclusive / attempted,
    }
    extra = {"repetitions": [rep.wall for rep in reps], "unchecked": unchecked,
             "items": [str(item[0]) for item in inputs],
             "item_s": [rep.times for rep in reps], "setup_samples_s": setups}
    return metrics, END_TO_END, errors, attempted, failed, extra


def traced(piwb, workload, args, inputs, setup_s):
    """Untraced and traced repetitions alternate, two of each."""
    plain, runs = [], []
    for _ in range(2):
        plain.append(repetition(piwb, workload, inputs))
        tracer = tracing.Tracer()
        with tracer.installed():
            rep = repetition(piwb, workload, inputs)
        runs.append((tracer, rep))
    reps = plain + [rep for _t, rep in runs]
    errors, failed, unchecked = verify(piwb, workload, args.draw, inputs, reps)
    listed = tracing.PER_LAYER + (tracing.SPLIT_LAYER if args.workload == "split" else [])
    values = [tracer.layer_values(listed) for tracer, _rep in runs]
    units = dict(listed)
    metrics = {}
    for key, value in values[0].items():
        if units[key] == "s":
            metrics[key] = (value + values[1][key]) / 2
        else:
            metrics[key] = value
            if values[1][key] != value:
                errors.append(f"traced repetitions disagree on {key}: "
                              f"{value} vs {values[1][key]}")
    for tracer, rep in runs:
        if tracer.self_time_total() > rep.wall:
            errors.append(f"self times sum to {tracer.self_time_total():.6f} s, "
                          f"more than the traced wall time {rep.wall:.6f} s")
    untraced_wall = statistics.median(rep.wall for rep in plain)
    traced_wall = statistics.median(rep.wall for _t, rep in runs)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    runs[0][0].write_spans(spans)
    extra = {"repetitions": [rep.wall for rep in reps], "unchecked": unchecked,
             "untraced_wall_s": untraced_wall,
             "self_time_sum_s": [t.self_time_total() for t, _ in runs],
             "spans": len(runs[0][0].span_name), "spans_file": spans.name}
    attempted = len(inputs) * len(reps)
    return metrics, listed, errors, attempted, failed, extra


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    try:
        piwb, inputs, setup_s = set_up(workload, args.draw, args.seed)
    except ImportError as exc:
        print(f"cannot import piwb from {SRC}: {exc}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    metrics, listed, errors, attempted, failed, extra = measure(
        piwb, workload, args, inputs, setup_s)
    prov = provenance()
    print(f"# workload={args.workload} seed={args.seed} draw={args.draw} "
          f"trace={args.trace} items={len(inputs)} "
          f"repetitions={len(extra['repetitions'])} unchecked={extra['unchecked']}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, unit in listed:
        print(f"{name} {metrics[name]} {unit}")
    for message in errors:
        print(f"ERROR {message}", file=sys.stderr)
    correct = not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in listed},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  draw=args.draw, trace=args.trace, provenance=prov,
                  errors=errors, **extra)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def report(args) -> int:
    """Every workload untraced and traced, in turn, in fresh processes."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--draw", str(args.draw)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                results[trace] = json.loads(lines[-1])
            except (IndexError, ValueError):
                results[trace] = None
            if proc.returncode != 0 or not (results[trace] or {}).get("correct"):
                status = 1
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})")
        print(f"== {name} (seed {args.seed}, draw {args.draw})")
        for trace in (0, 1):
            if results[trace] is None:
                continue
            for metric, entry in results[trace]["metrics"].items():
                print(f"{name}  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
        if results[0] and results[1]:
            untraced = results[0]["metrics"]["wall_s"]["value"]
            traced_wall = results[1]["metrics"]["trace.wall_s"]["value"]
            print(f"{name}  tracing overhead vs untraced run  "
                  f"{traced_wall / untraced - 1:+.3f}")
    return status


def self_test() -> int:
    """A deliberately wrong expected or observed verdict must be caught."""
    piwb = import_piwb()
    failures = []

    def expect_caught(label, workload, inputs, outcomes, pins):
        clean, _ = workload.check(piwb, inputs, outcomes[0], pins[0])
        flipped, _ = workload.check(piwb, inputs, outcomes[1], pins[1])
        ok = not clean and bool(flipped)
        print(f"self-test {label}: {'caught' if ok else 'NOT CAUGHT'}")
        if not ok:
            failures.append(label)

    sweep = WORKLOADS["sweep"]
    pins = sweep.pins(DEFAULT_DRAW)
    good = Outcome(dict(pins["strong"], mode="strong", violations=0,
                        normalization_failures=0))
    bad = Outcome(dict(good.value, classes_with_pairs=good.value["classes_with_pairs"] + 1))
    item = [("strong", ("a", "b"))]
    expect_caught("sweep pinned count", sweep, item, ([good], [bad]), (pins, pins))

    check = WORKLOADS["check"]
    inputs = check.make_inputs(piwb, DEFAULT_DRAW, 0)[:6]
    outs = [check.run_item(piwb, item) for item in inputs]
    flip = outs[0]._replace(value=dict(outs[0].value, weak=not outs[0].value["weak"]))
    expect_caught("check weak verdict", check, inputs, (outs, [flip] + outs[1:]),
                  ({}, {}))

    split = WORKLOADS["split"]
    items = [it for it in split.make_inputs(piwb, DEFAULT_DRAW, 0) if it[0] == "known"]
    outs = [split.run_item(piwb, item) for item in items]
    expect_caught("split pinned verdict", split, items, (outs, outs),
                  ({"known": True}, {"known": False}))
    got = outs[0].value
    wrong = [Outcome(piwb.SplitFound(got.left, got.left))]
    expect_caught("split wrong factors", split, items, (outs, wrong),
                  ({"known": True}, {"known": True}))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = (
        {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
        and [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
        and [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    )
    print(f"self-test BENCHMARK.json lists what runs report: {listed}")
    if not listed:
        failures.append("BENCHMARK.json")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="run seed: renames the draw's free names")
    ap.add_argument("--draw", type=int, default=DEFAULT_DRAW,
                    help=f"draw seed: picks the terms ({HELD_OUT_DRAW} is held "
                         "out for confirming claims)")
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced and traced")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.report:
        return report(args)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
