import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from piwb import cli
from piwb.cli import run
from piwb.errors import (
    Aborted,
    Inconclusive,
    NormalizationIncomplete,
    ParseError,
    PiwbError,
)


def test_norm_command(capsys):
    assert run(["norm", "new z.(a!z.0) | a?(x).x!a.0"]) == 0
    assert capsys.readouterr().out.strip() == "norm: 2"


def test_depth_command(capsys):
    assert run(["depth", "tau.tau.x!y.0"]) == 0
    assert capsys.readouterr().out.strip() == "depth: 5"


def test_bisim_weak_command(capsys):
    assert run(["bisim", "--mode=weak", "x!y.0", "tau.tau.x!y.0"]) == 0
    out = capsys.readouterr().out
    assert "bisimilar: True" in out


def test_parse_error_exit_code(capsys):
    assert run(["parse", "a!"]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_sum_exit_code(capsys):
    assert run(["parse", "new z.z!a.0 + b!b.0"]) == 2


def test_unknown_demo_exit_code(capsys):
    assert run(["demo", "nope"]) == 2


def test_json_report_deterministic(capsys):
    assert run(["--json", "depth", "tau.x!y.0"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert run(["--json", "depth", "tau.x!y.0"]) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second
    assert first["results"]["depth"] == 3


def test_lts_dot_output(capsys):
    assert run(["lts", "--dot", "a!b.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "a!b" in out


def test_lts_bounded_json(capsys):
    code = run(["--json", "--max-weight", "4", "lts", "new z.(a!z.0) | a?(x).!x!a.0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["truncated"] is True


def test_stutter_check_command(capsys):
    assert run(["stutter-check", "tau.0"]) == 0
    out = capsys.readouterr().out
    assert "has_stuttering: True" in out


def test_normalize_command(capsys):
    assert run(["normalize", "tau.tau.x!y.0"]) == 0
    out = capsys.readouterr().out
    assert "x!y.0" in out


def test_decompose_command(capsys):
    assert run(["--json", "decompose", "a!a.0 | b!b.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["factors"] == ["a!a.0", "b!b.0"]
    assert payload["results"]["verified_equivalent"] is True
    assert run(["--json", "decompose", "a!a.b!b.0 + b!b.a!a.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["factors"] == ["a!a.0", "b!b.0"]


def test_verify_upd_pair_command(capsys):
    assert run(["verify-upd", "a!b.0 | c!d.0", "c!d.0 | a!b.0"]) == 0


def test_verify_upd_pair_honours_input_discipline(capsys):
    pair = ["a?(x).[x=a]b!b.0 | c!c.0", "a?(x).0 | c!c.0"]
    assert run(["--inputs", "fresh-only", "verify-upd", "--mode", "weak", *pair]) == 0
    out = capsys.readouterr().out
    assert "equivalent: True" in out and "unique: True" in out


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_verify_upd_factor_larger_than_six_operators(mode, capsys):
    # The shared factor has 8 operators; the right-hand sum must still be
    # split into it and `a!c.0`, whatever the factor's size.
    pair = [
        "b!b.(tau.a!b.0 + [c=c]tau.0) | a!c.0",
        "b!b.(tau.a!b.0 + [c=c]tau.0 | a!c.0) + a!c.(b!b.(tau.a!b.0 + [c=c]tau.0) | 0)",
    ]
    assert run(["verify-upd", "--mode", mode, *pair]) == 0
    out = capsys.readouterr().out
    assert "equivalent: True" in out and "unique: True" in out


def test_verify_upd_sweep_command(capsys):
    for mode, inputs in (("strong", "early"), ("weak", "fresh-only")):
        argv = ["--json", "verify-upd", "--sweep", "--mode", mode,
                "--names", "a,b", "--max-size", "3"]
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["violations"] == []
        # The report names the discipline the sweep ran in.
        assert payload["universe"]["inputs"] == inputs
        assert payload["results"]["universe"]["inputs"] == inputs


def test_adjacent_restrictions_decompose_promptly():
    # Narrowing once swapped these binders back and forth on every call,
    # so decomposition never settled.
    term = "c!b.new x.new y.y!x.0"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in (["decompose", term], ["verify-upd", term, term]):
        done = subprocess.run([sys.executable, "-m", "piwb.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr


def test_norm_inconclusive_exit_code(capsys):
    assert run(["--max-weight", "3", "norm", "!a!b.0"]) == 3


@pytest.mark.parametrize(
    "name",
    [
        "non-congruence",
        "norm-gap",
        "tau-chain",
        "stutter-par",
        "weak-normed-counterexample",
    ],
)
def test_demos_pass(name, capsys):
    assert run(["demo", name]) == 0
    assert "ok: True" in capsys.readouterr().out


def test_demo_scope_extrusion(capsys):
    # Runs the full split search; slowest demo, still desk scale.
    assert run(["demo", "scope-extrusion"]) == 0
    out = capsys.readouterr().out
    assert "intermediate_single_transition: True" in out
    assert "none-within-universe" in out


def test_fresh_only_flag(capsys):
    assert run(["--inputs", "fresh-only", "stutter-check", "a?(x).(x!b.0 + tau.c!b.0)"]) == 0
    assert "has_stuttering: False" in capsys.readouterr().out
    assert run(["stutter-check", "a?(x).(x!b.0 + tau.c!b.0)"]) == 0
    assert "has_stuttering: True" in capsys.readouterr().out


def test_verify_upd_without_operands_is_usage_error(capsys):
    assert run(["verify-upd"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["verify-upd", "a!b.0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_replicated_term_is_usage_error(capsys):
    assert run(["depth", "!a!b.0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fresh_pool_option_is_gone(capsys):
    # The pool of fresh names is unbounded, so there is no size to set.
    assert run(["--fresh-pool", "3", "depth", "a!b.0"]) == 2
    assert capsys.readouterr().err.startswith("usage: piwb")
    assert run(["depth", "a?(x).a?(y).a?(z).0"]) == 0
    assert capsys.readouterr().out.strip() == "depth: 3"


def _error_types(cls=PiwbError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_types(sub)


@pytest.mark.parametrize("cls", sorted(_error_types(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_exit_code_is_a_property_of_the_error_type(cls, capsys, monkeypatch):
    # Exit code 1 is left to violated properties: every error exits 2,
    # or 3 when the outcome is inconclusive.
    inconclusive = cls in (Inconclusive, NormalizationIncomplete, Aborted)
    want = 3 if inconclusive else 2
    assert cls.exit_code == want
    exc = cls("boom", None) if cls is ParseError else cls("boom")

    def fail(args, t0):
        raise exc

    monkeypatch.setattr(cli, "cmd_depth", fail)
    assert run(["depth", "a!b.0"]) == want
    label = "inconclusive" if inconclusive else "error"
    assert capsys.readouterr().err == f"{label}: boom\n"


@pytest.mark.parametrize(
    "args, nontrivial",
    [
        pytest.param(
            ["bisim", "--witness", "a!b.0 | b?(x).x!c.0",
             "a!b.b?(x).x!c.0 + b?(x).(a!b.0 | x!c.0) + tau.c!c.0"],
            lambda r: len(r["partition"]["blocks"]) > 3,
            id="bisim-witness",
        ),
        pytest.param(
            ["decompose", "--mode", "weak",
             "new z.(tau.(a!c.0 | tau.new y.b?(x).0) | [z=c]tau.0)"],
            lambda r: len(r["factors"]) == 2,
            id="decompose-weak",
        ),
        pytest.param(
            ["lts", "b?(x).x!a.0 | b!c.0 | c?(y).0"],
            lambda r: len(r["lts"]["edges"]) > 20,
            id="lts",
        ),
        pytest.param(
            # Two-way communication and a close, through the pair table.
            ["lts", "new z.a!z.z?(x).0 | a?(y).y!b.0 | a!c.0"],
            lambda r: "new v0.(0 | 0) | 0" in r["lts"]["states"]
            and sum(e[1] == "tau" for e in r["lts"]["edges"]) > 5,
            id="lts-close",
        ),
    ],
)
def test_json_results_independent_of_hash_seed(args, nontrivial):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "piwb.cli", "--json", *args]
    results = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        results.append(json.loads(done.stdout)["results"])
    assert results[0] == results[1]
    assert nontrivial(results[0])


@pytest.mark.parametrize(
    "term, mode",
    [
        (" | ".join(["a!b.0"] + ["0"] * 9_999), "strong"),
        (" + ".join(["a!b.0"] * 10_000), "strong"),
        ("new z." * 10_000 + "a!b.0", "strong"),
        ("tau." * 10_000 + "a!b.0", "weak"),
        ("(" * 10_000 + "a!b.0" + ")" * 10_000, "strong"),
    ],
    ids=["par", "sum", "new", "prefix", "parens"],
)
def test_terms_nested_10000_deep(term, mode, capsys):
    # Parsing, step derivation and the class engine take no stack frame
    # per level of `|`, `+`, `new`, prefix or parenthesis nesting.
    assert run(["bisim", "--mode", mode, term, "a!b.0"]) == 0
    assert "bisimilar: True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "term, factors",
    [
        ("new z." * 10_000 + "a!b.0", ["a!b.0"]),
        # The binder sinks through 10,000 right factors onto the last.
        (
            "new z.(a!b.0 | " + "(0 | " * 10_000 + "(z!a.0 | z?(x).0)" + ")" * 10_001,
            ["a!b.0", "new v0.(v0!a.0 | v0?(v1).0)"],
        ),
        # 10,000 dead guards go from one sum.
        ("new z.(" + "[a=z]b!b.0 + " * 10_000 + "a!b.0)", ["a!b.0"]),
    ],
    ids=["new", "sink", "dead-guards"],
)
def test_decompose_nested_10000_deep(term, factors, capsys):
    # Scope narrowing, factor flattening and dead-guard pruning take no
    # stack frame per level.
    assert run(["--json", "decompose", term]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["factors"] == factors


def test_verify_upd_pair_nested_10000_deep(capsys):
    assert run(["verify-upd", "new z." * 10_000 + "a!b.0", "a!b.0"]) == 0
    out = capsys.readouterr().out
    assert "equivalent: True" in out and "unique: True" in out
