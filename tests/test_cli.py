import json

import pytest

from piwb.cli import run


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


def test_verify_upd_pair_command(capsys):
    assert run(["verify-upd", "a!b.0 | c!d.0", "c!d.0 | a!b.0"]) == 0


def test_verify_upd_sweep_command(capsys):
    assert run(
        ["--json", "verify-upd", "--sweep", "--names", "a,b", "--max-size", "3"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["violations"] == []


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


def test_bad_fresh_pool_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PIWB_FRESH_POOL", "abc")
    assert run(["depth", "a!b.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "PIWB_FRESH_POOL" in err
    monkeypatch.setenv("PIWB_FRESH_POOL", "3")
    assert run(["depth", "a!b.0"]) == 0
