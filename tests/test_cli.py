"""Command-line interface: payloads, exit codes, determinism."""

import json
from fractions import Fraction as F

import pytest

from intervalgames import InternalFailure, fixture, instance_to_json, profile_to_json
from intervalgames import cli
from intervalgames.cli import main


@pytest.fixture()
def ex1_files(tmp_path):
    fx = fixture("ex1")
    instance = tmp_path / "ex1.json"
    instance.write_text(instance_to_json(fx.instance))
    profile = tmp_path / "figure_a.json"
    profile.write_text(profile_to_json(fx.notable_profiles["figure_a"]))
    return str(instance), str(profile)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_solve_with_oracle(capsys, ex1_files):
    instance, profile = ex1_files
    code, payload = _run(capsys, "solve", instance, profile, "--oracle")
    assert code == 0
    assert payload["value"] == "5"
    assert payload["oracle_value"] == "5"
    assert payload["covered"] == [2, 3]


def test_solve_internal_failure_exits_3(capsys, monkeypatch, ex1_files):
    def broken(instance, profile):
        raise InternalFailure("dp credit mismatch")

    monkeypatch.setattr(cli, "solve_machine_dp", broken)
    instance, profile = ex1_files
    code = main(["solve", instance, profile])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "internal consistency failure: dp credit mismatch" in captured.err
    assert "Traceback" not in captured.err


def test_opt_methods(capsys, ex1_files):
    instance, _ = ex1_files
    code, payload = _run(capsys, "opt", instance)
    assert code == 0 and payload["value"] == "5"
    code, payload = _run(capsys, "opt", instance, "--method", "brute")
    assert code == 0 and payload["value"] == "5"
    # knapsack needs one job per color: exit 2
    code, _ = _run(capsys, "opt", instance, "--method", "knapsack")
    assert code == 2


def test_ne_construct_single(capsys):
    code, payload = _run(capsys, "ne", "--fixture", "poa_tight", "--n", "5",
                         "--epsilon", "1/10", "--construct", "single")
    assert code == 0
    assert payload["value"] == "21/10"
    assert payload["certified"] is True


def test_ne_verify_prints_deviation(capsys, tmp_path):
    fx = fixture("pos_two")
    instance = tmp_path / "i.json"
    instance.write_text(instance_to_json(fx.instance))
    profile = tmp_path / "opt.json"
    profile.write_text(profile_to_json(fx.notable_profiles["opt"]))
    code, payload = _run(capsys, "ne", str(instance), "--verify", str(profile))
    assert code == 0
    assert payload["stable"] is False
    assert payload["deviation"]["player"] == 1
    assert payload["deviation"]["utility_after"] == "4/3"


def test_ne_enumerate_expected_no_ne(capsys):
    code, payload = _run(capsys, "ne", "--fixture", "ex1", "--enumerate")
    assert code == 0
    assert payload["status"] == "no_ne_expected"
    assert payload["ne"] == []


def test_ne_enumerate_inconclusive_exit(capsys, tmp_path):
    # same game by file: no fixture metadata, so empty means inconclusive
    fx = fixture("ex1")
    instance = tmp_path / "i.json"
    instance.write_text(instance_to_json(fx.instance))
    code, payload = _run(capsys, "ne", str(instance), "--enumerate")
    assert code == 1
    assert payload["status"] == "no_ne_found"


def test_brd_cycle_and_trace(capsys, ex1_files, tmp_path):
    instance, profile = ex1_files
    trace = tmp_path / "trace.csv"
    code, payload = _run(capsys, "brd", instance, profile, "--max-iters", "50",
                         "--trace", str(trace))
    assert code == 0
    assert payload["status"] == "cycle_detected"
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,player,delta,value"
    assert len(lines) == payload["iterations"] + 1


def test_brd_zero_iters(capsys, ex1_files):
    instance, profile = ex1_files
    code, payload = _run(capsys, "brd", instance, profile, "--max-iters", "0")
    assert code == 0
    assert payload["status"] == "iteration_cap"
    assert payload["final"]["starts"]["3"] == "1"


def test_analyze_fixture_unit_tight(capsys):
    code, payload = _run(capsys, "analyze", "--fixture", "unit_tight", "--c", "4")
    assert code == 0
    assert payload["opt"] == "5"
    assert payload["bound"] == {"name": "unit", "value": "5/2"}
    assert payload["bound_satisfied"] is True


def test_analyze_family(capsys):
    code, payload = _run(capsys, "analyze", "--family", "single", "--count", "4",
                         "--seed", "11", "--n", "3", "--c", "3",
                         "--horizon", "4")
    assert code == 0
    assert payload["violations"] == []
    assert len(payload["reports"]) == 4


def test_fixture_list_and_export(capsys, tmp_path):
    code, payload = _run(capsys, "fixture", "list")
    assert code == 0 and "ex1" in payload["fixtures"]
    out = tmp_path / "ex1.json"
    code, payload = _run(capsys, "fixture", "export", "ex1", "-o", str(out))
    assert code == 0
    assert json.loads(out.read_text())["horizon"] == "4"
    assert payload["facts"]


def test_gen_deterministic_and_seed_env(capsys, tmp_path, monkeypatch):
    code, a = _run(capsys, "gen", "--family", "unit", "--n", "4", "--c", "2",
                   "--horizon", "3", "--seed", "5")
    code2, b = _run(capsys, "gen", "--family", "unit", "--n", "4", "--c", "2",
                    "--horizon", "3", "--seed", "5")
    assert code == code2 == 0 and a == b
    monkeypatch.setenv("IGL_SEED", "5")
    code3, c = _run(capsys, "gen", "--family", "unit", "--n", "4", "--c", "2",
                    "--horizon", "3")
    assert code3 == 0 and c == a


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    profile = tmp_path / "p.json"
    profile.write_text('{"starts": {}}')
    code, _ = _run(capsys, "solve", str(bad), str(profile))
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _ = _run(capsys, "opt", "/nonexistent/instance.json")
    assert code == 2


def test_solve_with_fixture_flag(capsys, tmp_path):
    fx = fixture("ex1")
    profile = tmp_path / "p.json"
    profile.write_text(profile_to_json(fx.notable_profiles["figure_b"]))
    code, payload = _run(capsys, "solve", "--fixture", "ex1", str(profile))
    assert code == 0 and payload["value"] == "4"
