"""Command-line interface: payloads, exit codes, determinism."""

import argparse
import contextlib
import copy
import hashlib
import importlib
import itertools
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import intervalgames as ig
from intervalgames import (GameError, InternalFailure, Profile, fixture, fixture_names,
                           instance_to_json, profile_to_json, random_profile, to_rational)
from intervalgames import cli
from intervalgames.cli import main
from intervalgames.model import rational_str
from conftest import BAD_ID_JOBS, guard_instances
import golden
from golden import GOLDEN_SHA256, golden_stream


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


@pytest.mark.parametrize("name", sorted(guard_instances()))
def test_ne_guard_exits_2(capsys, tmp_path, name):
    inst, message = guard_instances()[name]
    path = tmp_path / "i.json"
    path.write_text(instance_to_json(inst))
    code = main(["ne", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert re.search(message, captured.err)
    assert "Traceback" not in captured.err


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
    # The bytes the trace was written with as f-strings of the Fractions.
    assert lines[1:] == [f"{i},{player},{F(delta)},{F(value)}"
                         for i, (player, delta, value) in enumerate(payload["trace"], start=1)]


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


def test_analyze_family_passes_force(capsys, monkeypatch):
    seen = []
    analyze = cli.analyze

    def recording(instance, **kwargs):
        seen.append(kwargs["force"])
        return analyze(instance, **kwargs)

    monkeypatch.setattr(cli, "analyze", recording)
    for flags in ((), ("--force",)):
        code, payload = _run(capsys, "analyze", "--family", "single", "--count", "2",
                             "--seed", "11", "--n", "2", "--c", "2", *flags)
        assert code == 0 and len(payload["reports"]) == 2
    assert seen == [False, False, True, True]


def test_analyze_single_family_takes_n_equal_to_c(capsys, monkeypatch):
    # The single family needs n == c, so a missing --n or --c follows the
    # other, and both missing give n = c = 3.
    sizes = []
    analyze = cli.analyze

    def recording(instance, **kwargs):
        sizes.append((len(instance.jobs), len(instance.color_ids)))
        return analyze(instance, **kwargs)

    monkeypatch.setattr(cli, "analyze", recording)
    for flags in ((), ("--n", "2"), ("--c", "4")):
        code, payload = _run(capsys, "analyze", "--family", "single", "--count", "1",
                             "--seed", "11", *flags)
        assert code == 0 and len(payload["reports"]) == 1
    assert sizes == [(3, 3), (2, 2), (4, 4)]


@pytest.mark.parametrize("argv, message", [
    (("ne", "--fixture", "poa_tight"), "fixture 'poa_tight' takes (n, epsilon=1/10), got ()"),
    (("opt", "--fixture", "pos_c"), "fixture 'pos_c' takes (c, epsilon_prime=1/4), got ()"),
    (("fixture", "export", "ex1", "--n", "3"), "fixture 'ex1' takes (), got (n)"),
    (("analyze", "--fixture", "unit_tight", "--n", "4"), "takes (c), got (n)"),
])
def test_fixture_parameter_errors_exit_2(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [("general", "--c", "0"), ("general", "--n", "0"),
                                   ("single", "--c", "0"), ("single", "--n", "0"),
                                   ("unit", "--n", "0", "--c", "0")])
def test_analyze_family_reads_an_explicit_zero(capsys, flags):
    # `--n 0` or `--c 0` is a value, not a missing flag: the generator's
    # n >= c >= 1 check rejects it, as `igl gen` does.
    family, *sizes = flags
    code = main(["analyze", "--family", family, "--count", "1", *sizes])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "need n >= c >= 1" in captured.err
    code = main(["gen", "--family", family, "--n", "0", "--c", "0", "--horizon", "3"])
    assert code == 2 and capsys.readouterr().out == ""


def test_brd_guards_a_large_joint_search(capsys, tmp_path):
    """pos_c's six-job player has 11,486,475 joint strategies on the global
    grid at c = 4; `brd` stops with exit 2 before searching them."""
    start = tmp_path / "start.json"
    start.write_text(profile_to_json(random_profile(fixture("pos_c", c=4).instance, 0)))
    code = main(["brd", "--fixture", "pos_c", "--c", "4", str(start)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "player 2's joint search holds 11486475 strategies" in captured.err


def test_resolution_below_one_exits_2(capsys, ex1_files):
    instance, profile = ex1_files
    for argv in (["ne", "--fixture", "ex1", "--resolution", "0"],
                 ["ne", instance, "--enumerate", "--resolution", "-1"],
                 ["brd", instance, profile, "--resolution", "0"],
                 ["analyze", "--fixture", "unit_tight", "--c", "2", "--resolution", "0"],
                 ["analyze", "--family", "unit", "--count", "1", "--resolution", "0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "grid resolution must be at least 1, got" in captured.err
        assert "Traceback" not in captured.err


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


_ONE_JOB = '"jobs": [{"id": 1, "color": 1, "length": "1", "weight": "1"}]'
# Bytes that no document reader accepts, and the cause each message names.
# Before one reader mapped them, the first three escaped `main` as
# UnicodeDecodeError, RecursionError and the interpreter's digit-limit
# ValueError, and the last was read with its last "horizon" winning.
UNREADABLE = {
    "not_utf8": (b'{"horizon": "4\xff", ' + _ONE_JOB.encode() + b"}", "not UTF-8 text"),
    # Far past every interpreter's nesting limit: from 3.12 the C scanner
    # has its own, deeper than the recursion limit of Python code.
    "deep": (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    "long_int": (b'{"horizon": ' + b"7" * 5000 + b", " + _ONE_JOB.encode() + b"}",
                 "number literal too long"),
    "repeated_key": (b'{"horizon": "4", "horizon": "5", ' + _ONE_JOB.encode() + b"}",
                     "key 'horizon' given twice in one object"),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_documents_exit_2_with_one_line(capsys, tmp_path, name):
    data, cause = UNREADABLE[name]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code = main(["opt", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cause in captured.err and "Traceback" not in captured.err
    if name != "not_utf8":  # the library reads text, so only decoding is the CLI's
        with pytest.raises(ig.FormatError, match=re.escape(cause)):
            ig.parse_instance(data.decode())


def _write_instance(path, horizon, *jobs):
    """An instance document of one job per (color, length, weight) in
    `jobs`, numbered from 1, its numbers written as text."""
    path.write_text(json.dumps({"horizon": horizon, "jobs": [
        {"id": k, "color": color, "length": length, "weight": weight}
        for k, (color, length, weight) in enumerate(jobs, start=1)]}))
    return str(path)


def test_brd_trace_writes_long_numbers(capsys, tmp_path):
    # Two unit jobs with weights of 2,500-digit numerators over coprime
    # 2,500-digit denominators: the move that covers both is worth a value
    # whose denominator has about 5,000 digits. The CSV trace wrote it as
    # an f-string, so the run stopped at its header with the interpreter's
    # digit-limit ValueError while stdout got nothing.
    big = 10 ** 2499
    weights = [rational_str(F(big + 1, big + 3)), rational_str(F(big + 9, big + 7))]
    instance = _write_instance(tmp_path / "inst.json", "2",
                               *[(k, "1", w) for k, w in enumerate(weights, start=1)])
    initial = tmp_path / "init.json"
    initial.write_text(json.dumps({"starts": {"1": "0", "2": "0"}}))
    code, payload = _run(capsys, "brd", instance, str(initial))
    assert code == 0 and payload["trace"]
    assert max(len(value) for _, _, value in payload["trace"]) > 9000
    trace = tmp_path / "trace.csv"
    assert _run(capsys, "brd", instance, str(initial), "--trace", str(trace)) == (0, payload)
    assert trace.read_text().splitlines() == ["iteration,player,delta,value"] + [
        f"{i},{player},{delta},{value}"
        for i, (player, delta, value) in enumerate(payload["trace"], start=1)]


def _long_number_inputs(tmp_path) -> dict:
    """Small inputs whose error messages format a long number, by command,
    with the start of each message: a start above T = 1 whose interval end
    has about 6,000 digits, and a knapsack capacity of about 5,000 digits,
    scaled from a horizon of 4,000 nines by a length of 1 over 1,000
    sevens. Both used to escape `main` with the interpreter's digit-limit
    ValueError."""
    d1, d2 = 10 ** 2999 + 1, 10 ** 2999 + 3
    solve = _write_instance(tmp_path / "solve.json", "1", (1, rational_str(F(1, d1)), "1"))
    profile = tmp_path / "start.json"
    profile.write_text(json.dumps({"starts": {"1": rational_str(F(2 * 10 ** 3000 + 1, d2))}}))
    knapsack = _write_instance(tmp_path / "knapsack.json", "9" * 4000,
                               (1, "1/" + "7" * 1000, "1"))
    return {"solve": (["solve", solve, str(profile)], "job 1: interval ["),
            "knapsack": (["opt", knapsack, "--method", "knapsack"], "scaled capacity ")}


@pytest.mark.parametrize("command", ["solve", "knapsack"])
def test_messages_with_long_numbers_exit_2_with_one_line(capsys, tmp_path, command):
    argv, message = _long_number_inputs(tmp_path)[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1
    assert len(captured.err) > 4300 and "Traceback" not in captured.err


@pytest.mark.parametrize("shape", sorted(BAD_ID_JOBS))
def test_non_integer_id_or_color_exits_2(capsys, tmp_path, shape):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon": "4", "jobs": BAD_ID_JOBS[shape]}))
    code = main(["opt", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must be an integer" in captured.err and "Traceback" not in captured.err


def test_analyze_family_bounds_jobs_by_cpu_count(capsys, monkeypatch):
    started = []

    class InlineExecutor:
        """A stand-in for ProcessPoolExecutor that starts no process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    family = ("analyze", "--family", "single", "--count", "2", "--seed", "11",
              "--n", "2", "--c", "2")
    code = main([*family, "--jobs", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--jobs 3 exceeds the 2 CPUs" in captured.err
    assert started == []
    for jobs, flags in (("2", ()), ("3", ("--force",))):
        code, payload = _run(capsys, *family, "--jobs", jobs, *flags)
        assert code == 0 and len(payload["reports"]) == 2
    assert started == [2, 3]


def _fresh_python(code: str, *argv):
    """Run `code`, with `argv`, in a fresh interpreter on this checkout's
    source."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, timeout=120)


def test_cli_import_loads_no_process_pool():
    """Importing the CLI leaves the process-pool machinery unloaded: only
    `analyze --family --jobs N` with N > 1 imports it."""
    run = _fresh_python("import sys, intervalgames.cli; print(sorted(m for m in "
                        "('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == b"[]\n"


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="--jobs 2 needs at least 2 CPUs without --force")
def test_analyze_family_jobs_2_matches_jobs_1_through_a_real_pool():
    """`--jobs 2` starts two worker processes through the real pool and prints
    the bytes, with the exit code, of the in-process `--jobs 1` run."""
    family = ("analyze", "--family", "single", "--count", "2", "--seed", "11",
              "--n", "2", "--c", "2")
    code = "import sys; from intervalgames.cli import main; sys.exit(main(sys.argv[1:]))"
    one, two = (_fresh_python(code, *family, "--jobs", jobs) for jobs in ("1", "2"))
    assert one.returncode == 0, one.stderr
    assert (two.returncode, two.stdout) == (one.returncode, one.stdout)
    assert json.loads(one.stdout)["count"] == 2


def test_missing_file_exit_code(capsys):
    code, _ = _run(capsys, "opt", "/nonexistent/instance.json")
    assert code == 2


def test_solve_with_fixture_flag(capsys, tmp_path):
    fx = fixture("ex1")
    profile = tmp_path / "p.json"
    profile.write_text(profile_to_json(fx.notable_profiles["figure_b"]))
    code, payload = _run(capsys, "solve", "--fixture", "ex1", str(profile))
    assert code == 0 and payload["value"] == "4"


def test_golden_bytes_on_fixtures(tmp_path):
    assert hashlib.sha256(golden_stream(tmp_path)).hexdigest() == GOLDEN_SHA256


def test_golden_bytes_under_two_hash_seeds(tmp_path):
    """`igl` prints the golden stream in fresh processes whose str hashes,
    and so the iteration order of str-keyed sets, differ."""
    tests = pathlib.Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    script = ("import sys; from golden import golden_stream; "
              "sys.stdout.buffer.write(golden_stream(sys.argv[1]))")
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                             capture_output=True, check=True)
        assert hashlib.sha256(run.stdout).hexdigest() == GOLDEN_SHA256, seed


def _other_interpreters() -> dict:
    """Each of `python3.10` to `python3.13` on PATH that starts, by minor
    version, leaving out this interpreter's version."""
    found = {}
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or minor == sys.version_info.minor:
            continue
        run = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                             capture_output=True, text=True)
        if run.returncode == 0 and run.stdout.strip() == str(minor):
            found[minor] = exe
    return found


def _golden_env() -> dict:
    """This environment with `src` and `tests` on `PYTHONPATH` and no
    `PYTHONINTMAXSTRDIGITS`."""
    tests = pathlib.Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def _large_streams_alike(exe, directory, expected) -> None:
    """`exe` prints `expected` for the large-number instance, each command
    exiting 0, under `PYTHONINTMAXSTRDIGITS` at 640, unset and 0."""
    env = _golden_env()
    for limit in ("640", None, "0"):
        limited = env if limit is None else {**env, "PYTHONINTMAXSTRDIGITS": limit}
        run = subprocess.run([exe, "-m", "golden", str(directory), "large"],
                             env=limited, capture_output=True)
        assert (run.returncode, run.stderr, run.stdout) == (0, b"", expected), (exe, limit)


def test_large_numbers_print_alike_under_every_digit_limit(tmp_path):
    """The large-number instance prints the same bytes, each command exiting
    0, under `PYTHONINTMAXSTRDIGITS` at 640, unset and 0, and the optimum
    it prints is the two weights' sum."""
    expected = golden.large_stream(tmp_path)
    lines = expected.decode().splitlines()
    weights = [to_rational(j["weight"]) for j in json.loads(golden.LARGE_INSTANCE)["jobs"]]
    assert lines[0::2] == ["0", "0"]
    assert json.loads(lines[1])["value"] == rational_str(sum(weights))
    _large_streams_alike(sys.executable, tmp_path, expected)


def test_golden_bytes_across_interpreters(tmp_path):
    """Every other interpreter found prints the golden stream, and prints
    the large-number instance as this one does under every digit limit.
    Where none starts (a pyenv shim refuses to start without
    `PYENV_VERSION`), the test skips."""
    others = _other_interpreters()
    if not others:
        pytest.skip("no other python3.10 to python3.13 on PATH starts, so the golden "
                    "stream and the large instance ran under this interpreter only")
    expected = golden.large_stream(tmp_path)
    for minor, exe in others.items():
        _large_streams_alike(exe, tmp_path, expected)
        run = subprocess.run([exe, "-m", "golden", str(tmp_path)], env=_golden_env(),
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == GOLDEN_SHA256, minor


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path):
    """`main` reuses one parser per process. A rejected call, a listing, and a
    guarded command with and without --force must each print what a freshly
    built parser prints, and no option may carry over to the next call."""
    inst, _ = guard_instances()["player_jobs"]
    instance = tmp_path / "nine_jobs.json"
    instance.write_text(instance_to_json(inst))
    profile = tmp_path / "stacked.json"
    profile.write_text(profile_to_json(random_profile(inst, 0)))
    verify = ["ne", str(instance), "--verify", str(profile)]
    calls = [["ne", "--force", "--resolution", "x"], ["fixture", "list"],
             verify + ["--force"], verify]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    rejected, listing, forced, guarded = shared
    assert rejected[0] == ("exit", 2) and rejected[1] == ""
    assert listing[0] == 0 and "ex1" in json.loads(listing[1])["fixtures"]
    assert forced[0] == 0 and json.loads(forced[1])["stable"] is True
    assert "WARNING: --force" in forced[2]
    assert guarded == (2, "", "error: player 1 controls 9 jobs "
                       "(joint search limit 8)\n")
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().parse_args(verify).force is False


# --- robustness: mutated documents through every subcommand ------------------

_BASE_INSTANCES = (
    # The README's instance document, with a window.
    {"horizon": "4", "jobs": [{"id": 1, "color": 1, "length": "4", "weight": "2"},
                              {"id": 2, "color": 1, "length": "1", "weight": "2"},
                              {"id": 3, "color": 2, "length": "1", "weight": "3",
                               "window": ["0", "3"]}]},
    # One job per color and no windows, so the constructions and the
    # optimum routes run too.
    {"horizon": "3", "jobs": [{"id": 1, "color": 1, "length": "1", "weight": "2"},
                              {"id": 2, "color": 2, "length": "2", "weight": "1"},
                              {"id": 3, "color": 3, "length": "1", "weight": "1"}]},
)
_BASE_PROFILE = {"starts": {"1": "0", "2": "1", "3": "1/2"}}
_ODD = [
    0, 1, -1, 2, 7, 10 ** 30, 0.5, 1e300, float("nan"), float("inf"), True, False, None,
    "", "x", "0", "1", "-1", "1/3", "1/0", "0.5", "2", "1e3", [], {}, ["0", "3"],
    ["3", "0"], ["0"], {"id": 1}]
_ODD_VALUES = st.sampled_from(_ODD)
_COMMANDS = (("solve", "{i}", "{p}"), ("solve", "{i}", "{p}", "--oracle"), ("opt", "{i}"),
             ("opt", "{i}", "--method", "brute"), ("opt", "{i}", "--method", "knapsack"),
             ("ne", "{i}", "--verify", "{p}"), ("ne", "{i}", "--enumerate"),
             ("ne", "{i}", "--construct", "single"), ("ne", "{i}", "--construct", "unit"),
             ("brd", "{i}", "{p}"), ("analyze", "{i}"))
_FIXTURE_COMMANDS = (("fixture", "export", "{f}"), ("opt", "--fixture", "{f}"),
                     ("ne", "--fixture", "{f}", "--enumerate"),
                     ("ne", "--fixture", "{f}", "--construct", "single"),
                     ("analyze", "--fixture", "{f}"))


def _paths(doc, prefix=()):
    """Every (path, value) in a JSON document, the root included."""
    yield prefix, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield from _paths(v, prefix + (k,))


@st.composite
def _mutated(draw, base):
    """`base` after one to three edits: a value replaced by an odd one, a
    key or list item deleted, or a list item duplicated."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path, _ = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = copy.deepcopy(draw(_ODD_VALUES))
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        op = draw(st.sampled_from(("replace", "delete", "duplicate")))
        if op == "replace":
            parent[path[-1]] = copy.deepcopy(draw(_ODD_VALUES))
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[path[-1]]))
    return doc


def _check_main(capsys, argv):
    capsys.readouterr()
    code = main(argv)  # raises if an exception escapes
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, code)
    if out:
        assert out.endswith("\n") and out.count("\n") == 1, out
        json.loads(out)
    return code, out


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_documents_never_escape_main(capsys, tmp_path, data):
    """ROADMAP item 4: on mutated instance and profile documents, every
    subcommand returns 0, 1 or 2, no exception escapes `main`, and stdout is
    empty or one JSON document."""
    base = data.draw(st.sampled_from(_BASE_INSTANCES))
    instance, profile = tmp_path / "instance.json", tmp_path / "profile.json"
    mutate_instance = data.draw(st.booleans())
    instance.write_text(json.dumps(data.draw(_mutated(base)) if mutate_instance else base))
    profile.write_text(json.dumps(data.draw(_mutated(_BASE_PROFILE))
                                  if not mutate_instance or data.draw(st.booleans())
                                  else _BASE_PROFILE))
    command = data.draw(st.sampled_from(_COMMANDS))
    _check_main(capsys, [a.format(i=instance, p=profile) for a in command])


@st.composite
def _raw_edited(draw, base, edit):
    """`base` as UTF-8 bytes after one raw edit of the kind `edit`: bytes
    that are not UTF-8 spliced in, the document wrapped in 1, 999 or 100,000
    levels of brackets, a key and its value repeated in the text, or a
    number replaced by a run of 4,300, 4,301 or 5,000 digits, as an int
    literal or as a string. 4,300 is the interpreter's default digit limit."""
    text = json.dumps(base).encode()
    if edit == "not_utf8":
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from((b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80")))
        return text[:at] + junk + text[at:]
    if edit == "nested":
        depth = draw(st.sampled_from((1, 999, 100_000)))
        return b"[" * depth + text + b"]" * depth
    if edit == "repeated_key":
        pair = draw(st.sampled_from(list(re.finditer(rb'"\w+": (?:"[^"]*"|\d+)', text))))
        return text[:pair.start()] + pair.group() + b", " + text[pair.start():]
    number = draw(st.sampled_from(list(re.finditer(rb'"\d+"|\d+', text))))
    digits = bytes([draw(st.sampled_from(b"123456789"))]) * draw(
        st.sampled_from((4300, 4301, 5000)))
    if draw(st.booleans()):
        digits = b'"' + digits + b'"'
    return text[:number.start()] + digits + text[number.end():]


@pytest.mark.parametrize("edit", ("not_utf8", "nested", "repeated_key", "long_number"))
@given(data=st.data())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_raw_edited_documents_never_escape_main(capsys, tmp_path, edit, data):
    """The bytes-level twin of `test_mutated_documents_never_escape_main`:
    an instance document after one raw edit (`_raw_edited`), through every
    subcommand. Only a long number can leave a readable instance; every
    other edit exits 2 with nothing on stdout."""
    raw = data.draw(_raw_edited(data.draw(st.sampled_from(_BASE_INSTANCES)), edit))
    instance, profile = tmp_path / "instance.json", tmp_path / "profile.json"
    instance.write_bytes(raw)
    profile.write_text(json.dumps(_BASE_PROFILE))
    command = data.draw(st.sampled_from(_COMMANDS))
    code, out = _check_main(capsys, [a.format(i=instance, p=profile) for a in command])
    if edit != "long_number":
        assert (code, out) == (2, ""), command


# Library parameters: the odd values with no int above 2, since a larger
# size or resolution is a legal request whose cost grows with it.
_ODD_PARAMS = st.sampled_from([v for v in _ODD if not (type(v) is int and v > 2)])


def _profile_of(doc):
    """A mutated profile document as a `Profile` holding its starts as they
    parse: each int-like key as a job id, each rational as a `Fraction`, any
    other value as it is. A document of another shape stays as it is."""
    if not (isinstance(doc, dict) and isinstance(doc.get("starts"), dict)):
        return doc
    starts = {}
    for k, v in doc["starts"].items():
        with contextlib.suppress(GameError):
            v = to_rational(v)
        if k.lstrip("-").isdigit():
            starts[int(k)] = v
    return Profile.from_dict(starts)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_never_escape_the_library(data):
    """The library twin of `test_mutated_documents_never_escape_main`: every
    exported function, fed a mutated instance, profile, player or generator
    parameter, returns or raises a `GameError`. An instance document that
    does not parse is replaced by its base, so the other inputs still run."""
    base = data.draw(st.sampled_from(_BASE_INSTANCES))
    doc = data.draw(st.one_of(st.just(base), _mutated(base)))
    pdoc = data.draw(st.one_of(st.just(_BASE_PROFILE), _mutated(_BASE_PROFILE)))
    profile = _profile_of(pdoc)
    player = data.draw(st.integers(-1, 4))
    p = [data.draw(_ODD_PARAMS) for _ in range(4)]
    res = data.draw(st.one_of(st.just(1), _ODD_PARAMS))
    try:
        inst = ig.instance_from_document(doc)
    except GameError:
        inst = ig.instance_from_document(base)
    own = {j.id for j in inst.jobs_of_color(player)}
    starts = profile.as_dict() if isinstance(profile, Profile) else {}
    strategy = tuple(sorted((k, v) for k, v in starts.items() if k in own))
    params = dict(zip(data.draw(st.lists(st.sampled_from(
        ("n", "c", "epsilon", "epsilon_prime")), unique=True, max_size=3)), p))
    calls = [
        lambda: ig.parse_instance(json.dumps(doc)),
        lambda: ig.parse_profile(json.dumps(pdoc), inst),
        lambda: ig.validate_profile(inst, profile),
        lambda: ig.utilities(inst, profile, ig.solve_machine_dp(inst, profile)),
        lambda: ig.solve_machine_bruteforce(inst, profile),
        lambda: ig.social_optimum_enumerate(inst),
        lambda: ig.social_optimum_bruteforce(inst),
        lambda: ig.social_optimum_single_knapsack(inst),
        lambda: ig.best_response(inst, profile, player),
        lambda: ig.is_nash(inst, profile, first_improvement=data.draw(st.booleans())),
        lambda: ig.verify_deviation(inst, profile,
                                    ig.Deviation(player, strategy, F(0), F(1))),
        lambda: ig.build_grid(inst, {k: v for k, v in starts.items() if k not in own},
                              player),
        lambda: ig.brd(inst, profile, data.draw(st.sampled_from(
            ("round_robin", "first_improving", p[0]))), p[1], resolution=res),
        lambda: ig.enumerate_grid_ne(inst, res),
        lambda: list(ig.grid_profiles(inst, res)),
        lambda: ig.grid_candidates(inst, res),
        lambda: ig.joint_grid_size(inst, res),
        lambda: ig.analyze(inst, res),
        lambda: ig.tightest_bound(inst),
        lambda: ig.ne_single(inst),
        lambda: ig.ne_unit(inst),
        lambda: ig.random_profile(inst, p[0], res),
        lambda: ig.fixture(data.draw(st.sampled_from((*fixture_names(), p[0]))), **params),
        lambda: ig.random_instance(data.draw(st.sampled_from((*ig.FAMILIES, p[0]))),
                                   p[1], p[2], p[3], p[0]),
        lambda: ig.from_knapsack(data.draw(_mutated([["2", "3"], [1, 1]])), p[0]),
        lambda: ig.from_partition_decide(data.draw(_mutated([1, 1, 2]))),
        lambda: ig.from_partition_br(data.draw(_mutated([1, 1]))),
        lambda: ig.from_partition_nonsymm(data.draw(_mutated([1, 1]))),
    ]
    for call in calls:
        with contextlib.suppress(GameError):
            call()


def test_every_tracer_seam_resolves_against_the_package(monkeypatch):
    """Each seam of the benchmark's tracer (`perfbench/tracing.py`) names a
    callable the package still has. The tracer skips a seam that does not
    resolve and leaves its metrics out of the report, so a refactor that
    drops one, such as the `machine.entry` seam's
    `equilibrium.machine_value_and_covered`, would otherwise show only as
    names missing from a traced benchmark result."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "perfbench"))
    loaded = [name for name in ("tracing", "calibration") if name not in sys.modules]
    try:
        tracing = importlib.import_module("tracing")
        unresolved = [seam for seam, module, path in tracing.SEAMS
                      if tracing._resolve(module, path) is None]
    finally:
        for name in loaded:  # keep the benchmark's modules out of later tests
            sys.modules.pop(name, None)
    assert tracing.SEAMS and not unresolved, unresolved


@given(name=st.sampled_from(fixture_names()), command=st.sampled_from(_FIXTURE_COMMANDS),
       params=st.dictionaries(
           st.sampled_from(("--n", "--c", "--epsilon", "--epsilon-prime")),
           st.sampled_from(("-1", "0", "1", "2", "3", "4", "1/10", "1/2", "x")),
           max_size=3))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fixture_parameter_subsets_never_escape_main(capsys, name, command, params):
    """Random subsets of the fixture parameters, including missing and
    unexpected ones, through every subcommand that takes `--fixture`."""
    argv = [a.format(f=name) for a in command]
    for flag, value in params.items():
        if flag in ("--n", "--c") and value.lstrip("-").isdigit():
            argv += [flag, value]
        elif flag.startswith("--epsilon"):
            argv += [flag, value]
    _check_main(capsys, argv)


# --- the parser's surface, pinned --------------------------------------------

# Per subcommand: positionals in parse order as (dest, nargs, choices), and
# options as (option strings, dest, default, type, choices, required).
_FAMILIES = ("single", "unit", "prop", "general", "nonsymm")
PARSER_SURFACE = {
    "solve": ([("instance", "?", None), ("profile", None, None)], [
        (("--c",), "c", None, int, None, False),
        (("--epsilon",), "epsilon", None, None, None, False),
        (("--epsilon-prime",), "epsilon_prime", None, None, None, False),
        (("--fixture",), "fixture", None, None, None, False),
        (("--force",), "force", False, None, None, False),
        (("--n",), "n", None, int, None, False),
        (("--oracle",), "oracle", False, None, None, False)]),
    "opt": ([("instance", "?", None)], [
        (("--c",), "c", None, int, None, False),
        (("--epsilon",), "epsilon", None, None, None, False),
        (("--epsilon-prime",), "epsilon_prime", None, None, None, False),
        (("--fixture",), "fixture", None, None, None, False),
        (("--force",), "force", False, None, None, False),
        (("--method",), "method", "enumerate", None, ("enumerate", "knapsack", "brute"),
         False),
        (("--n",), "n", None, int, None, False)]),
    "ne": ([("instance", "?", None)], [
        (("--c",), "c", None, int, None, False),
        (("--construct",), "construct", None, None, ("single", "unit"), False),
        (("--enumerate",), "enumerate", False, None, None, False),
        (("--epsilon",), "epsilon", None, None, None, False),
        (("--epsilon-prime",), "epsilon_prime", None, None, None, False),
        (("--fixture",), "fixture", None, None, None, False),
        (("--force",), "force", False, None, None, False),
        (("--n",), "n", None, int, None, False),
        (("--resolution",), "resolution", 1, int, None, False),
        (("--verify",), "verify", None, None, None, False)]),
    "brd": ([("instance", "?", None), ("initial", None, None)], [
        (("--c",), "c", None, int, None, False),
        (("--epsilon",), "epsilon", None, None, None, False),
        (("--epsilon-prime",), "epsilon_prime", None, None, None, False),
        (("--fixture",), "fixture", None, None, None, False),
        (("--force",), "force", False, None, None, False),
        (("--max-iters",), "max_iters", 500, int, None, False),
        (("--n",), "n", None, int, None, False),
        (("--order",), "order", "round_robin", None, ("round_robin", "first_improving"),
         False),
        (("--resolution",), "resolution", 1, int, None, False),
        (("--trace",), "trace", None, None, None, False)]),
    "analyze": ([("instance", "?", None)], [
        (("--c",), "c", None, int, None, False),
        (("--count",), "count", 10, int, None, False),
        (("--epsilon",), "epsilon", None, None, None, False),
        (("--epsilon-prime",), "epsilon_prime", None, None, None, False),
        (("--family",), "family", None, None, _FAMILIES, False),
        (("--fixture",), "fixture", None, None, None, False),
        (("--force",), "force", False, None, None, False),
        (("--horizon",), "horizon", None, None, None, False),
        (("--jobs",), "jobs", 1, int, None, False),
        (("--n",), "n", None, int, None, False),
        (("--resolution",), "resolution", 1, int, None, False),
        (("--seed",), "seed", None, int, None, False)]),
    "fixture": ([("action", None, ("list", "export")), ("name", "?", None)], [
        (("--c",), "c", None, int, None, False),
        (("--epsilon",), "epsilon", None, None, None, False),
        (("--epsilon-prime",), "epsilon_prime", None, None, None, False),
        (("--n",), "n", None, int, None, False),
        (("-o", "--out"), "out", None, None, None, False)]),
    "gen": ([], [
        (("--c",), "c", None, int, None, True),
        (("--family",), "family", None, None, _FAMILIES, True),
        (("--horizon",), "horizon", None, None, None, True),
        (("--n",), "n", None, int, None, True),
        (("--seed",), "seed", None, int, None, False),
        (("-o", "--out"), "out", None, None, None, False)]),
}


def test_parser_surface_matches_the_pinned_table():
    """Every subcommand keeps its option strings, dests and defaults, however
    the parser declares them."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for name, p in sub.choices.items():
        actions = [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
        surface[name] = (
            [(a.dest, a.nargs, a.choices) for a in actions if not a.option_strings],
            sorted((tuple(a.option_strings), a.dest, a.default, a.type,
                    None if a.choices is None else tuple(a.choices), a.required)
                   for a in actions if a.option_strings))
    assert surface == PARSER_SURFACE
    for name, p in sub.choices.items():
        assert p.get_default("func") is getattr(cli, f"cmd_{name}")


@pytest.mark.parametrize("modes", itertools.permutations(
    (("--construct", "single"), ("--verify", "{p}"), ("--enumerate",)), 2))
def test_ne_rejects_two_modes_in_one_run(capsys, tmp_path, modes):
    """`igl ne` ran only the first of its modes in the order construct,
    verify, enumerate, dropped the other and exited 0. Each mode alone
    exits 0 on this instance and profile."""
    instance, profile = tmp_path / "instance.json", tmp_path / "profile.json"
    instance.write_text(json.dumps(_BASE_INSTANCES[1]))
    profile.write_text(json.dumps(_BASE_PROFILE))
    first, second = ([a.format(p=profile) for a in mode] for mode in modes)
    for mode in (first, second):
        assert main(["ne", str(instance), *mode]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["ne", str(instance), *first, *second])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"argument {second[0]}: not allowed with argument {first[0]}" in captured.err


def test_ne_verify_of_an_empty_path_exits_2(capsys, tmp_path):
    """`--verify ""` was read as no mode, so `igl ne` enumerated and
    exited 0."""
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(_BASE_INSTANCES[1]))
    assert main(["ne", str(instance), "--verify", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "No such file or directory" in captured.err


def test_written_instance_is_the_printed_document(capsys, tmp_path):
    out = tmp_path / "gen.json"
    code = main(["gen", "--family", "general", "--n", "4", "--c", "2",
                 "--horizon", "5/2", "--seed", "3", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and out.read_text(encoding="utf-8") == captured.out
    assert captured.err == f"instance written to {out}\n"
    code = main(["fixture", "export", "poa_tight", "--n", "5", "--epsilon", "0.2",
                 "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == f"instance written to {out}\n"
    fx = fixture("poa_tight", n=5, epsilon=F(1, 5))
    assert out.read_text(encoding="utf-8") == instance_to_json(fx.instance) + "\n"
    assert json.loads(captured.out)["params"] == {"n": 5, "epsilon": "1/5"}


def test_fixture_export_without_a_name_exits_2(capsys):
    code = main(["fixture", "export"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "fixture export requires a name" in captured.err


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "unit", "--n", "2", "--c", "2", "--horizon", "3"],
    ["analyze", "--family", "unit", "--count", "1", "--n", "2", "--c", "2"],
])
def test_non_integer_seed_variable_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setenv("IGL_SEED", "five")
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "IGL_SEED must be an integer, got 'five'" in captured.err
    assert "Traceback" not in captured.err


def test_negative_count_or_iteration_cap_exits_2(capsys, ex1_files):
    instance, profile = ex1_files
    for argv, message in (
            (["analyze", "--family", "single", "--count", "-2"],
             "--count must be at least 0, got -2"),
            (["brd", instance, profile, "--max-iters", "-3"],
             "max_iters must be at least 0, got -3")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err
    code, payload = _run(capsys, "analyze", "--family", "single", "--count", "0")
    assert code == 0 and payload == {"family": "single", "count": 0,
                                     "max_poa_lower": None, "violations": [],
                                     "reports": []}
    code, payload = _run(capsys, "brd", instance, profile, "--max-iters", "0")
    assert code == 0 and payload["status"] == "iteration_cap"


def test_analyze_family_jobs_below_one_exits_2(capsys):
    for jobs in ("0", "-2"):
        code = main(["analyze", "--family", "single", "--count", "1", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--jobs must be at least 1, got {jobs}" in captured.err


def test_a_profile_naming_a_job_twice_exits_2_with_one_line(capsys, ex1_files):
    instance, profile = ex1_files
    pathlib.Path(profile).write_text('{"starts": {"1": "0", "2": "0", "02": "1/2", "3": "0"}}')
    code = main(["brd", str(instance), str(profile)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: job 2 given twice in 'starts' (key '02')\n"
