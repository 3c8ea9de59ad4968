"""Command-line interface.

JSON payloads go to stdout; human diagnostics go to stderr. Exit codes:
0 ok, 1 inconclusive (an NE search found nothing and nothing was expected),
2 input/guard errors, 3 internal consistency failures (oracle mismatch or a
failed certification). Rationals are serialized as canonical strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import generators
from .equilibrium import (analyze, brd, enumerate_grid_ne, is_nash, ne_single,
                          ne_unit, tightest_bound)
from .machine import solve_machine_bruteforce, solve_machine_dp
from .model import (FormatError, GameError, GuardError, Instance, InternalFailure,
                    _check_int, instance_to_document, instance_to_json, parse_instance,
                    parse_profile, profile_to_document, rational_str,
                    schedule_to_document, to_rational)
from .optimum import (social_optimum_bruteforce, social_optimum_enumerate,
                      social_optimum_single_knapsack)

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported on first use: only
    `analyze --family --jobs N` with N > 1 starts a pool, and a top-level
    import would load `multiprocessing` and its dependencies into every
    `igl` process."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _emit(payload) -> None:
    # One-shot `dumps` runs the C encoder; `dump` to a stream does not.
    sys.stdout.write(json.dumps(payload, sort_keys=True))
    sys.stdout.write("\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _load_instance(args) -> tuple[Instance, Optional[generators.Fixture]]:
    """The instance of `--fixture` or of the instance path, and the fixture
    it came from (None for a path)."""
    if args.fixture:
        fx = generators.fixture(args.fixture, **_fixture_params(args))
        return fx.instance, fx
    if not args.instance:
        raise GameError("an instance path (or --fixture) is required")
    return parse_instance(_read(args.instance)), None


def _fixture_params(args) -> dict:
    """The fixture parameters given, unparsed: each builder parses its own."""
    return {key: value for key in ("n", "c", "epsilon", "epsilon_prime")
            if (value := getattr(args, key)) is not None}


def _save(path: str, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_json(instance) + "\n")
    _note(f"instance written to {path}")


def cmd_solve(args) -> int:
    instance, _ = _load_instance(args)
    profile = parse_profile(_read(args.profile), instance)
    schedule = solve_machine_dp(instance, profile)
    payload = schedule_to_document(schedule)
    if args.oracle:
        reference = solve_machine_bruteforce(instance, profile, force=args.force)
        payload["oracle_value"] = rational_str(reference.value)
        if reference.value != schedule.value:
            _emit(payload)
            raise InternalFailure(
                f"oracle mismatch: dp={rational_str(schedule.value)} "
                f"brute={rational_str(reference.value)}")
        _note("oracle agreement: " + rational_str(schedule.value))
    _emit(payload)
    return EXIT_OK


def cmd_opt(args) -> int:
    instance, _ = _load_instance(args)
    if args.method == "brute":
        value = social_optimum_bruteforce(instance, force=args.force)
        _emit({"value": rational_str(value), "method": "brute"})
        return EXIT_OK
    if args.method == "knapsack":
        witness, value = social_optimum_single_knapsack(instance, force=args.force)
    else:
        witness, value = social_optimum_enumerate(instance, force=args.force)
    certified = solve_machine_dp(instance, witness).value
    if certified != value:
        raise InternalFailure(f"witness certification failed: claimed "
                              f"{rational_str(value)}, machine got {rational_str(certified)}")
    _emit({"value": rational_str(value), "method": args.method,
           "witness": profile_to_document(witness)})
    return EXIT_OK


def cmd_ne(args) -> int:
    instance, fx = _load_instance(args)
    if args.construct:
        profile = ne_single(instance) if args.construct == "single" else ne_unit(instance)
        value = solve_machine_dp(instance, profile).value
        deviation = is_nash(instance, profile, force=args.force)
        if deviation is not None:
            raise InternalFailure(
                f"constructed profile failed certification: player "
                f"{deviation.player} improves {rational_str(deviation.utility_before)} "
                f"-> {rational_str(deviation.utility_after)}")
        _emit({"profile": profile_to_document(profile), "value": rational_str(value),
               "certified": True})
        return EXIT_OK
    if args.verify is not None:  # an empty path is the verify mode too
        profile = parse_profile(_read(args.verify), instance)
        deviation = is_nash(instance, profile, force=args.force)
        value = solve_machine_dp(instance, profile).value
        if deviation is None:
            _emit({"stable": True, "value": rational_str(value)})
        else:
            _emit({"stable": False, "value": rational_str(value),
                   "deviation": {
                       "player": deviation.player,
                       "new_strategy": {str(j): rational_str(s)
                                        for j, s in deviation.new_strategy},
                       "utility_before": rational_str(deviation.utility_before),
                       "utility_after": rational_str(deviation.utility_after)}})
        return EXIT_OK
    # enumeration
    found = enumerate_grid_ne(instance, resolution=args.resolution, force=args.force)
    payload = {"ne": [{"profile": profile_to_document(p), "value": rational_str(v)}
                      for p, v in found],
               "grid_resolution": args.resolution}
    if found:
        payload["status"] = "ok"
        _emit(payload)
        return EXIT_OK
    if fx is not None and any(f.kind == "no_ne" for f in fx.facts):
        payload["status"] = "no_ne_expected"
        _emit(payload)
        return EXIT_OK
    payload["status"] = "no_ne_found"
    _emit(payload)
    _note("no grid NE found; the statement is relative to this grid")
    return EXIT_INCONCLUSIVE


def cmd_brd(args) -> int:
    instance, _ = _load_instance(args)
    initial = parse_profile(_read(args.initial), instance)
    outcome = brd(instance, initial, order=args.order, max_iters=args.max_iters,
                  resolution=args.resolution, force=args.force)
    payload = {"status": outcome.status, "iterations": outcome.iterations,
               "trace": [[player, rational_str(delta), rational_str(value)]
                         for player, delta, value in outcome.trace]}
    if outcome.cycle is not None:
        payload["cycle"] = [profile_to_document(p) for p in outcome.cycle]
    else:
        payload["final"] = profile_to_document(outcome.final)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("iteration,player,delta,value\n")
            for i, row in enumerate(outcome.trace, start=1):
                fh.write(",".join(map(rational_str, (i, *row))) + "\n")
    _emit(payload)
    return EXIT_OK


def _report_doc(report) -> dict:
    doc = {"opt": rational_str(report.opt),
           "ne_values": [rational_str(v) for v in report.ne_values],
           "status": report.status,
           "bound": {"name": report.bound_name,
                     "value": rational_str(report.bound_value)},
           "classes": list(report.instance_classes),
           "grid_relative": True}
    doc["poa_lower"] = (rational_str(report.poa_lower)
                        if report.poa_lower is not None else None)
    doc["pos_upper_witness"] = (rational_str(report.pos_upper_witness)
                                if report.pos_upper_witness is not None else None)
    doc["bound_satisfied"] = report.bound_satisfied
    if report.worst_ne is not None:
        doc["worst_ne"] = profile_to_document(report.worst_ne)
    if report.best_ne is not None:
        doc["best_ne"] = profile_to_document(report.best_ne)
    return doc


def _analyze_one(task) -> dict:
    family, n, c, horizon, seed, resolution, force = task
    instance = generators.random_instance(family, n, c, horizon, seed)
    report = analyze(instance, resolution=resolution, force=force)
    doc = _report_doc(report)
    doc["seed"] = seed
    return doc


def cmd_analyze(args) -> int:
    if args.family:
        _check_int(args.count, "--count", 0)
        _check_int(args.jobs, "--jobs", 1)
        # Parsed here too: with --count 0 no instance checks the horizon.
        horizon = to_rational(args.horizon or "3", "horizon")
        single = args.family == "single"  # n == c: a missing one follows the other
        n = args.n if args.n is not None else args.c if single and args.c is not None else 3
        c = args.c if args.c is not None else n if single else 2
        seed = args.seed if args.seed is not None else _default_seed()
        tasks = [(args.family, n, c, horizon, seed + i, args.resolution, args.force)
                 for i in range(args.count)]
        cpus = os.cpu_count() or 1
        if args.jobs > cpus and not args.force:
            raise GuardError(f"--jobs {args.jobs} exceeds the {cpus} CPUs "
                             f"(pass --force to override)")
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                reports = list(pool.map(_analyze_one, tasks))
        else:
            reports = [_analyze_one(t) for t in tasks]
        worst = max((Fraction(d["poa_lower"]) for d in reports
                     if d["poa_lower"] is not None), default=None)
        violated = [d["seed"] for d in reports if d["bound_satisfied"] is False]
        _emit({"family": args.family, "count": args.count,
               "max_poa_lower": rational_str(worst) if worst is not None else None,
               "violations": violated, "reports": reports})
        if violated:
            raise InternalFailure(f"bound violated on seeds {violated}")
        return EXIT_OK
    instance, _ = _load_instance(args)
    report = analyze(instance, resolution=args.resolution, force=args.force)
    _emit(_report_doc(report))
    if report.bound_satisfied is False:
        raise InternalFailure("computed anarchy ratio exceeds the class bound")
    return EXIT_OK


def cmd_fixture(args) -> int:
    if args.action == "list":
        _emit({"fixtures": list(generators.fixture_names())})
        return EXIT_OK
    if not args.name:
        raise GameError("fixture export requires a name")
    fx = generators.fixture(args.name, **_fixture_params(args))
    doc = {"name": fx.name,
           "instance": instance_to_document(fx.instance),
           "profiles": {name: profile_to_document(p)
                        for name, p in fx.notable_profiles.items()},
           "facts": [{"kind": f.kind,
                      "payload": _payload_doc(f.payload),
                      "profile": f.profile, "player": f.player}
                     for f in fx.facts],
           "params": {k: _payload_doc(v) for k, v in fx.params.items()}}
    if args.out:
        _save(args.out, fx.instance)
    _emit(doc)
    return EXIT_OK


def _payload_doc(value):
    if isinstance(value, Fraction):
        return rational_str(value)
    if isinstance(value, tuple):
        return [_payload_doc(v) for v in value]
    return value


def _default_seed() -> int:
    raw = os.environ.get("IGL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise GameError(f"IGL_SEED must be an integer, got {raw!r}") from None


def cmd_gen(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    instance = generators.random_instance(args.family, args.n, args.c,
                                          args.horizon, seed)
    if args.out:
        _save(args.out, instance)
    _emit(instance_to_document(instance))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `igl` parser, built once per process. Parsing leaves it unchanged
    (each call fills a new namespace), so callers share it and must not
    modify it."""
    # The instance source of five subcommands; `fixture` takes `params` too.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("instance", nargs="?")
    source.add_argument("--force", action="store_true", help="override size guards")
    source.add_argument("--fixture", help="use a named fixture instead of a file")
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--n", type=int, help="fixture parameter n")
    params.add_argument("--c", type=int, help="fixture parameter c")
    params.add_argument("--epsilon", help="fixture parameter epsilon (rational)")
    params.add_argument("--epsilon-prime", dest="epsilon_prime",
                        help="fixture parameter epsilon' (rational)")
    shared = [source, params]

    parser = argparse.ArgumentParser(
        prog="igl",
        description="Interval scheduling games: solvers, equilibria, analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=shared,
                       help="machine response for a fixed profile")
    p.add_argument("profile")
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle and compare")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("opt", parents=shared, help="social optimum")
    p.add_argument("--method", choices=("enumerate", "knapsack", "brute"),
                   default="enumerate")
    p.set_defaults(func=cmd_opt)

    p = sub.add_parser("ne", parents=shared,
                       help="construct, verify, or enumerate equilibria")
    mode = p.add_mutually_exclusive_group()  # one mode per run
    mode.add_argument("--construct", choices=("single", "unit"))
    mode.add_argument("--verify", metavar="PROFILE",
                      help="profile document to certify")
    mode.add_argument("--enumerate", action="store_true",
                      help="enumerate grid equilibria (default action)")
    p.add_argument("--resolution", type=int, default=1)
    p.set_defaults(func=cmd_ne)

    p = sub.add_parser("brd", parents=shared, help="best-response dynamics")
    p.add_argument("initial", help="initial profile document")
    p.add_argument("--order", choices=("round_robin", "first_improving"),
                   default="round_robin")
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--resolution", type=int, default=1)
    p.add_argument("--trace", help="write the move trace as CSV")
    p.set_defaults(func=cmd_brd)

    p = sub.add_parser("analyze", parents=shared,
                       help="optimum, equilibria, and bound check")
    p.add_argument("--family", choices=generators.FAMILIES,
                   help="analyze a seeded random family instead of one instance")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon")
    p.add_argument("--resolution", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers in family mode")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fixture", parents=[params],
                       help="list or export named fixtures")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?")
    p.add_argument("-o", "--out", help="write the instance document here")
    p.set_defaults(func=cmd_fixture)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--family", choices=generators.FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--horizon", required=True)
    p.add_argument("--seed", type=int,
                   help="defaults to IGL_SEED or 0")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "force", False):
        _note("WARNING: --force disables size guards; large inputs may take "
              "unbounded time and memory")
    try:
        return args.func(args)
    except InternalFailure as exc:
        _note(f"internal consistency failure: {exc}")
        return EXIT_INTERNAL
    except (GameError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
