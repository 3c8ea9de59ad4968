"""The four seeded workloads.

Each workload has three parts:

- `make(seed, seconds, workdir)` builds the inputs from the seed alone, with
  a fixed amount of work per `--seconds`, so the work is fixed by
  (seed, seconds) and never by how fast the machine is.
- `run(inputs)` is the timed phase: a closed loop with one caller, each op
  starting after the previous one returns. It returns a `Run`.
- `check(inputs, run)` re-checks every result against an independent
  reference, outside the timed phase, and returns the failed op count with
  the results the run's digest hashes.

No instance appears twice in one run's inputs, so the package's per-instance
caches start cold for each instance, as they do for a user running one
command. (`machine_stream` solves 16 profiles per instance, as a search
evaluates many profiles of one instance.)
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import intervalgames as ig
from intervalgames import cli, equilibrium, machine

import calibration


@dataclass
class Run:
    results: list
    latencies_s: list[float]
    ops: int
    wall_s: float = 0.0
    notes: list[str] = field(default_factory=list)
    starts_s: list[float] = field(default_factory=list)  # on calibration.now()

    def scaled_latencies_s(self) -> list[float]:
        """Each op's time scaled to the reference host (calibration.py)."""
        return [lat * calibration.local_scale(t0, t0 + lat)
                for t0, lat in zip(self.starts_s, self.latencies_s)]


def _timed_loop(ops, fn) -> Run:
    results = []
    latencies = []
    starts = []
    calibration.sample()
    clock = calibration.now
    start = clock()
    for op in ops:
        calibration.tick()
        t0 = clock()
        starts.append(t0)
        try:
            result = fn(op)
        except Exception as exc:  # counted as a failed op by check()
            traceback.print_exc()
            result = ("error", repr(exc))
        latencies.append(clock() - t0)
        results.append(result)
    wall_s = clock() - start
    calibration.sample()
    return Run(results, latencies, len(ops), wall_s, starts_s=starts)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def partition_exists(values) -> bool:
    """Subset-sum check, independent of the package's reduction code."""
    total = sum(values)
    if total % 2:
        return False
    reachable = {0}
    for v in values:
        reachable |= {r + v for r in reachable}
    return total // 2 in reachable


# ---------------------------------------------------------------------------
# machine_stream: the machine DP alone, on large free-placement profiles

MACHINE_FAMILIES = ("general", "unit", "prop", "nonsymm")
MACHINE_OPS_PER_SECOND = 1400
PROFILES_PER_INSTANCE = 16
BRUTE_MAX_JOBS = 16


def _start_values(lo: Fraction, span: Fraction, cache: dict) -> tuple:
    """Every start lo + k/q inside [lo, lo + span] with q in 1..4."""
    key = (lo, span)
    values = cache.get(key)
    if values is None:
        values = cache[key] = tuple(sorted({lo + Fraction(k, q) for q in (1, 2, 3, 4)
                                            for k in range(math.floor(span * q) + 1)}))
    return values


def _free_profiles(instance, rng: random.Random, count: int, cache: dict):
    """`count` profiles with each start drawn uniformly from its job's
    feasible rational starts (denominators 1..4)."""
    pools = [(j.id, _start_values(j.release, j.due(instance.horizon) - j.length - j.release,
                                  cache))
             for j in sorted(instance.jobs, key=lambda j: j.id)]
    bits = rng.getrandbits
    return [ig.Profile(tuple((jid, pool[bits(32) % len(pool)]) for jid, pool in pools))
            for _ in range(count)]


def make_machine_stream(seed: int, seconds: int, workdir: Path):
    count = max(1, round(MACHINE_OPS_PER_SECOND * seconds / PROFILES_PER_INSTANCE))
    ops = []
    cache: dict = {}
    for i in range(count):
        rng = random.Random(f"machine_stream:{seed}:{i}")
        n = 8 + i % 57  # every size 8..64 equally often
        family = MACHINE_FAMILIES[i % len(MACHINE_FAMILIES)]
        c = rng.randint(2, 6)
        horizon = Fraction(rng.randint(3, 12))
        instance = ig.random_instance(family, n, c, horizon, rng.randrange(2 ** 31))
        ops.extend((instance, p) for p in _free_profiles(instance, rng, PROFILES_PER_INSTANCE, cache))
    return ops


def run_machine_stream(ops) -> Run:
    return _timed_loop(ops, lambda op: machine.solve_machine_dp(*op))


def check_machine_stream(ops, run: Run) -> tuple[int, list]:
    failed = 0
    parts = []
    for (instance, profile), sched in zip(ops, run.results):
        if not isinstance(sched, ig.Schedule):
            failed += 1
            parts.append(sched)
            continue
        weight = {j.id: j.weight for j in instance.jobs}
        ok = sched.value == sum((weight[i] for i in sched.covered), Fraction(0))
        if ok and len(instance.jobs) <= BRUTE_MAX_JOBS:
            ok = ig.solve_machine_bruteforce(instance, profile).value == sched.value
        failed += not ok
        parts.append((sched.value, sorted(sched.covered), sched.segments))
    return failed, parts


# ---------------------------------------------------------------------------
# ne_refute: grid NE enumeration on games with no equilibrium

# No-partition multisets for from_partition_decide, grouped by joint grid
# size so every seed refutes the same number of profiles.
DECIDE_MID = ((1, 3, 3, 3), (1, 5, 5, 5), (2, 4, 4, 4), (2, 6, 6, 6),
              (3, 5, 5, 5), (4, 6, 6, 6))       # 12,012 profiles each
DECIDE_LARGE = ((1, 3, 4, 4), (2, 4, 5, 5), (3, 5, 6, 6))  # 49,140 each
NE_PROFILES_PER_SECOND = 4400


def make_ne_refute(seed: int, seconds: int, workdir: Path):
    """Both fixtures, then decide games in a seeded order (two mid-size games
    to each large one) until the profile budget is met."""
    rng = random.Random(f"ne_refute:{seed}")
    mids = rng.sample(DECIDE_MID, len(DECIDE_MID))
    larges = rng.sample(DECIDE_LARGE, len(DECIDE_LARGE))
    order = [mids[0]]
    for large, pair in zip(larges, zip(mids[1::2], mids[2::2])):
        order += [large, *pair]
    games = [("prop_no_ne", ig.fixture("prop_no_ne")),
             ("nonsymm_no_ne", ig.fixture("nonsymm_no_ne"))]
    budget = NE_PROFILES_PER_SECOND * seconds
    profiles = sum(ig.joint_grid_size(fx.instance) for _, fx in games)
    for values in order:
        if profiles >= budget:
            break
        fx = ig.from_partition_decide(list(values))
        games.append((f"decide{values}", fx))
        profiles += ig.joint_grid_size(fx.instance)
    return games


def run_ne_refute(games) -> Run:
    """One op is one refuted grid profile. The profile iterator the
    enumeration pulls from is wrapped to stamp the time at every profile, so
    each profile's cost is the gap between stamps; the wrapper adds one clock
    read per profile, and pauses for calibration between profiles."""
    calibration.sample()
    clock = calibration.now
    probe_name = "_iter_grid_coded"
    original = getattr(equilibrium, probe_name, None)
    stamps: list[float] = []

    def probed(*args, **kwargs):
        for item in original(*args, **kwargs):
            calibration.tick()
            stamps.append(clock())
            yield item

    run = Run([], [], 0)
    if original is None:
        run.notes.append(f"equilibrium.{probe_name} is gone: per-profile "
                         f"latency falls back to each game's mean")
    else:
        equilibrium._iter_grid_coded = probed
    start = clock()
    try:
        for _, fx in games:
            stamps.clear()
            calibration.tick()
            t0 = clock()
            try:
                found = equilibrium.enumerate_grid_ne(fx.instance)
            except Exception as exc:
                traceback.print_exc()
                found = ("error", repr(exc))
            t1 = clock()
            if original is None:
                count = ig.joint_grid_size(fx.instance)
                run.latencies_s.extend([(t1 - t0) / count] * count)
                run.starts_s.extend(t0 + k * (t1 - t0) / count for k in range(count))
            else:
                count = len(stamps)
                bounds = [t0] + stamps[1:] + [t1]
                run.latencies_s.extend(b - a for a, b in zip(bounds, bounds[1:]))
                run.starts_s.extend(bounds[:-1])
            run.results.append((found, count))
            run.ops += count
    finally:
        run.wall_s = clock() - start
        if original is not None:
            equilibrium._iter_grid_coded = original
    calibration.sample()
    return run


def check_ne_refute(games, run: Run) -> tuple[int, list]:
    failed = 0
    parts = []
    for (name, fx), (found, count) in zip(games, run.results):
        no_ne_fact = any(f.kind == "no_ne" for f in fx.facts)
        values = fx.params.get("values")
        expect_no_ne = values is None or not partition_exists(values)
        ok = (found == [] and no_ne_fact and expect_no_ne
              and count == ig.joint_grid_size(fx.instance))
        failed += 0 if ok else max(count, 1)
        parts.append((name, found, count))
    return failed, parts


# ---------------------------------------------------------------------------
# br_reduction: one best response per partition-reduction instance

BR_MULTISETS_PER_SECOND = 7
BR_SEARCH_WIDTH = 8  # stand-in candidate count for the stratification key


def _br_population():
    """Every multiset of 3..5 values in 1..6 with an even sum, ordered by the
    size of player 1's joint search: interchangeable (equal-weight) jobs are
    searched as multisets, so the search grows with the multiplicity
    pattern, and so does the cost of a call. Six values cost up to 0.6 s a
    call; capping at five keeps the calls many enough (280 at 20 s) for a
    steady median and tail."""
    def search_size(values):
        size = 1
        for m in collections.Counter(values).values():
            size *= math.comb(BR_SEARCH_WIDTH + m - 1, m)
        return size

    pop = [v for k in range(3, 6)
           for v in itertools.combinations_with_replacement(range(1, 7), k)
           if sum(v) % 2 == 0]
    return sorted(pop, key=lambda v: (search_size(v), v))


def make_br_reduction(seed: int, seconds: int, workdir: Path):
    """Stratified draw: the population, in cost order, is cut into equal
    strata and one multiset is drawn from each, so every seed does about the
    same total work. Each drawn multiset runs through both reductions."""
    rng = random.Random(f"br_reduction:{seed}")
    pop = _br_population()
    k = min(len(pop), max(1, round(BR_MULTISETS_PER_SECOND * seconds)))
    drawn = [pop[rng.randrange(len(pop) * i // k, len(pop) * (i + 1) // k)]
             for i in range(k)]
    rng.shuffle(drawn)
    ops = []
    for values in drawn:
        for build in (ig.from_partition_br, ig.from_partition_nonsymm):
            ops.append((values, build(list(values))))
    return ops


def run_br_reduction(ops) -> Run:
    return _timed_loop(ops, lambda op: equilibrium.best_response(
        op[1].instance, op[1].notable_profiles["initial"], 1))


def check_br_reduction(ops, run: Run) -> tuple[int, list]:
    """The fixture's fact must say what the subset-sum check predicts, and
    the best-response utility must meet the fact."""
    failed = 0
    parts = []
    for (values, fx), result in zip(ops, run.results):
        exists = partition_exists(values)
        (fact,) = fx.facts
        if fx.name == "partition_br":
            expected = (fact.kind == "br_value" and fact.payload
                        == sum(values) + (Fraction(1, 2) if exists else 0))
        else:
            expected = (fact.kind == ("br_value" if exists else "br_below")
                        and fact.payload == sum(values) + 2)
        ok = expected and isinstance(result, tuple) and len(result) == 2
        if ok:
            utility = result[1]
            ok = utility == fact.payload if fact.kind == "br_value" else utility < fact.payload
        failed += not ok
        parts.append((fx.name, values, result))
    return failed, parts


# ---------------------------------------------------------------------------
# family_cli: the igl experiment loop, in process, one instance per op

# (family, n, c, horizon) shapes cycled in order; the seed picks the rest.
CLI_SHAPES = (
    ("single", 2, 2, 3), ("unit", 3, 2, 2), ("prop", 3, 3, 2),
    ("general", 3, 2, 2), ("nonsymm", 3, 2, 3),
    ("single", 3, 3, 3), ("unit", 4, 2, 3), ("prop", 3, 2, 3),
    ("general", 3, 3, 2), ("nonsymm", 4, 2, 3),
    ("single", 3, 3, 4), ("unit", 3, 2, 2), ("prop", 3, 3, 2),
    ("general", 3, 2, 3), ("nonsymm", 4, 2, 2),
)
CLI_INSTANCES_PER_SECOND = 27
# "Small" means a joint grid of at most this many profiles, just above the
# largest grid the window-free shapes reach (1,287). Windowed draws can reach
# tens of thousands, which is ne_refute's regime, so those are drawn again.
CLI_MAX_GRID_PROFILES = 1300
CLI_POOL_FACTOR = 2


@dataclass
class CliCase:
    family: str
    instance: object
    commands: list


def _small_instances(shape, count: int, rng: random.Random) -> list:
    """`count` small instances of one shape, stratified by grid size: a pool
    twice as large is sorted by joint grid size and one instance is drawn
    from each consecutive pair, so every seed gets about the same mix of
    cheap and costly instances."""
    pool = []
    while len(pool) < CLI_POOL_FACTOR * count:
        instance = ig.random_instance(*shape, rng.randrange(2 ** 31))
        size = ig.joint_grid_size(instance)
        if size <= CLI_MAX_GRID_PROFILES:
            pool.append((size, len(pool), instance))
    pool.sort(key=lambda entry: entry[:2])
    chosen = [pool[CLI_POOL_FACTOR * k + rng.randrange(CLI_POOL_FACTOR)][2]
              for k in range(count)]
    rng.shuffle(chosen)
    return chosen


def make_family_cli(seed: int, seconds: int, workdir: Path):
    count = max(1, round(CLI_INSTANCES_PER_SECOND * seconds))
    shapes = len(CLI_SHAPES)
    drawn = [iter(_small_instances(shape, len(range(k, count, shapes)),
                                   random.Random(f"family_cli:{seed}:{k}")))
             for k, shape in enumerate(CLI_SHAPES)]
    rng = random.Random(f"family_cli:{seed}:starts")
    cases = []
    for i in range(count):
        family = CLI_SHAPES[i % shapes][0]
        instance = next(drawn[i % shapes])
        start = ig.random_profile(instance, rng.randrange(2 ** 31))
        inst_path = workdir / f"{i}.json"
        start_path = workdir / f"{i}.start.json"
        inst_path.write_text(ig.instance_to_json(instance) + "\n")
        start_path.write_text(ig.profile_to_json(start) + "\n")
        # `analyze` rejects windows (its optimum routes do), so windowed
        # instances are enumerated with `ne`.
        first = "ne" if instance.has_windows else "analyze"
        commands = [[first, str(inst_path)], ["brd", str(inst_path), str(start_path)]]
        if family in ("single", "unit"):
            commands.append(["ne", str(inst_path), "--construct", family])
        cases.append(CliCase(family, instance, commands))
    return cases


def _igl(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_family_cli(cases) -> Run:
    return _timed_loop(cases, lambda case: [_igl(argv) for argv in case.commands])


def _cli_case_ok(case: CliCase, outputs) -> bool:
    for argv, (code, stdout) in zip(case.commands, outputs):
        if code in (2, 3):
            return False
        doc = json.loads(stdout)
        if argv[0] == "analyze":
            opt = ig.social_optimum_bruteforce(case.instance)
            if Fraction(doc["opt"]) != opt or doc["bound_satisfied"] is False:
                return False
        elif argv[0] == "ne" and "--construct" in argv:
            if code != 0 or doc.get("certified") is not True:
                return False
        elif argv[0] == "brd" and case.family in ("single", "unit"):
            values = [Fraction(v) for _, _, v in doc["trace"]]
            if doc["status"] != "converged" or values != sorted(values):
                return False
    return True


def check_family_cli(cases, run: Run) -> tuple[int, list]:
    failed = 0
    parts = []
    for case, outputs in zip(cases, run.results):
        ok = isinstance(outputs, list) and len(outputs) == len(case.commands)
        if ok:
            try:
                ok = _cli_case_ok(case, outputs)
            except (ValueError, KeyError, TypeError):
                ok = False
            parts.extend((argv[0], code, stdout) for argv, (code, stdout)
                         in zip(case.commands, outputs))
        else:
            parts.append(outputs)
        failed += not ok
    return failed, parts


WORKLOADS = {
    "machine_stream": (make_machine_stream, run_machine_stream, check_machine_stream),
    "ne_refute": (make_ne_refute, run_ne_refute, check_ne_refute),
    "br_reduction": (make_br_reduction, run_br_reduction, check_br_reduction),
    "family_cli": (make_family_cli, run_family_cli, check_family_cli),
}
