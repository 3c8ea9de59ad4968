"""Grids, best responses, NE checks, dynamics, constructions, analysis."""

import ast
import collections
import copy
import gc
import itertools
import math
import pathlib
import pickle
import random
import re
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalgames import (GuardError, Instance, InternalFailure, Job, Profile,
                           UnsupportedInstanceError, ValidationError, analyze,
                           applicable_bounds, best_response, brd, build_grid,
                           enumerate_grid_ne, fixture, fixture_names,
                           from_partition_br, from_partition_decide,
                           from_partition_nonsymm, grid_candidates,
                           grid_profiles, is_nash, joint_grid_size, ne_single,
                           ne_unit, random_instance, random_profile,
                           social_optimum_enumerate, solve_machine_bruteforce,
                           solve_machine_dp, tightest_bound, utilities,
                           validate_instance, validate_profile, verify_deviation)
from intervalgames import equilibrium
from intervalgames.equilibrium import (_coded_grid, _global_lists, _grid_points,
                                        _player_search, _profile_stable)
from intervalgames.machine import (MachineCache, _job_groups, _ticks,
                                  machine_value_and_covered)
from conftest import assert_fresh_core, core_keys, guard_instances, merged_lists, plain_scan


def _inst(horizon, *jobs):
    return validate_instance(Instance(F(horizon), tuple(
        Job(i + 1, c, F(p), F(w)) for i, (c, p, w) in enumerate(jobs))))


def _units(horizon, weights):
    return _inst(horizon, *((i + 1, 1, w) for i, w in enumerate(weights)))


# --- candidate grids --------------------------------------------------------

def test_grid_contains_bounds_and_interior():
    inst = _inst(2, (1, 1, 1), (2, 1, 1))
    grid = build_grid(inst, {2: F(0)}, player=1)
    starts = grid.starts(1)
    assert F(0) in starts and F(1) in starts
    assert any(F(0) < s < F(1) for s in starts)


def test_grid_no_neighbors():
    inst = _inst(3, (1, 1, 1))
    grid = build_grid(inst, {}, player=1)
    starts = grid.starts(1)
    assert F(0) in starts and F(2) in starts
    assert any(F(0) < s < F(2) for s in starts)


def test_grid_interior_enables_hiding_move():
    fx = fixture("pos_two")
    # Player 2's job 3 fixed at 1. (Player 1's job 1 fixed at 0 added no
    # point; a start for one of the gridded player's jobs is now rejected.)
    grid = build_grid(fx.instance, {3: F(1)}, player=1)
    assert any(F(0) < s < F(1) for s in grid.starts(2))


def test_grid_tags():
    inst = _inst(2, (1, 1, 1), (2, 1, 1))
    grid = build_grid(inst, {2: F(0)}, player=1)
    tags = {tag for _, cands in grid.entries for _, tag in cands}
    assert "endpoint-aligned" in tags and "interior-shifted" in tags


def test_grid_points_refuse_a_gap_they_cannot_halve():
    # Points 0 and 3 over one denominator: half the gap is not on the scale.
    with pytest.raises(InternalFailure, match="cannot be halved"):
        _grid_points(0, 3, 1, [])
    assert _grid_points(0, 4, 1, []) == ({0, 4}, [2])
    # The same points as `build_grid` tags them: one job of length 1 in
    # [0, 3) has bounds 0 and 2, over a denominator of 2 the ints 0 and 4.
    grid = build_grid(_inst(3, (1, 1, 1)), {}, player=1)
    assert grid.entries == ((1, ((F(0), "endpoint-aligned"), (F(1), "interior-shifted"),
                                 (F(2), "endpoint-aligned"))),)


def test_build_grid_rejects_a_start_the_profile_check_rejects():
    # ex1: jobs 1 and 2 are player 1's, job 3 (length 1) player 2's, T = 4.
    # A fixed start out of range or out of its window fails with
    # `validate_profile`'s message; a start for a gridded job fails too.
    ex1 = fixture("ex1").instance
    windowed = validate_instance(Instance(F(4), (
        Job(1, 1, F(1), F(1)), Job(2, 2, F(1), F(1), (F(1), F(3))))))
    for inst, fixed, player, message in [
            (ex1, {1: F(-5)}, 2, "job 1: interval [-5, -1) outside [0, 4)"),
            (ex1, {3: F(7)}, 1, "job 3: interval [7, 8) outside [0, 4)"),
            (windowed, {2: F(0)}, 1, "job 2: interval outside window [1, 3)")]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_grid(inst, fixed, player)
        valid = {j.id: j.release for j in inst.jobs}
        with pytest.raises(ValidationError, match=re.escape(message)):
            validate_profile(inst, Profile.from_dict({**valid, **fixed}))
    for fixed in ({1: F(-5)}, {1: F(0)}, {2: F(0), 3: F(0)}):
        with pytest.raises(ValidationError, match="is a job of player 1, not fixed"):
            build_grid(ex1, fixed, player=1)


def _tagged_grid_points(lo, hi, length, fixed, windowed):
    """The local grid builder as it was when it also tagged every point:
    the bounds first, then the other aligned points, then the interior."""
    bound_tag = "window-clipped" if windowed else "endpoint-aligned"
    points = {lo: bound_tag, hi: bound_tag}
    for sk, fk in fixed:
        for cand in (fk, sk - length, sk):
            if lo <= cand <= hi:
                points.setdefault(cand, "endpoint-aligned")
    for cand in equilibrium._interior(sorted(points), hi):
        points.setdefault(cand, "interior-shifted")
    return points


def _reference_build_grid(inst, fixed_starts, player):
    """`build_grid` over `_tagged_grid_points`, on the same denominator."""
    T = inst.horizon
    own = inst.jobs_of_color(player)
    fixed = [(inst.job(jid), s) for jid, s in fixed_starts.items()]
    den = 2 * math.lcm(*[x.denominator for k, s in fixed for x in (s, k.length)],
                       *[x.denominator for j in own
                         for x in (j.release, j.due(T), j.length)])

    def ticks(x):
        return x.numerator * (den // x.denominator)

    entries = []
    for j in own:
        length = ticks(j.length)
        points = _tagged_grid_points(
            ticks(j.release), ticks(j.due(T)) - length, length,
            [(ticks(s), ticks(s + k.length)) for k, s in fixed if k.id != j.id],
            j.window is not None)
        entries.append((j.id, tuple((F(n, den), tag) for n, tag in sorted(points.items()))))
    return equilibrium.CandidateGrid(player, tuple(entries))


def test_build_grid_tags_points_as_the_tagging_builder_did():
    windowed = 0
    for inst in _grid_pin_instances():
        windowed += inst.has_windows
        for seed in range(3):
            starts = random_profile(inst, seed).as_dict()
            for player in inst.color_ids:
                others = {jid: s for jid, s in starts.items()
                          if inst.job(jid).color != player}
                assert build_grid(inst, others, player) == \
                    _reference_build_grid(inst, others, player)
    assert windowed > 0


# --- the global grid against a Fraction reference ------------------------------

def _reference_global_grid_points(instance, resolution=1):
    """The global grid computed in `Fraction`s, independently of the
    integer builder."""
    T = instance.horizon
    pts = {F(0), T}
    for j in instance.jobs:
        if j.window is not None:
            pts.add(j.window[0])
            pts.add(j.window[1])
    lengths = sorted({j.length for j in instance.jobs if j.length > 0})
    for _ in range(resolution):
        for x in list(pts):
            for p in lengths:
                y = x + p
                if y <= T:
                    pts.add(y)
                y = x - p
                if y >= 0:
                    pts.add(y)
    event = sorted(pts)
    gaps = [b - a for a, b in zip(event, event[1:])]
    if gaps:
        delta = min(gaps) / 2
        for x in event:
            y = x + delta
            if y <= T:
                pts.add(y)
    return tuple(sorted(pts))


def _reference_grid_candidates(instance, resolution=1):
    points = _reference_global_grid_points(instance, resolution)
    out = {}
    for j in instance.jobs:
        lo = j.release
        hi = j.due(instance.horizon) - j.length
        cands = {g for g in points if lo <= g <= hi}
        cands.add(lo)
        cands.add(hi)
        out[j.id] = tuple(sorted(cands))
    return out


def _grid_pin_instances():
    """Every fixture (poa_tight at epsilon 1/10, so L = 10), and the
    differential family instances, windowed ones included."""
    params = {"poa_tight": {"n": 5, "epsilon": F(1, 10)}, "pos_c": {"c": 3},
              "unit_tight": {"c": 4}}
    instances = [fixture(name, **params.get(name, {})).instance
                 for name in fixture_names()]
    return instances + _differential_instances()


def test_integer_global_grid_matches_the_fraction_reference():
    instances = _grid_pin_instances()
    for inst in instances:
        for resolution in (1, 2, 3):
            points = equilibrium.global_grid_points(inst, resolution)
            assert points == _reference_global_grid_points(inst, resolution)
            assert type(points) is tuple and all(type(x) is F for x in points)
            cands = grid_candidates(inst, resolution)
            reference = _reference_grid_candidates(inst, resolution)
            assert list(cands.items()) == list(reference.items())
            assert all(type(c) is tuple and all(type(x) is F for x in c)
                       for c in cands.values())
            assert joint_grid_size(inst, resolution) == math.prod(
                math.comb(len(reference[ids[0]]) + len(ids) - 1, len(ids))
                for ids in _job_groups(inst))
            # random_profile draws the same starts from the same lists.
            rng = random.Random(f"igl-profile:{resolution}")
            assert random_profile(inst, resolution, resolution) == Profile.from_dict(
                {jid: rng.choice(c) for jid, c in reference.items()})


def test_grid_closure_stops_at_the_first_round_that_adds_nothing():
    # ex1's closure is whole after two rounds. A million rounds took 3.4 s
    # when every round ran, and 10**30 never returned, so the timed call
    # comes first: code that runs every round fails it instead of hanging.
    inst = fixture("ex1").instance
    start = time.perf_counter()
    assert joint_grid_size(inst, 10 ** 6) == joint_grid_size(inst, 2) == 49
    assert time.perf_counter() - start < 0.5
    for inst in _grid_pin_instances():
        r = 1
        while equilibrium.global_grid_points(inst, r) != \
                equilibrium.global_grid_points(inst, r + 1):
            r += 1
        for view in (joint_grid_size, equilibrium.global_grid_points, grid_candidates):
            assert view(inst, 10 ** 30) == view(inst, r)


def test_resolution_below_one_is_rejected():
    fx = fixture("ex1")
    inst, profile = fx.instance, fx.notable_profiles["figure_a"]
    routes = (lambda r: equilibrium.global_grid_points(inst, r),
              lambda r: grid_candidates(inst, r),
              lambda r: joint_grid_size(inst, r),
              lambda r: list(grid_profiles(inst, r)),
              lambda r: enumerate_grid_ne(inst, r),
              lambda r: brd(inst, profile, resolution=r),
              lambda r: analyze(fixture("unit_tight", c=2).instance, r),
              lambda r: random_profile(inst, 0, r))
    for route in routes:
        for resolution in (0, -1):
            with pytest.raises(ValidationError, match="resolution must be at least 1"):
                route(resolution)
        route(1)


# --- best responses ----------------------------------------------------------

def test_best_response_ex1_player2_escapes():
    fx = fixture("ex1")
    profile = Profile.from_dict({1: F(0), 2: F(0), 3: F(0)})
    _, u = best_response(fx.instance, profile, 2)
    assert u == 3


def test_best_response_ex1_player1_overlaps():
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_a"]  # job3 disjoint at [1,2)
    strategy, u = best_response(fx.instance, profile, 1)
    assert u == 4
    s2 = strategy[2]
    assert F(0) < s2 + 1 and s2 < F(2)  # overlaps job3


def test_best_response_stability_bias():
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_b"]  # player 1 fully covered
    strategy, u = best_response(fx.instance, profile, 1)
    assert u == 4
    assert strategy == {1: F(0), 2: F(1)}  # unchanged


# --- NE verification ---------------------------------------------------------

def test_is_nash_figure5():
    fx = fixture("pos_two")
    assert is_nash(fx.instance, fx.notable_profiles["ne"]) is None
    dev = is_nash(fx.instance, fx.notable_profiles["opt"])
    assert dev is not None and dev.player == 1
    assert dev.utility_before == 1 and dev.utility_after == F(4, 3)
    assert verify_deviation(fx.instance, fx.notable_profiles["opt"], dev)


def test_is_nash_single_player_always_stable():
    inst = _inst(2, (1, 1, 1), (1, 1, 2))
    profile = Profile.from_dict({1: F(0), 2: F(0)})
    assert is_nash(inst, profile) is None
    sched = solve_machine_dp(inst, profile)
    assert sched.covered == frozenset({1, 2})


def test_is_nash_first_improvement_agrees():
    fx = fixture("ex1")
    for profile in fx.notable_profiles.values():
        full = is_nash(fx.instance, profile)
        fast = is_nash(fx.instance, profile, first_improvement=True)
        assert (full is None) == (fast is None)
        if fast is not None:
            assert verify_deviation(fx.instance, profile, fast)


# --- best-response dynamics ----------------------------------------------------

def test_brd_ex1_cycles():
    fx = fixture("ex1")
    out = brd(fx.instance, fx.notable_profiles["figure_a"], max_iters=50)
    assert out.status == "cycle_detected"
    assert out.iterations <= 50
    assert out.cycle is not None and len(out.cycle) >= 2
    assert out.final_or_cycle == out.cycle


def test_brd_single_converges_monotone():
    for i in range(25):
        n = 2 + i % 5
        inst = random_instance("single", n, n, F(6), seed=600 + i)
        initial = Profile.from_dict({j.id: F(0) for j in inst.jobs})
        out = brd(inst, initial, max_iters=200)
        assert out.status == "converged"
        values = [v for _, _, v in out.trace]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_brd_zero_cap_returns_initial():
    fx = fixture("ex1")
    initial = fx.notable_profiles["figure_a"]
    out = brd(fx.instance, initial, max_iters=0)
    assert out.status == "iteration_cap"
    assert out.final == initial and out.iterations == 0


def test_brd_first_improving_order():
    fx = fixture("ex1")
    out = brd(fx.instance, fx.notable_profiles["figure_a"],
              order="first_improving", max_iters=50)
    assert out.status == "cycle_detected"


# --- constructions -------------------------------------------------------------

def test_ne_single_heavy_job_branch():
    fx = fixture("poa_tight", n=5, epsilon=F(1, 10))
    profile = ne_single(fx.instance)
    assert solve_machine_dp(fx.instance, profile).value == F(21, 10)
    assert is_nash(fx.instance, profile) is None


def test_ne_single_pair_branch_with_parked_job():
    inst = _units(2, (1, 1, 1))  # three unit jobs, only two fit
    profile = ne_single(inst)
    assert solve_machine_dp(inst, profile).value == 2
    assert is_nash(inst, profile) is None
    starts = profile.as_dict()
    assert starts[3] == F(1, 2)  # the leftover overlaps both covered jobs


def test_ne_single_no_pair_fits():
    inst = _inst(4, (1, 3, 5), (2, 3, 4))
    profile = ne_single(inst)
    assert profile.as_dict() == {1: F(0), 2: F(0)}
    assert solve_machine_dp(inst, profile).value == 5
    assert is_nash(inst, profile) is None


def test_ne_single_rejects_other_classes():
    fx = fixture("ex1")
    with pytest.raises(UnsupportedInstanceError):
        ne_single(fx.instance)


def test_ne_single_value_floor():
    # the construction never covers less than the heaviest job or the best
    # pair that fits together
    for i in range(30):
        n = 2 + i % 5
        inst = random_instance("single", n, n, F(4 + i % 3), seed=800 + i)
        value = solve_machine_dp(inst, ne_single(inst)).value
        jobs = inst.jobs
        floor = max(j.weight for j in jobs)
        for x in range(len(jobs)):
            for y in range(x + 1, len(jobs)):
                if jobs[x].length + jobs[y].length <= inst.horizon:
                    floor = max(floor, jobs[x].weight + jobs[y].weight)
        assert value >= floor


def test_ne_unit_matches_optimum():
    fx = fixture("unit_tight", c=4)
    profile = ne_unit(fx.instance)
    assert solve_machine_dp(fx.instance, profile).value == 5
    assert is_nash(fx.instance, profile) is None


def test_ne_unit_one_slot():
    inst = _inst(1, (1, 1, 3), (2, 1, 1))
    profile = ne_unit(inst)
    assert solve_machine_dp(inst, profile).value == 3


def test_ne_unit_rejects():
    fx = fixture("ex1")
    with pytest.raises(UnsupportedInstanceError):
        ne_unit(fx.instance)
    # T < 1 cannot pass validation (length > horizon); the construction still
    # guards against unvalidated input
    tiny = Instance(F(1, 2), (Job(1, 1, F(1), F(1)),))
    with pytest.raises(UnsupportedInstanceError):
        ne_unit(tiny)


# --- grid enumeration ------------------------------------------------------------

def test_enumerate_ex1_empty():
    fx = fixture("ex1")
    assert enumerate_grid_ne(fx.instance) == []


def test_enumerate_pos_two_unique_value():
    fx = fixture("pos_two")
    found = enumerate_grid_ne(fx.instance)
    assert found
    delta = fx.params["delta"]
    assert {v for _, v in found} == {1 + delta}


def test_enumerate_two_unit_jobs_both_values():
    inst = _units(2, (1, 1))
    found = enumerate_grid_ne(inst)
    values = sorted({v for _, v in found})
    assert values == [F(1), F(2)]


def _plain_grid_ne(inst):
    """Reference for enumerate_grid_ne: keep every grid profile that the
    plain first-improvement search leaves stable, sorted the same way."""
    found = [(p, solve_machine_dp(inst, p).value) for p in grid_profiles(inst)
             if is_nash(inst, p, first_improvement=True) is None]
    return sorted(found, key=lambda pv: (pv[1], pv[0].placements))


# (family, n, colors, horizon) shapes for the differential run.
DIFFERENTIAL_SHAPES = (("single", 3, 3, 3), ("unit", 3, 2, 2), ("prop", 3, 2, 3),
                       ("general", 3, 2, 2), ("nonsymm", 3, 2, 3),
                       ("general", 4, 2, 3), ("nonsymm", 4, 2, 2))


def _differential_instances():
    """Eight seeded instances per shape, each with at most 300 grid profiles."""
    out = []
    for k, shape in enumerate(DIFFERENTIAL_SHAPES):
        seed = 1000 * k
        drawn = 0
        while drawn < 8:
            inst = random_instance(*shape, seed)
            seed += 1
            if joint_grid_size(inst) <= 300:
                out.append(inst)
                drawn += 1
    return out


def _two_group_instance():
    """Player 1 owns a length-1 and a length-2 job: two groups that are not
    interchangeable, so each has its own aligned list."""
    return _inst(4, (1, 1, 1), (1, 2, 1), (2, 1, 3))


def test_two_group_instance_has_starts_on_the_other_groups_list():
    # The verdict memo checks each job's start against its own group's
    # aligned list; this instance has grid profiles where job 1's start is
    # only on job 2's list, so the differential run below covers that case.
    inst = _two_group_instance()
    hits = 0
    for profile in grid_profiles(inst):
        starts = profile.as_dict()
        grid = build_grid(inst, {3: starts[3]}, player=1)
        hits += starts[1] not in grid.starts(1) and starts[1] in grid.starts(2)
    assert hits > 0


def _enumerable_fixtures():
    """The fixtures whose joint grid passes the enumeration guard."""
    return [fixture(name, **params) for name, params in (
        ("ex1", {}), ("prop_no_ne", {}), ("pos_two", {}),
        ("poa_tight", {"n": 5, "epsilon": F(1, 10)}), ("unit_tight", {"c": 4}),
        ("nonsymm_no_ne", {}))]


def test_enumerate_matches_plain_search():
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += [from_partition_decide(v).instance for v in ((1, 2, 3), (2, 2, 2))]
    instances.append(_two_group_instance())
    random_part = _differential_instances()
    assert len(random_part) >= 40
    assert any(inst.has_windows for inst in random_part)
    for inst in instances + random_part:
        assert enumerate_grid_ne(inst) == _plain_grid_ne(inst)
    # pos_c's joint grid exceeds the enumeration guard at every c >= 3.
    pos_c = fixture("pos_c", c=3).instance
    for route in (enumerate_grid_ne, _plain_grid_ne):
        with pytest.raises(GuardError, match="joint grid"):
            route(pos_c)


def _plain_grid_keys(groups, base):
    """Reference for `_grid_keys`: every combination of `_multisets` order
    writes every group into `base`."""
    key = list(base)
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(times, len(positions))
            for positions, times in groups)):
        for (positions, _), tup in zip(groups, combo):
            for p, x in zip(positions, tup):
                key[p] = x
        yield tuple(key)


def test_grid_keys_match_a_plain_product(monkeypatch):
    # Job 1 (length 2 in [0, 2)) has one candidate, jobs 2 and 3 are one
    # group of two, and job 4 is a group of its own after them.
    mixed = _inst(2, (1, 2, 1), (2, 1, 1), (2, 1, 1), (1, 1, 2))
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += _differential_instances() + [mixed]
    seen = []
    grid_keys = equilibrium._grid_keys

    def recording(groups, base):
        seen.append((groups, len(base)))
        return grid_keys(groups, base)

    monkeypatch.setattr(equilibrium, "_grid_keys", recording)
    for inst in instances:
        keys = list(equilibrium._iter_grid_coded(inst, 1, False, MachineCache.of(inst)))
        groups, size = seen.pop()
        assert keys == list(_plain_grid_keys(groups, [0] * size))
        assert len(keys) == joint_grid_size(inst)
    sizes = sorted((len(positions), len(times)) for positions, times in groups)
    assert sizes == [(1, 1), (1, 3), (2, 3)]


def test_grid_keys_match_a_plain_product_on_random_groups():
    """`_grid_keys` steps its last group in an inner loop; over random group
    lists (1-4 groups of 1-3 key positions, 0-5 candidates each) it yields
    the reference's keys in its order, and no groups yield the base once."""
    rng = random.Random(2024)
    shapes = set()
    for _ in range(150):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        size = sum(sizes) + rng.randint(0, 2)
        slots = rng.sample(range(size), sum(sizes))
        groups = []
        for n in sizes:
            groups.append((slots[:n], sorted(rng.sample(range(10), rng.randint(0, 5)))))
            del slots[:n]
        base = [-1 - p for p in range(size)]
        assert list(equilibrium._grid_keys(groups, base)) == list(
            _plain_grid_keys(groups, base)), groups
        shapes |= {(len(ps), len(values), g == len(groups) - 1)
                   for g, (ps, values) in enumerate(groups)}
    # Every shape came up, in the last group and before it.
    assert shapes == set(itertools.product((1, 2, 3), range(6), (False, True)))
    for base in ([], [3, 1]):
        assert list(equilibrium._grid_keys([], base)) == [tuple(base)]


def test_a_block_of_enumerated_keys_moves_only_the_moving_job():
    """`_grid_ne` reads the head, and drops the owner's record, only where a
    block of keys starts: where the start of the job `_grid_keys` moves
    fastest does not rise. Inside a block, consecutive keys differ only at
    that job's position; a key that starts a block differs from the one
    before it elsewhere too."""
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += [from_partition_decide(v).instance for v in ((1, 2, 3), (2, 2, 2), (1, 3, 3, 3))]
    instances += _differential_instances() + [_two_group_instance()]
    inside = starts = 0
    for inst in instances:
        cache = MachineCache.of(copy.copy(inst))
        (_, positions), _ = max((group, player) for player, groups in cache.groups.items()
                                for group in groups)
        moving = positions[-1]
        keys = list(equilibrium._iter_grid_coded(cache.instance, 1, False, cache))
        for a, b in zip(keys, keys[1:]):
            moved = [p for p, (x, y) in enumerate(zip(a, b)) if x != y and p != moving]
            if b[moving] > a[moving]:
                assert not moved, (a, b)
                inside += 1
            else:
                assert moved, (a, b)
                starts += 1
    assert inside > 10000 and starts > 1000


def test_enumeration_draws_each_profile_through_iter_grid_coded(monkeypatch):
    """The `ne_refute` benchmark times each profile by wrapping
    `equilibrium._iter_grid_coded`; without that name it falls back to
    per-game means. `enumerate_grid_ne` and `analyze` draw every profile of
    the joint grid through it, once each."""
    iter_grid_coded, drawn = equilibrium._iter_grid_coded, []

    def counting(*args, **kwargs):
        drawn.append(0)
        for key in iter_grid_coded(*args, **kwargs):
            drawn[-1] += 1
            yield key

    monkeypatch.setattr(equilibrium, "_iter_grid_coded", counting)
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances.append(from_partition_decide((1, 3, 3, 3)).instance)
    runs = 0
    for inst in instances:
        calls = [enumerate_grid_ne]
        if not any(j.window for j in inst.jobs):  # the optimum rejects windows
            calls.append(analyze)
        for call in calls:
            drawn.clear()
            call(copy.copy(inst))
            assert drawn == [joint_grid_size(inst)]
            runs += 1
    assert runs == 2 * len(instances) - 1


def _wrapping_walks(monkeypatch, wrap):
    """Make every typed walk that `_grid_ne` builds (`_typed_walk`) the
    function `wrap(walk, args)` returns, `args` being `_typed_walk`'s."""
    typed_walk = equilibrium._typed_walk
    monkeypatch.setattr(equilibrium, "_typed_walk",
                        lambda *args: wrap(typed_walk(*args), args))


def _counting_searches(monkeypatch) -> list:
    """Record the key of every search made through the module: each
    `_player_search` call, and each call of a typed walk, which grid-NE
    enumeration runs in place of a one-job player's search."""
    calls = []
    search = equilibrium._player_search

    def counting(*args, **kwargs):
        calls.append(args[3])
        return search(*args, **kwargs)

    def counting_walk(walk, _):
        def counted(key, lists, u_cur):
            calls.append(key)
            return walk(key, lists, u_cur)
        return counted

    monkeypatch.setattr(equilibrium, "_player_search", counting)
    _wrapping_walks(monkeypatch, counting_walk)
    return calls


def test_every_player_verdict_matches_a_plain_search():
    # Stronger than comparing the survivors: every player is asked at every
    # grid profile, in enumeration order and in reverse, with one dict of
    # grid records through each loop, so the bounds that earlier profiles
    # left in the records settle many verdicts, including those of profiles
    # whose starts are off the aligned lists.
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += [from_partition_decide((1, 2, 3)).instance, _two_group_instance()]
    instances += _differential_instances()
    for inst in instances:
        for order in (list, reversed):
            cache, memo, records = MachineCache.of(inst), {}, {}
            for key in order(list(equilibrium._iter_grid_coded(inst, 1, False, cache))):
                per = cache.evaluate_key(memo, key)[1]
                for player in inst.color_ids:
                    plain = _player_search(inst, cache, memo, key, player, mode="first")
                    assert _profile_stable(cache, records, key, per,
                                           plain_scan(inst, cache, memo, [player]), False) \
                        == (plain is None)
            assert records


def test_verdict_bounds_settle_profiles_off_the_aligned_lists(monkeypatch):
    # With bounds read only at profiles on the aligned lists, enumerating
    # unit_tight (c = 4) took 625 searches; today it takes 575.
    calls = _counting_searches(monkeypatch)
    enumerate_grid_ne(fixture("unit_tight", c=4).instance)
    assert len(calls) < 625


def test_one_job_player_off_its_aligned_list_is_settled_by_its_ceiling(monkeypatch):
    # Job 2 on [1/2, 5/2) outweighs job 1 wherever job 1 starts, so player 1
    # is stable at utility 0. Its aligned list against job 2 is
    # {0, 1/4, 1/2, 3/4, 2}: the global-grid start 1 is off it.
    inst = _inst(3, (1, 1, 2), (2, 2, 3))
    cache, aligned_key, off_key = core_keys(inst, {1: F(0), 2: F(1, 2)},
                                            {1: F(1), 2: F(1, 2)})
    calls, memo, records = _counting_searches(monkeypatch), {}, {}
    scan = plain_scan(inst, cache, memo, [1])
    per = cache.evaluate_key(memo, aligned_key)[1]
    assert _profile_stable(cache, records, aligned_key, per, scan, False)
    [record] = records.values()
    assert calls == [aligned_key] and record.hi == 0
    lists = _coded_grid(cache, off_key, 1, record)
    assert off_key[0] not in record.coded[0] and off_key[0] in lists[0]
    per = cache.evaluate_key(memo, off_key)[1]
    assert per[0] == 0
    assert _profile_stable(cache, records, off_key, per, scan, False)
    assert calls == [aligned_key]  # the proved ceiling settles it
    assert _player_search(inst, cache, memo, off_key, 1, mode="first") is None


def test_bounds_take_no_evidence_from_starts_off_the_aligned_lists(monkeypatch):
    # Player 1 owns a length-1 and a length-2 job; against job 3 at 3/2,
    # job 2's aligned list lacks 1/2. A two-job player's search can combine
    # an off-list start with aligned ones, so a proved ceiling does not
    # settle it there.
    inst = _two_group_instance()
    cache, aligned_key, off_key = core_keys(inst, {1: F(0), 2: F(0), 3: F(3, 2)},
                                            {1: F(0), 2: F(1, 2), 3: F(3, 2)})
    calls, memo, records = _counting_searches(monkeypatch), {}, {}
    for key in (aligned_key, off_key):
        assert _profile_stable(cache, records, key, cache.evaluate_key(memo, key)[1],
                               plain_scan(inst, cache, memo, [1]), False)
    [record] = records.values()
    assert off_key[1] not in record.coded[1]
    assert record.hi <= cache.evaluate_key(memo, off_key)[1][0]
    assert calls == [aligned_key, off_key]
    # Against job 3 at 1/2, job 2's start 1 is off its aligned list. A
    # deviation that keeps it there is worth 1 > 0, but it proves nothing
    # about the aligned grid, so it leaves `lo` alone; an aligned one sets it.
    cache, key, moved = core_keys(inst, {1: F(0), 2: F(1), 3: F(1, 2)},
                                  {1: F(3, 2), 2: F(1), 3: F(1, 2)})
    memo, records = {}, {}
    u_cur, u = cache.evaluate_key(memo, key)[1][0], cache.evaluate_key(memo, moved)[1][0]
    assert u > u_cur
    monkeypatch.setattr(equilibrium, "_player_search", lambda *a, **k: (moved, u))
    scan = plain_scan(inst, cache, memo, [1])
    assert not _profile_stable(cache, records, key, cache.evaluate_key(memo, key)[1],
                               scan, False)
    [record] = records.values()
    assert key[1] == moved[1] and moved[1] not in record.coded[1]
    assert record.lo == -1
    monkeypatch.undo()
    assert not _profile_stable(cache, records, key, cache.evaluate_key(memo, key)[1],
                               scan, False)
    found = _player_search(inst, cache, memo, key, 1, mode="first")
    assert record.lo == found[1] > u_cur


def test_enumeration_builds_no_fraction_before_it_returns(monkeypatch):
    # Three games without an equilibrium: nothing is returned, so nothing
    # needs a Fraction.
    instances = [fixture("prop_no_ne").instance, fixture("nonsymm_no_ne").instance,
                 from_partition_decide((1, 3, 3, 3)).instance]
    made = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    found = [enumerate_grid_ne(inst) for inst in instances]
    monkeypatch.undo()
    assert found == [[], [], []]
    assert made == []


def test_enumeration_merges_a_record_only_to_search(monkeypatch):
    # `_profile_stable` settles a verdict from a covered player or its
    # record's bounds before it merges the player's starts into the record,
    # so it merges once per search. Before, a verdict was asked of a second
    # function for every scanned player: 16,328 and 6,489 times.
    # A typed walk, which a one-job player runs in place of a search, counts
    # as one. The enumeration keeps its own keys out of the core's memo, so
    # a search that lands on an earlier key runs its DP again: 2,507 and
    # 2,020 calls when the enumeration stored them. Since multi-job searches
    # take no typed route, prop_no_ne's owner of the moving job, who has four
    # jobs, runs 2,266 DP calls, not 2,184; the walks' 2,512, not 2,511.
    from intervalgames import machine
    cases = [(from_partition_decide((1, 3, 3, 3)).instance, 935, 2512),
             (fixture("prop_no_ne").instance, 248, 2266)]
    expected = [_plain_grid_ne(copy.copy(inst)) for inst, _, _ in cases]
    searches = _counting_searches(monkeypatch)
    merged, dp = [], []
    coded_grid, dp_core = equilibrium._coded_grid, machine._dp_core

    def counting_merge(*args):
        merged.append(args[1])
        return coded_grid(*args)

    def counting_dp(*args):
        dp.append(args[1])
        return dp_core(*args)

    monkeypatch.setattr(equilibrium, "_coded_grid", counting_merge)
    monkeypatch.setattr(machine, "_dp_core", counting_dp)
    for (inst, calls, dp_calls), plain in zip(cases, expected):
        for log in (searches, merged, dp):
            log.clear()
        assert enumerate_grid_ne(copy.copy(inst)) == plain
        assert merged == searches and len(merged) == calls
        assert len(dp) == dp_calls


def test_enumeration_searches_where_a_plain_scan_does(monkeypatch):
    # Enumeration answers keys from its type memo and passes its typed route
    # to the verdict searches; neither changes where it searches. A plain
    # scan asks `_profile_stable` at every key, evaluating it by the DP.
    searches = _counting_searches(monkeypatch)
    for inst in (_two_group_instance(), fixture("prop_no_ne").instance):
        fresh = copy.copy(inst)
        cache, memo, records = MachineCache.of(fresh), {}, {}
        keys = list(equilibrium._iter_grid_coded(fresh, 1, False, cache))
        scan = plain_scan(fresh, cache, memo, sorted(
            fresh.color_ids, key=lambda c: (len(fresh.jobs_of_color(c)), c)))
        for key in keys:
            _profile_stable(cache, records, key, cache.evaluate_key(memo, key)[1],
                            scan, False)
        plain = searches.copy()
        searches.clear()
        enumerate_grid_ne(copy.copy(inst))
        assert searches == plain and plain
        searches.clear()


def test_enumeration_reads_and_writes_bounds_in_one_verdict_function():
    """`_grid_ne` leaves every grid record to `_profile_stable`: it neither
    merges, guards nor searches one, and writes no bound. Across the module
    `lo`, `hi` and `big` are assigned only by the record's constructor and
    by `_profile_stable`, and records are built only where a search call
    keeps them: in `_profile_stable`, on enumeration's records, and in
    `_player_search`, for the one record it walks."""
    tree = ast.parse(pathlib.Path(equilibrium.__file__).read_text())
    writers = collections.Counter()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                name = node.attr
            elif (isinstance(node, ast.Call) and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and getattr(node.func, "id", None) == "setattr"):
                name = node.args[1].value
            else:
                continue
            if name in ("lo", "hi", "big"):
                writers[fn.name] += 1
    assert set(writers) == {"__init__", "_profile_stable"}
    calls = {fn.name: {getattr(node.func, "id", getattr(node.func, "attr", None))
                       for node in ast.walk(fn) if isinstance(node, ast.Call)}
             for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    assert "_profile_stable" in calls["_grid_ne"]
    assert not calls["_grid_ne"] & {"_guards", "_coded_grid", "_player_search"}
    assert {name for name, called in calls.items() if "_grid_record" in called} == {
        "_profile_stable", "_player_search"}


def test_a_verdict_search_walks_the_lists_its_verdict_merged(monkeypatch):
    """`_profile_stable` merges the player's starts into the record it holds
    and hands the lists to the search, so no verdict search of grid-NE
    enumeration, a typed walk included, builds or merges a record; each of
    the 935 and 248 searches used to look its record up again. A best
    response and a first-improvement `is_nash`, which hold no record, build
    theirs once per search and merge the starts into it once."""
    built, searches = [], []
    grid_record, coded_grid = equilibrium._grid_record, equilibrium._coded_grid
    search = equilibrium._player_search

    def counting_record(*args):
        built.append("record")
        return grid_record(*args)

    def counting_merge(*args):
        built.append("merge")
        return coded_grid(*args)

    def counting(run):
        def counted(*args, **kwargs):
            before = len(built)
            found = run(*args, **kwargs)
            searches.append(built[before:])
            return found
        return counted

    monkeypatch.setattr(equilibrium, "_grid_record", counting_record)
    monkeypatch.setattr(equilibrium, "_coded_grid", counting_merge)
    monkeypatch.setattr(equilibrium, "_player_search", counting(search))
    _wrapping_walks(monkeypatch, lambda walk, _: counting(walk))
    for inst, calls in ((from_partition_decide((1, 3, 3, 3)).instance, 935),
                        (fixture("prop_no_ne").instance, 248)):
        searches.clear()
        assert enumerate_grid_ne(copy.copy(inst)) == []
        assert searches == [[]] * calls
    fx = fixture("prop_no_ne")  # "overlap": player 2 covers nothing
    for ask in (lambda inst, profile: best_response(inst, profile, 2),
                lambda inst, profile: is_nash(inst, profile, first_improvement=True,
                                              players=(2,))):
        searches.clear()
        ask(copy.copy(fx.instance), fx.notable_profiles["overlap"])
        assert searches == [["record", "merge"]]


@pytest.mark.parametrize("name", sorted(guard_instances()))
def test_enumerate_guards_raise(name):
    inst, message = guard_instances()[name]
    with pytest.raises(GuardError, match=message):
        enumerate_grid_ne(inst)


# --- best responses against an exhaustive search -----------------------------

def _on_scale(cache, candidates):
    """A Fraction candidate map as times on the core's scale."""
    return {jid: [_ticks(x, cache.td) for x in cands]
            for jid, cands in candidates.items()}


def _search_lists(inst, starts, player, resolution):
    """The per-group (ids, candidate list) pairs the search walks, as
    Fractions: the local grid, or with a resolution the global grid."""
    cache, key = core_keys(inst, starts)
    lists = (merged_lists(cache, key, player)[1] if resolution is None
             else _global_lists(cache, resolution)[player])
    return [(ids_, [cache.time(x) for x in coded])
            for (ids_, _), coded in zip(cache.groups[player], lists)]


def _reference_best(inst, starts, player, resolution=None, prefer_value=False):
    """Best response with no memo that never stops early: every point of the
    same grid, evaluated from scratch. A strictly higher utility wins; with
    prefer_value, so does an equal utility with a higher machine value."""
    groups = _search_lists(inst, starts, player, resolution)

    def evaluate(point):
        value, covered = machine_value_and_covered(inst, dict(point))
        return value, sum((inst.job(i).weight for i in covered
                           if inst.job(i).color == player), F(0))

    best_u = evaluate(starts)[1]
    best_value = best = None
    work = dict(starts)
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(coded, len(ids_))
            for ids_, coded in groups)):
        for (ids_, _), tup in zip(groups, combo):
            work.update(zip(ids_, tup))
        value, u = evaluate(work)
        if u > best_u or (prefer_value and best is not None
                          and u == best_u and value > best_value):
            best_u, best_value = u, value
            best = {j.id: work[j.id] for j in inst.jobs_of_color(player)}
    if best is None:
        best = {j.id: starts[j.id] for j in inst.jobs_of_color(player)}
    return best, best_u


def _search_best(inst, starts, player, resolution=None, prefer_value=False):
    cache, key = core_keys(inst, starts)
    lists = None if resolution is None else _global_lists(cache, resolution)[player]
    best, u = _player_search(inst, cache, {}, key, player, mode="best",
                             lists=lists, prefer_value=prefer_value)
    return equilibrium._strategy(cache, best, player), F(u, cache.wden)


def _partition_games():
    """Both best-response reductions of every multiset of 3-4 values in 1..4
    with an even sum."""
    return [build(list(values))
            for k in (3, 4)
            for values in itertools.combinations_with_replacement(range(1, 5), k)
            if sum(values) % 2 == 0
            for build in (from_partition_br, from_partition_nonsymm)]


def test_best_response_matches_exhaustive_search_on_partition_games():
    games = _partition_games()
    assert {fx.params["partition_exists"] for fx in games} == {True, False}
    for fx in games:
        starts = fx.notable_profiles["initial"].as_dict()
        assert _search_best(fx.instance, starts, 1) == \
            _reference_best(fx.instance, starts, 1), fx.params


def test_best_response_matches_exhaustive_search_on_fixtures():
    for fx in _enumerable_fixtures():
        for profile in fx.notable_profiles.values():
            starts = profile.as_dict()
            for player in fx.instance.color_ids:
                assert _search_best(fx.instance, starts, player) == \
                    _reference_best(fx.instance, starts, player), fx.name


def test_dynamics_search_matches_exhaustive_search_on_families():
    full_cover = 0
    for k, inst in enumerate(_differential_instances()):
        gcands = grid_candidates(inst)
        starts = random_profile(inst, k).as_dict()
        total = sum(j.weight for j in inst.jobs)
        for player in inst.color_ids:
            # A group's global list holds each of its jobs' grid candidates.
            assert all(list(gcands[i]) == coded for ids_, coded
                       in _search_lists(inst, starts, player, 1) for i in ids_)
            for prefer_value in (False, True):
                expected = _reference_best(inst, starts, player, 1, prefer_value)
                assert _search_best(inst, starts, player, 1,
                                    prefer_value) == expected, (k, player)
                if prefer_value:
                    point = {**starts, **expected[0]}
                    full_cover += solve_machine_dp(
                        inst, Profile.from_dict(point)).value == total
    # Some dynamics searches stop because every job of the instance is covered.
    assert full_cover > 0


@pytest.mark.parametrize("values, stops_early", [((1, 1, 2), True),
                                                 ((1, 1, 4), False)])
def test_best_response_stops_at_the_utility_ceiling(evaluated_keys, walked_keys,
                                                   values, stops_early):
    fx = from_partition_br(values)
    assert fx.params["partition_exists"] is stops_early
    inst, profile = fx.instance, fx.notable_profiles["initial"]
    size = math.prod(math.comb(len(coded) + len(ids_) - 1, len(ids_)) for ids_, coded
                     in _search_lists(inst, profile.as_dict(), 1, None))
    evaluated_keys.clear()
    _, u = best_response(inst, profile, 1)
    assert (u == sum(j.weight for j in inst.jobs_of_color(1))) is stops_early
    # The current profile is read first, then the walk scores its combinations.
    assert evaluated_keys[0] == core_keys(inst, profile.as_dict())[1]
    walked = evaluated_keys[:1] + walked_keys
    if stops_early:
        assert len(walked) < size
    else:
        # The current profile, then every combination of the joint search.
        assert len(walked) == 1 + size


def _plain_walk(cache, key, player, mode, lists, prefer_value):
    """Reference for the walk of `_player_search`: the plain product loop,
    which writes every group at every combination, with the same tie rules
    and stops. Returns the keys it evaluates, in order, and the key it
    returns or stops at (None when no key beats the current one)."""
    pix, full, memo = cache.color_index[player], cache.totals, {}
    visited = [key]
    best_u, best_value, best = cache.evaluate_key(memo, key)[1][pix], None, None
    if best_u == full[pix]:
        return visited, None
    base = list(key)
    positions = [ps for _, ps in cache.groups[player]]
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(coded, len(ps))
            for ps, coded in zip(positions, lists))):
        for ps, tup in zip(positions, combo):
            for p, x in zip(ps, tup):
                base[p] = x
        visited.append(tuple(base))
        value, per = cache.evaluate_key(memo, tuple(base))
        if per[pix] > best_u or (prefer_value and best is not None
                                 and per[pix] == best_u and value > best_value):
            best_u, best_value, best = per[pix], value, tuple(base)
            if mode == "first" or (per[pix] == full[pix]
                                   and (not prefer_value or per == full)):
                break
    return visited, best


def test_player_search_walks_the_keys_of_a_plain_product(evaluated_keys, walked_keys):
    cases = [(fx.instance, fx.notable_profiles["initial"], None) for fx in _partition_games()]
    cases += [(fx.instance, p, None) for fx in _enumerable_fixtures()
              for p in fx.notable_profiles.values()]
    cases += [(inst, random_profile(inst, k), 1)
              for k, inst in enumerate(_differential_instances()[::3])]
    seen = {"first": 0, "best": 0, "found": 0, "stopped": 0}
    for inst, profile, resolution in cases:
        cache, key = core_keys(inst, profile.as_dict())
        for player in inst.color_ids:
            override = (None if resolution is None
                        else _global_lists(cache, resolution)[player])
            lists = override or merged_lists(cache, key, player)[1]
            size = math.prod(math.comb(len(coded) + len(ps) - 1, len(ps))
                             for (_, ps), coded in zip(cache.groups[player], lists))
            if size > 5000:
                continue
            for mode, prefer_value in (("first", False), ("best", False), ("best", True)):
                expected, stop = _plain_walk(cache, key, player, mode, lists, prefer_value)
                evaluated_keys.clear()
                walked_keys.clear()
                got = _player_search(inst, cache, {}, key, player, mode=mode,
                                     lists=override, prefer_value=prefer_value)
                # A first-mode search looks up each key; a best-mode walk
                # reads the current key, then scores each combination and
                # looks up only those its route defers.
                walked = (evaluated_keys if mode == "first"
                          else evaluated_keys[:1] + walked_keys)
                assert walked == expected, (inst, player, mode, prefer_value)
                assert set(evaluated_keys[1:]) <= set(walked)
                seen[mode] += 1
                if mode == "first":
                    assert (None if got is None else got[0]) == stop
                    seen["found"] += got is not None
                else:
                    assert got[0] == (stop or key)
                    seen["stopped"] += 1 < len(expected) < 1 + size
    assert min(seen.values()) > 0, seen


# --- best responses against the continuum ------------------------------------------

def _lattice_best_utility(inst, starts, player, solve=solve_machine_bruteforce):
    """The player's best utility over all of its continuous placements.

    The machine compares only endpoints, so fixing the other players, every
    order type of the interval endpoints is a cell cut out by difference
    constraints on the player's k starts, with constants in (1/L)Z, where L
    is the lcm of the denominators of the horizon, the lengths, the windows
    and the others' starts. A nonempty cell holds a point of step
    1/((k+1)L): shortest-path potentials with each strict edge tightened by
    1/(k+1) work, since a simple cycle has at most k+1 edges. So the
    lattice of that step, clipped to each job's feasible starts, meets every
    cell. Each point is evaluated by the machine `solve`, the brute force
    unless given, and interchangeable jobs are placed as multisets."""
    k = len(inst.jobs_of_color(player))
    L = math.lcm(inst.horizon.denominator,
                 *[x.denominator for j in inst.jobs for x in (j.length, *(j.window or ()))],
                 *[starts[j.id].denominator for j in inst.jobs if j.color != player])
    step = F(1, (k + 1) * L)
    groups = []
    for ids_ in _job_groups(inst):
        j = inst.job(ids_[0])
        if j.color == player:
            lo, hi = j.release, j.due(inst.horizon) - j.length
            groups.append((ids_, [lo + i * step for i in range((hi - lo) // step + 1)]))
    work = dict(starts)
    best = None
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(points, len(ids_))
            for ids_, points in groups)):
        for (ids_, _), tup in zip(groups, combo):
            work.update(zip(ids_, tup))
        covered = solve(inst, Profile.from_dict(work)).covered
        u = sum((inst.job(i).weight for i in covered if inst.job(i).color == player), F(0))
        if best is None or u > best:
            best = u
    return best


@st.composite
def lattice_games(draw):
    """T <= 3, player 1 with 1-3 jobs against 1-3 jobs of players 2-3, some
    windowed; times on halves (integers when player 1 has 3 jobs, which
    keeps the lattice at most 9^3 points). The weights are distinct powers
    of two, so no two covered sets have equal value: the brute force and the
    DP then cover the same jobs, though their tie-break rules differ."""
    horizon = draw(st.sampled_from((2, 3)))
    own = draw(st.integers(min_value=1, max_value=3))
    total = own + draw(st.integers(min_value=1, max_value=3))
    den = 1 if own == 3 else draw(st.sampled_from((1, 2)))
    weights = draw(st.permutations([F(2 ** i) for i in range(total)]))
    jobs, starts = [], {}
    for i in range(total):
        color = 1 if i < own else 2 if i == own else draw(st.sampled_from((2, 3)))
        length = draw(st.integers(min_value=1, max_value=horizon * den))
        lo, hi = 0, horizon * den - length
        window = None
        if draw(st.booleans()):
            lo = draw(st.integers(min_value=0, max_value=hi))
            hi = draw(st.integers(min_value=lo, max_value=hi))
            window = (F(lo, den), F(hi + length, den))
        jobs.append(Job(i + 1, color, F(length, den), weights[i], window))
        starts[i + 1] = F(draw(st.integers(min_value=lo, max_value=hi)), den)
    return validate_instance(Instance(F(horizon), tuple(jobs))), starts


@given(lattice_games())
@settings(max_examples=300, deadline=None)
def test_best_response_matches_the_continuum(game):
    inst, starts = game
    _, u = best_response(inst, Profile.from_dict(starts), 1)
    assert u == _lattice_best_utility(inst, starts, 1)


@st.composite
def tie_games(draw, horizons=(2, 3, 4)):
    """T in `horizons`, player 1 with 1-2 jobs against 1-3 jobs of players
    2-3, lengths and starts on halves, and each weight 1, 2 or the job's
    length, so covered sets often tie in value. The machine breaks those
    ties; the DP, the lattice machine of the tests below, breaks them by the
    finish order, as the searches do."""
    horizon = draw(st.sampled_from(horizons))
    own = draw(st.integers(min_value=1, max_value=2))
    total = own + draw(st.integers(min_value=1, max_value=3))
    jobs, starts = [], {}
    for i in range(total):
        color = 1 if i < own else 2 if i == own else draw(st.sampled_from((2, 3)))
        length = draw(st.integers(min_value=1, max_value=2 * horizon))
        weight = draw(st.sampled_from((F(1), F(2), F(length, 2))))
        jobs.append(Job(i + 1, color, F(length, 2), weight))
        starts[i + 1] = F(draw(st.integers(min_value=0, max_value=2 * horizon - length)), 2)
    return validate_instance(Instance(F(horizon), tuple(jobs))), starts


@given(tie_games())
@settings(max_examples=300, deadline=None)
def test_best_response_matches_the_continuum_under_ties(game):
    """The local grid holds no point where only the finish order changes
    (a fixed finish minus the length), yet under ties, which the DP breaks
    by that order, it still reaches the best utility over the continuum."""
    inst, starts = game
    _, u = best_response(inst, Profile.from_dict(starts), 1)
    assert u == _lattice_best_utility(inst, starts, 1, solve_machine_dp)


@given(tie_games(horizons=(2, 3)))
@settings(max_examples=100, deadline=None)
def test_is_nash_matches_the_continuum_under_ties(game):
    """Per player with at most two jobs, `is_nash` finds a deviation, in
    either mode, exactly when some continuous placement improves on the
    player's utility under the DP's tie-break."""
    inst, starts = game
    profile = Profile.from_dict(starts)
    per = dict(utilities(inst, profile, solve_machine_dp(inst, profile)).entries)
    for player in inst.color_ids:
        if len(inst.jobs_of_color(player)) > 2:
            continue
        stable = _lattice_best_utility(inst, starts, player, solve_machine_dp) == per[player]
        for first in (False, True):
            dev = is_nash(inst, profile, first_improvement=first, players=(player,))
            assert (dev is None) == stable, (player, first, dev)


@given(tie_games(horizons=(2, 3)))
@settings(max_examples=40, deadline=None)
def test_grid_equilibria_have_no_continuum_deviation_under_ties(game):
    """No player with at most two jobs can improve on the worst or the best
    grid equilibrium by any continuous placement, under the DP's tie-break."""
    inst, _ = game
    found = enumerate_grid_ne(inst)
    for profile, _ in found[:1] + found[1:][-1:]:
        per = dict(utilities(inst, profile, solve_machine_dp(inst, profile)).entries)
        for player in inst.color_ids:
            if len(inst.jobs_of_color(player)) <= 2:
                assert _lattice_best_utility(inst, profile.as_dict(), player,
                                             solve_machine_dp) == per[player], player


def test_best_response_matches_the_continuum_on_partition_games():
    # Three values: player 1 owns four jobs, so the lattice step is 1/5.
    cases = [from_partition_br(v) for v in ((1, 1, 2), (1, 2, 3), (2, 2, 4),
                                            (1, 1, 4), (2, 2, 2), (3, 4, 5))]
    assert [fx.params["partition_exists"] for fx in cases] == [True] * 3 + [False] * 3
    for fx in cases:
        profile = fx.notable_profiles["initial"]
        _, u = best_response(fx.instance, profile, 1)
        assert u == _lattice_best_utility(fx.instance, profile.as_dict(), 1), fx.params


# --- the time scale ---------------------------------------------------------------

def test_widening_the_time_scale_keeps_every_answer():
    """A profile off the core's scale gets a new core on a wider scale, and
    leaves the old core as it was; neither that nor going back to grid
    profiles may change an answer, and after each call the core equals a
    fresh one."""
    inst = fixture("ex1").instance  # L = 1: the core starts on quarters
    grid = inst.__class__(inst.horizon, inst.jobs)
    quarters = Profile.from_dict({1: F(0), 2: F(1, 4), 3: F(5, 4)})
    profile = next(p for p in grid_profiles(grid) if is_nash(grid, p) is not None)

    calls = [lambda i: best_response(i, profile, 1),
             lambda i: is_nash(i, profile),  # searches on quarters
             lambda i: is_nash(i, quarters),
             lambda i: best_response(i, quarters, 1),
             lambda i: best_response(i, quarters, 2),
             lambda i: is_nash(i, quarters, first_improvement=True),
             lambda i: best_response(i, profile, 1),
             lambda i: is_nash(i, profile),
             lambda i: brd(i, profile, max_iters=6),
             enumerate_grid_ne]
    assert MachineCache.of(inst).td == 4
    for k, call in enumerate(calls):
        held, fresh = MachineCache.of(inst), copy.copy(inst)
        if k == 2:  # the core on quarters
            kept = held.td, held.rows.copy(), held.bounds.copy()
        assert call(inst) == call(fresh), k
        # Starts of denominator 4 need eighths: the local grids halve gaps
        # between them (1/8, 3/8 and 11/8 are candidates).
        cache = MachineCache.of(inst)
        assert cache.td == (4 if k < 2 else 8)
        assert (cache is held) is (k != 2)
        if k == 2:  # the old core keeps its scale, rows and game tables
            assert (held.td, held.rows, held.bounds) == kept and kept[2]
        assert_fresh_core(cache, MachineCache(copy.copy(inst), cache.td))
    grid8 = build_grid(inst, {3: F(5, 4)}, player=1)
    assert {F(1, 8), F(3, 8), F(11, 8)} <= set(grid8.starts(2))


_SCALED_SHAPES = (("general", 3, 2, 3), ("prop", 4, 2, 3), ("nonsymm", 3, 2, 3),
                  ("unit", 3, 3, 2), ("general", 4, 3, 2))


def _times_k(inst, k):
    """The instance with every time (horizon, lengths, windows) times k."""
    jobs = tuple(Job(j.id, j.color, j.length * k, j.weight,
                     None if j.window is None else (j.window[0] * k, j.window[1] * k))
                 for j in inst.jobs)
    return validate_instance(Instance(inst.horizon * k, jobs))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from(_SCALED_SHAPES), seed=st.integers(0, 10 ** 6),
       k=st.sampled_from((2, 3)),
       fractions=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5)),
                          min_size=4, max_size=4))
def test_scaling_every_time_by_k_scales_the_answers(shape, seed, k, fractions):
    inst = random_instance(*shape, seed)
    starts = {}
    for j, (a, q) in zip(inst.jobs, fractions):
        lo, hi = j.release, j.due(inst.horizon) - j.length
        starts[j.id] = lo + (hi - lo) * F(min(a, q), q)
    profile = Profile.from_dict(starts)
    big = _times_k(inst, k)
    big_profile = Profile.from_dict({i: s * k for i, s in starts.items()})
    small_sched = solve_machine_dp(inst, profile)
    big_sched = solve_machine_dp(big, big_profile)
    assert big_sched.covered == small_sched.covered
    assert big_sched.value == small_sched.value
    assert big_sched.segments == tuple((a * k, b * k, c) for a, b, c in small_sched.segments)
    for player in inst.color_ids:
        try:
            strategy, u = best_response(inst, profile, player)
        except GuardError:
            with pytest.raises(GuardError):
                best_response(big, big_profile, player)
            continue
        big_strategy, big_u = best_response(big, big_profile, player)
        assert big_u == u
        assert big_strategy == {i: s * k for i, s in strategy.items()}


# --- the joint-search guard --------------------------------------------------------

def test_joint_search_guard_fires_before_the_first_combination(evaluated_keys):
    fx = fixture("pos_c", c=4)
    inst, profile = fx.instance, random_profile(fx.instance, 0)
    with pytest.raises(GuardError, match="player 2's joint search holds 22044960"):
        best_response(inst, profile, 2)
    assert len(evaluated_keys) == 1  # the current profile only
    cache, key = core_keys(inst, profile.as_dict())
    evaluated_keys.clear()
    with pytest.raises(GuardError, match="player 2's joint search holds 11486475"):
        _player_search(inst, cache, {}, key, 2, mode="best",
                       lists=_global_lists(cache, 1)[2], prefer_value=True)
    assert len(evaluated_keys) == 1
    # Grid-NE enumeration checks the same guard at the same point, before
    # the grid record's bounds or a search can settle the verdict.
    memo = {}
    per = cache.evaluate_key(memo, key)[1]
    evaluated_keys.clear()
    with pytest.raises(GuardError, match="player 2's joint search holds 22044960"):
        _profile_stable(cache, {}, key, per, plain_scan(inst, cache, memo, [2]), False)
    assert evaluated_keys == []


def test_a_big_records_guard_fires_before_its_bounds_are_read(monkeypatch):
    # Player 1's aligned list against job 2 at 1/2 holds five starts, so with
    # a grid limit of 5 its record is `big`. At job 1's aligned start 0 the
    # search proves the ceiling 0; at start 1, off that list, the searched
    # list holds six, and the guard fires though the ceiling would settle it.
    monkeypatch.setattr(equilibrium, "BEST_RESPONSE_MAX_GRID", 5)
    inst = _inst(3, (1, 1, 2), (2, 2, 3))
    cache, aligned_key, off_key = core_keys(inst, {1: F(0), 2: F(1, 2)},
                                            {1: F(1), 2: F(1, 2)})
    memo, records = {}, {}
    scan = plain_scan(inst, cache, memo, [1])
    assert _profile_stable(cache, records, aligned_key,
                           cache.evaluate_key(memo, aligned_key)[1], scan, False)
    [record] = records.values()
    per = cache.evaluate_key(memo, off_key)[1]
    assert record.big and record.hi == per[0] == 0
    with pytest.raises(GuardError, match="have 6 candidate starts"):
        _profile_stable(cache, records, off_key, per, scan, False)
    calls = _counting_searches(monkeypatch)
    assert _profile_stable(cache, records, off_key, per, scan, True)
    assert calls == []  # forced past the guard, the ceiling settles it


@pytest.mark.parametrize("max_grid, max_search", [(64, 10 ** 5), (6, 20), (4, 6)])
def test_records_that_are_not_big_keep_merged_lists_within_the_limits(
        monkeypatch, max_grid, max_search):
    monkeypatch.setattr(equilibrium, "BEST_RESPONSE_MAX_GRID", max_grid)
    monkeypatch.setattr(equilibrium, "BEST_RESPONSE_MAX_SEARCH", max_search)
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += [_two_group_instance()] + _differential_instances()
    checked = big = 0
    for inst in instances:
        cache = MachineCache.of(inst)
        for key in equilibrium._iter_grid_coded(inst, 1, False, cache):
            for player in inst.color_ids:
                record, lists = merged_lists(cache, key, player)
                if record.big:
                    big += 1
                    continue
                checked += 1
                assert all(len(coded) <= max_grid for coded in lists)
                assert equilibrium._profile_count(
                    [(ids_, len(coded)) for (ids_, _), coded
                     in zip(cache.groups[player], lists)]) <= max_search
    assert checked > 0
    assert (big > 0) is (max_grid < 64)


def test_force_overrides_the_joint_search_guard(monkeypatch):
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_a"]
    expected = best_response(fx.instance, profile, 1)
    monkeypatch.setattr(equilibrium, "BEST_RESPONSE_MAX_SEARCH", 1)
    inst = copy.copy(fx.instance)
    with pytest.raises(GuardError, match="joint search holds"):
        best_response(inst, profile, 1)
    with pytest.raises(GuardError, match="joint search holds"):
        is_nash(inst, profile, first_improvement=True)
    assert best_response(inst, profile, 1, force=True) == expected


# --- the DP-exact type memo of grid-NE enumeration ------------------------------

def _order_type(cache, key):
    """The dense ranks of every positive-length job's (start, finish) among
    all such endpoints of `key`, in key order."""
    ends = [(key[p], key[p] + n) for p, n in enumerate(cache.lens) if n]
    rank = {x: i for i, x in enumerate(sorted({x for e in ends for x in e}))}
    return tuple((rank[s], rank[f]) for s, f in ends)


def _dp_relations(cache, key):
    """The endpoint comparisons the machine DP reads, over the positive-length
    jobs of `key` in key order: each pair's finishes (-1, 0 or 1), whether
    one job's finish is at most another's start, and each same-color pair's
    starts."""
    jobs = [(key[p], key[p] + n, c) for p, n, _, _, c in cache.rows]
    pairs = list(itertools.combinations(jobs, 2))
    return (tuple((fa > fb) - (fa < fb) for (_, fa, _), (_, fb, _) in pairs),
            tuple(fa <= sb for _, fa, _ in jobs for sb, _, _ in jobs),
            tuple((sa > sb) - (sa < sb) for (sa, _, ca), (sb, _, cb) in pairs if ca == cb))


@st.composite
def _typed_instances(draw):
    """Up to six jobs of lengths 0..2 in halves on [0, 4], often some of
    them interchangeable, and a denominator to widen the core by (1: none)."""
    n = draw(st.integers(min_value=2, max_value=6))
    jobs = [(draw(st.integers(1, 2)), F(draw(st.integers(0, 4)), 2),
             draw(st.integers(1, 2))) for _ in range(n)]
    return _inst(4, *jobs), draw(st.sampled_from((1, 3, 5)))


@given(_typed_instances(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_type_signatures_are_the_order_types(drawn, rng):
    # Keys on and off the global grid, in a shuffled order so the signer's
    # head moves back and forth, after a widening of the core's scale. A
    # signature is a function of the order type, and equal signatures mean
    # equal comparisons in the DP, so equal DP results.
    inst, widen = drawn
    cache, _ = core_keys(inst, {j.id: F(1, widen) for j in inst.jobs})
    grid = _on_scale(cache, grid_candidates(inst))
    pools = []
    for j in inst.jobs:
        hi = _ticks(inst.horizon - j.length, cache.td)
        pools.append(sorted(set(rng.sample(grid[j.id], min(3, len(grid[j.id])))
                                + [rng.randint(0, hi) for _ in range(2)])))
    keys = [tuple(rng.choice(pool) for pool in pools) for _ in range(40)]
    # One moving job, drawn from any group: zero-length jobs make groups too.
    _, positions = rng.choice(sorted(g for gs in cache.groups.values() for g in gs))
    moving = rng.choice(positions)
    head_starts, sign = equilibrium._type_signer(cache, moving, itertools.count())
    sigs = [sign(key[moving], head_starts(key)) for key in keys]
    for (k1, s1), (k2, s2) in itertools.combinations(zip(keys, sigs), 2):
        if _order_type(cache, k1) == _order_type(cache, k2):
            assert s1 == s2
        if s1 == s2:
            assert _dp_relations(cache, k1) == _dp_relations(cache, k2)
    by_sig = {}
    for key, sig in zip(keys, sigs):
        assert by_sig.setdefault(sig, cache.solve_key(key)) == cache.solve_key(key)


def _typed_and_exact_runs(monkeypatch, evaluated_keys, inst):
    """Enumerate the grid equilibria of `inst` once with the type memo and
    once with signers that key it on the exact key (one DP per key). Per
    run: the equilibria, the DP calls of the enumeration and of its searches
    (typed walks count as searches), the searches' memo lookups and hits,
    the starts the walks sign, and the number of order types among the grid
    keys."""
    from intervalgames import machine
    counts = {}
    depth = [0]
    dp_core, search = machine._dp_core, equilibrium._player_search

    def counting_dp(rows, key, per=None):
        counts["search_dp" if depth[0] else "enum_dp"] += 1
        return dp_core(rows, key, per)

    def searching(run):
        def counted(*args, **kwargs):
            # Searches do not nest here, so the lookups between entry and
            # exit are the search's own.
            lookups, hits = len(evaluated_keys), evaluated_keys.hits
            depth[0] += 1
            try:
                return run(*args, **kwargs)
            finally:
                depth[0] -= 1
                counts["search_lookups"] += len(evaluated_keys) - lookups
                counts["search_hits"] += evaluated_keys.hits - hits
        return counted

    def counting_signs(make):
        def counted_signer(cache, moving, pids):
            head_starts, sign = make(cache, moving, pids)

            def counted(x, starts):
                counts["walk_signs"] += depth[0]
                return sign(x, starts)
            return head_starts, counted
        return counted_signer

    def exact_signer(cache, moving, pids):
        # The moving job and every positive-length start: the key, as the
        # DP reads it.
        head_starts, _ = signer(cache, moving, pids)
        return head_starts, lambda x, starts: (moving, x, starts)

    monkeypatch.setattr(machine, "_dp_core", counting_dp)
    monkeypatch.setattr(equilibrium, "_player_search", searching(search))
    _wrapping_walks(monkeypatch, lambda walk, _: searching(walk))
    signer = equilibrium._type_signer
    runs = {}
    for name, make in (("typed", signer), ("exact", exact_signer)):
        monkeypatch.setattr(equilibrium, "_type_signer", counting_signs(make))
        counts.update(dict.fromkeys(("enum_dp", "search_dp", "search_lookups",
                                     "search_hits", "walk_signs"), 0))
        fresh = copy.copy(inst)
        cache = MachineCache.of(fresh)
        keys = list(equilibrium._iter_grid_coded(fresh, 1, False, cache))
        found = equilibrium._grid_ne(fresh, cache, iter(keys), False)
        runs[name] = found, dict(counts), len({_order_type(cache, k) for k in keys})
    return runs["typed"], runs["exact"]


def test_enumeration_runs_one_dp_per_order_type(monkeypatch, evaluated_keys):
    # from_partition_decide((1, 3, 3, 3)): 12,012 grid profiles of 4,510
    # order types, and fewer DP-exact types. Player 2 owns one job, the one
    # enumeration moves, and runs typed walks on the enumeration's signer;
    # player 1, with five jobs, searches through the memo.
    (found, typed, types), (exact_found, exact, _) = _typed_and_exact_runs(
        monkeypatch, evaluated_keys, from_partition_decide((1, 3, 3, 3)).instance)
    assert types == 4510 and found == exact_found == []
    # The exact signer gives every key its own DP call: these are the
    # counts without DP-exact types. With the typed route, which the walks
    # replaced, they were (1826, 685) and (10838, 2888).
    assert (typed["enum_dp"], typed["search_dp"]) == (1821, 691)
    assert (exact["enum_dp"], exact["search_dp"]) == (10838, 2895)
    # The walks sign the same starts, and the searches look up the same
    # keys, whichever signer the type memo is keyed on.
    for count in ("search_lookups", "search_hits", "walk_signs"):
        assert typed[count] == exact[count]
    assert typed["walk_signs"] > typed["search_lookups"] > 0


def test_type_memo_moves_one_job_of_a_multi_job_group(monkeypatch, evaluated_keys):
    # prop_no_ne's fastest group holds four jobs; the type memo signs only
    # the last. Its owner has four jobs, so it searches through the memo,
    # and every search's memo miss goes to the DP: no player runs a walk.
    inst = fixture("prop_no_ne").instance
    assert max(len(ids_) for gs in MachineCache.of(inst).groups.values()
               for ids_, _ in gs) == 4
    (found, typed, _), (exact_found, exact, _) = _typed_and_exact_runs(
        monkeypatch, evaluated_keys, inst)
    assert found == exact_found == []
    # With the typed route, which the owner's searches took, these were
    # (1635, 549) and (3376, 553).
    assert (typed["enum_dp"], typed["search_dp"]) == (1637, 629)
    assert (exact["enum_dp"], exact["search_dp"]) == (3376, 629)
    for count in ("search_lookups", "search_hits"):
        assert typed[count] == exact[count] > 0
    assert typed["walk_signs"] == exact["walk_signs"] == 0


def _recording_key_memos(monkeypatch) -> list:
    """Record the key memo of every multi-job player's verdict search that
    grid-NE enumeration builds (`_first_search`)."""
    memos, first_search = [], equilibrium._first_search

    def recording(*args):
        memos.append(args[2])
        return first_search(*args)

    monkeypatch.setattr(equilibrium, "_first_search", recording)
    return memos


def test_enumeration_leaves_only_search_answers_in_the_memo(monkeypatch, evaluated_keys):
    # The enumeration answers its own keys from its type memo and stores
    # none of them: the call's key memo holds the keys its searches asked
    # for. When it stored them, the memo held 13,818 and 3,765 entries
    # against grids of 12,012 and 3,465 profiles. Player 1 of the first game
    # and both players of the second search by `_player_search`.
    memos = _recording_key_memos(monkeypatch)
    for inst, players, entries in ((from_partition_decide((1, 3, 3, 3)).instance, 1, 62),
                                   (fixture("prop_no_ne").instance, 2, 629)):
        memos.clear()
        evaluated_keys.clear()
        assert enumerate_grid_ne(copy.copy(inst)) == []
        memo = memos[0]
        assert len(memos) == players and all(m is memo for m in memos)
        assert set(memo) <= set(evaluated_keys) and len(memo) == entries


def test_no_answer_outlives_a_search_call():
    """Each search call keeps its answers and grid records to itself: after
    every search entry on one instance (best responses, `is_nash` in both
    modes, `brd` and grid-NE enumeration), each slot of its core equals a
    fresh core's, and a second `is_nash` answers as the first."""
    fx = fixture("prop_no_ne")
    inst, profile = copy.copy(fx.instance), fx.notable_profiles["overlap"]
    first = is_nash(inst, profile)
    assert first is not None
    # Each call returns a true value when it answers as expected.
    calls = [lambda c=c: best_response(inst, profile, c) for c in inst.color_ids]
    calls += [lambda: is_nash(inst, profile, first_improvement=True) is not None,
              lambda: brd(inst, profile), lambda: enumerate_grid_ne(inst) == []]
    assert set(MachineCache.__slots__) == {
        "instance", "wden", "td", "rows", "start_lo", "start_hi", "base_scaled", "zero_ids",
        "color_ids", "ids", "pos", "color_index", "totals", "zero_per", "lens", "bounds",
        "other_pos", "_groups", "_record_key"}
    for call in calls:
        assert call()
        core = MachineCache.of(inst)
        assert_fresh_core(core, MachineCache(copy.copy(inst), core.td))
    assert is_nash(inst, profile) == first


def test_searches_on_one_shared_instance_answer_as_lone_calls():
    """Every search entry run from four threads on one shared instance
    returns what a lone call returns on a fresh copy. The threads switch
    every microsecond, and each trial starts from a fresh core, so they race
    to build its game tables; an off-scale profile needs a core on a finer
    scale, which replaces the stored one while the others may still search
    it. The searches share only the core's fixed tables and that
    replacement."""
    fx = fixture("prop_no_ne")
    profile = fx.notable_profiles["overlap"]
    # Job 2 at 23/16 is off the core's scale of 1/40, so it needs a new core.
    off_scale = Profile.from_dict({**profile.as_dict(), 2: F(23, 16)})
    asks = [enumerate_grid_ne, lambda i: is_nash(i, profile),
            lambda i: is_nash(i, profile, first_improvement=True),
            lambda i: is_nash(i, off_scale), lambda i: brd(i, profile)]
    asks += [lambda i, c=c: best_response(i, profile, c) for c in fx.instance.color_ids]
    expected = [ask(copy.copy(fx.instance)) for ask in asks]
    rng, interval = random.Random(11), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            shared, order = copy.copy(fx.instance), rng.sample(range(len(asks)), len(asks))
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda k: asks[k](shared), order, timeout=120))
            assert got == [expected[k] for k in order]
    finally:
        sys.setswitchinterval(interval)


def test_enumeration_frees_finished_records_and_shares_equal_answers(monkeypatch):
    # Player 2 owns one job, the one `_grid_keys` moves fastest, so each of
    # its records serves one block of keys and is dropped when the block
    # ends; equal DP answers share one tuple. Before either, the enumeration
    # left 924 records of player 2, and the memo's 4,475 entries held 1,275
    # distinct tuples. Player 2's searches are typed walks now, which store
    # their answers in the type memo, not in the call's key memo: its
    # entries share the tuples. The records are read at every profile, in
    # the call: they hold at most the current block's record of player 2.
    memos, owned = [], []
    _wrapping_walks(monkeypatch, lambda walk, args: memos.append(args[3]) or walk)
    profile_stable = equilibrium._profile_stable

    def reading(cache, records, *args):
        owned.append(sum(player == 2 for player, _ in records))
        return profile_stable(cache, records, *args)

    monkeypatch.setattr(equilibrium, "_profile_stable", reading)
    inst = copy.copy(from_partition_decide((1, 3, 3, 3)).instance)
    assert enumerate_grid_ne(inst) == []
    cache = MachineCache.of(inst)
    _, owner = max((group, player) for player, groups in cache.groups.items()
                   for group in groups)
    assert owner == 2 and len(inst.jobs_of_color(2)) == 1
    assert len(owned) == equilibrium.joint_grid_size(inst) and max(owned) == 1
    [types] = memos
    assert len(types) == 2459 and len({id(answer) for answer in types.values()}) == 12


def test_bounded_tables_clear_without_changing_results(monkeypatch):
    # With both limits at 1, the call's key memo, its grid records, the
    # DP-exact type memo that the enumeration and its typed walks share, its
    # table of distinct answers and every signer's per-pattern class tables
    # are cleared at every other write during one enumeration.
    from intervalgames import machine
    instances = [fixture(name, **params).instance for name, params in (
        ("ex1", {}), ("prop_no_ne", {}), ("pos_two", {}), ("poa_tight", {"n": 3}),
        ("poa_tight", {"n": 5}), ("unit_tight", {"c": 2}))]
    assert not any(inst.has_windows for inst in instances)
    expected = [(enumerate_grid_ne(copy.copy(inst)), analyze(copy.copy(inst)))
                for inst in instances]
    monkeypatch.setattr(machine, "MEMO_LIMIT", 1)
    monkeypatch.setattr(machine, "GRID_CACHE_LIMIT", 1)
    put, signer = equilibrium._bounded_put, equilibrium._type_signer
    run = {}  # this enumeration's cleared tables by kind, signers and walk memos

    def recording(table, key, value, limit=None):
        if type(value) is equilibrium._GridRecord:
            run["records"][id(table)] = table
        if len(table) > (machine.MEMO_LIMIT if limit is None else limit):
            # The grid records and the class tables take the grid limit; the
            # answer table maps each answer to itself.
            kind = (("answers" if key is value else "types") if limit is None else
                    "grid" if id(table) in run["records"] else "classes")
            run[kind].append(table)
        return put(table, key, value, limit)

    def counting_signers(*args):
        run["signers"] += 1
        return signer(*args)

    monkeypatch.setattr(equilibrium, "_bounded_put", recording)
    monkeypatch.setattr(equilibrium, "_type_signer", counting_signers)
    _wrapping_walks(monkeypatch, lambda walk, args: run["walk_memos"].append(args[3]) or walk)
    key_memos = _recording_key_memos(monkeypatch)
    runs = []
    for inst, (found, report) in zip(instances, expected):
        for ask, answer in ((enumerate_grid_ne, found), (analyze, report)):
            fresh = copy.copy(inst)
            run = {"signers": 0, "walk_memos": [], "types": [], "answers": [],
                   "grid": [], "classes": [], "records": {}}
            key_memos.clear()
            assert ask(fresh) == answer
            assert all(len(memo) <= 2 for memo in key_memos)
            # One dict of grid records per enumeration, cleared like the rest.
            [records] = run["records"].values()
            assert len(records) <= 2
            runs.append(run)
    for run in runs:
        # One type memo per enumeration, shared by every walk and cleared.
        types = {id(table) for table in run["types"]}
        assert len(types) == 1 and {id(table) for table in run["walk_memos"]} <= types
    # Per fixture, as (signers, walks, signers whose class tables were
    # cleared): one signer per one-job player's walk, the moving job's owner
    # sharing the enumeration's, whose class tables clear with the others'
    # wherever the signer meets three head patterns. prop_no_ne's players
    # own several jobs each, so none walks.
    tables = [(run["signers"], len(run["walk_memos"]), len({id(t) for t in run["classes"]}))
              for run in runs]
    assert tables[::2] == tables[1::2] == [
        (1, 1, 1), (1, 0, 1), (1, 1, 1), (3, 3, 2), (5, 5, 5), (2, 2, 0)]
    assert all(any(run[kind] for run in runs) for kind in ("grid", "answers"))


# --- analysis ---------------------------------------------------------------------

def test_bound_table():
    fx = fixture("ex1")
    names = dict(applicable_bounds(fx.instance))
    assert names["general"] == 2 and names["two-player"] == 2
    single = _units(2, (1, 1, 1))
    # applicable: general 3, single-small 2, unit min(3-2/2, 3-2/3) = 2
    assert tightest_bound(single)[1] == 2
    fx6 = fixture("poa_tight", n=6, epsilon=F(1, 10))
    names6 = dict(applicable_bounds(fx6.instance))
    assert names6["single-large"] == F(5, 2)


def test_analyze_two_unit_jobs():
    inst = _units(2, (1, 1))
    report = analyze(inst)
    assert report.opt == 2
    assert min(report.ne_values) == 1
    assert report.poa_lower == 2
    assert report.bound_value == 2
    assert report.bound_satisfied is True


def test_analyze_poa_tight5():
    fx = fixture("poa_tight", n=5, epsilon=F(1, 10))
    report = analyze(fx.instance)
    assert report.opt == 4
    assert min(report.ne_values) == F(21, 10)
    assert report.poa_lower == F(40, 21)
    assert report.bound_satisfied is True


def test_analyze_no_ne_status():
    fx = fixture("ex1")
    report = analyze(fx.instance)
    assert report.status == "no_ne_found"
    assert report.ne_values == () and report.poa_lower is None


def test_analyze_matches_a_report_built_from_the_enumeration():
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += _differential_instances()
    instances = [inst for inst in instances if not inst.has_windows]
    assert len(instances) >= 40
    reported = 0
    for inst in instances:
        report = analyze(copy.copy(inst))
        found = enumerate_grid_ne(copy.copy(inst))
        _, opt = social_optimum_enumerate(inst)
        assert report.opt == opt
        assert report.ne_values == tuple(v for _, v in found)
        if not found:
            assert report.status == "no_ne_found"
            assert report.worst_ne is report.best_ne is report.poa_lower is None
            continue
        reported += 1
        (worst_profile, worst), (best_profile, best) = found[0], found[-1]
        assert report.status == "ok"
        assert (report.worst_ne, report.best_ne) == (worst_profile, best_profile)
        assert report.poa_lower == (opt / worst if worst > 0 else None)
        assert report.pos_upper_witness == (opt / best if best > 0 else None)
    assert reported > 0


def test_analyze_rejects_windows():
    fx = fixture("nonsymm_no_ne")
    with pytest.raises(UnsupportedInstanceError):
        analyze(fx.instance)


def test_analyze_checks_the_grid_before_the_optimum(monkeypatch):
    # A bad resolution and an oversized joint grid are reported before the
    # optimum's subset enumeration runs.
    from intervalgames import optimum
    calls = []
    enumerate_optimum = optimum.social_optimum_enumerate

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_optimum(*args, **kwargs)

    monkeypatch.setattr(optimum, "social_optimum_enumerate", counting)
    with pytest.raises(ValidationError, match="resolution must be at least 1"):
        analyze(fixture("unit_tight", c=2).instance, resolution=0)
    with pytest.raises(GuardError, match="joint grid"):
        analyze(fixture("pos_c", c=3).instance)
    assert calls == []
    assert analyze(fixture("unit_tight", c=2).instance).opt == 2
    assert len(calls) == 1


def test_unit_ne_coverage_closure():
    # in a certified unit NE every color is fully covered or fully idle
    for i in range(12):
        inst = random_instance("unit", 4, 2, F(2), seed=700 + i)
        for profile, _ in enumerate_grid_ne(inst):
            sched = solve_machine_dp(inst, profile)
            for color in inst.color_ids:
                ids = {j.id for j in inst.jobs_of_color(color)}
                got = ids & sched.covered
                assert got == ids or not got


# --- the solver core on the instance --------------------------------------------

def _solve_all(inst):
    """Run every solver entry that builds or reads the instance's core."""
    profile = next(grid_profiles(inst))
    enumerate_grid_ne(inst)
    best_response(inst, profile, inst.color_ids[0])
    brd(inst, profile, max_iters=5)
    solve_machine_dp(inst, profile)


def test_solver_core_dies_with_its_instance():
    inst = _inst(3, (1, 1, 2), (2, 2, 1), (1, 1, 1))
    _solve_all(inst)
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("jobs", [
    ((1, 1, 2), (2, 2, 1), (1, 1, 1)),  # three jobs, two players
    ((1, 1, 1), (1, 1, 2)),  # one player: its others-getter is a lambda
])
def test_solver_core_is_not_part_of_the_value(jobs):
    solved = _inst(3, *jobs)
    _solve_all(solved)
    fresh = Instance(solved.horizon, solved.jobs)
    assert "_core" in solved.__dict__ and "_core" not in fresh.__dict__
    assert pickle.dumps(solved) == pickle.dumps(fresh)
    for twin in (copy.copy(solved), copy.deepcopy(solved),
                 pickle.loads(pickle.dumps(solved))):
        assert twin == solved and "_core" not in twin.__dict__
        assert twin.job(1) == solved.job(1)
    assert solved == fresh and hash(solved) == hash(fresh)
    assert repr(solved) == repr(fresh)


@pytest.mark.parametrize("starts, message", [
    ({1: F(0), 2: F(0)}, "missing start for job 3"),
    ({1: F(0), 2: F(0), 3: F(7)}, "job 3: interval [7, 8) outside [0, 4)"),
    ({1: F(0), 2: F(0), 3: F(-1)}, "job 3: interval [-1, 0) outside [0, 4)"),
    ({1: F(0), 2: F(0), 3: F(0), 9: F(0)}, "start given for unknown job 9"),
    # Placements that no mapping holds: a job placed twice, and unknown ids
    # that cannot be compared (they used to pass, and to raise `TypeError`).
    (((1, F(0)), (2, F(0)), (3, F(1)), (3, F(0))), "job 3: placed twice"),
    (((1, F(0)), (2, F(0)), (3, F(0)), ("a", F(0)), (7, F(0))),
     "start given for unknown job a"),
    # Placements that are not (hashable id, start) pairs (they used to raise
    # `TypeError` and `ValueError`).
    (((1, F(0)), (2, F(0)), (3, F(0)), ([4], F(0))),
     "placement ([4], Fraction(0, 1)) is not a (job id, start) pair"),
    (((1, F(0)), (2, F(0)), (3,)), "placement (3,) is not a (job id, start) pair"),
])
def test_search_entries_validate_their_profile(starts, message):
    """`best_response` and `is_nash` reject a profile that `brd` rejects,
    instead of searching from starts the game does not allow."""
    fx = fixture("ex1")
    inst, valid = fx.instance, fx.notable_profiles["figure_a"]
    placed = isinstance(starts, tuple)
    profile = Profile(starts) if placed else Profile.from_dict(starts)
    dev = equilibrium.Deviation(2, ((3, F(2)),), F(0), F(1))
    searches = [lambda: best_response(inst, profile, 2),
                lambda: is_nash(inst, profile),
                lambda: is_nash(inst, profile, first_improvement=True),
                lambda: brd(inst, profile),
                lambda: verify_deviation(inst, profile, dev)]
    # The starts past job 2 of a mapping, given as a move from a valid profile.
    moved = not placed and tuple((j, s) for j, s in starts.items() if j > 2)
    if moved:
        move = equilibrium.Deviation(2, moved, F(0), F(1))
        searches.append(lambda: verify_deviation(inst, valid, move))
    for search in searches:
        with pytest.raises(ValidationError, match=re.escape(message)):
            search()
    # A deviation by a player the instance lacks, from a valid profile.
    stranger = equilibrium.Deviation(9, ((3, F(1)),), F(0), F(1))
    with pytest.raises(ValidationError, match="instance has no player 9"):
        verify_deviation(inst, valid, stranger)
    # Player 1 "moving" job 3, which is player 2's: the move is not player
    # 1's to make, though it would raise player 1's utility from 2 to 4.
    intruder = equilibrium.Deviation(1, ((3, F(0)),), F(2), F(4))
    with pytest.raises(ValidationError, match="job 3 is not a job of player 1"):
        verify_deviation(inst, valid, intruder)


@pytest.mark.parametrize("value", [0.5, 1.0, True, "1", None])
def test_inexact_numbers_are_rejected_at_the_library_boundary(value):
    """A horizon, length, weight, window bound or start that is not an int
    or a `Fraction` raises `ValidationError`. Before, a float length reached
    the DP as `AttributeError`, and a float start came back as a float
    segment start."""
    inst = fixture("ex1").instance
    with pytest.raises(ValidationError, match=f"horizon {re.escape(repr(value))} must"):
        validate_instance(Instance(value, inst.jobs))
    j1, rest = inst.jobs[0], inst.jobs[1:]
    for bad in (replace(j1, length=value), replace(j1, weight=value),
                replace(j1, window=(value, F(4))), replace(j1, window=(F(0), value))):
        with pytest.raises(ValidationError, match="job 1: length, weight and window"):
            validate_instance(Instance(inst.horizon, (bad, *rest)))
    profile = Profile.from_dict({1: F(0), 2: F(0), 3: value})
    valid = Profile.from_dict({1: F(0), 2: F(0), 3: F(1)})
    dev = equilibrium.Deviation(2, ((3, F(2)),), F(0), F(1))
    move = equilibrium.Deviation(2, ((3, value),), F(0), F(1))
    for check in (lambda: validate_profile(inst, profile),
                  lambda: best_response(inst, profile, 2),
                  lambda: is_nash(inst, profile),
                  lambda: is_nash(inst, profile, first_improvement=True),
                  lambda: brd(inst, profile),
                  lambda: verify_deviation(inst, profile, dev),
                  lambda: verify_deviation(inst, valid, move),
                  lambda: build_grid(inst, {3: value}, player=1)):
        with pytest.raises(ValidationError, match=f"job 3: start {re.escape(repr(value))}"):
            check()
    # Ints are exact: an int horizon and int starts solve as their Fractions do.
    ints = validate_instance(Instance(4, inst.jobs))
    assert is_nash(ints, Profile.from_dict({1: 0, 2: 0, 3: 3})) == is_nash(
        inst, Profile.from_dict({1: F(0), 2: F(0), 3: F(3)}))


@pytest.mark.parametrize("entry", [
    lambda inst, starts: best_response(inst, starts, 1),
    is_nash, brd,
    lambda inst, starts: verify_deviation(
        inst, starts, equilibrium.Deviation(1, ((1, F(0)),), F(0), F(1))),
    solve_machine_dp, solve_machine_bruteforce],
    ids=["best_response", "is_nash", "brd", "verify_deviation", "solve_machine_dp",
         "solve_machine_bruteforce"])
def test_a_mapping_in_place_of_a_profile_is_rejected(entry):
    # These used to raise AttributeError: 'dict' object has no attribute
    # 'as_dict'.
    fx = fixture("ex1")
    starts = fx.notable_profiles["figure_a"].as_dict()
    with pytest.raises(ValidationError, match="expected a Profile, got dict"):
        entry(fx.instance, starts)


def test_brd_rejects_a_negative_iteration_cap():
    fx = fixture("ex1")
    with pytest.raises(ValidationError, match="max_iters must be at least 0, got -1"):
        brd(fx.instance, fx.notable_profiles["figure_a"], max_iters=-1)


def test_verify_deviation_rejects_a_misstated_utility():
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_a"]
    dev = is_nash(fx.instance, profile)
    assert dev is not None and verify_deviation(fx.instance, profile, dev)
    for before, after in ((dev.utility_before - 1, dev.utility_after),
                          (dev.utility_before, dev.utility_after + 1)):
        forged = equilibrium.Deviation(dev.player, dev.new_strategy, before, after)
        assert not verify_deviation(fx.instance, profile, forged)


def test_verify_deviation_rejects_a_move_placing_a_job_twice():
    # The move used to be read through a dict, so its last placement of
    # job 1 won and the deviation verified.
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_a"]
    dev = is_nash(fx.instance, profile)
    assert dev.player == 1 and dict(dev.new_strategy)[1] == 0
    twice = equilibrium.Deviation(dev.player, ((1, F(99)), *dev.new_strategy),
                                  dev.utility_before, dev.utility_after)
    with pytest.raises(ValidationError, match=re.escape("job 1: placed twice")):
        verify_deviation(fx.instance, profile, twice)


def test_verify_deviation_names_an_unknown_job_that_does_not_compare():
    # The moved profile used to be sorted by job id, so "a" escaped as a
    # bare TypeError before the check could name it.
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_a"]
    dev = is_nash(fx.instance, profile)
    unknown = equilibrium.Deviation(1, ((1, F(0)), ("a", F(0)), (2, F(1, 2))),
                                    dev.utility_before, dev.utility_after)
    with pytest.raises(ValidationError, match=re.escape("start given for unknown job a")):
        verify_deviation(fx.instance, profile, unknown)


@pytest.mark.parametrize("bad", ["2", 1.5, True, False, F(1), None])
def test_integer_parameters_must_be_ints(bad):
    # Before the type check, a resolution of True ran as 1 and the other
    # non-ints raised TypeError, and a max_iters of 1.5, True or F(1) ran.
    fx = fixture("ex1")
    inst, profile = fx.instance, fx.notable_profiles["figure_a"]
    for call in (enumerate_grid_ne, joint_grid_size, grid_candidates, analyze,
                 equilibrium.global_grid_points, lambda i, r: list(grid_profiles(i, r)),
                 lambda i, r: brd(i, profile, resolution=r)):
        with pytest.raises(ValidationError, match="grid resolution must be an int"):
            call(inst, bad)
    with pytest.raises(ValidationError, match="max_iters must be an int"):
        brd(inst, profile, max_iters=bad)


# --- the background route of best-mode searches ----------------------------------

def _search_results(inst, profile):
    """Every player's best response, the full-mode `is_nash` verdict and a
    short `brd` run from `profile`."""
    return ([best_response(inst, profile, c) for c in inst.color_ids],
            is_nash(inst, profile), brd(inst, profile, max_iters=12))


def test_background_route_changes_no_result(monkeypatch):
    from intervalgames import machine
    cases = [(fx.instance, fx.notable_profiles["initial"]) for fx in _partition_games()]
    cases += [(inst, random_profile(inst, k))
              for k, inst in enumerate(_differential_instances())]
    route, served = machine._background, collections.Counter()

    def counting(st, key, pix, walk):
        built = route(st, key, pix, walk)
        served["built" if built else "bound"] += 1
        if built is None:
            return None
        tables, score = built

        def count(ms):
            got = score(ms)
            served["key" if got else "tie"] += 1
            return got
        return tables, count

    monkeypatch.setattr(machine, "_background", counting)
    routed = [_search_results(copy.copy(inst), profile) for inst, profile in cases]
    # A route that defers on every combination: the DP answers them all.
    monkeypatch.setattr(machine, "_background", lambda st, key, pix, walk: (
        [times for _, times in walk], lambda ms: None))
    assert [_search_results(copy.copy(inst), profile) for inst, profile in cases] == routed
    assert min(served[k] for k in ("built", "bound", "key", "tie")) > 0, served


def _recording_memos(monkeypatch) -> dict:
    """Record every memo that `MachineCache.evaluate_key` reads, by id, with
    the core that read it."""
    memos, evaluate_key = {}, MachineCache.evaluate_key

    def recording(self, memo, key):
        memos[id(memo)] = self, memo
        return evaluate_key(self, memo, key)

    monkeypatch.setattr(MachineCache, "evaluate_key", recording)
    return memos


def test_no_background_route_outlives_its_search(monkeypatch):
    """A best-mode walk whose route raises midway, or an enumeration whose
    verdict search raises, leaves the core answering as a fresh copy does,
    and every call's memo holds only DP answers. The enumeration stores none
    of its own keys, so the guarded one, stopped before its first search
    ends, leaves its memo empty."""
    from intervalgames import machine
    fx = from_partition_br((1, 2, 3))
    inst, profile = copy.copy(fx.instance), fx.notable_profiles["initial"]
    route = machine._background
    memos, key_memos = _recording_memos(monkeypatch), _recording_key_memos(monkeypatch)

    def failing(st, key, pix, walk):
        (tables, score), calls = route(st, key, pix, walk), []

        def fail_third(ms):
            calls.append(ms)
            if len(calls) == 3:
                raise RuntimeError("midway")
            return score(ms)
        return tables, fail_third

    monkeypatch.setattr(machine, "_background", failing)
    with pytest.raises(RuntimeError, match="midway"):
        best_response(inst, profile, 1)
    monkeypatch.setattr(machine, "_background", route)
    for search in (lambda i: best_response(i, profile, 1), lambda i: is_nash(i, profile),
                   lambda i: brd(i, profile), lambda i: best_response(i, profile, 2),
                   enumerate_grid_ne):
        assert search(inst) == search(copy.copy(fx.instance))
    assert memos and all(value == core.solve_key(key) for core, memo in memos.values()
                         for key, value in memo.items())
    guarded, message = guard_instances()["player_jobs"]
    key_memos.clear()
    with pytest.raises(GuardError, match=message):
        enumerate_grid_ne(copy.copy(guarded))
    assert key_memos == [{}]


def test_searches_nested_in_a_walk_on_one_core_match_fresh_copies(monkeypatch):
    """Each walk's route answers only that walk's keys. Calls run on the
    same instance from inside a best-mode walk's route (a machine solve off
    the core's scale, which gets the instance a new core, a best response
    from that profile, each player's first-improvement `is_nash`, another
    player's best response, a `brd` walk that raises midway and a grid-NE
    enumeration) change neither that walk's answer nor their own, and leave
    only DP answers in their memos. Before a core's scale was fixed, the
    off-scale search rescaled the walk's core, and the walk returned job 3
    at 1/7, not 3/2."""
    from intervalgames import machine
    fx = from_partition_br((1, 2, 3))
    inst, profile = copy.copy(fx.instance), fx.notable_profiles["initial"]
    off_scale = Profile.from_dict({**profile.as_dict(), 1: F(1, 7)})
    route, plan, nested, cores = machine._background, ["nest"], {}, []
    memos = _recording_memos(monkeypatch)

    def fresh(search):
        return search(copy.copy(fx.instance))

    def first_moves(i):
        return [is_nash(i, profile, first_improvement=True, players=[c])
                for c in i.color_ids]

    def nested_searches():
        nested["solve"] = solve_machine_dp(inst, off_scale)
        cores.append(MachineCache.of(inst))
        nested["off_scale"] = best_response(inst, off_scale, 1)
        nested["is_nash"] = first_moves(inst)
        nested["best_response"] = best_response(inst, profile, 2)
        plan.append("fail")
        with pytest.raises(RuntimeError, match="midway"):
            brd(inst, profile)
        nested["enumerate"] = enumerate_grid_ne(inst)

    def patched(st, key, pix, walk):
        built, calls = route(st, key, pix, walk), []
        if not plan:
            return built
        kind = plan.pop()
        cores.append(st)
        tables, score = built

        def wrapped(ms):
            calls.append(ms)
            if kind == "nest" and len(calls) == 1:
                nested_searches()
            if kind == "fail" and len(calls) == 3:
                raise RuntimeError("midway")
            return score(ms)
        return tables, wrapped

    monkeypatch.setattr(machine, "_background", patched)
    outer = best_response(inst, profile, 1)
    monkeypatch.setattr(machine, "_background", route)
    assert sorted(nested) == ["best_response", "enumerate", "is_nash", "off_scale",
                              "solve"]
    assert not plan
    assert outer == fresh(lambda i: best_response(i, profile, 1))
    assert nested["solve"] == fresh(lambda i: solve_machine_dp(i, off_scale))
    assert nested["off_scale"] == fresh(lambda i: best_response(i, off_scale, 1))
    assert nested["best_response"] == fresh(lambda i: best_response(i, profile, 2))
    assert nested["is_nash"] == fresh(first_moves)
    assert nested["enumerate"] == fresh(enumerate_grid_ne)
    # The outer walk kept its core; the machine solve left a new core, and
    # the searches after it ran on that core, a brd walk among them.
    assert cores[0].td < cores[1].td
    assert cores[1] is cores[2] is MachineCache.of(inst)
    assert all(value == cache.solve_key(key) for cache, memo in memos.values()
               for key, value in memo.items())


def test_best_mode_walks_store_only_their_deferred_and_returned_keys(monkeypatch):
    """After best responses and `brd` runs, their memos hold only the
    searches' current keys, the keys their routes deferred to the DP and the
    keys they returned, and every value is `solve_key`'s. A walk used to
    store every key its route valued."""
    cases = [(fx.instance, fx.notable_profiles["initial"]) for fx in _partition_games()]
    cases += [(inst, random_profile(inst, k))
              for k, inst in enumerate(_differential_instances())]
    search, solve_key = equilibrium._player_search, MachineCache.solve_key
    kept, solved = set(), set()  # current and returned keys; the DP's keys
    memos = {}

    def recording(instance, cache, memo, key, *args, **kwargs):
        found = search(instance, cache, memo, key, *args, **kwargs)
        kept.update([key, found[0]] if found else [key])
        memos[id(memo)] = memo
        return found

    def solving(self, key):
        solved.add(key)
        return solve_key(self, key)

    monkeypatch.setattr(equilibrium, "_player_search", recording)
    monkeypatch.setattr(MachineCache, "solve_key", solving)
    deferred = moved = 0
    for inst, profile in cases:
        inst = copy.copy(inst)
        for log in (kept, solved, memos):
            log.clear()
        _search_results(inst, profile)
        core = MachineCache.of(inst)
        stored = {key: value for memo in memos.values() for key, value in memo.items()}
        assert kept <= set(stored) <= kept | solved, inst
        assert all(value == solve_key(core, key) for key, value in stored.items())
        deferred += len(solved - kept)
        moved += len(kept) > len(inst.color_ids)
    assert deferred and moved


def test_a_search_that_reaches_the_core_mid_build_matches_a_fresh_copy(monkeypatch):
    """A best response run on the same instance from inside the build of
    its core's game tables (from `_job_groups`), and the best response that
    started the build, both answer as a fresh copy does. The tables used to
    be published one at a time with `_groups` first, so the nested search
    found no memo and raised `AttributeError`."""
    from intervalgames import machine
    fx = fixture("prop_no_ne")
    inst, profile = copy.copy(fx.instance), fx.notable_profiles["overlap"]
    job_groups, nested = machine._job_groups, []

    def nesting(instance):
        if not nested:
            nested.append(None)
            nested[0] = best_response(inst, profile, 1)
        return job_groups(instance)

    monkeypatch.setattr(machine, "_job_groups", nesting)
    outer = best_response(inst, profile, 1)
    monkeypatch.setattr(machine, "_job_groups", job_groups)
    fresh = best_response(copy.copy(fx.instance), profile, 1)
    assert nested == [fresh] and outer == fresh


def test_typed_walks_match_the_dp_on_every_start_they_sign(monkeypatch):
    """During grid-NE enumeration every start that a one-job player's typed
    walk signs gets `_dp_core`'s (value, per-color utilities) for the key
    with the job moved there from the type memo, and the walk returns what a
    first-improvement search of the same list returns: the first start in
    the list whose utility beats the current one, or None."""
    from intervalgames import machine
    instances = [fx.instance for fx in _enumerable_fixtures()]
    instances += [from_partition_decide(v).instance for v in ((1, 2, 3), (2, 2, 2), (1, 1, 2, 2))]
    checked, cores = collections.Counter(), []
    typed_walk = equilibrium._typed_walk

    def dp(key):
        cache = cores[-1]
        per = cache.zero_per.copy()
        return cache.base_scaled + machine._dp_core(cache.rows, key, per)[0], tuple(per)

    def building(position, pix, signer, types, solve):
        head_starts, sign = signer
        signed = []

        def recording(x, head):
            signed.append((x, sign(x, head)))
            return signed[-1][1]

        walk = typed_walk(position, pix, (head_starts, recording), types, solve)

        def checking(key, lists, u_cur):
            (starts,) = lists
            signed.clear()
            found = walk(key, lists, u_cur)
            moved = {x: key[:position] + (x,) + key[position + 1:] for x in starts}
            assert [x for x, _ in signed] == starts[:len(signed)]
            for x, sig in signed:
                assert types[sig] == dp(moved[x]), moved[x]
                checked["signed"] += 1
            assert found == next(((moved[x], dp(moved[x])[1][pix]) for x in starts
                                  if dp(moved[x])[1][pix] > u_cur), None)
            checked["refuted" if found else "stable"] += 1
            return found
        return checking

    monkeypatch.setattr(equilibrium, "_typed_walk", building)
    for inst in instances:
        fresh = copy.copy(inst)
        cores.append(MachineCache.of(fresh))
        enumerate_grid_ne(fresh)
    assert checked["signed"] > 1000 and checked["refuted"] and checked["stable"], checked
