"""Machine solver: worked examples, oracle equivalence, output invariants."""

import ast
import collections
import copy
import hashlib
import itertools
import math
import os
import pathlib
import random
import re
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intervalgames
from intervalgames import (GuardError, Instance, InternalFailure, Job, Profile,
                           ValidationError, fixture, random_instance, random_profile,
                           solve_machine_bruteforce, solve_machine_dp,
                           validate_instance, validate_profile)
from intervalgames import equilibrium, machine
from intervalgames.generators import FAMILIES
from intervalgames.machine import _closure, _dp_core, _scaled, _view
from intervalgames.model import Schedule
from conftest import check_schedule_invariants, core_keys


def _inst(horizon, *jobs):
    return validate_instance(Instance(F(horizon), tuple(
        Job(i + 1, c, F(p), F(w)) for i, (c, p, w) in enumerate(jobs))))


# --- reference helpers: the DP's definitions, in Fractions ------------------

def prev_index(instance, profile, job_id):
    """Id of the last positive-length job in (finish, id) order ending no
    later than this job starts, or 0 if none. Touching half-open intervals
    are compatible."""
    starts = profile.as_dict()
    jobs = sorted((j for j in instance.jobs if j.length > 0),
                  key=lambda j: (starts[j.id] + j.length, j.id))
    s_j = starts[job_id]
    best = 0
    for k in jobs:
        if k.id == job_id:
            continue
        if starts[k.id] + k.length <= s_j:
            best = k.id  # scan is in finish order, so the last hit wins
    return best


def in_set(instance, profile, job_id):
    """Ids of same-color jobs whose interval is contained in this job's interval."""
    starts = profile.as_dict()
    j = instance.job(job_id)
    s_j, f_j = starts[job_id], starts[job_id] + j.length
    members = set()
    for k in instance.jobs:
        if k.color != j.color:
            continue
        s_k = starts[k.id]
        if s_j <= s_k and s_k + k.length <= f_j:
            members.add(k.id)
    return frozenset(members)


def test_prev_disjoint():
    inst = _inst(4, (1, 1, 1), (2, 1, 1))
    profile = Profile.from_dict({1: F(0), 2: F(2)})
    assert prev_index(inst, profile, 2) == 1


def test_prev_overlap():
    inst = _inst(4, (1, 2, 1), (2, 2, 1))
    profile = Profile.from_dict({1: F(0), 2: F(1)})
    assert prev_index(inst, profile, 2) == 0


def test_prev_touching_is_compatible():
    # half-open intervals: [0,1) and [1,2) do not overlap
    inst = _inst(4, (1, 1, 1), (2, 1, 1))
    profile = Profile.from_dict({1: F(0), 2: F(1)})
    assert prev_index(inst, profile, 2) == 1


def test_prev_matches_definition_scan_on_ex1():
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_a"]
    starts = profile.as_dict()
    for j in fx.instance.jobs:
        expected = 0
        expected_f = None
        for k in fx.instance.jobs:
            if k.id == j.id:
                continue
            fk = starts[k.id] + k.length
            if fk <= starts[j.id] and (expected_f is None or (fk, k.id) > expected_f):
                expected, expected_f = k.id, (fk, k.id)
        assert prev_index(fx.instance, profile, j.id) == expected
    assert prev_index(fx.instance, profile, 1) == 0


def test_in_set_nested_same_color():
    fx = fixture("ex1")
    profile = fx.notable_profiles["figure_b"]  # job2 at [1,2) inside job1 [0,4)
    assert in_set(fx.instance, profile, 1) == frozenset({1, 2})


def test_in_set_singleton_and_color_filter():
    inst = _inst(3, (1, 1, 1))
    assert in_set(inst, Profile.from_dict({1: F(0)}), 1) == frozenset({1})
    inst2 = _inst(3, (1, 2, 1), (2, 2, 1))
    profile = Profile.from_dict({1: F(0), 2: F(0)})
    assert in_set(inst2, profile, 1) == frozenset({1})


def test_dp_example_profiles():
    fx = fixture("ex1")
    sched_a = solve_machine_dp(fx.instance, fx.notable_profiles["figure_a"])
    assert sched_a.value == 5 and sched_a.covered == frozenset({2, 3})
    sched_b = solve_machine_dp(fx.instance, fx.notable_profiles["figure_b"])
    assert sched_b.value == 4 and sched_b.covered == frozenset({1, 2})


@pytest.mark.parametrize("solve", [
    solve_machine_dp, solve_machine_bruteforce,
    lambda inst, profile: machine.machine_value_and_covered(inst, profile.as_dict())])
@pytest.mark.parametrize("starts, message", [
    ({1: F(0), 2: F(0)}, "missing start for job 3"),
    ({1: F(0), 2: F(0), 3: "1"}, "job 3: start '1' must be an int or a Fraction"),
    ({1: F(0), 2: F(0), 3: None}, "job 3: start None must be an int or a Fraction"),
    ({1: F(0), 2: F(0), 3: 1.1}, "job 3: start 1.1 must be an int or a Fraction"),
    ({1: F(0), 2: F(0), 3: True}, "job 3: start True must be an int or a Fraction"),
])
def test_machine_solvers_reject_a_profile_they_cannot_read(solve, starts, message):
    """A missing job or a start that is not an exact number makes the
    machine solvers raise `validate_profile`'s `ValidationError`. A missing
    job or a non-number used to escape as `KeyError` or `AttributeError`; a
    float start of 1.1 widened the time scale to 2^51 and came back as a
    segment start, and a start of True ran as 1."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        solve(fixture("ex1").instance, Profile.from_dict(starts))


def test_a_mapping_lacking_a_job_is_named_among_ids_that_do_not_compare():
    """`machine_value_and_covered` names the missing job 3 of a mapping that
    also holds unknown ids "a" and 7. It used to escape as a bare
    `TypeError` from sorting those ids on its error path."""
    with pytest.raises(ValidationError, match=re.escape("missing start for job 3")):
        machine.machine_value_and_covered(fixture("ex1").instance,
                                          {1: 0, 2: 0, "a": 0, 7: 0})


def test_machine_solvers_reject_a_start_outside_its_range():
    """Each machine entry raises `validate_profile`'s message, naming the
    first such job in instance order, for a known job's start outside
    [0, T) or outside its window, off the stored core's scale too, and
    accepts every job at either end of its range with one answer. They
    compare ints on the core; they used to return a segment at (-1, 0),
    (9, 10) or (7/2, 9/2) on `ex1`, valued 7, 7 and 5."""
    entries = (solve_machine_dp, solve_machine_bruteforce,
               lambda inst, profile: machine.machine_value_and_covered(inst, profile.as_dict()))
    ex1 = fixture("ex1").instance  # T = 4; jobs 1, 2 and 3 of lengths 4, 1 and 1
    windowed = validate_instance(Instance(F(4), (
        Job(1, 1, F(1), F(1), (F(1), F(3))), Job(2, 2, F(2), F(1)), Job(3, 2, F(0), F(2)))))
    rejected = [(ex1, {1: F(0), 2: F(0), 3: x}) for x in (F(-1), F(9), F(7, 2), F(-1, 3))]
    rejected += [(ex1, {1: F(1, 2), 2: F(0), 3: F(9)})]
    rejected += [(windowed, {1: x, 2: F(0), 3: F(0)}) for x in (F(1, 2), F(5, 2), F(4))]
    rejected += [(windowed, {1: F(1), 2: F(0), 3: F(9, 2)})]
    for inst, starts in rejected:
        profile = Profile.from_dict(starts)
        with pytest.raises(ValidationError) as expected:
            validate_profile(inst, profile)
        for solve in entries:
            with pytest.raises(ValidationError, match=re.escape(str(expected.value))):
                solve(inst, profile)
    for starts in ({1: F(1), 2: F(0), 3: F(4)}, {1: F(2), 2: F(2), 3: F(0)}):
        profile = validate_profile(windowed, Profile.from_dict(starts))
        answers = [solve(windowed, profile) for solve in entries]
        assert answers[0] == answers[1]
        assert (answers[0].value, answers[0].covered) == answers[2]


def test_dp_single_job():
    inst = _inst(3, (1, 2, 7))
    sched = solve_machine_dp(inst, Profile.from_dict({1: F(1)}))
    assert sched.value == 7 and sched.covered == frozenset({1})


def test_dp_prop_fixture_overlap_outcome():
    # an overlap with any short job forces the machine onto the heavy color
    fx = fixture("prop_no_ne")
    sched = solve_machine_dp(fx.instance, fx.notable_profiles["overlap"])
    assert sched.value == 4 and sched.covered == frozenset({1, 2})


def test_brute_matches_on_examples():
    fx = fixture("ex1")
    for profile in fx.notable_profiles.values():
        assert (solve_machine_bruteforce(fx.instance, profile).value
                == solve_machine_dp(fx.instance, profile).value)


def test_empty_instance_value_zero():
    inst = Instance(F(2), ())
    sched = solve_machine_bruteforce(inst, Profile.from_dict({}))
    assert sched.value == 0 and sched.covered == frozenset()
    assert solve_machine_dp(inst, Profile.from_dict({})).value == 0


def test_brute_guard():
    inst = _inst(30, *(((i % 3) + 1, 1, 1) for i in range(21)))
    profile = Profile.from_dict({j.id: F(0) for j in inst.jobs})
    with pytest.raises(GuardError):
        solve_machine_bruteforce(inst, profile)
    assert solve_machine_bruteforce(inst, profile, force=True).value > 0


def test_zero_length_jobs_always_covered():
    inst = validate_instance(Instance(F(2), (
        Job(1, 1, F(0), F(5)), Job(2, 2, F(2), F(1)))))
    profile = Profile.from_dict({1: F(1), 2: F(0)})
    sched = solve_machine_dp(inst, profile)
    assert sched.covered == frozenset({1, 2})
    assert sched.value == 6
    assert solve_machine_bruteforce(inst, profile).value == 6


def _oracle_cases():
    for i in range(120):
        n = 2 + i % 7
        yield random_instance("general", n, min(n, 1 + i % 3), F(4), seed=900 + i), i
    # 9-16 jobs of 2-4 colors: long same-color scans and prefix-argmax runs
    for i in range(48):
        family = ("general", "unit", "prop", "nonsymm")[i % 4]
        yield random_instance(family, 9 + i % 8, 2 + i % 3, F(4), seed=1900 + i), i


def test_oracle_equivalence_seeded():
    for inst, i in _oracle_cases():
        profile = random_profile(inst, seed=i)
        dp = solve_machine_dp(inst, profile)
        brute = solve_machine_bruteforce(inst, profile)
        assert dp.value == brute.value
        check_schedule_invariants(inst, profile, dp)
        check_schedule_invariants(inst, profile, brute)


def test_monotonicity_adding_a_job():
    for i in range(40):
        inst = random_instance("general", 4, 2, F(4), seed=500 + i)
        profile = random_profile(inst, seed=i)
        base = solve_machine_dp(inst, profile).value
        extra = Job(len(inst.jobs) + 1, 1, F(1), F(3, 2))
        bigger = validate_instance(Instance(inst.horizon, inst.jobs + (extra,)))
        starts = profile.as_dict()
        starts[extra.id] = F(i % 3)
        assert solve_machine_dp(bigger, Profile.from_dict(starts)).value >= base


@st.composite
def placed_instances(draw):
    horizon = F(4)
    n = draw(st.integers(min_value=1, max_value=6))
    jobs = []
    starts = {}
    for i in range(n):
        length = draw(st.fractions(min_value=F(1, 2), max_value=horizon,
                                   max_denominator=3))
        weight = draw(st.fractions(min_value=0, max_value=5, max_denominator=4))
        color = draw(st.integers(min_value=1, max_value=3))
        jobs.append(Job(i + 1, color, length, weight))
        starts[i + 1] = draw(st.fractions(min_value=0, max_value=horizon - length,
                                          max_denominator=3))
    inst = validate_instance(Instance(horizon, tuple(jobs)))
    return inst, Profile.from_dict(starts)


@given(placed_instances())
@settings(max_examples=80, deadline=None)
def test_oracle_equivalence_property(pair):
    inst, profile = pair
    assert (solve_machine_dp(inst, profile).value
            == solve_machine_bruteforce(inst, profile).value)


def test_touching_cross_color_chain():
    # three touching jobs of three colors all fit: [0,1) [1,2) [2,3)
    inst = _inst(3, (1, 1, 1), (2, 1, 2), (3, 1, 4))
    profile = Profile.from_dict({1: F(0), 2: F(1), 3: F(2)})
    sched = solve_machine_dp(inst, profile)
    assert sched.value == 7
    assert sched.covered == frozenset({1, 2, 3})
    assert sched.segments == ((F(0), F(1), 1), (F(1), F(2), 2), (F(2), F(3), 3))


def test_same_color_touching_merges_one_segment():
    inst = _inst(3, (1, 1, 1), (1, 1, 2))
    profile = Profile.from_dict({1: F(0), 2: F(1)})
    sched = solve_machine_dp(inst, profile)
    assert sched.value == 3
    assert sched.segments == ((F(0), F(2), 1),)


GOLDEN_DP_SHA256 = "10d5b856de529123cd4d846e93cebc3ca4ac050569219593dd294f5c538b292c"


def test_dp_golden_schedules_beyond_brute_force_limit():
    # Full DP output (value, covered set, segments) pinned on 96 profiles of
    # 12-64 jobs, past the sizes the brute-force oracle can check.
    lines = []
    for family in ("general", "unit", "prop", "nonsymm"):
        for n in (12, 24, 40, 64):
            for c in (2, 5):
                inst = random_instance(family, n, c, F(12), seed=1000 * n + c)
                for k in range(3):
                    sched = solve_machine_dp(inst, random_profile(inst, seed=k))
                    lines.append(repr((family, n, c, k, sched.value,
                                       sorted(sched.covered), sched.segments)))
    assert len(lines) == 96
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_DP_SHA256


GOLDEN_TIES_SHA256 = "65a033760b99f22fdd53a04163f054239823ced08d5676ac7e4f0eacb663dcd3"


def test_dp_golden_tie_breaks():
    # Integer starts, lengths 1-3 and weights in {0, 1, 2} make equal-valued
    # configurations common, so this pins the DP's tie-break rule (random
    # rational weights almost never tie).
    lines = []
    for seed in range(60):
        rng = random.Random(seed)
        n, horizon = 8 + seed % 5 * 8, 8
        jobs = tuple(Job(i + 1, rng.randint(1, 2 + seed % 2), F(rng.randint(1, 3)),
                         F(rng.choice((0, 1, 1, 2)))) for i in range(n))
        inst = validate_instance(Instance(F(horizon), jobs))
        starts = {j.id: F(rng.randint(0, horizon - int(j.length))) for j in jobs}
        sched = solve_machine_dp(inst, Profile.from_dict(starts))
        lines.append(repr((seed, sched.value, sorted(sched.covered), sched.segments)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_TIES_SHA256


def _scan_dp_core(rows, times):
    """Reference for `machine._dp_core`: the same recurrence with a plain
    backward scan over every job of the window, skipping other colors."""
    view = _view(rows, times)
    s, f, w, col, ids = view
    n = len(s)
    A = [0] * (n + 1)
    back = [0] * (n + 1)
    best = [(0, 0, 0)] * (n + 1)  # (value, last-job id, cell)
    nested = [0] * n
    top_v, top_id, top_cell = 0, 0, 0
    for i in range(n):
        si, fi, c = s[i], f[i], col[i]
        mask = 0
        add = 0
        after = 0
        last_f = None
        y_v, y_id, y_k = -1, 0, 0
        p = bisect_right(f, si, 0, i)
        for k in range(bisect_right(f, fi, i) - 1, p - 1, -1):
            if col[k] != c:
                continue
            fk = f[k]
            if fk != last_f:
                after, last_f = add, fk
            if s[k] >= si:
                mask |= 1 << k
                add += w[k]
            elif k < i:
                v = A[k + 1] + after
                kid = ids[k]
                if v > y_v or (v == y_v and kid < y_id):
                    y_v, y_id, y_k = v, kid, k + 1
        nested[i] = mask
        best_v, best_id, best_k = best[p]
        best_v += add
        if y_v > best_v or (y_v == best_v and y_id < best_id):
            best_v, best_id, best_k = y_v, y_id, y_k
        A[i + 1] = best_v
        back[i + 1] = best_k
        if best_v > top_v or (best_v == top_v and ids[i] < top_id):
            top_v, top_id, top_cell = best_v, ids[i], i + 1
        best[i + 1] = (top_v, top_id, top_cell)
    covered_mask = 0
    cell = top_cell
    while cell != 0:
        covered_mask |= nested[cell - 1]
        cell = back[cell]
    if sum(w[k] for k in range(n) if (covered_mask >> k) & 1) != top_v:
        raise InternalFailure("dp credit mismatch: recurrence double-counted a job")
    return top_v, covered_mask, view


@st.composite
def tie_heavy_rows(draw):
    """DP rows and integer start times where equal finishes, nested
    same-color jobs and equal-valued configurations are common."""
    n = draw(st.integers(min_value=1, max_value=24))
    colors = draw(st.integers(min_value=1, max_value=5))
    ids = draw(st.permutations(range(1, n + 1)))
    rows = [(p, draw(st.integers(min_value=1, max_value=3)), ids[p],
             draw(st.sampled_from((0, 1, 2, 3))),
             draw(st.integers(min_value=0, max_value=colors - 1))) for p in range(n)]
    times = draw(st.lists(st.integers(min_value=0, max_value=8), min_size=n, max_size=n))
    return rows, times


@given(tie_heavy_rows())
@settings(max_examples=400, deadline=None)
def test_dp_core_matches_the_plain_scan(case):
    rows, times = case
    assert _dp_core(rows, times) == _scan_dp_core(rows, times)


@st.composite
def _zero_length_profiles(draw):
    """An instance with some zero-length jobs, and start maps over it whose
    denominators the core's scale already holds."""
    n = draw(st.integers(min_value=1, max_value=9))
    colors = draw(st.integers(min_value=1, max_value=4))
    jobs = tuple(Job(i + 1, draw(st.integers(min_value=1, max_value=colors)),
                     F(draw(st.sampled_from((0, 0, 1, 2, 3))), 2),
                     F(draw(st.integers(min_value=0, max_value=5)),
                       draw(st.sampled_from((1, 2, 3)))))
                 for i in range(n))
    inst = validate_instance(Instance(F(3), jobs))
    profiles = draw(st.lists(st.fixed_dictionaries({
        j.id: st.integers(min_value=0, max_value=int(2 * (3 - j.length))).map(
            lambda x: F(x, 2)) for j in jobs}), min_size=1, max_size=12))
    return inst, profiles


@given(_zero_length_profiles(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_evaluate_key_utilities_match_the_covered_mask(case, limit):
    inst, profiles = case
    cache, *keys = core_keys(inst, *profiles)

    def independent(key):
        # The covered ids from `_dp_core`'s mask, plus every zero-length job,
        # summed per color from the instance's own weights.
        top, mask, view = _dp_core(cache.rows, key)
        ids = view[4]
        covered = {ids[k] for k in range(len(ids)) if mask >> k & 1}
        covered |= {j.id for j in inst.jobs if j.length == 0}
        per = tuple(sum(j.weight.numerator * (cache.wden // j.weight.denominator)
                        for j in inst.jobs if j.id in covered and j.color == c)
                    for c in inst.color_ids)
        return cache.base_scaled + top, per

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "MEMO_LIMIT", limit)  # cleared past `limit` entries
        for key in keys + keys[::-1]:
            assert cache.evaluate_key(key) == independent(key)
            assert len(cache._cache) <= limit + 1
        assert cache.value(keys[0]) == solve_machine_dp(inst, Profile.from_dict(
            profiles[0])).value


# --- the background route of best-mode walks -----------------------------------

def _walk_lists(cache, key, player):
    """The candidate lists of the player's best-mode walks from `key`: its
    local grid, as `best_response` and `is_nash` walk it, and the global
    grid, as `brd` walks it."""
    yield [coded for _, coded in equilibrium._coded_grid(cache, key, player)[1]]
    yield equilibrium._global_lists(cache, 1)[player]


def _check_background_route(inst, profile, fallbacks):
    """On every combination of every player's best-mode walks from
    `profile`, the background route's score gives `_dp_core`'s (value,
    per-color utilities) or defers. Counts the walked combinations, the
    deferred ones and the routes that were not built."""
    cache, key = core_keys(inst, profile.as_dict())
    for player in inst.color_ids:
        groups = cache.groups[player]
        for lists in _walk_lists(cache, key, player):
            if math.prod(math.comb(len(c) + len(ids_) - 1, len(ids_))
                         for (ids_, _), c in zip(groups, lists)) > 5000:
                continue
            walk = [(positions, c) for (_, positions), c in zip(groups, lists)]
            route = machine._background(cache, key, cache.color_index[player], walk)
            if route is None:
                fallbacks["bound"] += 1
                continue
            tables, score = route
            masks = equilibrium._multisets(zip([ps for ps, _ in walk], tables))
            for cand, ms in zip(equilibrium._grid_keys(walk, key), masks, strict=True):
                per = cache.zero_per.copy()
                dp = cache.base_scaled + _dp_core(cache.rows, cand, per)[0], tuple(per)
                got = score(ms)
                fallbacks["keys"] += 1
                fallbacks["tie"] += got is False
                assert got is False or got == dp, (inst, player, cand)


def test_background_route_matches_the_dp_on_every_walked_key():
    cases = [(inst, random_profile(inst, seed))
             for family in FAMILIES for n, c in ((3, 3), (4, 2), (5, 3), (6, 2))
             if family != "single" or n == c
             for seed in range(3)
             for inst in [random_instance(family, n, c, 4, seed)]]
    # Two background jobs of equal weight and different colors on one slot:
    # either one, with player 1's job beside it, is a best subset.
    tie = _inst(3, (1, 1, 1), (2, 1, 2), (3, 1, 2))
    cases.append((tie, Profile.from_dict({1: F(2), 2: F(0), 3: F(0)})))
    # Player 1's background, three jobs of one color, has eight compatible
    # subsets, more than the instance's four jobs.
    crowd = _inst(3, (1, 1, 1), (2, 1, 1), (2, 1, 1), (2, 1, 1))
    cases.append((crowd, Profile.from_dict({1: F(0), 2: F(0), 3: F(1), 4: F(2)})))
    # Zero lengths, zero weights and windows.
    mixed = validate_instance(Instance(F(4), (
        Job(1, 1, F(1), F(0)), Job(2, 1, F(0), F(2)), Job(3, 1, F(1), F(1)),
        Job(4, 2, F(2), F(1), (F(0), F(3))), Job(5, 2, F(1), F(3)),
        Job(6, 3, F(1), F(1), (F(1), F(3))), Job(7, 3, F(0), F(0)))))
    cases += [(mixed, random_profile(mixed, seed)) for seed in range(4)]
    fallbacks = collections.Counter()
    for inst, profile in cases:
        _check_background_route(inst, profile, fallbacks)
    assert fallbacks["tie"] and fallbacks["bound"], fallbacks
    assert fallbacks["keys"] > 10 * fallbacks["tie"], fallbacks


@given(_zero_length_profiles())
@settings(max_examples=100, deadline=None)
def test_background_route_matches_the_dp_with_zero_lengths_and_weights(case):
    inst, profiles = case
    for starts in profiles[:3]:
        _check_background_route(inst, Profile.from_dict(starts), collections.Counter())


def _per_color_closure(st, starts, top, mask, view):
    """Reference for `machine._closure`: merge each color's covered
    intervals in its own table, check the sorted segments pairwise, then
    bisect each uncovered job's own-color segments."""
    s, f, w, col, ids = view
    per_color = {}
    first = {}  # scaled start -> a covered job starting there
    m = mask
    while m:
        low = m & -m
        k = low.bit_length() - 1
        per_color.setdefault(col[k], []).append((s[k], f[k]))
        first[s[k]] = ids[k]
        m ^= low
    segments = []
    merged = {}
    for color, ivals in per_color.items():
        ivals.sort()
        lows, highs = merged[color] = ([], [])
        cur_s, cur_f = ivals[0]
        for a, b in ivals[1:]:
            if a <= cur_f:
                cur_f = max(cur_f, b)
            else:
                lows.append(cur_s)
                highs.append(cur_f)
                cur_s, cur_f = a, b
        lows.append(cur_s)
        highs.append(cur_f)
        segments.extend((a, b, color) for a, b in zip(lows, highs))
    segments.sort()
    for (_, b1, _), (a2, _, _) in zip(segments, segments[1:]):
        if a2 < b1:
            raise InternalFailure("covered jobs of different colors overlap")
    free = 0
    extra = 0
    m = ((1 << len(s)) - 1) ^ mask
    while m:
        low = m & -m
        m ^= low
        k = low.bit_length() - 1
        if col[k] not in merged:
            continue
        lows, highs = merged[col[k]]
        j = bisect_right(lows, s[k]) - 1
        if j >= 0 and f[k] <= highs[j]:
            free |= low
            extra += w[k]
    if extra:
        raise InternalFailure("closure pass found uncounted positive weight "
                              "(solver bug)")
    colors = st.color_ids
    covered = st.zero_ids | {ids[k] for k in range(len(ids)) if (mask | free) >> k & 1}
    return Schedule(frozenset(covered),
                    tuple((starts[first[a]], F(b, st.td), colors[c]) for a, b, c in segments),
                    F(st.base_scaled + top, st.wden))


def _closure_outcome(closure, *args):
    try:
        return closure(*args)
    except InternalFailure as exc:
        return str(exc)


def test_closure_matches_the_per_color_reference():
    """On DP outputs and on random covered masks over random-family views
    of up to 64 jobs with weights in {0, 1, 2}, the finish-order closure
    returns the reference's `Schedule` or raises its `InternalFailure`
    message. The tally checks that free additions, touching segments and
    both raises occur, and that a 64-job view is reached."""
    tally = collections.Counter()
    for seed in range(120):
        rng = random.Random(f"closure:{seed}")
        family = FAMILIES[seed % len(FAMILIES)]
        n = 64 - seed % 7 if seed % 10 == 9 else 2 + seed % 9
        c = n if family == "single" else rng.randint(1, min(3, n))
        raw = random_instance(family, n, c, 2 + seed % 5, seed)
        inst = validate_instance(Instance(raw.horizon, tuple(
            Job(j.id, j.color, j.length, F(rng.choice((0, 1, 2))), j.window)
            for j in raw.jobs)))
        for k in range(4):
            starts = random_profile(inst, 4 * seed + k).as_dict()
            if k == 3:  # `_scaled` does not range-check: starts below 0
                starts = {jid: x - 2 for jid, x in starts.items()}
            st, times = _scaled(inst, starts)
            top, mask, view = _dp_core(st.rows, times)
            size = len(view[0])
            tally["largest"] = max(tally["largest"], size)
            # Sparse masks too: on a large view a dense one almost always
            # overlaps two colors.
            masks = [mask] + [rng.getrandbits(size) for _ in range(6)] + [
                rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
                for _ in range(2)]
            for i, m in enumerate(masks):
                args = (st, starts, top, m, view)
                got = _closure_outcome(_closure, *args)
                assert got == _closure_outcome(_per_color_closure, *args)
                if isinstance(got, str):
                    assert i > 0, got  # the DP's own mask always closes
                    tally[got.split()[0]] += 1
                    continue
                tally["free"] += len(got.covered) > len(st.zero_ids) + bin(m).count("1")
                tally["adjacent"] += any(b == a for (_, b, _), (a, _, _)
                                         in zip(got.segments, got.segments[1:]))
                s, f, col = view[0], view[1], view[3]
                tally["merged"] += any(
                    m >> x & 1 and m >> y & 1 and col[x] == col[y] and f[x] == s[y]
                    for x in range(len(s)) for y in range(len(s)))
    assert tally["free"] and tally["adjacent"] and tally["merged"], tally
    assert tally["covered"] and tally["closure"] and tally["largest"] == 64, tally


def _closure_case(horizon, jobs, starts, covered):
    """`_closure` and the per-color reference on jobs given as (color,
    length, weight) with ids 1, 2, ..., and a mask over the jobs whose ids
    are in `covered`: the closure's `Schedule`, or its raise's message."""
    inst = _inst(horizon, *jobs)
    st, times = _scaled(inst, starts)
    view = _view(st.rows, times)
    mask = sum(1 << k for k, jid in enumerate(view[4]) if jid in covered)
    top = sum(view[2][k] for k in range(len(view[4])) if mask >> k & 1)
    args = (st, starts, top, mask, view)
    got = _closure_outcome(_closure, *args)
    assert got == _closure_outcome(_per_color_closure, *args)
    return got


def test_closure_bridges_earlier_segments_of_its_color():
    # Jobs 1 ([0, 1)) and 2 ([2, 3)) form two segments before job 3
    # ([1/2, 4)), which ends last, joins both; job 4 ([3/2, 2)), weight 0,
    # lies in the bridged segment only, and job 5 ends it at 5.
    sched = _closure_case(6, [(1, 1, 1), (1, 1, 1), (1, F(7, 2), 1), (1, F(1, 2), 0),
                              (2, 1, 1)],
                          {1: F(0), 2: F(2), 3: F(1, 2), 4: F(3, 2), 5: F(4)}, {1, 2, 3, 5})
    assert sched.covered == frozenset({1, 2, 3, 4, 5})
    assert sched.segments == ((0, 4, 1), (4, 5, 2))


def test_closure_keeps_touching_segments_of_different_colors_apart():
    # [0, 2) and [1, 2) of color 1, [2, 3) of color 2, [3, 4) of color 1: no
    # raise, and three segments in start order. Job 5 ([2, 3), color 1,
    # weight 0) lies in a segment of another color, so it stays uncovered.
    sched = _closure_case(4, [(1, 2, 1), (1, 1, 1), (2, 1, 1), (1, 1, 1), (1, 1, 0)],
                          {1: F(0), 2: F(1), 3: F(2), 4: F(3), 5: F(2)}, {1, 2, 3, 4})
    assert sched.covered == frozenset({1, 2, 3, 4})
    assert sched.segments == ((0, 2, 1), (2, 3, 2), (3, 4, 1))


def test_closure_covers_a_zero_weight_job_across_a_junction_for_free():
    # Jobs 1 ([0, 2)) and 2 ([1, 3)) overlap; job 3 ([3/2, 5/2), weight 0)
    # lies in neither alone but in their merged segment, and ends between
    # them in finish order. At weight 1 it is uncounted weight.
    for weight in (0, 1):
        got = _closure_case(4, [(1, 2, 1), (1, 2, 1), (1, 1, weight)],
                            {1: F(0), 2: F(1), 3: F(3, 2)}, {1, 2})
        if weight:
            assert got == "closure pass found uncounted positive weight (solver bug)"
        else:
            assert got.covered == frozenset({1, 2, 3}) and got.segments == ((0, 3, 1),)


def test_machine_value_and_covered_reads_the_closed_dp_schedule():
    """`machine_value_and_covered` returns `solve_machine_dp`'s value and
    covered set. On T = 4, job 3 ([3/2, 5/2), weight 0) lies in neither
    color-1 job ([0, 2) and [2, 4)) alone but in their merged segment: the
    closure covers it, and the function used to leave it out of its own
    covered set, read from the DP mask alone."""
    inst = _inst(4, (1, 2, 1), (1, 2, 1), (1, 1, 0))
    profile = Profile.from_dict({1: F(0), 2: F(2), 3: F(3, 2)})
    sched = solve_machine_dp(inst, profile)
    assert sched.covered == frozenset({1, 2, 3})
    assert machine.machine_value_and_covered(inst, profile.as_dict()) == (
        sched.value, sched.covered)
    for seed in range(40):
        family, n = FAMILIES[seed % len(FAMILIES)], 2 + seed % 7
        inst = random_instance(family, n, n if family == "single" else 2, 3, seed)
        profile = random_profile(inst, seed)
        sched = solve_machine_dp(inst, profile)
        assert machine.machine_value_and_covered(inst, profile.as_dict()) == (
            sched.value, sched.covered)


def test_closure_raises_each_failure_and_overlap_first():
    # Color 1 [0, 2) and color 2 [1, 3) overlap; job 3 ([0, 1), color 1,
    # weight 1) is uncounted inside job 1. The overlap is reported first,
    # and each failure alone is reported by its own message.
    jobs = [(1, 2, 1), (2, 2, 1), (1, 1, 1)]
    starts = {1: F(0), 2: F(1), 3: F(0)}
    overlap = "covered jobs of different colors overlap"
    uncounted = "closure pass found uncounted positive weight (solver bug)"
    assert _closure_case(4, jobs, starts, {1, 2}) == overlap
    assert _closure_case(4, jobs, starts, {1}) == uncounted
    assert _closure_case(4, jobs, starts, {1, 2, 3}) == overlap


def test_closure_starts_a_segment_at_its_first_job_in_start_order():
    # A segment's start is the profile's own start of its least (start,
    # finish, id) job, type included, whatever order the jobs finish in.
    # Jobs 1 ([1, 3)) and 2 ([1, 2)) share a start given as an int and as a
    # `Fraction`: job 2 finishes first. Jobs 3 and 4 ([1, 2) each) tie on
    # finish too: job 3 has the smaller id.
    cases = [((1, F(1)), F), ((F(1), 1), int)]
    for (one, two), kind in cases:
        sched = _closure_case(4, [(1, 2, 1), (1, 1, 1)], {1: one, 2: two}, {1, 2})
        assert sched.segments == ((1, 3, 1),) and type(sched.segments[0][0]) is kind
        sched = _closure_case(4, [(1, 2, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1)],
                              {1: F(2), 2: F(3), 3: two, 4: one}, {1, 2, 3, 4})
        assert sched.segments == ((1, 4, 1),) and type(sched.segments[0][0]) is kind
        # The machine entries pass the profile's own values through.
        inst = _inst(4, (1, 2, 1), (1, 1, 1))
        segment = solve_machine_dp(inst, Profile.from_dict({1: one, 2: two})).segments[0]
        assert segment == (1, 3, 1) and type(segment[0]) is kind


def _fraction_core(inst, td):
    """(wden, rows, base_scaled, zero_ids) of a core, read in `Fraction`
    arithmetic job by job, as `MachineCache.__init__` used to read them."""
    wden = math.lcm(*[j.weight.denominator for j in inst.jobs])

    def ticks(x):
        q, r = divmod(td, x.denominator)
        if r:
            raise InternalFailure(f"time {x} is off the time scale 1/{td}")
        return x.numerator * q

    def scaled(x):
        return x.numerator * (wden // x.denominator)

    cix = {c: i for i, c in enumerate(inst.color_ids)}
    rows = [(p, ticks(j.length), j.id, scaled(j.weight), cix[j.color])
            for p, j in enumerate(inst.jobs) if j.length > 0]
    zero = [j for j in inst.jobs if j.length == 0]
    return wden, rows, sum(scaled(j.weight) for j in zero), frozenset(j.id for j in zero)


def test_integer_core_matches_the_fraction_reading():
    """On random-family instances with some lengths and weights set to 0
    and some whole ones given as ints, the core built from integer ratios
    holds the rows, `wden`, `base_scaled` and `zero_ids` of the `Fraction`
    reading, all ints, on the first scale and on a finer one, and so do the
    tables derived from them: `color_index`, `zero_per`, and the game
    tables `totals`, `lens` and `bounds`, which `_build_game_tables` builds
    from the rows and ranges without reading a job's length, weight or
    window again (no `_ticks` or `scaled` call). `_scaled` reads int and
    `Fraction` starts alike. An off-scale length raises the same message."""
    tally = collections.Counter()
    for seed in range(60):
        rng = random.Random(f"core:{seed}")
        family = FAMILIES[seed % len(FAMILIES)]
        n = 1 + seed % 12
        raw = random_instance(family, n, n if family == "single" else min(n, 3),
                              2 + seed % 4, seed)
        jobs = []
        for j in raw.jobs:
            length = F(0) if rng.random() < 0.2 else j.length
            weight = F(0) if rng.random() < 0.2 else j.weight
            if rng.random() < 0.5:  # whole values as ints
                length, weight = (int(x) if x.denominator == 1 else x
                                  for x in (length, weight))
            jobs.append(Job(j.id, j.color, length, weight, j.window))
        inst = validate_instance(Instance(raw.horizon, tuple(jobs)))
        tally["int"] += any(type(x) is int for j in inst.jobs for x in (j.length, j.weight))
        tally["zero length"] += any(j.length == 0 for j in inst.jobs)
        tally["zero weight"] += any(j.weight == 0 and j.length for j in inst.jobs)
        tally["window"] += any(j.window for j in inst.jobs)
        td = machine.MachineCache.of(inst).td
        for scale in (td, 3 * td):
            core = machine.MachineCache(inst, scale)
            got = (core.wden, core.rows, core.base_scaled, core.zero_ids)
            assert got == _fraction_core(inst, scale)
            assert all(type(x) is int for row in core.rows for x in row)
            assert type(core.base_scaled) is int and type(core.wden) is int
            cix = {c: i for i, c in enumerate(inst.color_ids)}
            zero_per, totals = [0] * len(cix), [0] * len(cix)
            for j in inst.jobs:
                totals[cix[j.color]] += j.weight * core.wden
                zero_per[cix[j.color]] += j.weight * core.wden if j.length == 0 else 0
            bounds = {c: [] for c in cix}
            for ids_ in machine._job_groups(inst):
                j = inst.job(ids_[0])
                bounds[j.color].append((j.release * scale,
                                        (j.due(inst.horizon) - j.length) * scale,
                                        j.length * scale))
            core.groups  # builds the game tables
            assert core.color_index == cix and core.zero_per == zero_per
            assert core.totals == tuple(totals) and core.bounds == bounds
            assert core.lens == [j.length * scale for j in inst.jobs]
            assert all(type(x) is int for x in itertools.chain(
                core.zero_per, core.totals, core.lens, *sum(core.bounds.values(), [])))
        starts = random_profile(inst, seed).as_dict()
        starts = {jid: int(x) if x.denominator == 1 and jid % 2 else x
                  for jid, x in starts.items()}
        st, times = _scaled(inst, starts)
        assert times == [starts[j.id].numerator * (st.td // starts[j.id].denominator)
                         for j in inst.jobs]
    assert all(tally[k] for k in ("int", "zero length", "zero weight", "window")), tally
    tree = ast.parse(pathlib.Path(machine.__file__).read_text())
    (build,) = [fn for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "MachineCache"
                for fn in cls.body if getattr(fn, "name", None) == "_build_game_tables"]
    named = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(build)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert named.isdisjoint({"_ticks", "scaled", "length", "weight", "window", "release",
                             "due"}), named
    inst = _inst(3, (1, F(1, 3), 1), (2, 1, 1))
    message = re.escape("time 1/3 is off the time scale 1/4")
    with pytest.raises(InternalFailure, match=message):
        machine.MachineCache(inst, 4)
    with pytest.raises(InternalFailure, match=message):
        _fraction_core(inst, 4)


def test_closure_raises_on_an_uncounted_nested_job():
    # Job 2 ([0, 1), weight 1) lies inside job 1 ([0, 2)) of its own color,
    # but the mask covers job 1 alone: the closure would add weight the
    # value `top` does not count. At weight 0 the same job is a free addition.
    for weight, outcome in ((1, "closure pass found uncounted positive weight"),
                            (0, frozenset({1, 2}))):
        inst = _inst(2, (1, 2, 1), (1, 1, weight))
        starts = {1: F(0), 2: F(0)}
        st, times = _scaled(inst, starts)
        view = _view(st.rows, times)  # finish order: job 2, then job 1
        if isinstance(outcome, str):
            with pytest.raises(InternalFailure, match=outcome):
                _closure(st, starts, 1, 0b10, view)
        else:
            sched = _closure(st, starts, 1, 0b10, view)
            assert sched.covered == outcome and sched.segments == ((0, 2, 1),)


_INCONSISTENT_CLOSURE = """
from fractions import Fraction as F
from intervalgames import Instance, InternalFailure, Job, validate_instance
from intervalgames.machine import _closure, _scaled, _view
inst = validate_instance(Instance(F(4), (Job(1, 1, F(2), F(1)), Job(2, 2, F(2), F(1)))))
starts = {1: F(0), 2: F(1)}  # [0,2) and [1,3) overlap
st, times = _scaled(inst, starts)
try:
    _closure(st, starts, 2, 0b11, _view(st.rows, times))
except InternalFailure as exc:
    print("InternalFailure:", exc)
# A window search that takes every earlier job as ending by s[i] double-counts
# job 2, nested in both job 1 and job 3; the memo path's credit check sees it.
from intervalgames import machine
machine.bisect_right = lambda f, x, lo, hi: hi
inst = validate_instance(Instance(F(4), (Job(1, 1, F(2), F(1)), Job(2, 1, F(1), F(1)),
                                         Job(3, 1, F(2), F(1)))))
cache = machine.MachineCache.of(inst)
try:
    cache.evaluate_key(cache.key({1: F(0), 2: F(1), 3: F(1)}))
except InternalFailure as exc:
    print("InternalFailure:", exc)
"""


def test_closure_invariant_survives_optimize_flag():
    src = os.path.dirname(os.path.dirname(intervalgames.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", _INCONSISTENT_CLOSURE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("InternalFailure: covered jobs of different colors")
    assert "\nInternalFailure: dp credit mismatch" in done.stdout


def test_no_bare_assert_in_package():
    """Invariants raise `InternalFailure`, since `python -O` strips asserts."""
    files = sorted(pathlib.Path(intervalgames.__file__).parent.glob("*.py"))
    assert any(path.name == "machine.py" for path in files)
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_core_changes_its_time_scale_after_it_is_built():
    """Nothing in the package writes a core's `td` or `rows` outside
    `MachineCache.__init__`, by assignment, `setattr` or `del`: a search that
    holds a core keeps its scale, and a finer profile gets a new core."""
    files = sorted(pathlib.Path(intervalgames.__file__).parent.glob("*.py"))
    writes = collections.Counter()
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        init = {id(node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "MachineCache"
                for fn in cls.body if getattr(fn, "name", None) == "__init__"
                for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                name = node.attr
            elif (isinstance(node, ast.Call) and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  in ("setattr", "__setattr__")):
                name = node.args[1].value
            else:
                continue
            if name in ("td", "rows"):
                where = "__init__" if id(node) in init else f"{path.name}:{node.lineno}"
                writes[where] += 1
    assert writes == {"__init__": 2}


def test_an_off_scale_machine_entry_replaces_the_core_once(monkeypatch):
    """A machine entry whose start is off the stored core's scale gets its
    core from `MachineCache.of`, as a search entry does: the new core fits
    the start, and a second call builds no core and runs the DP on that
    core's own rows. A start for an unknown job does not widen the scale.
    The machine entries used to widen a private copy of the rows per call."""
    inst = _inst(3, (1, 1, 1), (2, 1, 1), (1, 1, 2))  # unit: the core is on quarters
    profile = Profile.from_dict({1: F(1, 3), 2: F(1), 3: F(2)})
    built, seen_rows = [], []
    init, dp_core = machine.MachineCache.__init__, machine._dp_core

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    def recording(rows, times, *args):
        seen_rows.append(rows)
        return dp_core(rows, times, *args)

    monkeypatch.setattr(machine.MachineCache, "__init__", counting)
    monkeypatch.setattr(machine, "_dp_core", recording)
    assert machine.MachineCache.of(inst).td == 4
    first = solve_machine_dp(inst, profile)
    core = machine.MachineCache.of(inst)
    assert core.td == 12 and machine.MachineCache.of(inst, [F(1, 3)]) is core
    assert len(built) == 2 and built[-1] is core
    extra = Profile.from_dict({**profile.as_dict(), 9: F(1, 7)})
    for again in (profile, extra):
        assert solve_machine_dp(inst, again) == first
    assert len(built) == 2 and machine.MachineCache.of(inst) is core
    assert len(seen_rows) == 3 and all(rows is core.rows for rows in seen_rows)
    assert first == solve_machine_dp(copy.copy(inst), profile)


def test_only_the_core_picks_a_time_scale():
    """`MachineCache.of` is the one place that picks a scale for `Fraction`
    input: `_time_lcm` is called only by `of`, the global grid
    (`_grid_ticks`) and the knapsack optimum, and `math.lcm` only by
    `_time_lcm` and the core's constructor and `of`. `_scaled` and
    `build_grid` used to pick scales of their own."""
    files = sorted(pathlib.Path(intervalgames.__file__).parent.glob("*.py"))
    callers = collections.defaultdict(set)

    def visit(node, where):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "_time_lcm":
                callers["_time_lcm"].add(where)
            if (isinstance(func, ast.Attribute) and func.attr == "lcm"
                    and getattr(func.value, "id", None) == "math"):
                callers["math.lcm"].add(where)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    for path in files:
        visit(ast.parse(path.read_text(), str(path)), "")
    assert callers == {
        "_time_lcm": {"MachineCache.of", "_grid_ticks", "social_optimum_single_knapsack"},
        "math.lcm": {"_time_lcm", "MachineCache.__init__", "MachineCache.of"}}


def test_game_tables_are_published_in_one_step():
    """`MachineCache._build_game_tables` writes no attribute after `_groups`,
    whose write marks the tables built: a search that reaches the core
    before that write builds the tables itself, and one after it finds every
    table."""
    tree = ast.parse(pathlib.Path(machine.__file__).read_text())
    (build,) = [fn for cls in tree.body
                if isinstance(cls, ast.ClassDef) and cls.name == "MachineCache"
                for fn in cls.body if getattr(fn, "name", None) == "_build_game_tables"]
    writes = sorted((node.lineno, node.col_offset, node.attr) for node in ast.walk(build)
                    if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load))
    names = [name for *_, name in writes]
    assert names.count("_groups") == 1 and names[-1] == "_groups", writes
    assert {"_cache", "grid_cache", "bounds", "other_pos"} <= set(names)


def test_every_private_helper_has_a_caller():
    """A module-level `_name` function or class is referenced somewhere in
    the package outside its own definition, so no helper outlives its last
    caller."""
    files = sorted(pathlib.Path(intervalgames.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in files]
    helpers = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert any(node.name == "_dp_core" for node in helpers)

    def references(root) -> collections.Counter:
        return collections.Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(root) if isinstance(node, (ast.Name, ast.Attribute)))

    everywhere = sum(map(references, trees), collections.Counter())
    assert [node.name for node in helpers
            if everywhere[node.name] == references(node)[node.name]] == []
