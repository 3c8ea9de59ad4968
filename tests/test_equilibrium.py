"""Grids, best responses, NE checks, dynamics, constructions, analysis."""

from fractions import Fraction as F

import pytest

from intervalgames import (GuardError, Instance, Job, Profile,
                           UnsupportedInstanceError, analyze, applicable_bounds,
                           best_response, brd, build_grid, enumerate_grid_ne,
                           fixture, from_partition_decide, grid_profiles,
                           is_nash, joint_grid_size, ne_single, ne_unit,
                           random_instance, solve_machine_dp, tightest_bound,
                           utilities, validate_instance, verify_deviation)
from conftest import guard_instances


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
    others = {1: F(0), 3: F(1)}
    grid = build_grid(fx.instance, others, player=1)
    assert any(F(0) < s < F(1) for s in grid.starts(2))


def test_grid_tags():
    inst = _inst(2, (1, 1, 1), (2, 1, 1))
    grid = build_grid(inst, {2: F(0)}, player=1)
    tags = {tag for _, cands in grid.entries for _, tag in cands}
    assert "endpoint-aligned" in tags and "interior-shifted" in tags


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


def test_enumerate_matches_plain_search():
    instances = [fixture(name, **params).instance for name, params in (
        ("ex1", {}), ("prop_no_ne", {}), ("pos_two", {}),
        ("poa_tight", {"n": 5, "epsilon": F(1, 10)}), ("unit_tight", {"c": 4}),
        ("nonsymm_no_ne", {}))]
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


@pytest.mark.parametrize("name", sorted(guard_instances()))
def test_enumerate_guards_raise(name):
    inst, message = guard_instances()[name]
    with pytest.raises(GuardError, match=message):
        enumerate_grid_ne(inst)


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


def test_analyze_rejects_windows():
    fx = fixture("nonsymm_no_ne")
    with pytest.raises(UnsupportedInstanceError):
        analyze(fx.instance)


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
