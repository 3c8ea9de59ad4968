"""Shared helpers: fixture-fact verification and schedule invariant checks."""

from fractions import Fraction

import pytest

from intervalgames import (Fixture, Instance, Job, Profile, best_response,
                           enumerate_grid_ne, fixture, is_nash,
                           social_optimum_enumerate, solve_machine_dp, utilities,
                           validate_instance)
from intervalgames import equilibrium, machine
from intervalgames.machine import MachineCache


class KeyLog(list):
    """The keys `MachineCache.evaluate_key` was asked for, in call order;
    `hits` counts those the search call's memo already held."""

    hits = 0


@pytest.fixture
def evaluated_keys(monkeypatch):
    """Record every `MachineCache.evaluate_key` call in a `KeyLog` for the
    test's duration."""
    log = KeyLog()
    evaluate_key = MachineCache.evaluate_key

    def recording(self, memo, key):
        log.append(key)
        log.hits += key in memo
        return evaluate_key(self, memo, key)

    monkeypatch.setattr(MachineCache, "evaluate_key", recording)
    return log


@pytest.fixture
def walked_keys(monkeypatch):
    """Record the key of every combination a best-mode walk scores, in walk
    order, for the test's duration. The walk scores each combination once,
    with the route `machine._background` gives it. The wrapped route hands
    the walk the candidate starts as its tables, so its score sees each
    combination's starts; it answers from the real route's masks, and defers
    where no route was built."""
    log = []
    route = machine._background

    def recording(st, key, pix, walk):
        built = route(st, key, pix, walk)
        positions = [ps for ps, _ in walk]
        masks = [dict(zip(times, table)) for (_, times), table in zip(walk, built[0])
                 ] if built else []

        def score(starts):
            log.append(equilibrium._put(key, positions, starts))
            return built and built[1](tuple(tuple(map(m.__getitem__, tup))
                                            for m, tup in zip(masks, starts)))
        return [times for _, times in walk], score

    monkeypatch.setattr(machine, "_background", recording)
    return log


def core_keys(inst, *profiles):
    """(the instance's solver core on a scale that fits every start map in
    `profiles`, with its game tables built, then their keys): what a search
    entry searches from."""
    for starts in profiles:
        cache = MachineCache.of(inst, starts.values())
    entries = [equilibrium._entry(inst, Profile.from_dict(starts)) for starts in profiles]
    assert all(core is cache for core, _ in entries) and cache.groups
    return (cache, *[key for _, key in entries])


def merged_lists(cache, key, player):
    """(a new grid record of the player against the other placements in
    `key`, its candidate lists with the player's starts in `key` merged in):
    the lists a best response or `is_nash` search walks."""
    record = equilibrium._grid_record(cache, key, player)
    return record, equilibrium._coded_grid(cache, key, player, record)


def assert_fresh_core(core, fresh):
    """Every slot of the solver core `core` equals that of `fresh`, a core
    of an equal instance: a core holds only the tables it builds once. The
    record-key functions are compared by what they read from one key."""
    assert core is not fresh and core.groups and fresh.groups
    for name in MachineCache.__slots__:
        mine, theirs = getattr(core, name), getattr(fresh, name)
        if name == "_record_key":
            key = tuple(range(len(core.ids)))
            mine, theirs = ({c: f(key) for c, f in t.items()} for t in (mine, theirs))
        assert mine == theirs, name


def plain_scan(inst, cache, memo, players):
    """`_scan`'s rows for `players`, each searching by a first-mode
    `_player_search` on the call memo `memo`, as grid-NE enumeration
    searches for a player with several jobs."""
    return equilibrium._scan(inst, cache, players, {
        c: equilibrium._first_search(inst, cache, memo, c, False) for c in players})


def guard_instances():
    """One instance per guard of grid-NE enumeration, with the start of its
    GuardError message: the joint grid, a player's job count, and the
    candidate count of one job group."""
    many_jobs = [Job(i, 1, Fraction(1), Fraction(1)) for i in range(1, 10)]
    # Weight 10 beats player 1's nine unit weights, so player 1 is not covered.
    many_jobs.append(Job(10, 2, Fraction(1), Fraction(10)))
    # Player 2's 35 pinned jobs give player 1's job 73 aligned candidates.
    wide_grid = [Job(1, 1, Fraction(1), Fraction(1))]
    wide_grid += [Job(k + 2, 2, Fraction(1), Fraction(2), (Fraction(k), Fraction(k + 1)))
                  for k in range(35)]
    return {
        "joint_grid": (fixture("pos_c", c=3).instance, "joint grid holds"),
        "player_jobs": (validate_instance(Instance(Fraction(1), tuple(many_jobs))),
                        "player 1 controls 9 jobs"),
        "group_grid": (validate_instance(Instance(Fraction(40), tuple(wide_grid))),
                       r"jobs \[1\] have 73 candidate starts"),
    }


# Job entries whose id or color is not a JSON integer. Before they were
# type-checked, a list id raised TypeError (unhashable) and mixed str/int ids
# of one color raised TypeError (unorderable) while the `Instance` was built,
# and `"id": true` was read as job 1.
BAD_ID_JOBS = {
    "list_id": [{"id": [1], "color": 1, "length": "1", "weight": "1"}],
    "mixed_ids": [{"id": "1", "color": 1, "length": "1", "weight": "1"},
                  {"id": 2, "color": 1, "length": "1", "weight": "1"}],
    "true_id": [{"id": True, "color": 1, "length": "1", "weight": "1"}],
    "list_color": [{"id": 1, "color": [1], "length": "1", "weight": "1"}],
    "true_color": [{"id": 1, "color": True, "length": "1", "weight": "1"}],
}


def check_schedule_invariants(instance, profile, schedule):
    """Segments ordered and disjoint inside [0, T); covered jobs nested in
    segments of their color; value is the covered weight; closure holds."""
    T = instance.horizon
    starts = profile.as_dict()
    prev_end = Fraction(0)
    for a, b, _ in schedule.segments:
        assert Fraction(0) <= a < b <= T
        assert a >= prev_end
        prev_end = b
    total = Fraction(0)
    for jid in schedule.covered:
        j = instance.job(jid)
        total += j.weight
        if j.length == 0:
            continue
        s = starts[jid]
        assert any(c == j.color and a <= s and s + j.length <= b
                   for a, b, c in schedule.segments), f"job {jid} not inside a segment"
    assert total == schedule.value
    # no two covered jobs of different colors overlap
    covered = sorted(schedule.covered)
    for x in range(len(covered)):
        jx = instance.job(covered[x])
        for y in range(x + 1, len(covered)):
            jy = instance.job(covered[y])
            if jx.color == jy.color:
                continue
            sx, sy = starts[jx.id], starts[jy.id]
            assert not (max(sx, sy) < min(sx + jx.length, sy + jy.length))
    # same-color closure: anything nested inside a segment of its color is covered
    for j in instance.jobs:
        if j.id in schedule.covered or j.length == 0:
            continue
        s = starts[j.id]
        nested = any(c == j.color and a <= s and s + j.length <= b
                     for a, b, c in schedule.segments)
        assert not nested, f"job {j.id} nested in its color's segment but uncovered"


def check_fact(fx: Fixture, fact, *, resolution=1):
    """Verify one fixture fact against the solver modules."""
    inst = fx.instance
    if fact.kind == "opt_value":
        _, opt = social_optimum_enumerate(inst)
        assert opt == fact.payload, f"{fx.name}: opt {opt} != {fact.payload}"
    elif fact.kind == "ne_value":
        profile = fx.notable_profiles[fact.profile]
        assert is_nash(inst, profile) is None, f"{fx.name}: {fact.profile} unstable"
        value = solve_machine_dp(inst, profile).value
        assert value == fact.payload
    elif fact.kind == "utilities":
        profile = fx.notable_profiles[fact.profile]
        sched = solve_machine_dp(inst, profile)
        assert utilities(inst, profile, sched).as_tuple() == tuple(fact.payload)
    elif fact.kind in ("no_ne", "has_ne"):
        found = enumerate_grid_ne(inst, resolution=resolution)
        if fact.kind == "no_ne":
            assert found == [], f"{fx.name}: expected no grid NE, found {len(found)}"
        else:
            ne_profile = fx.notable_profiles.get("ne")
            if ne_profile is not None:
                assert is_nash(inst, ne_profile) is None
            else:
                assert found, f"{fx.name}: expected a grid NE"
    elif fact.kind in ("poa", "pos"):
        _, opt = social_optimum_enumerate(inst)
        profile = fx.notable_profiles[fact.profile]
        value = solve_machine_dp(inst, profile).value
        assert opt / value == fact.payload
    elif fact.kind == "grid_poa":
        _, opt = social_optimum_enumerate(inst)
        found = enumerate_grid_ne(inst, resolution=resolution)
        assert found, f"{fx.name}: no grid NE for grid_poa"
        assert opt / found[0][1] == fact.payload
    elif fact.kind == "grid_ne_values":
        found = enumerate_grid_ne(inst, resolution=resolution)
        assert sorted(set(v for _, v in found)) == sorted(set(fact.payload))
    elif fact.kind == "machine_value":
        profile = fx.notable_profiles[fact.profile]
        assert solve_machine_dp(inst, profile).value == fact.payload
    elif fact.kind == "stable_players":
        profile = fx.notable_profiles[fact.profile]
        assert is_nash(inst, profile, players=fact.payload) is None
    elif fact.kind == "value_dominates":
        kept, alternative = fact.payload
        profile = fx.notable_profiles[fact.profile]
        assert solve_machine_dp(inst, profile).value == kept
        assert kept > alternative
    elif fact.kind == "br_value":
        profile = fx.notable_profiles[fact.profile]
        _, u = best_response(inst, profile, fact.player)
        assert u == fact.payload, f"{fx.name}: best response {u} != {fact.payload}"
    elif fact.kind == "br_below":
        profile = fx.notable_profiles[fact.profile]
        _, u = best_response(inst, profile, fact.player)
        assert u < fact.payload, f"{fx.name}: best response {u} !< {fact.payload}"
    else:
        pytest.fail(f"unknown fact kind {fact.kind}")
