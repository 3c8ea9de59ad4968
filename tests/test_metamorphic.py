"""Metamorphic oracles for the search entries.

Each game is searched as given and under four transformations whose effect
on the answers is known: every time times 3 (starts scale, values stay),
every weight times 2/3 (values and utilities scale), the colors rotated and
renumbered from 100 (the same answers, by the rotated players), and every
job id plus 10 (the id order is kept, so the same answers, re-keyed). No
oracle runs: the searches check each other's integer bookkeeping (the time
scale, the weight denominator, key positions and the tie rule by job id).

Renaming colors changes the order in which `is_nash` scans players and
`brd` moves them, so under that transformation only whether a deviation
exists is compared; the other three keep the color order, and their
witnesses and dynamics are compared whole.
"""

from dataclasses import replace
from fractions import Fraction as F

import pytest

from intervalgames import (BrdOutcome, Deviation, Instance, Job, Profile,
                           UnsupportedInstanceError, analyze, brd,
                           enumerate_grid_ne, fixture, from_partition_br,
                           from_partition_decide, from_partition_nonsymm,
                           is_nash, joint_grid_size, random_instance,
                           random_profile)


def _games():
    """About twenty games, by name: the fixtures that enumerate quickly,
    partition games, and seeded family draws with small joint grids."""
    games = {name: fixture(name, **params).instance for name, params in (
        ("ex1", {}), ("prop_no_ne", {}), ("pos_two", {}),
        ("poa_tight", {"n": 5, "epsilon": F(1, 10)}), ("unit_tight", {"c": 4}),
        ("nonsymm_no_ne", {}))}
    for values in ((1, 2, 3), (2, 2, 2), (1, 1, 3, 3)):
        games[f"decide{values}"] = from_partition_decide(values).instance
    for build in (from_partition_br, from_partition_nonsymm):
        games[f"{build.__name__[5:]}(1, 1)"] = build((1, 1)).instance
    shapes = (("single", 3, 3, 3), ("unit", 3, 2, 2), ("prop", 3, 2, 3),
              ("general", 3, 2, 2), ("nonsymm", 3, 2, 3), ("general", 4, 2, 3),
              ("nonsymm", 4, 2, 2), ("general", 3, 3, 2), ("prop", 4, 2, 2))
    for k, shape in enumerate(shapes):
        seed = 7000 + 100 * k
        while joint_grid_size(inst := random_instance(*shape, seed)) > 200:
            seed += 1
        games[f"{shape[0]}{shape[1:]}@{seed}"] = inst
    return games


GAMES = _games()


class Transform:
    """A game's transformed copy and the maps that carry an answer of the
    original to the answer expected of the copy."""

    def __init__(self, inst: Instance, kind: str):
        colors = inst.color_ids
        self.time = (lambda x: 3 * x) if kind == "time" else (lambda x: x)
        self.value = (lambda x: x * F(2, 3)) if kind == "weight" else (lambda x: x)
        self.job = (lambda i: i + 10) if kind == "ids" else (lambda i: i)
        # Rotated and renumbered: the i-th color becomes 100 + (i + 1) mod k.
        rotated = {c: 100 + (i + 1) % len(colors) for i, c in enumerate(colors)}
        self.player = rotated.__getitem__ if kind == "colors" else (lambda c: c)
        self.keeps_color_order = kind != "colors"
        self.keeps_classes = kind in ("colors", "ids")
        t = self.time
        self.instance = Instance(t(inst.horizon), tuple(
            Job(self.job(j.id), self.player(j.color), t(j.length), self.value(j.weight),
                None if j.window is None else (t(j.window[0]), t(j.window[1])))
            for j in inst.jobs))

    def profile(self, profile: Profile) -> Profile:
        return Profile.from_dict({self.job(i): self.time(s) for i, s in profile.placements})

    def deviation(self, dev):
        if dev is None:
            return None
        return Deviation(self.player(dev.player),
                         tuple((self.job(i), self.time(s)) for i, s in dev.new_strategy),
                         self.value(dev.utility_before), self.value(dev.utility_after))

    def outcome(self, out: BrdOutcome) -> BrdOutcome:
        return BrdOutcome(
            out.status, out.final and self.profile(out.final),
            out.cycle and tuple(map(self.profile, out.cycle)), out.iterations,
            tuple((self.player(p), self.value(d), self.value(v)) for p, d, v in out.trace))


def _analysis(inst):
    """`analyze`'s report, or the type of the error it raises."""
    try:
        return analyze(inst)
    except UnsupportedInstanceError as exc:
        return type(exc)


@pytest.mark.parametrize("name", list(GAMES))
def test_search_answers_follow_the_four_transformations(name):
    inst = GAMES[name]
    found = enumerate_grid_ne(inst)
    profiles = [random_profile(inst, seed) for seed in (0, 1)] + [p for p, _ in found[:1]]
    # Per profile: each mode's `is_nash` answer and the dynamics of each order.
    searched = [(p, [is_nash(inst, p, first_improvement=m) for m in (False, True)],
                 [brd(inst, p, order) for order in ("round_robin", "first_improving")])
                for p in profiles]
    report = _analysis(inst)
    for kind in ("time", "weight", "colors", "ids"):
        tr = Transform(inst, kind)
        other = tr.instance
        assert enumerate_grid_ne(other) == [
            (tr.profile(p), tr.value(v)) for p, v in found], kind
        for p, devs, outcomes in searched:
            q = tr.profile(p)
            for first, dev in zip((False, True), devs):
                got = is_nash(other, q, first_improvement=first)
                if tr.keeps_color_order:
                    assert got == tr.deviation(dev), (kind, p, first)
                else:
                    assert (got is None) == (dev is None), (kind, p, first)
            for order, out in zip(("round_robin", "first_improving"), outcomes):
                if tr.keeps_color_order:
                    assert brd(other, q, order) == tr.outcome(out), (kind, p, order)
                else:
                    # One accepted move at most: whether any player improves.
                    moved = brd(other, q, order, max_iters=1).iterations
                    assert moved == min(out.iterations, 1), (kind, p, order)
        got = _analysis(other)
        if isinstance(report, type):
            assert got is report, kind
            continue
        expected = replace(report, opt=tr.value(report.opt),
                           ne_values=tuple(map(tr.value, report.ne_values)),
                           worst_ne=report.worst_ne and tr.profile(report.worst_ne),
                           best_ne=report.best_ne and tr.profile(report.best_ne))
        if not tr.keeps_classes:  # scaling a time or a weight can end `unit` or `prop`
            expected = replace(expected, bound_name=got.bound_name,
                               bound_value=got.bound_value,
                               bound_satisfied=got.bound_satisfied,
                               instance_classes=got.instance_classes)
        assert got == expected, kind
