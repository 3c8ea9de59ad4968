"""Social optimum: the best achievable total covered weight over all profiles.

A socially optimal placement can always be reshaped so the machine serves each
color in at most one interval, and the interval granted to a color can be
assumed to equal one of its job lengths. That structure yields an exact
enumeration over per-color counts, a pseudo-polynomial knapsack route for
one-job-per-color games, and a subset-enumeration oracle. Jobs with feasibility
windows break the reshaping argument, so all three routes reject them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .machine import BRUTE_FORCE_MAX_JOBS, _ticks, _time_lcm
from .model import (ZERO, GuardError, Instance, InternalFailure, Job, Profile,
                    UnsupportedInstanceError, _decimal, rational_str)

ENUMERATION_MAX_TUPLES = 10 ** 7
KNAPSACK_MAX_CAPACITY = 10 ** 6


def _require_symmetric(instance: Instance, op: str):
    if instance.has_windows:
        raise UnsupportedInstanceError(
            f"{op} does not support feasibility windows: the one-interval-per-color "
            f"reshaping argument fails when jobs cannot be shifted freely")


def _sorted_by_length(jobs: Sequence[Job]) -> list[Job]:
    return sorted(jobs, key=lambda j: (j.length, j.id))


def _witness_profile(instance: Instance, chosen_counts: dict[int, int]) -> Profile:
    """Back-to-back color blocks from time 0; within a block the chosen
    (shortest) jobs start at the block start. Rejected jobs are stacked at the
    start of the first positive block, where they cannot change the value."""
    starts: dict[int, Fraction] = {}
    offset = ZERO
    for color in instance.color_ids:
        count = chosen_counts.get(color, 0)
        if count == 0:
            continue
        ranked = _sorted_by_length(instance.jobs_of_color(color))
        block_len = ranked[count - 1].length
        for j in ranked[:count]:
            starts[j.id] = offset
        offset += block_len
    for j in instance.jobs:
        if j.id not in starts:
            starts[j.id] = ZERO
    return Profile.from_dict(starts)


def social_optimum_enumerate(instance: Instance,
                             force: bool = False) -> tuple[Profile, Fraction]:
    """Exact optimum by enumerating per-color counts (a_1, ..., a_c)."""
    _require_symmetric(instance, "social_optimum_enumerate")
    colors = instance.color_ids
    per_color = []
    size = 1
    for color in colors:
        ranked = _sorted_by_length(instance.jobs_of_color(color))
        lengths = [ZERO]
        weights = [ZERO]
        acc = ZERO
        for j in ranked:
            acc += j.weight
            lengths.append(j.length)
            weights.append(acc)
        per_color.append((color, lengths, weights))
        size *= len(lengths)
    if size > ENUMERATION_MAX_TUPLES and not force:
        raise GuardError(f"enumeration would visit {_decimal(size)} tuples "
                         f"(limit {ENUMERATION_MAX_TUPLES})")

    T = instance.horizon
    best_value = ZERO
    best_counts: tuple[int, ...] = tuple(0 for _ in colors)

    def recurse(idx: int, budget: Fraction, value: Fraction, counts: list[int]):
        nonlocal best_value, best_counts
        if idx == len(per_color):
            tup = tuple(counts)
            if value > best_value or (value == best_value and tup < best_counts):
                best_value, best_counts = value, tup
            return
        _, lengths, weights = per_color[idx]
        for a in range(len(lengths)):
            if lengths[a] > budget:
                break  # lengths ascend; nothing later fits either
            counts.append(a)
            recurse(idx + 1, budget - lengths[a], value + weights[a], counts)
            counts.pop()

    recurse(0, T, ZERO, [])
    chosen = {color: best_counts[i] for i, color in enumerate(colors)}
    return _witness_profile(instance, chosen), best_value


def social_optimum_single_knapsack(instance: Instance,
                                   force: bool = False) -> tuple[Profile, Fraction]:
    """Optimum for one-job-per-color games via an exact 0-1 knapsack DP
    over integer capacities (lengths scaled by their common denominator)."""
    _require_symmetric(instance, "social_optimum_single_knapsack")
    if not instance.is_single:
        raise UnsupportedInstanceError(
            "knapsack route requires exactly one job per color")
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    denom = _time_lcm(instance)  # windows are rejected: the lcm of T and the lengths
    cap = _ticks(instance.horizon, denom)
    if cap > KNAPSACK_MAX_CAPACITY and not force:
        raise GuardError(f"scaled capacity {_decimal(cap)} exceeds {KNAPSACK_MAX_CAPACITY}")

    sizes = [_ticks(j.length, denom) for j in jobs]
    n = len(jobs)
    # Suffix tables: best[i][c] = best value from jobs i.. with capacity c.
    best = [[ZERO] * (cap + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = best[i]
        nxt = best[i + 1]
        size_i, w_i = sizes[i], jobs[i].weight
        for c in range(cap + 1):
            v = nxt[c]
            if size_i <= c:
                taken = nxt[c - size_i] + w_i
                if taken > v:
                    v = taken
            row[c] = v
    packed = []
    c = cap
    for i in range(n):
        if sizes[i] <= c and best[i + 1][c - sizes[i]] + jobs[i].weight >= best[i][c]:
            packed.append(jobs[i])  # ties take the earlier id: lex-smallest pack
            c -= sizes[i]
    value = sum((j.weight for j in packed), ZERO)
    if value != best[0][cap]:
        raise InternalFailure(f"knapsack backtrack packed {rational_str(value)}, "
                              f"table holds {rational_str(best[0][cap])}")

    starts: dict[int, Fraction] = {}
    offset = ZERO
    for j in packed:
        starts[j.id] = offset
        offset += j.length
    for j in jobs:
        if j.id not in starts:
            starts[j.id] = ZERO
    return Profile.from_dict(starts), value


def social_optimum_bruteforce(instance: Instance, force: bool = False) -> Fraction:
    """Oracle: a covered set is jointly realizable iff the longest chosen job
    of each color fits into the horizon alongside the other colors' longest."""
    _require_symmetric(instance, "social_optimum_bruteforce")
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    n = len(jobs)
    if n > BRUTE_FORCE_MAX_JOBS and not force:
        raise GuardError(f"subset enumeration limited to {BRUTE_FORCE_MAX_JOBS} "
                         f"jobs, got {n}")
    T = instance.horizon
    best = ZERO
    suffix = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + jobs[i].weight

    def recurse(i: int, blocks: dict[int, Fraction], used: Fraction, value: Fraction):
        nonlocal best
        if value + suffix[i] <= best:
            return
        if i == n:
            best = value
            return
        j = jobs[i]
        have = blocks.get(j.color, ZERO)
        need = max(ZERO, j.length - have)
        if used + need <= T:
            blocks[j.color] = max(have, j.length)
            recurse(i + 1, blocks, used + need, value + j.weight)
            if have:
                blocks[j.color] = have
            else:
                del blocks[j.color]
        recurse(i + 1, blocks, used, value)

    recurse(0, {}, ZERO, ZERO)
    return best
