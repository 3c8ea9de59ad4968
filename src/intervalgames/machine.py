"""Machine-side solver: value-optimal machine configuration for a fixed profile.

Two independent routes compute the maximum total weight of covered jobs:
a dynamic program over jobs sorted by finish time, and a subset-enumeration
brute force used as an oracle in tests. Both apply the same pre-pass (jobs of
length zero occupy an empty interval, so they are always covered) and the
same post-pass (any job whose whole interval lies inside a busy segment of
its own color is covered for free).

Both routes and the post-pass compute in integers. `_scaled` writes every
start and finish of a profile as a numerator over one common denominator (the
lcm of the denominators of the lengths and of the starts) and every weight as
a numerator over the lcm of the weight denominators, so every comparison and
sum is exact. `Fraction`s appear only in the returned value and segment
endpoints.

Ties are broken by fixed rules. Among equal-valued candidates the DP keeps
the one whose last job has the smallest id, the empty configuration counting
as id 0, both when it picks a job's predecessor and when it picks the final
configuration (see `_dp_core`). The brute force keeps the lexicographically
smallest sorted tuple of covered ids. Solver invariants raise
`InternalFailure`, so they also hold under `python -O`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .model import GuardError, Instance, InternalFailure, Profile, Schedule

BRUTE_FORCE_MAX_JOBS = 20


def _ordered(instance: Instance, starts: dict[int, Fraction]):
    """Positive-length jobs sorted by (finish, id); zero-length jobs aside."""
    positive = [j for j in instance.jobs if j.length > 0]
    zero = [j for j in instance.jobs if j.length == 0]
    positive.sort(key=lambda j: (starts[j.id] + j.length, j.id))
    return positive, zero


def prev_index(instance: Instance, profile: Profile, job_id: int) -> int:
    """Id of the last job (in finish order) ending no later than this job
    starts, or 0 if none. Touching half-open intervals are compatible."""
    starts = profile.as_dict()
    jobs, _ = _ordered(instance, starts)
    s_j = starts[job_id]
    best = 0
    for k in jobs:
        if k.id == job_id:
            continue
        if starts[k.id] + k.length <= s_j:
            best = k.id  # scan is in finish order, so the last hit wins
    return best


def in_set(instance: Instance, profile: Profile, job_id: int) -> frozenset[int]:
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


class _Static:
    """Per-instance constants for the integer-scaled solver core."""

    __slots__ = ("ids", "rows", "len_den", "weight_den", "base_scaled",
                 "zero_ids")

    def __init__(self, instance: Instance):
        positive = [j for j in instance.jobs if j.length > 0]
        zero = [j for j in instance.jobs if j.length == 0]
        wd = math.lcm(*[j.weight.denominator for j in instance.jobs])
        ld = math.lcm(*[j.length.denominator for j in positive])
        self.ids = [j.id for j in positive]
        # (length numerator, length denominator, id, scaled weight, color)
        self.rows = [(j.length.numerator, j.length.denominator, j.id,
                      j.weight.numerator * (wd // j.weight.denominator), j.color)
                     for j in positive]
        self.len_den = ld
        self.weight_den = wd
        self.base_scaled = sum(j.weight.numerator * (wd // j.weight.denominator)
                               for j in zero)
        self.zero_ids = frozenset(j.id for j in zero)


_STATICS: dict[int, tuple] = {}


def _static_for(instance: Instance) -> _Static:
    key = id(instance)
    hit = _STATICS.get(key)
    if hit is not None and hit[0] is instance:
        return hit[1]
    static = _Static(instance)
    if len(_STATICS) > 4096:
        _STATICS.clear()
    _STATICS[key] = (instance, static)  # keeps the instance alive; id stays valid
    return static


def _scaled(instance: Instance, starts: dict[int, Fraction]):
    """Integer-scaled view of one profile's positive-length jobs, sorted by
    (finish, id): the tuple (starts, finishes, weights, colors, ids, td,
    static), where times are numerators over the common denominator td and
    weights numerators over static.weight_den. Exact."""
    st = _static_for(instance)
    xs = [starts[jid].as_integer_ratio() for jid in st.ids]
    td = math.lcm(st.len_den, *[d for _, d in xs])
    rows = sorted([(si + num * (td // den), jid, si, wi, ci)
                   for si, (num, den, jid, wi, ci)
                   in zip([num * (td // d) for num, d in xs], st.rows)])
    f, ids, s, w, col = zip(*rows) if rows else ((),) * 5
    return s, f, w, col, ids, td, st


def _dp_core(instance: Instance, starts: dict[int, Fraction]):
    """Return (value, covered mask over the view's finish order, scaled view)
    for the optimal configuration."""
    view = _scaled(instance, starts)
    s, f, w, col, ids, _, st = view
    n = len(s)

    # Cell i + 1 holds the best configuration whose last job is job i, and
    # back[i + 1] its predecessor cell (0 is the empty configuration).
    # Tie-break rule: a predecessor cell ranks by value, then by the smaller
    # id of its last job, the empty cell counting as id 0, so it wins every
    # tie. Ids are unique, so this is a total order, and neither the branch
    # (X or Y) nor the scan order can change the pick. The final pick uses
    # the same rule over all cells. best[p] is the rule's maximum over cells
    # 0..p, a prefix argmax.
    A = [0] * (n + 1)
    back = [0] * (n + 1)
    best = [(0, 0, 0)] * (n + 1)  # (value, last-job id, cell)
    nested = [0] * n  # bitmask of same-color jobs inside job i's interval
    top_v, top_id, top_cell = 0, 0, 0
    for i in range(n):
        si, fi, c = s[i], f[i], col[i]
        # One backward scan over the same-color jobs ending in (s[i], f[i]]
        # finds job i's nested set and branch Y's candidates: jobs k < i that
        # start before s[i]. Extending k's configuration adds the nested jobs
        # that end after f[k] (the others lie inside k's interval too).
        # Same-color jobs ending by s[i] would repeat a branch X candidate.
        # The window is found by bisection; other colors are skipped at once.
        mask = 0
        add = 0
        after = 0
        last_f = None
        y_v, y_id, y_k = -1, 0, 0
        p = bisect_right(f, si, 0, i)  # prev[i]: the jobs ending by s[i]
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
        # Branch X: the previous covered job ends by s[i], so it is one of
        # the first p jobs; best[p] is their best by the tie-break rule.
        best_v, best_id, best_k = best[p]
        best_v += add
        if y_v > best_v or (y_v == best_v and y_id < best_id):
            best_v, best_id, best_k = y_v, y_id, y_k
        A[i + 1] = best_v
        back[i + 1] = best_k
        if best_v > top_v or (best_v == top_v and ids[i] < top_id):
            top_v, top_id, top_cell = best_v, ids[i], i + 1
        best[i + 1] = (top_v, top_id, top_cell)

    # The final pick is the same ranking over every cell.
    covered_mask = 0
    cell = top_cell
    while cell != 0:
        covered_mask |= nested[cell - 1]
        cell = back[cell]
    if sum(w[k] for k in range(n) if (covered_mask >> k) & 1) != top_v:
        raise InternalFailure("dp credit mismatch: recurrence double-counted a job")
    return Fraction(st.base_scaled + top_v, st.weight_den), covered_mask, view


def _covered_ids(mask: int, view) -> frozenset[int]:
    ids, st = view[4], view[6]
    covered = set(st.zero_ids)
    covered.update(ids[k] for k in range(len(ids)) if (mask >> k) & 1)
    # Copied from a set, the frozenset's table is sized for its final count;
    # one grown item by item can be twice as large.
    return frozenset(covered)


def _brute_core(instance: Instance, starts: dict[int, Fraction], force: bool):
    view = _scaled(instance, starts)
    s, f, w, col, ids, _, st = view
    n = len(s)
    if n > BRUTE_FORCE_MAX_JOBS and not force:
        raise GuardError(f"brute-force machine solver limited to "
                         f"{BRUTE_FORCE_MAX_JOBS} jobs, got {n}")
    conflict = [0] * n
    for i in range(n):
        for k in range(n):
            if i != k and col[i] != col[k] \
                    and max(s[i], s[k]) < min(f[i], f[k]):
                conflict[i] |= 1 << k
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + w[i]

    best_val = 0
    best_set: tuple[int, ...] = ()
    best_mask = 0

    def search(i: int, mask: int, value: int, chosen: int):
        nonlocal best_val, best_set, best_mask
        if value + suffix[i] < best_val:
            return
        if i == n:
            key = tuple(sorted(ids[k] for k in range(n) if (chosen >> k) & 1))
            if value > best_val or (value == best_val and key < best_set):
                best_val, best_set, best_mask = value, key, chosen
            return
        if not (mask >> i) & 1:  # include first: favors low-id covers on ties
            search(i + 1, mask | conflict[i], value + w[i], chosen | 1 << i)
        search(i + 1, mask, value, chosen)

    search(0, 0, 0, 0)
    return Fraction(st.base_scaled + best_val, st.weight_den), best_mask, view


def _closure(starts: dict[int, Fraction], value: Fraction, mask: int,
             view) -> Schedule:
    """Merge covered intervals into maximal per-color segments, then cover
    every job nested inside a segment of its own color (free additions).

    Works on the scaled view; a segment's start is returned as the profile's
    own start of a covered job there, its end as a new `Fraction`."""
    s, f, w, col, ids, td, _ = view
    per_color: dict[int, list[tuple[int, int]]] = {}
    first: dict[int, int] = {}  # scaled start -> a covered job starting there
    for k in range(len(s)):
        if (mask >> k) & 1:
            per_color.setdefault(col[k], []).append((s[k], f[k]))
            first[s[k]] = ids[k]
    segments = []
    merged: dict[int, tuple[list[int], list[int]]] = {}
    for color, ivals in per_color.items():
        ivals.sort()
        lows, highs = merged[color] = ([], [])
        cur_s, cur_f = ivals[0]
        for a, b in ivals[1:]:
            if a <= cur_f:  # merge overlapping and touching same-color intervals
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
    for k in range(len(s)):
        if (mask >> k) & 1 or col[k] not in merged:
            continue
        lows, highs = merged[col[k]]
        j = bisect_right(lows, s[k]) - 1
        if j >= 0 and f[k] <= highs[j]:
            free |= 1 << k
            extra += w[k]
    if extra:
        raise InternalFailure("closure pass found uncounted positive weight "
                              "(solver bug)")
    return Schedule(_covered_ids(mask | free, view),
                    tuple((starts[first[a]], Fraction(b, td), c)
                          for a, b, c in segments), value)


def solve_machine_dp(instance: Instance, profile: Profile) -> Schedule:
    """Optimal machine configuration via dynamic programming over finish times."""
    starts = profile.as_dict()
    return _closure(starts, *_dp_core(instance, starts))


def solve_machine_bruteforce(instance: Instance, profile: Profile,
                             force: bool = False) -> Schedule:
    """Oracle: enumerate all cross-color-compatible job subsets (n <= 20)."""
    starts = profile.as_dict()
    return _closure(starts, *_brute_core(instance, starts, force))


def machine_value_and_covered(instance: Instance,
                              starts: dict[int, Fraction]) -> tuple[Fraction, frozenset[int]]:
    """Fast-path entry used by the equilibrium search: no segment building."""
    value, mask, view = _dp_core(instance, starts)
    return value, _covered_ids(mask, view)
