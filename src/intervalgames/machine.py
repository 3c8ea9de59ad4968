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
endpoints. What depends on the instance alone (scaled weights, length
denominators, the zero-length jobs) is compiled once into the instance's
`MachineCache`, which also holds the equilibrium search's memo. The core is
stored on the `Instance` object and dies with it.

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
from operator import itemgetter
from typing import Mapping

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


class MachineCache:
    """The solver core of one instance: its integer-scaled DP constants and
    the memo of machine responses that the equilibrium search reads.

    Weights are ints scaled by `wden`, the lcm of the weight denominators.
    Memo keys are tuples of small ints, one start code per job in instance
    order: every distinct start value is interned once, so the hot path never
    hashes a Fraction. Memo values are (total, per-color utilities), colors
    indexed densely, utilities scaled by `wden`; `utility` converts back.

    `MachineCache.of(instance)` is the only way to it. The core is stored on
    the instance and dies with it; equal but distinct instances do not share
    it, and `Instance` leaves it out of its pickled and copied state."""

    def __init__(self, instance: Instance):
        jobs = instance.jobs
        self.instance = instance
        self.wden = math.lcm(*[j.weight.denominator for j in jobs])
        self.ids = tuple(j.id for j in jobs)
        self.pos = {jid: i for i, jid in enumerate(self.ids)}
        self.color_index = {c: i for i, c in enumerate(instance.color_ids)}
        self._job_cix = [self.color_index[j.color] for j in jobs]
        self._job_w = [self.scaled(j.weight) for j in jobs]
        self.totals = [0] * len(self.color_index)
        for cix, w in zip(self._job_cix, self._job_w):
            self.totals[cix] += w
        # DP rows of the positive-length jobs: (length numerator, length
        # denominator, id, scaled weight, color). Zero-length jobs are aside.
        positive = [(j, w) for j, w in zip(jobs, self._job_w) if j.length > 0]
        self.row_ids = [j.id for j, _ in positive]
        self.rows = [(j.length.numerator, j.length.denominator, j.id, w, j.color)
                     for j, w in positive]
        self.len_den = math.lcm(*[j.length.denominator for j, _ in positive])
        zero = [(j.id, w) for j, w in zip(jobs, self._job_w) if j.length == 0]
        self.base_scaled = sum(w for _, w in zero)
        self.zero_ids = frozenset(jid for jid, _ in zero)
        self._intern: dict[Fraction, int] = {}
        self._cache: dict = {}
        self.grid_cache: dict = {}
        self._groups = self._others = None

    @classmethod
    def of(cls, instance: Instance) -> "MachineCache":
        """The instance's core, built on first use and stored on the instance."""
        core = getattr(instance, "_core", None)
        if core is None:
            core = cls(instance)
            object.__setattr__(instance, "_core", core)
        return core

    @property
    def groups(self) -> dict[int, list[tuple[list[int], list[int]]]]:
        """Per player: its interchangeable-job groups (same length, weight
        and window) as (sorted ids, key positions), ordered by smallest id."""
        if self._groups is None:
            self._build_game_tables()
        return self._groups

    def _build_game_tables(self) -> None:
        # Only the game searches read these, so a core that only solves
        # machines never holds them. (A `cached_property` reads the core's
        # `__dict__`, which measurably slowed grid-NE enumeration.)
        self._groups, self._others = {}, {}
        jobs = self.instance.jobs
        for c in self.instance.color_ids:
            by_key: dict[tuple, list[int]] = {}
            for j in self.instance.jobs_of_color(c):
                by_key.setdefault((j.length, j.weight, j.window), []).append(j.id)
            self._groups[c] = [(ids_, [self.pos[i] for i in ids_])
                               for ids_ in sorted(map(sorted, by_key.values()))]
            other = [p for p, j in enumerate(jobs) if j.color != c]
            self._others[c] = itemgetter(*other) if other else (lambda key: ())

    def scaled(self, x: Fraction) -> int:
        return x.numerator * (self.wden // x.denominator)

    def intern(self, x: Fraction) -> int:
        code = self._intern.get(x)
        if code is None:
            code = len(self._intern)
            self._intern[x] = code
        return code

    def key(self, starts: Mapping[int, Fraction]) -> tuple:
        return tuple(self.intern(starts[i]) for i in self.ids)

    def others_key(self, player: int, key: tuple) -> tuple:
        """The player and the other players' codes in a key."""
        if self._others is None:
            self._build_game_tables()
        return (player, self._others[player](key))

    def evaluate_key(self, key: tuple, starts: Mapping[int, Fraction]):
        hit = self._cache.get(key)
        if hit is None:
            value, covered = machine_value_and_covered(self.instance, dict(starts))
            per = [0] * len(self.totals)
            for jid in covered:
                idx = self.pos[jid]
                per[self._job_cix[idx]] += self._job_w[idx]
            hit = (value, tuple(per))
            if len(self._cache) > 600_000:
                self._cache.clear()
            self._cache[key] = hit
        return hit

    def evaluate(self, starts: Mapping[int, Fraction]):
        return self.evaluate_key(self.key(starts), starts)

    def value(self, starts) -> Fraction:
        return self.evaluate(starts)[0]

    def utility(self, starts, color: int) -> Fraction:
        return Fraction(self.evaluate(starts)[1][self.color_index[color]], self.wden)


def _scaled(instance: Instance, starts: dict[int, Fraction]):
    """Integer-scaled view of one profile's positive-length jobs, sorted by
    (finish, id): the tuple (starts, finishes, weights, colors, ids, td,
    core), where times are numerators over the common denominator td and
    weights numerators over core.wden. Exact."""
    st = MachineCache.of(instance)
    xs = [starts[jid].as_integer_ratio() for jid in st.row_ids]
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
    return Fraction(st.base_scaled + top_v, st.wden), covered_mask, view


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
    return Fraction(st.base_scaled + best_val, st.wden), best_mask, view


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
