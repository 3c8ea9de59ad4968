"""Machine-side solver: value-optimal machine configuration for a fixed profile.

Two independent routes compute the maximum total weight of covered jobs:
a dynamic program over jobs sorted by finish time, and a subset-enumeration
brute force used as an oracle in tests. Both apply the same pre-pass (jobs of
length zero occupy an empty interval, so they are always covered) and the
same post-pass, `_closure`: one walk over the covered intervals in finish
order merges them into disjoint one-color busy segments, and any job whose
whole interval lies inside a segment of its own color is covered for free.

A best-mode search moves one player's jobs, all of one color, against the
others' fixed ones, and scores each joint strategy by its route,
`_background`: the best, over the fixed jobs' cross-color-compatible subsets
K, of w(K) plus the moving weight that overlaps no job of K, read from each
moving job's overlap mask. It defers to the DP (`evaluate_key`, on the
search call's memo) when the subsets outnumber its rows and on ties in
per-color utilities; it serves that walk alone and stores nothing.

Everything computes in integers on one time scale per instance. The
instance's solver core (`MachineCache`, stored on the `Instance` object and
dying with it) writes every time as a numerator over its time denominator
`td` and every weight as a numerator over `wden`, the lcm of the weight
denominators, so every comparison and sum is exact. The core holds only
tables that it builds once; every search keeps its answers and grid records
to itself. `td` starts at 4L, where L is the lcm of the denominators of the
horizon, the lengths and the window bounds: every global-grid point lies in
(1/2L)Z and every local grid built against such starts in (1/4L)Z, so the
game searches run on ints from end to end, and their keys are the start
times themselves. A core's `td` is fixed when it is built, by one rule
(`MachineCache.of`): a `Fraction` entry whose profile has a start of
denominator d with 2d not dividing `td` gets a new core on their lcm, stored
on the instance in the old one's place; a walk that holds the old core keeps
it on its own scale, so ints of two scales never meet in one key. The
machine entries (`solve_machine_dp`, `solve_machine_bruteforce`,
`machine_value_and_covered`) follow the rule as the search entries do,
reject a known job's start outside its range by comparing ints with the
core's ranges (`_checked`), run the DP on the core's own rows, and store no
answer. The two that take a `Profile` reject one that places a job twice
(`model._starts_of`); `machine_value_and_covered` is the DP schedule's value
and covered set for a mapping of starts, so a job is covered by one
definition, `_closure`'s. `Fraction`s are built only for returned values,
segment endpoints and error messages.

Ties are broken by fixed rules. Among equal-valued candidates the DP keeps
the one whose last job has the smallest id, the empty configuration counting
as id 0, both when it picks a job's predecessor and when it picks the final
configuration (see `_dp_core`). The brute force keeps the lexicographically
smallest sorted tuple of covered ids. Solver invariants raise
`InternalFailure`, so they also hold under `python -O`. The DP's credit
check walks the covered mask once and yields a key's utilities.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from operator import itemgetter, le
from typing import Iterable, Mapping

from .model import (GuardError, Instance, InternalFailure, Profile, Schedule,
                    _check_start, _inexact, _starts_of, validate_profile)

BRUTE_FORCE_MAX_JOBS = 20
MEMO_LIMIT = 600_000  # a search call's memo is cleared when it grows past this
GRID_CACHE_LIMIT = 100_000  # and an enumeration's grid records past this


def _bounded_put(table: dict, key, value, limit=None):
    """Store `value` under `key` and return it, clearing `table` first when
    it holds more than `limit` entries (default: `MEMO_LIMIT`, read at the
    call)."""
    if len(table) > (MEMO_LIMIT if limit is None else limit):
        table.clear()
    table[key] = value
    return value


def _ticks(x: Fraction, td: int) -> int:
    """x as a numerator over td, which must be a multiple of x's denominator."""
    q, r = divmod(td, x.denominator)
    if r:
        raise InternalFailure(f"time {x} is off the time scale 1/{td}")
    return x.numerator * q


def _time_lcm(instance: Instance) -> int:
    """L: the lcm of the denominators of the horizon, the lengths and the
    window bounds."""
    return math.lcm(instance.horizon.denominator, *[
        x.denominator for j in instance.jobs for x in (j.length, *(j.window or ()))])


def _job_groups(instance: Instance) -> list[list[int]]:
    """Interchangeable jobs (same color, length, weight and window) as sorted
    id lists, ordered by smallest id."""
    by_key: dict[tuple, list[int]] = {}
    for j in instance.jobs:
        by_key.setdefault((j.color, j.length, j.weight, j.window), []).append(j.id)
    return sorted(map(sorted, by_key.values()))


class MachineCache:
    """The solver core of one instance: its integer DP rows on the time
    scale `td`, and the game tables searches read. It holds only these fixed
    tables: every search keeps its answers and grid records to itself.

    The DP rows hold each positive-length job as (key position, length over
    `td`, id, weight over `wden`, dense color index from `color_index`);
    `zero_per` holds each color's zero-length weight (their sum is
    `base_scaled`), and `start_lo` and `start_hi` each job's lowest and
    highest start over `td`, in instance order. These are the only reading
    of a job's length, weight and window, each as an integer ratio; they are
    set here and never change. The game tables are built from the rows and
    ranges on the first search use (`groups`), so a core that only solves
    machines never holds them. A key is a tuple of start numerators over
    `td`, one per job in instance order; its answer, (value, per-color
    utilities) in ints over `wden`, lives in a search call's own memo.
    `time` and `profile` convert back to `Fraction`s.

    `MachineCache.of` is the only way to it. The core is stored on the
    instance and dies with it; equal but distinct instances do not share it,
    and `Instance` leaves it out of its pickled and copied state."""

    __slots__ = ("instance", "wden", "td", "rows", "start_lo", "start_hi", "base_scaled",
                 "zero_ids", "color_ids", "ids", "pos", "color_index", "totals",
                 "zero_per", "lens", "bounds", "other_pos", "_groups", "_record_key")

    def __init__(self, instance: Instance, td: int):
        jobs = instance.jobs
        self.instance = instance
        weights = [j.weight.as_integer_ratio() for j in jobs]
        self.wden = wden = math.lcm(*[d for _, d in weights])
        self.td = td
        self.color_ids = instance.color_ids
        self.color_index = cix = {c: i for i, c in enumerate(self.color_ids)}
        free = ((0, 1), (_ticks(instance.horizon, td), td))  # [0, T] as integer ratios
        rows, zero, lows, highs, zero_per = [], [], [], [], [0] * len(cix)
        for p, (j, (wn, wd)) in enumerate(zip(jobs, weights)):
            ln, ld = j.length.as_integer_ratio()
            q, r = divmod(td, ld)
            if r:
                raise InternalFailure(f"time {j.length} is off the time scale 1/{td}")
            length, w = ln * q, wn * (wden // wd)
            (rn, rd), (dn, dd) = [x.as_integer_ratio() for x in j.window] if j.window else free
            lows.append(rn * (td // rd))
            highs.append(dn * (td // dd) - length)
            if ln > 0:
                rows.append((p, length, j.id, w, cix[j.color]))
            elif ln == 0:
                zero_per[cix[j.color]] += w
                zero.append(j.id)
        self.rows, self.zero_per, self.zero_ids = rows, zero_per, frozenset(zero)
        self.base_scaled = sum(zero_per)
        self.start_lo, self.start_hi = lows, highs
        self._groups = None

    @classmethod
    def of(cls, instance: Instance, times: Iterable[Fraction] = ()) -> "MachineCache":
        """The instance's core on a scale that fits the start `times`: the
        stored one, or a new one stored in its place, on the lcm of its `td`
        (first 4L) and 2d for each time of denominator d; the old one is kept."""
        core = getattr(instance, "_core", None)
        td = math.lcm(core.td if core else 4 * _time_lcm(instance),
                      *[2 * x.denominator for x in times])
        if core is None or td != core.td:
            core = cls(instance, td)
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
        # Built on the first search use, so a core that only solves machines
        # never holds these. (Not a `cached_property`: it needs the core's
        # `__dict__`, and it measurably slowed grid-NE enumeration.) Built in
        # locals and published with `_groups` last, so a search that reaches
        # the core mid-build builds them itself.
        instance, colors = self.instance, self.color_ids
        jobs = instance.jobs
        ids = tuple(j.id for j in jobs)
        pos = {jid: p for p, jid in enumerate(ids)}
        totals, lens = self.zero_per.copy(), [0] * len(jobs)
        for p, ln, _, w, cix in self.rows:
            totals[cix] += w
            lens[p] = ln
        # Per player and group: (lowest start, highest start, length), the
        # inputs of the local grid (`_grid_points`).
        groups, bounds = {c: [] for c in colors}, {c: [] for c in colors}
        for ids_ in _job_groups(instance):
            p = pos[ids_[0]]
            c = jobs[p].color
            groups[c].append((ids_, [pos[i] for i in ids_]))
            bounds[c].append((self.start_lo[p], self.start_hi[p], lens[p]))
        # Per player: the other players' key positions, and the key of its
        # grid records, (player, the other players' starts), read from a key.
        other_pos, record_key = {}, {}
        for c in colors:
            other = other_pos[c] = [p for p, j in enumerate(jobs) if j.color != c]
            get = itemgetter(*other) if other else (lambda key: ())
            record_key[c] = lambda key, c=c, get=get: (c, get(key))
        (self.ids, self.pos, self.totals, self.lens, self.bounds, self.other_pos,
         self._record_key) = ids, pos, tuple(totals), lens, bounds, other_pos, record_key
        self._groups = groups

    def evaluate_key(self, memo: dict, key: tuple):
        """(value, per-color utilities) of the profile `key`, ints over
        `wden`, from a search call's `memo`, where a miss stores `solve_key`'s."""
        hit = memo.get(key)
        if hit is None:
            hit = _bounded_put(memo, key, self.solve_key(key))
        return hit

    def solve_key(self, key: tuple):
        """`evaluate_key`'s answer from `_dp_core`, without a memo: the
        DP's credit walk over the covered mask adds each covered weight to
        the utilities."""
        per = self.zero_per.copy()
        return self.base_scaled + _dp_core(self.rows, key, per)[0], tuple(per)

    def time(self, n: int) -> Fraction:
        return Fraction(n, self.td)

    def profile(self, key: tuple) -> Profile:
        """The profile a key stands for."""
        return Profile.from_dict({i: Fraction(n, self.td) for i, n in zip(self.ids, key)})


def _scaled(instance: Instance, starts: Mapping[int, Fraction]):
    """A `Fraction` profile as (core, start numerators in instance order):
    the stored core if 2d divides its `td` for each start's denominator d,
    else `MachineCache.of`'s; an unknown job's start is ignored. A missing
    or inexact start (`model._inexact`) raises `validate_profile`'s error."""
    try:
        values = [starts[j.id] for j in instance.jobs]
        # The types are screened in C; `_inexact` runs only on an unusual one.
        if not {int, Fraction}.issuperset(map(type, values)) and _inexact(*values):
            raise TypeError("inexact start")
    except (KeyError, TypeError):
        # Unsorted: the ids may not compare, and the check names a missing job first.
        validate_profile(instance, Profile(tuple(starts.items())))
        raise
    ratios = [x.as_integer_ratio() for x in values]
    st = getattr(instance, "_core", None)
    if st is None or any(st.td % (2 * d) for _, d in ratios):
        st = MachineCache.of(instance, values)
    td = st.td
    return st, [n * (td // d) for n, d in ratios]


def _checked(instance: Instance, starts: Mapping[int, Fraction]):
    """`_scaled`'s (core, start numerators), after comparing each numerator
    with its job's range of starts on the core; the first job out of range
    raises `model._check_start`'s error, whose message is built only then."""
    st, times = _scaled(instance, starts)
    if not (all(map(le, st.start_lo, times)) and all(map(le, times, st.start_hi))):
        for j in instance.jobs:
            _check_start(instance, j, starts[j.id])
    return st, times


def _view(rows, times):
    """The positive-length jobs at the start numerators `times` (instance
    order), sorted by (finish, id): (starts, finishes, weights, color
    indices, ids)."""
    rows = sorted([(times[p] + ln, jid, times[p], w, c) for p, ln, jid, w, c in rows])
    f, ids, s, w, col = zip(*rows) if rows else ((),) * 5
    return s, f, w, col, ids


def _dp_core(rows, times, per=None):
    """Return (value, covered mask over the view's finish order, view) for
    the optimal configuration; the value counts positive-length jobs only,
    over `wden`. One credit walk over the covered mask checks the value and,
    when `per` is given, adds each covered weight to it by color index."""
    view = _view(rows, times)
    s, f, w, col, ids = view
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
    prevsame = [0] * n  # the previous index of job i's color, or -1
    last: dict[int, int] = {}  # color -> its latest index so far
    top_v, top_id, top = 0, 0, best[0]  # top: the incumbent, shared until it changes
    for i in range(n):
        si, fi, c = s[i], f[i], col[i]
        # One backward scan over the same-color jobs ending in (s[i], f[i]]
        # finds job i's nested set and branch Y's candidates: jobs k < i that
        # start before s[i]. Extending k's configuration adds the nested jobs
        # that end after f[k] (the others lie inside k's interval too).
        # Same-color jobs ending by s[i] would repeat a branch X candidate.
        # The scan has two parts. Jobs k > i in the window tie with f[i] (they
        # come later in (finish, id) order); a short forward loop takes the
        # nested ones, and the others can be neither nested nor candidates.
        # Then the chain prevsame[i], prevsame[prevsame[i]], ... visits the
        # jobs k < i of color c in descending order, down to the bisected
        # window start p, so other colors cost nothing.
        mask = 1 << i
        add = w[i]
        k = i + 1
        while k < n and f[k] == fi:
            if col[k] == c and s[k] >= si:
                mask |= 1 << k
                add += w[k]
            k += 1
        after = 0  # the nested weight ending after last_f
        last_f = fi
        y_v, y_id, y_k = -1, 0, 0
        p = bisect_right(f, si, 0, i)  # prev[i]: the jobs ending by s[i]
        k = prevsame[i] = last.get(c, -1)
        last[c] = i
        while k >= p:
            fk = f[k]
            if fk != last_f:
                after, last_f = add, fk
            if s[k] >= si:
                mask |= 1 << k
                add += w[k]
            else:
                v = A[k + 1] + after
                kid = ids[k]
                if v > y_v or (v == y_v and kid < y_id):
                    y_v, y_id, y_k = v, kid, k + 1
            k = prevsame[k]
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
            top_v, top_id = best_v, ids[i]
            top = (top_v, top_id, i + 1)
        best[i + 1] = top

    # The final pick is the same ranking over every cell.
    covered_mask = 0
    cell = top[2]
    while cell != 0:
        covered_mask |= nested[cell - 1]
        cell = back[cell]
    credit, m = 0, covered_mask
    while m:
        low = m & -m
        k = low.bit_length() - 1
        credit += w[k]
        if per is not None:
            per[col[k]] += w[k]
        m ^= low
    if credit != top_v:
        raise InternalFailure("dp credit mismatch: recurrence double-counted a job")
    return top_v, covered_mask, view


def _background(st: MachineCache, key: tuple, pix: int, walk):
    """The route of a best-mode walk that moves the groups `walk`, given as
    (key positions, candidate starts), of color index `pix` from `key`:
    (per group, its candidates' overlap masks over the fixed jobs; `score`),
    or None if the fixed jobs have more compatible subsets than the core has
    DP rows. `score` takes one mask tuple per group, combined as the walk
    combines the candidates, and returns (value, per-color utilities), or
    False on a tie in per-color utilities. Zero-weight jobs are left out."""
    fixed = [(key[p], key[p] + ln, w, c) for p, ln, _, w, c in st.rows if c != pix and w]
    # (bitmask over `fixed`, weight, per-color utilities), grown one job at a time.
    subsets = [(0, 0, tuple(st.zero_per))]
    for i, (s, f, w, c) in enumerate(fixed):
        clash = sum(1 << k for k, (sk, fk, _, ck) in enumerate(fixed[:i])
                    if ck != c and sk < f and s < fk)
        subsets += [(mask | 1 << i, v + w, per[:c] + (per[c] + w,) + per[c + 1:])
                    for mask, v, per in subsets if not mask & clash]
        if len(subsets) > len(st.rows):
            return None
    # A group's jobs share length and weight, so one table serves them all.
    weight = {p: w for p, _, _, w, _ in st.rows}  # zero-length jobs: always covered
    ws = [weight.get(ps[0], 0) for ps, _ in walk]
    tables = [[w and sum(1 << k for k, (s, f, _, _) in enumerate(fixed)
                         if x < f and s < x + st.lens[ps[0]]) for x in times]
              for (ps, times), w in zip(walk, ws)]
    seen: dict = {}  # answers by the moving jobs' overlap masks, which fix them

    def score(ms: tuple):
        hit = seen.get(ms)
        if hit is not None:
            return hit
        best, tie = -1, False
        for mask, v, per in subsets:
            u = sum([w for g, w in zip(ms, ws) for m in g if not m & mask])
            if v + u > best:
                best, top, top_u, tie = v + u, per, u, False
            elif v + u == best and per != top:
                tie = True
        return _bounded_put(seen, ms, not tie and (
            st.base_scaled + best, top[:pix] + (top[pix] + top_u,) + top[pix + 1:]))

    return tables, score


def _brute_core(rows, times, force: bool):
    view = _view(rows, times)
    s, f, w, col, ids = view
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
    return best_val, best_mask, view


def _closure(st: MachineCache, starts: Mapping[int, Fraction], top: int,
             mask: int, view) -> Schedule:
    """Merge the covered intervals into maximal one-color segments in one
    walk in the view's finish order, then cover every job nested inside a
    segment of its own color (free additions) in one walk against them.

    Works on the view over `st.td`; a segment's start is returned as the
    profile's own start of its first job (least start, then finish, then
    id), its end as a new `Fraction`, and the value `top` (over `wden`) with
    the zero-length jobs added."""
    s, f, w, col, ids = view
    covered = set(st.zero_ids)
    # Disjoint segments (start, end, color index, first job's view index) on
    # a stack. A job ends no earlier than every segment so far: it joins, and
    # may bridge, the same-color ones at the top that it overlaps or touches.
    segments = []
    m = mask
    while m:
        low = m & -m
        m ^= low
        k = low.bit_length() - 1
        covered.add(ids[k])
        a, c, first = s[k], col[k], k
        while segments and segments[-1][1] >= a:
            a0, b0, c0, k0 = segments[-1]
            if c0 != c:
                if b0 > a:
                    raise InternalFailure("covered jobs of different colors overlap")
                break
            segments.pop()
            if a0 <= a:
                a, first = a0, k0
        segments.append((a, f[k], c, first))
    # A job lies in a segment only if it ends in it, after the ones before.
    k, n = 0, len(s)
    for a, b, c, _ in segments:
        while k < n and f[k] <= b:
            if c == col[k] and s[k] >= a and not mask >> k & 1:
                if w[k]:
                    raise InternalFailure("closure pass found uncounted positive weight "
                                          "(solver bug)")
                covered.add(ids[k])
            k += 1
    colors = st.color_ids
    return Schedule(frozenset(covered),
                    tuple((starts[ids[k]], Fraction(b, st.td), colors[c])
                          for _, b, c, k in segments),
                    Fraction(st.base_scaled + top, st.wden))


def solve_machine_dp(instance: Instance, profile: Profile) -> Schedule:
    """Optimal machine configuration via dynamic programming over finish times."""
    starts = _starts_of(profile)
    st, times = _checked(instance, starts)
    return _closure(st, starts, *_dp_core(st.rows, times))


def solve_machine_bruteforce(instance: Instance, profile: Profile,
                             force: bool = False) -> Schedule:
    """Oracle: enumerate all cross-color-compatible job subsets (n <= 20)."""
    starts = _starts_of(profile)
    st, times = _checked(instance, starts)
    return _closure(st, starts, *_brute_core(st.rows, times, force))


def machine_value_and_covered(instance: Instance,
                              starts: Mapping[int, Fraction]) -> tuple[Fraction, frozenset[int]]:
    """The DP schedule's value and covered set for a mapping of starts by
    job id: `solve_machine_dp`'s, closure included."""
    st, times = _checked(instance, starts)
    schedule = _closure(st, starts, *_dp_core(st.rows, times))
    return schedule.value, schedule.covered
