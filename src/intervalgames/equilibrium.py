"""Best responses, Nash-equilibrium checks, best-response dynamics, NE
constructions, and price-of-anarchy analysis.

Strategies are continuous, so searches run over a finite candidate grid:
endpoint-aligned starts (the job's own bounds plus finishes and shifted starts
of fixed jobs) together with interior representatives obtained by shifting
every event point by half the minimum gap. Deviations found this way are
exact and unconditional; *absence* of deviations is a statement about the
grid, and reports say so.

The searches run on ints on the time scale of the instance's solver core
(`machine.MachineCache`, stored on the `Instance` object and dropped with
it): every start is a numerator over the core's time denominator, and a memo
key is the tuple of a profile's start times. `best_response`, `is_nash`,
`brd` and `build_grid` validate their input and work on a core whose fixed
scale fits it (`MachineCache.of`: a profile off the stored core's scale
replaces that core, as in the machine entries), so a nested search never
rescales an outer walk's keys. One function makes every local grid
(`_grid_points`, untagged ints); `build_grid` is its `Fraction` view on the
core's job groups and the only place that tags points with their
provenance, and it raises `InternalFailure` rather than truncate a gap that
the scale cannot halve. `_grid_ticks` makes the global grid of `brd`
and grid-NE enumeration, and each job's candidates on it, on ints over 2L,
half of the core's smallest scale; `global_grid_points` and
`grid_candidates` are its `Fraction` views.

A grid record (`_grid_record`) holds one player's aligned lists against one
placement of the other players; a search walks those lists with the player's
current starts merged in (`_coded_grid`), by the key walker of enumeration
(`_grid_keys`), which rewrites only the groups that moved. A verdict looks
the record up once and merges the starts into it once: `_player_stable`
reads its guard sizes and whether every start is aligned from the merged
lists, and hands them to the search. The record's `big` flag says whether a
guard could fire on the merged lists, which add at most one start per job;
`_player_stable` runs the guards (`_guards`, one predicate, `_over_limit`,
for both) only when it is set, and a search always. A best-mode walk goes
through the same order (`_multisets`) without building keys: it scores each
joint strategy from its groups' overlap masks by its own background route
(`machine._background`), and builds a key only where the route defers to
the memo and the DP, and for its result, the one key it stores. Searches
return keys and int utilities.

Grid-NE enumeration memoizes each player's verdict, keyed on the other
players' placements (see `_player_stable`). The memo is exact: it holds only
bounds that a search over the same grid proved, by three rules that also
settle profiles whose starts are off the aligned lists. It is bounded: it
lives in the core's grid cache, which is cleared past
`machine.GRID_CACHE_LIMIT` entries, and enumeration drops a record of the
one-job owner of the job it moves fastest once its block of keys ends
(`_grid_ne`). `_profile_stable` reads the bounds of existing records for
each profile and calls `_player_stable` where they do not settle a verdict;
only that builds records and writes bounds. The memo
leaves the searched grid unchanged, so the enumerated equilibria are those
of the plain search. Utilities are compared as integers over the lcm of the
weight denominators, and equilibria are sorted as (value, starts) ints.
`Fraction`s are built only for what is returned: strategies, utilities,
deviations and profiles.

Grid-NE enumeration shares one machine DP among the keys of a DP-exact type.
The DP compares only finishes with finishes, finishes with starts (finish <=
start) and starts with starts of one color, and breaks ties by job id, so
keys whose positive-length endpoints agree on those comparisons get the same
(value, per-color utilities). `_type_signer` splits off one job: the other
jobs, the head, keep their full order pattern, and the job's start and
finish are coded by their classes against the head, read from two tables per
head pattern. `_grid_ne` answers its memo misses from a type memo that lives
for the call only, signed on the job `_grid_keys` moves fastest (the last of
the fastest group), whose blocks of keys share one head; the DP runs on a
type miss. A player with one job of positive length searches by a typed walk
(`_typed_walk`) over the same type memo, which moves that job against a head
read once; multi-job players search through the core's memo, which holds
their keys only. Equal DP answers share one tuple. Best-response keys seldom
repeat a type, so the type memo is not kept on the core.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from . import machine
# Not called here: perfbench's tracer finds `machine_value_and_covered` here.
from .machine import (MachineCache, _bounded_put, _job_groups, _ticks, _time_lcm,
                      machine_value_and_covered, solve_machine_dp)
from .model import (ZERO, GuardError, Instance, InternalFailure, Profile,
                    UnsupportedInstanceError, ValidationError, _check_int, _check_start,
                    _starts_of, utilities, validate_profile)

BEST_RESPONSE_MAX_JOBS = 8
BEST_RESPONSE_MAX_GRID = 64
BEST_RESPONSE_MAX_SEARCH = 10 ** 5
GRID_ENUM_MAX_PROFILES = 10 ** 6


class _GridRecord:
    """One player's aligned candidates against fixed other placements, and
    the player's verdict bounds there, in scaled utilities.

    `coded` holds one sorted list of start times per group of
    `MachineCache.groups`. `lo` is the best utility of a deviation found on
    this aligned grid (-1 before any), `hi` a ceiling on every utility over
    it (the player's total before a search proves a lower one). `big` says
    whether a guard could fire once the player's current starts are added."""

    __slots__ = ("coded", "lo", "hi", "big")

    def __init__(self, coded: list, hi: int, big: bool):
        self.coded = coded
        self.lo = -1
        self.hi = hi
        self.big = big


@dataclass(frozen=True)
class CandidateGrid:
    """Per-job legal start candidates with provenance tags."""

    player: int
    entries: tuple[tuple[int, tuple[tuple[Fraction, str], ...]], ...]

    def starts(self, job_id: int) -> tuple[Fraction, ...]:
        for jid, cands in self.entries:
            if jid == job_id:
                return tuple(s for s, _ in cands)
        raise ValidationError(f"grid has no entries for job {job_id}")


@dataclass(frozen=True)
class Deviation:
    """A strictly improving unilateral move by one player."""

    player: int
    new_strategy: tuple[tuple[int, Fraction], ...]
    utility_before: Fraction
    utility_after: Fraction

    def __post_init__(self):
        if not self.utility_after > self.utility_before:
            raise InternalFailure(
                f"deviation of player {self.player} does not improve: "
                f"{self.utility_before} -> {self.utility_after}")


@dataclass(frozen=True)
class BrdOutcome:
    status: str  # converged | cycle_detected | iteration_cap
    final: Optional[Profile]
    cycle: Optional[tuple[Profile, ...]]
    iterations: int
    trace: tuple[tuple[int, Fraction, Fraction], ...]  # (player, delta, value)

    @property
    def final_or_cycle(self):
        return self.final if self.cycle is None else self.cycle


@dataclass(frozen=True)
class AnalysisReport:
    opt: Fraction
    ne_values: tuple[Fraction, ...]
    poa_lower: Optional[Fraction]
    pos_upper_witness: Optional[Fraction]
    bound_name: str
    bound_value: Fraction
    bound_satisfied: Optional[bool]
    status: str  # ok | no_ne_found
    worst_ne: Optional[Profile]
    best_ne: Optional[Profile]
    instance_classes: tuple[str, ...]


def _interior(event: list, hi: int) -> list:
    """The points of the sorted int list `event` shifted by half its
    smallest gap, kept up to `hi`. The denominator must make every gap even;
    an odd one raises `InternalFailure`."""
    if len(event) < 2:
        return []
    gap = min([b - a for a, b in zip(event, event[1:])])
    if gap % 2:
        raise InternalFailure(f"grid gap {gap} cannot be halved on its time scale")
    delta = gap // 2
    return [m + delta for m in event if m + delta <= hi]


def _grid_points(lo: int, hi: int, length: int, fixed) -> tuple[set, list]:
    """One job's candidate starts in [lo, hi], ints over one denominator:
    the aligned set (the bounds, and each fixed (start, finish) pair's
    finish, start, and start minus `length`) and the interior points (every
    aligned point shifted by half the smallest gap, `_interior`)."""
    aligned = {lo, hi}
    for sk, fk in fixed:
        for cand in (fk, sk - length, sk):
            if lo <= cand <= hi:
                aligned.add(cand)
    return aligned, _interior(sorted(aligned), hi)


def build_grid(instance: Instance, fixed_starts: Mapping[int, Fraction],
               player: int) -> CandidateGrid:
    """Candidate starts for every job of `player` against fixed placements.

    Aligned candidates: the job's own feasibility bounds, each fixed job's
    finish, start, and start minus the moving job's length. Interior
    representatives: every aligned point shifted by half the smallest gap.
    Computed once per job group by the searches' own grid function
    (`_grid_points`), on the core `MachineCache.of` fits to the fixed starts
    (an off-scale start replaces it, as in a search). Only this view tags
    the points, each with its first source: the bounds ("window-clipped"
    for a windowed job), then the other aligned points ("endpoint-aligned"),
    then the interior ones ("interior-shifted"). An invalid fixed start, or
    one of `player`'s jobs, raises `ValidationError`.
    """
    own = instance.jobs_of_color(player)
    if not own:
        raise ValidationError(f"instance has no player {player}")
    fixed = [(instance.job(jid), s) for jid, s in fixed_starts.items()]
    for k, s in fixed:
        if k.color == player:
            raise ValidationError(f"job {k.id} is a job of player {player}, not fixed")
        _check_start(instance, k, s)
    cache = MachineCache.of(instance, fixed_starts.values())
    td = cache.td
    fixed_n = [(_ticks(s, td), _ticks(s + k.length, td)) for k, s in fixed]
    tagged = {}
    for (ids_, _), (lo, hi, length) in zip(cache.groups[player], cache.bounds[player]):
        aligned, interior = _grid_points(lo, hi, length, fixed_n)
        bound_tag = "window-clipped" if instance.job(ids_[0]).window else "endpoint-aligned"
        tags = {lo: bound_tag, hi: bound_tag}
        for x in aligned:
            tags.setdefault(x, "endpoint-aligned")
        for x in interior:
            tags.setdefault(x, "interior-shifted")
        points = tuple((Fraction(n, td), tag) for n, tag in sorted(tags.items()))
        tagged.update(dict.fromkeys(ids_, points))
    return CandidateGrid(player, tuple((j.id, tagged[j.id]) for j in own))


def _profile_count(sized) -> int:
    """Joint strategies over groups given as (ids, candidate count):
    identical same-color jobs are interchangeable, so each group contributes
    multisets, not tuples."""
    return math.prod(math.comb(n + len(ids_) - 1, len(ids_)) for ids_, n in sized)


def _over_limit(player: int, sized) -> Optional[str]:
    """The message of the first size guard exceeded by the player's groups,
    given as (ids, candidate count) pairs, or None. The guards' fixed order:
    the player's job count, each group's candidate count, the joint count."""
    count = sum(len(ids_) for ids_, _ in sized)
    if count > BEST_RESPONSE_MAX_JOBS:
        return (f"player {player} controls {count} jobs "
                f"(joint search limit {BEST_RESPONSE_MAX_JOBS})")
    for ids_, size in sized:
        if size > BEST_RESPONSE_MAX_GRID:
            return f"jobs {ids_} have {size} candidate starts (limit {BEST_RESPONSE_MAX_GRID})"
    size = _profile_count(sized)
    if size > BEST_RESPONSE_MAX_SEARCH:
        return (f"player {player}'s joint search holds {size} "
                f"strategies (limit {BEST_RESPONSE_MAX_SEARCH})")
    return None


def _guards(player: int, sized, force: bool) -> None:
    """Raise `GuardError` with `_over_limit`'s message unless `force` is set."""
    message = not force and _over_limit(player, sized)
    if message:
        raise GuardError(message)


def _grid_record(cache: MachineCache, key: tuple, player: int,
                 others_key: tuple) -> _GridRecord:
    """A new grid record of the player against the other placements in
    `key`, stored under their `others_key`, which its caller has hashed and
    found no record under.

    The aligned lists depend only on the other players' placements, which
    repeat across enumeration sweeps, so they are built once per placement
    and kept in the core's grid cache. Interchangeable jobs share one group
    with the same aligned candidates, so each group's list is built once."""
    fixed = [(key[p], key[p] + cache.lens[p]) for p in cache.other_pos[player]]
    coded = []
    for lo, hi, length in cache.bounds[player]:
        aligned, interior = _grid_points(lo, hi, length, fixed)
        coded.append(sorted(aligned.union(interior)))
    # A group's searched list adds at most one start per job.
    sized = [(ids_, len(c) + len(ids_)) for (ids_, _), c in zip(cache.groups[player], coded)]
    record = _GridRecord(coded, cache.totals[cache.color_index[player]],
                         _over_limit(player, sized) is not None)
    return _bounded_put(cache.grid_cache, others_key, record, machine.GRID_CACHE_LIMIT)


def _coded_grid(cache: MachineCache, key: tuple, player: int, record=None):
    """The player's grid record (`record`, else the one looked up or built)
    and per-group (ids, candidate list) pairs: each group's aligned list with
    its jobs' current starts in `key` merged in, as the local-grid search
    walks it. A list is copied only where a start is inserted."""
    if record is None:
        others_key = cache.others_key(player, key)
        record = cache.grid_cache.get(others_key) or _grid_record(cache, key, player, others_key)
    lists = []
    for (ids_, positions), coded in zip(cache.groups[player], record.coded):
        union = coded
        for p in positions:
            x = key[p]
            if x not in union:
                if union is coded:
                    union = list(coded)
                insort(union, x)
        lists.append((ids_, union))
    return record, lists


def _strategy(cache: MachineCache, key, player: int) -> dict[int, Fraction]:
    """The player's starts in a key, by job id, as `Fraction`s."""
    return {j.id: cache.time(key[cache.pos[j.id]])
            for j in cache.instance.jobs_of_color(player)}


def _player_search(instance: Instance, cache: MachineCache, key: tuple,
                   player: int, *, mode: str, force: bool = False,
                   lists=None, prefer_value: bool = False, u_cur=None):
    """Search the player's joint strategy grid from the profile `key`.

    mode="best": return the best (key, utility), the utility an int over
    `wden`, preferring the current strategy when it attains the maximum.
    With prefer_value, ties on utility go to the strategy the machine values
    most (dynamics use this: stacking onto an already-covered slot never
    lowers the machine's total). The search stops once its incumbent reaches
    the top of that ranking. The walk is scored by `machine._background`,
    and stores only the keys that route defers and the one it returns.
    mode="first": return the first strictly improving (key, utility), or
    None.
    `lists`, one candidate list per group of the player on the core's scale
    (see `_global_lists`), replaces the local grid. `u_cur`, the player's
    utility at `key` when its caller holds it, spares the search evaluating
    (and storing) its own key.
    """
    if not instance.jobs_of_color(player):
        raise ValidationError(f"instance has no player {player}")
    pix = cache.color_index[player]
    if u_cur is None:
        u_cur = cache.evaluate_key(key)[1][pix]
    if u_cur == cache.totals[pix]:  # fully covered players cannot improve
        return (key, u_cur) if mode == "best" else None

    groups = cache.groups[player]
    if lists is None:
        lists = [coded for _, coded in _coded_grid(cache, key, player)[1]]
    _guards(player, [(ids_, len(coded)) for (ids_, _), coded in zip(groups, lists)],
            force)

    walk = [(ps, coded) for (_, ps), coded in zip(groups, lists)]
    if mode == "first":
        for cand in _grid_keys(walk, key):
            u = cache.evaluate_key(cand)[1][pix]
            if u > u_cur:
                return cand, u
        return None
    # Only best-mode walks, which read most of their grid, pay for the route's
    # set-up. A combination is scored from its overlap masks, and its key is
    # built only where the route defers (the memo keeps it) and for the
    # result, which the walk stores.
    tables, score = machine._background(cache, key, pix, walk) or (lists, lambda ms: None)
    positions = [ps for ps, _ in walk]
    best_u, best, full = u_cur, None, cache.totals
    for starts, ms in zip(_multisets(walk), _multisets(zip(positions, tables))):
        value, per = score(ms) or cache.evaluate_key(_put(key, positions, starts))
        u = per[pix]
        if u > best_u or (prefer_value and best and u == best_u and value > best[1]):
            best_u, best = u, (starts, value, per)
            # Only a strictly higher rank replaces the incumbent, so none can
            # once it covers every job of the player (with prefer_value: of
            # the instance).
            if u == full[pix] and (not prefer_value or per == full):
                break
    if best is None:
        return key, best_u
    found = _put(key, positions, best[0])
    _bounded_put(cache._cache, found, best[1:])
    return found, best_u


def _scan(instance: Instance, cache: MachineCache, players, walks=None) -> list:
    """(player, color index, total, one job?, walk) for each of `players`,
    in order: what `_profile_stable` reads of a player before its record.
    `walk` is the player's typed walk in `walks` (see `_typed_walk`), or
    None."""
    walks = walks or {}
    return [(c, cache.color_index[c], cache.totals[cache.color_index[c]],
             len(instance.jobs_of_color(c)) == 1, walks.get(c)) for c in players]


def _profile_stable(instance: Instance, cache: MachineCache, key: tuple,
                    per: tuple, scan: list, force: bool) -> bool:
    """Whether no player of `scan` (from `_scan`, in order) has an improving
    grid move at `key`, whose per-color utilities are `per`.

    A covered player is stable. An existing record that is not `big` settles
    a verdict here when `lo` exceeds the utility, or for a one-job player
    when `hi` does not (rules (b) and (c) of `_player_stable`); every other
    verdict goes to `_player_stable` with the record looked up, or None."""
    records, others = cache.grid_cache, cache.others_key
    for player, pix, total, single, walk in scan:
        u = per[pix]
        if u == total:
            continue
        others_key = others(player, key)
        record = records.get(others_key)
        if record is not None and not record.big:
            if record.lo > u:
                return False
            if single and record.hi <= u:
                continue
        if not _player_stable(instance, cache, key, u, player, others_key, record, force,
                              walk):
            return False
    return True


def _player_stable(instance: Instance, cache: MachineCache, key: tuple,
                   u_cur: int, player: int, others_key: tuple,
                   record: Optional[_GridRecord], force: bool, walk=None) -> bool:
    """Whether the player, at utility `u_cur` below its total, has no
    improving grid move: the verdict of a first-improvement `_player_search`,
    with the same guards in the same order, read from the grid record's
    bounds when they settle it.

    The player's searched lists are the aligned lists of the record plus
    its current starts, and a deviation's utility does not depend on the
    player's current starts. So the bounds hold for every profile with
    these other placements:
    (a) a search that finds no improvement proves every aligned strategy
        worth at most the current utility, so `hi` drops to it;
    (b) a found deviation whose starts all lie on their groups' aligned
        lists raises `lo` to its utility, which refutes every such profile
        whose current utility is lower;
    (c) `hi` no higher than the current utility proves the player stable
        when every current start is aligned, or when the player has one
        job: its one candidate off the aligned list is its current start.
    `record` is the player's record against the other placements in `key`,
    which hash to `others_key`, or None where none is built. This builds a
    missing record under `others_key` without a second probe, and merges the
    current starts into it once (`_coded_grid`). A `big` record's guards run
    first, on the merged lists, as the search's do; then every verdict reads
    (b) and (c) once, each start counting as aligned when each merged list
    is the record's own. The search walks the merged lists: the player's
    typed walk `walk` (`_typed_walk`), given for a one-job player in grid-NE
    enumeration, walks its one list in place of `_player_search`; it runs
    no guard, since a `big` record's guards ran here and a record that is
    not `big` cannot trip one. Only this builds records and writes bounds."""
    if record is None:
        record = _grid_record(cache, key, player, others_key)
    _, lists = _coded_grid(cache, key, player, record)
    if record.big:
        _guards(player, [(ids_, len(union)) for ids_, union in lists], force)
    if record.lo > u_cur:
        return False
    if record.hi <= u_cur and (len(instance.jobs_of_color(player)) == 1 or all(
            union is coded for (_, union), coded in zip(lists, record.coded))):
        return True
    merged = [union for _, union in lists]
    found = (walk(key, merged[0], u_cur) if walk else _player_search(
        instance, cache, key, player, mode="first", force=force, lists=merged, u_cur=u_cur))
    if found is None:
        record.hi = min(record.hi, u_cur)
        return True
    if all(found[0][p] in coded for (_, positions), coded
           in zip(cache.groups[player], record.coded) for p in positions):
        record.lo = found[1]
    return False


def best_response(instance: Instance, profile: Profile, player: int, *,
                  force: bool = False) -> tuple[dict[int, Fraction], Fraction]:
    """Utility-maximizing joint placement of the player's jobs over the grid.

    Among maximizers the current strategy wins if it attains the maximum.
    Otherwise the first maximizer in search order wins: the player's groups
    of interchangeable jobs ordered by smallest id, the joint grid as the
    product of their candidate tuples, and each group's nondecreasing start
    tuples in ascending (lexicographic) order, the last group varying
    fastest. The search stops at the first strategy that covers every job of
    the player, since nothing can beat it; that does not change the answer.
    Its strategies are valued against the other players' fixed jobs by a
    background route, and by the machine DP where that route defers.
    A joint search of more than `BEST_RESPONSE_MAX_SEARCH` strategies raises
    `GuardError` before its first one is evaluated, unless `force` is set.
    """
    starts = validate_profile(instance, profile).as_dict()
    cache = MachineCache.of(instance, starts.values())
    best, u = _player_search(instance, cache, cache.key(starts), player,
                             mode="best", force=force)
    return _strategy(cache, best, player), Fraction(u, cache.wden)


def is_nash(instance: Instance, profile: Profile, *, first_improvement: bool = False,
            force: bool = False, players=None) -> Optional[Deviation]:
    """Return None when no player improves over the grid, else a Deviation.

    Players are scanned in color order. By default each player's full best
    response is computed; first_improvement=True short-circuits on the first
    improving move (same stable/unstable verdict, cheaper witness). `players`
    restricts the scan to a subset of colors.
    """
    starts = validate_profile(instance, profile).as_dict()
    cache = MachineCache.of(instance, starts.values())
    key = cache.key(starts)
    scan = instance.color_ids if players is None else tuple(sorted(players))
    for player in scan:
        found = _player_search(instance, cache, key, player, force=force,
                               mode="first" if first_improvement else "best")
        u_cur = cache.evaluate_key(key)[1][cache.color_index[player]]
        if found is not None and found[1] > u_cur:
            moved, u = found
            return Deviation(player, tuple(_strategy(cache, moved, player).items()),
                             Fraction(u_cur, cache.wden), Fraction(u, cache.wden))
    return None


def verify_deviation(instance: Instance, profile: Profile, dev: Deviation) -> bool:
    """Re-check a deviation from scratch with the machine DP (no memo): exact
    strict improvement. An invalid profile or move, one that places a job
    twice included, raises `ValidationError`."""
    validate_profile(instance, profile)
    if not instance.jobs_of_color(dev.player):
        raise ValidationError(f"instance has no player {dev.player}")
    moved = validate_profile(instance, Profile.from_dict(
        {**profile.as_dict(), **_starts_of(Profile(dev.new_strategy))}))
    for jid, _ in dev.new_strategy:
        if instance.job(jid).color != dev.player:
            raise ValidationError(f"job {jid} is not a job of player {dev.player}")
    u_before, u_after = (dict(utilities(instance, p, solve_machine_dp(instance, p))
                              .entries)[dev.player] for p in (profile, moved))
    return (u_before == dev.utility_before and u_after == dev.utility_after
            and u_after > u_before)


# ---------------------------------------------------------------------------
# Global event grid (finite play space for BRD and NE enumeration)

def _grid_ticks(instance: Instance, resolution: int):
    """(2L, the global grid, per job id its candidates) as sorted ints over
    2L, where L is the lcm of the denominators of the horizon, the lengths
    and the window bounds (`machine._time_lcm`). The grid is the alignment
    closure of {0, T} and the window bounds under adding and subtracting job
    lengths, `resolution` rounds deep or up to the first round that adds no
    point, which lies in (1/L)Z, and its shift by half the minimum gap,
    which lies in (1/2L)Z. A job's candidates are the grid points in its
    range of starts plus both ends of that range. A solver core's `td` is a
    multiple of 4L, so callers that hold one scale these by `td // 2L`. A
    resolution that is not an int (a `bool` is not) or is below 1 raises
    `ValidationError`."""
    _check_int(resolution, "grid resolution", 1)
    den = 2 * _time_lcm(instance)
    T = _ticks(instance.horizon, den)
    pts = {0, T, *[_ticks(x, den) for j in instance.jobs for x in j.window or ()]}
    lengths = {_ticks(j.length, den) for j in instance.jobs} - {0}
    new = pts
    for _ in range(resolution):  # each round shifts only the last round's points
        new = {y for x in new for p in lengths for y in (x + p, x - p) if 0 <= y <= T} - pts
        if not new:
            break
        pts |= new
    points = sorted(pts.union(_interior(sorted(pts), T)))
    out = {}
    for j in instance.jobs:
        lo = _ticks(j.release, den)
        hi = _ticks(j.due(instance.horizon), den) - _ticks(j.length, den)
        out[j.id] = sorted({lo, hi, *points[bisect_left(points, lo):bisect_right(points, hi)]})
    return den, points, out


def global_grid_points(instance: Instance, resolution: int = 1) -> tuple[Fraction, ...]:
    """Alignment closure of {0, T} (and window bounds) under adding and
    subtracting job lengths, `resolution` rounds deep, plus one interior
    shift by half the minimum gap. A resolution below 1 raises
    `ValidationError`."""
    den, points, _ = _grid_ticks(instance, resolution)
    return tuple(Fraction(x, den) for x in points)


def grid_candidates(instance: Instance,
                    resolution: int = 1) -> dict[int, tuple[Fraction, ...]]:
    """Global-grid start candidates per job, clipped to feasibility."""
    den, _, candidates = _grid_ticks(instance, resolution)
    return {jid: tuple(Fraction(x, den) for x in cands) for jid, cands in candidates.items()}


def joint_grid_size(instance: Instance, resolution: int = 1) -> int:
    """Number of enumerated joint profiles."""
    *_, candidates = _grid_ticks(instance, resolution)
    return _profile_count((ids_, len(candidates[ids_[0]]))
                          for ids_ in _job_groups(instance))


def _global_lists(cache: MachineCache, resolution: int) -> dict[int, list]:
    """Per player, one global-grid candidate list per job group on the core's
    scale: a group's jobs share length and window, so their candidates."""
    den, _, candidates = _grid_ticks(cache.instance, resolution)
    m = cache.td // den
    return {player: [[x * m for x in candidates[ids_[0]]] for ids_, _ in own]
            for player, own in cache.groups.items()}


def _iter_grid_coded(instance: Instance, resolution: int, force: bool,
                     cache: MachineCache):
    """An iterator over every joint grid profile as a memo key on the core's
    scale. The resolution and the size guard are checked at the call, before
    the first key is asked for."""
    lists = _global_lists(cache, resolution)
    # Every player's groups as (ids, key positions, candidates), by smallest id.
    groups = sorted((ids_, positions, cands) for player, own in cache.groups.items()
                    for (ids_, positions), cands in zip(own, lists[player]))
    size = _profile_count((ids_, len(cands)) for ids_, _, cands in groups)
    if size > GRID_ENUM_MAX_PROFILES and not force:
        raise GuardError(f"joint grid holds {size} profiles "
                         f"(limit {GRID_ENUM_MAX_PROFILES})")
    return _grid_keys([(positions, cands) for _, positions, cands in groups],
                      [0] * len(cache.ids))


def _multisets(groups):
    """The product of the groups' multisets, given as (key positions, values):
    per group its nondecreasing tuples of len(positions) values in ascending
    order, the last group varying fastest. Every grid walk runs in this
    order, and `product` hands back the same tuple for a group that did not
    change."""
    return itertools.product(*(itertools.combinations_with_replacement(values, len(ps))
                               for ps, values in groups))


def _put(key: tuple, positions, starts) -> tuple:
    """`key` with each group's positions set to its tuple in `starts`."""
    out = list(key)
    for ps, tup in zip(positions, starts):
        for p, x in zip(ps, tup):
            out[p] = x
    return tuple(out)


def _grid_keys(groups, base):
    """Yield one key per combination of the groups' multisets, given as (key
    positions, candidate times): the key `base` with each group's positions
    rewritten. First-mode searches and enumeration walk their grids here."""
    key = list(base)
    positions = [ps for ps, _ in groups]
    last = [None] * len(groups)
    for combo in _multisets(groups):  # rewrites only the groups that moved
        for g, tup in enumerate(combo):
            if tup is not last[g]:
                last[g] = tup
                for p, x in zip(positions[g], tup):
                    key[p] = x
        yield tuple(key)


def grid_profiles(instance: Instance, resolution: int = 1, *,
                  force: bool = False) -> Iterator[Profile]:
    """All canonical joint profiles on the global grid (enumeration domain)."""
    cache = MachineCache.of(instance)
    for key in _iter_grid_coded(instance, resolution, force, cache):
        yield cache.profile(key)


def enumerate_grid_ne(instance: Instance, resolution: int = 1, *,
                      force: bool = False) -> list[tuple[Profile, Fraction]]:
    """Certified grid Nash equilibria with their values, sorted by value.

    Every profile on the global grid is tested against all players' grid
    deviations; survivors are exact NE relative to the grid. Each player's
    verdict is memoized per placement of the other players (see
    `_player_stable`).
    """
    cache = MachineCache.of(instance)
    found = _grid_ne(instance, cache, _iter_grid_coded(instance, resolution, force, cache),
                     force)
    return [(cache.profile(key), Fraction(value, cache.wden)) for value, key in found]


def _type_signer(cache: MachineCache, moving: int, pids):
    """(head starts, sign) for the key position `moving`, one job; the head
    is every other positive-length job. `sign(key[moving], head_starts(key))`
    is a signature of the key's DP-exact type: keys with equal signatures get
    equal (value, per-color utilities) from `_dp_core`.

    The DP compares three kinds of endpoint pairs: finish with finish, finish
    <= start, and start with start within one color. The signature is the
    head's full order pattern, interned to `pid`, the moving start's class
    (head finishes <= it, its code among the head starts of its color) and
    the moving finish's class (its code among the head finishes, head starts
    below it); a zero-length moving job, which the DP never sees, signs as
    (pid,). The code of x in a sorted list L is 2·bisect_left(L, x) plus 1
    if x is in L. The head's sorted distinct endpoints `F` and their pattern
    are rebuilt only when the head's starts change; the moving endpoints'
    classes are read by their codes in `F` from two class tables, built once
    per pattern and kept in a bounded table. Each pattern draws its `pid`
    from the counter `pids`, so signers that share one counter never give
    two types one signature."""
    lens = cache.lens
    n = lens[moving]
    color = {p: c for p, _, _, _, c in cache.rows}
    head = [p for p, length in enumerate(lens) if length and p != moving]
    head_lens = [lens[p] for p in head]
    mine = [color[p] == color.get(moving) for p in head]
    head_starts = (itemgetter(*head) if len(head) > 1
                   else lambda key: tuple([key[p] for p in head]))
    patterns: dict = {}  # pattern -> (pid, start classes, finish classes)

    def tables(pattern: tuple):
        # Code 2i lies below F's point i and 2i + 1 on it. Along the codes a
        # start's class (head finishes <= it, code among own-color head
        # starts) changes on a point that is a finish or an own-color start,
        # and past an own-color start; a finish's class (code among head
        # finishes, head starts below it) changes on a finish, and past a
        # finish or a start. A class is numbered by the changes before it.
        fin, start, own = ([0] * (max(pattern, default=-1) + 1) for _ in range(3))
        for r, m in zip(pattern, mine):
            start[r] = 1
            own[r] |= m
        for r in pattern[len(head):]:
            fin[r] = 1
        sc, fc = [0], [0]
        for f, s, o in zip(fin, start, own):
            sc += [sc[-1] + (f | o), sc[-1] + (f | o) + o]
            fc += [fc[-1] + f, fc[-1] + f + (f | s)]
        return next(pids), tuple(sc), tuple(fc)

    # (head starts, F, F's ranks, the pattern's entry), replaced as one value.
    state = (None, [], {}, None)

    def sign(x: int, starts) -> tuple:
        nonlocal state
        last, F, rank, entry = state
        if starts != last:
            ends = [s + h for s, h in zip(starts, head_lens)]
            F = sorted(set(starts).union(ends))
            rank = {s: i for i, s in enumerate(F)}
            pattern = tuple([rank[s] for s in starts] + [rank[s] for s in ends])
            entry = patterns.get(pattern) or _bounded_put(
                patterns, pattern, tables(pattern), machine.GRID_CACHE_LIMIT)
            state = starts, F, rank, entry
        pid, sc, fc = entry
        if not n:
            return pid,
        y = x + n
        i = bisect_left(F, x)
        return pid, sc[2 * i + (x in rank)], fc[2 * bisect_left(F, y, i) + (y in rank)]

    return head_starts, sign


def _typed_walk(position: int, pix: int, signer, types: dict, solve):
    """A one-job player's verdict search in grid-NE enumeration:
    `walk(key, starts, u_cur)` moves the job at key position `position`
    through the ascending ints `starts` and returns the first (key, utility
    at color index `pix`) above `u_cur`, or None, as a first-improvement
    `_player_search` of that list does. It reads the job's head once
    (`signer`, the job's `_type_signer`), signs each start against it and
    reads the type memo `types`, storing `solve`'s answer on a miss. It
    builds a key only for `solve` and for its result, and writes nothing to
    the core's memo."""
    head_starts, sign = signer

    def walk(key: tuple, starts: list, u_cur: int):
        head = head_starts(key)
        for x in starts:
            sig = sign(x, head)
            hit = types.get(sig)
            if hit is None:
                hit = _bounded_put(types, sig, solve(key[:position] + (x,) + key[position + 1:]))
            u = hit[1][pix]
            if u > u_cur:
                return key[:position] + (x,) + key[position + 1:], u
        return None

    return walk


def _grid_ne(instance: Instance, cache: MachineCache, keys,
             force: bool) -> list[tuple[int, tuple]]:
    """The grid equilibria among `keys`, given in `_grid_keys` order, as
    (value over `wden`, key) pairs, sorted as `enumerate_grid_ne` returns
    them.

    A key missing from the core's memo is answered from a DP-exact type memo
    that lives for this call only, and `_dp_core` runs on a type miss; a
    table of the call's distinct answers, bounded at `machine.MEMO_LIMIT`
    entries like the type memo, gives equal answers one tuple. The keys are
    signed on the job `_grid_keys` moves fastest (`_type_signer`). A player
    whose only job has positive length searches by a typed walk
    (`_typed_walk`) on that job's signer, the moving job's owner on the
    enumeration's; every signer draws its pattern ids from one counter, so
    all share the type memo. Multi-job players search by `_player_search`.
    Nothing here stores a key in the core's memo.

    The keys come in blocks that move only that job, whose start rises
    through a block, so the head is read only where it does not rise. Each
    key's verdict is `_profile_stable`'s, which reads the players' grid
    records and leaves building them, searching and writing bounds to
    `_player_stable`. When the moving job's owner has no other job, its
    records are keyed by every other start, fixed over one block and never
    recurring, so each leaves the grid cache when its block ends; a record
    holds only proven bounds, so no verdict, search or DP count changes."""
    (_, positions), owner = max((group, player) for player, groups in cache.groups.items()
                                for group in groups)
    moving, pids = positions[-1], itertools.count()
    signer = _type_signer(cache, moving, pids)
    head_starts, sign = signer
    memo, types, answers = cache._cache, {}, {}

    def solve(key: tuple):  # one tuple per distinct answer, shared by its types
        hit = cache.solve_key(key)
        return answers.get(hit) or _bounded_put(answers, hit, hit)

    def lookup(key: tuple):  # a walk's type miss
        return memo.get(key) or solve(key)

    walks = {}
    for player in instance.color_ids:
        own = instance.jobs_of_color(player)
        p = cache.pos[own[0].id]
        if len(own) == 1 and cache.lens[p]:
            walks[player] = _typed_walk(
                p, cache.color_index[player],
                signer if p == moving else _type_signer(cache, p, pids), types, lookup)
    # Stability is a conjunction over players, so scan cheap searches first.
    scan = _scan(instance, cache, sorted(
        instance.color_ids, key=lambda c: (len(instance.jobs_of_color(c)), c)), walks)
    owner = owner if len(instance.jobs_of_color(owner)) == 1 else None
    found, block, last = [], None, math.inf
    for key in keys:
        x = key[moving]
        if x <= last:  # a new block
            head = head_starts(key)
            if owner is not None:  # the owner's record of the last block is done
                cache.grid_cache.pop(block, None)
                block = cache.others_key(owner, key)
        last = x
        hit = memo.get(key)
        if hit is None:
            sig = sign(x, head)
            hit = types.get(sig) or _bounded_put(types, sig, solve(key))
        value, per = hit
        if _profile_stable(instance, cache, key, per, scan, force):
            found.append((value, key))
    # Every key is on one scale, so (value, starts in job-id order) sorts the
    # results as (Fraction value, placements) does.
    by_id = [cache.pos[jid] for jid in sorted(cache.ids)]
    found.sort(key=lambda vk: (vk[0], [vk[1][p] for p in by_id]))
    return found


# ---------------------------------------------------------------------------
# Best-response dynamics

def brd(instance: Instance, initial: Profile, order: str = "round_robin",
        max_iters: int = 500, *, resolution: int = 1,
        force: bool = False) -> BrdOutcome:
    """Iterated best responses over the fixed global grid.

    The grid keeps the reachable state space finite, so revisiting an exact
    profile is a complete cycle test. Stops on stability (a full pass with no
    improving player), on a revisited profile, or at max_iters accepted moves.
    """
    if order not in ("round_robin", "first_improving"):
        raise ValidationError(f"unknown BRD order {order!r}")
    _check_int(max_iters, "max_iters", 0)
    starts = validate_profile(instance, initial).as_dict()
    cache = MachineCache.of(instance, starts.values())
    key = cache.key(starts)
    lists = _global_lists(cache, resolution)
    colors = instance.color_ids
    seen = {key: 0}  # the visited keys, in visiting order
    trace: list[tuple[int, Fraction, Fraction]] = []
    iterations = 0
    pointer = 0
    quiet = 0  # players checked since the last accepted move
    while True:
        if quiet >= len(colors):
            return BrdOutcome("converged", cache.profile(key), None,
                              iterations, tuple(trace))
        if iterations >= max_iters:
            return BrdOutcome("iteration_cap", cache.profile(key), None,
                              iterations, tuple(trace))
        if order == "round_robin":
            player = colors[pointer % len(colors)]
            pointer += 1
        else:
            player = colors[quiet]
        best, u = _player_search(instance, cache, key, player, mode="best", force=force,
                                 lists=lists[player], prefer_value=True)
        u_cur = cache.evaluate_key(key)[1][cache.color_index[player]]
        if u > u_cur:
            key = best
            iterations += 1
            quiet = 0
            trace.append((player, Fraction(u - u_cur, cache.wden), cache.value(key)))
            if key in seen:
                cycle = tuple(map(cache.profile, list(seen)[seen[key]:]))
                return BrdOutcome("cycle_detected", None, cycle,
                                  iterations, tuple(trace))
            seen[key] = len(seen)
        else:
            quiet += 1


# ---------------------------------------------------------------------------
# Constructive equilibria

def ne_single(instance: Instance) -> Profile:
    """NE construction for one-job-per-color games.

    Let h be the heaviest job and {a, b} the heaviest pair that fits in the
    horizon together. If no pair fits, or h outweighs the pair, stack every
    job at time 0 (the machine covers h alone). Otherwise lay a then b from 0,
    append the rest by nonincreasing weight while they fit, and park each
    non-fitting job so that it intersects both a and b.
    """
    if not instance.is_single:
        raise UnsupportedInstanceError("construction requires one job per color")
    if instance.has_windows:
        raise UnsupportedInstanceError("construction does not support windows")
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    T = instance.horizon
    h = max(jobs, key=lambda j: (j.weight, -j.id))
    best_pair = None
    best_pair_w = None
    for x in range(len(jobs)):
        for y in range(x + 1, len(jobs)):
            if jobs[x].length + jobs[y].length <= T:
                w = jobs[x].weight + jobs[y].weight
                if best_pair is None or w > best_pair_w:
                    best_pair, best_pair_w = (jobs[x], jobs[y]), w
    if best_pair is None or best_pair_w <= h.weight:
        return Profile.from_dict({j.id: ZERO for j in jobs})
    a, b = best_pair
    starts = {a.id: ZERO, b.id: a.length}
    busy = a.length + b.length
    rest = sorted((j for j in jobs if j.id not in (a.id, b.id)),
                  key=lambda j: (-j.weight, j.id))
    for j in rest:
        if busy + j.length <= T:
            starts[j.id] = busy
            busy += j.length
        else:
            s = a.length - j.length / 2
            if s < 0:
                s = ZERO
            if s > T - j.length:
                s = T - j.length
            starts[j.id] = s  # intersects both [0, p_a) and [p_a, p_a + p_b)
    return Profile.from_dict(starts)


def ne_unit(instance: Instance) -> Profile:
    """NE construction for unit-length games: the floor(T) heaviest colors get
    slots [i-1, i); everyone else stacks at [0, 1). Its value is the optimum."""
    if not instance.is_unit:
        raise UnsupportedInstanceError("construction requires unit-length jobs")
    if instance.has_windows:
        raise UnsupportedInstanceError("construction does not support windows")
    T = instance.horizon
    k = T.numerator // T.denominator
    if k < 1:
        raise UnsupportedInstanceError("horizon below 1: no unit job fits")
    totals = {c: sum((j.weight for j in instance.jobs_of_color(c)), ZERO)
              for c in instance.color_ids}
    ranked = sorted(instance.color_ids, key=lambda c: (-totals[c], c))
    starts: dict[int, Fraction] = {}
    for rank, color in enumerate(ranked):
        slot = Fraction(rank) if rank < k else ZERO
        for j in instance.jobs_of_color(color):
            starts[j.id] = slot
    return Profile.from_dict(starts)


# ---------------------------------------------------------------------------
# Analysis

def instance_classes(instance: Instance) -> tuple[str, ...]:
    tags = []
    if instance.is_single:
        tags.append("single")
    if instance.is_unit:
        tags.append("unit")
    if instance.is_prop:
        tags.append("prop")
    if instance.num_colors == 2:
        tags.append("two-player")
    if instance.has_windows:
        tags.append("windowed")
    if not tags:
        tags.append("general")
    return tuple(tags)


def applicable_bounds(instance: Instance) -> list[tuple[str, Fraction]]:
    """All anarchy bounds that apply to this instance's class."""
    n = len(instance.jobs)
    c = instance.num_colors
    bounds = [("general", Fraction(c))]
    if c == 2:
        bounds.append(("two-player", Fraction(2)))
    if instance.is_single:
        if n <= 5:
            bounds.append(("single-small", Fraction(2)))
        else:
            bounds.append(("single-large", Fraction(n - 1, 2)))
        if instance.is_prop:
            bounds.append(("prop-single", Fraction(3)))
    if instance.is_unit:
        k = math.floor(instance.horizon)
        if k >= 1:
            bounds.append(("unit", min(3 - Fraction(2, k), 3 - Fraction(2, c))))
    return bounds


def tightest_bound(instance: Instance) -> tuple[str, Fraction]:
    return min(applicable_bounds(instance), key=lambda nb: (nb[1], nb[0]))


def analyze(instance: Instance, resolution: int = 1, *,
            force: bool = False) -> AnalysisReport:
    """Compute the optimum, enumerate grid equilibria, and check the tightest
    applicable anarchy bound. Results are grid-relative: an empty NE list
    means none exists on this grid, not necessarily in the continuum."""
    from .optimum import social_optimum_enumerate
    cache = MachineCache.of(instance)
    # Built first, so a bad resolution or an oversized grid is reported
    # before the optimum's subset enumeration runs.
    keys = _iter_grid_coded(instance, resolution, force, cache)
    _, opt = social_optimum_enumerate(instance, force=force)
    nes = _grid_ne(instance, cache, keys, force)
    name, bound = tightest_bound(instance)
    classes = instance_classes(instance)
    if not nes:
        return AnalysisReport(opt, (), None, None, name, bound, None,
                              "no_ne_found", None, None, classes)
    # Only the worst and the best equilibria are reported as profiles.
    values = tuple(Fraction(v, cache.wden) for v, _ in nes)
    worst, best = values[0], values[-1]
    worst_profile, best_profile = cache.profile(nes[0][1]), cache.profile(nes[-1][1])
    poa_lower = opt / worst if worst > 0 else None
    pos_upper = opt / best if best > 0 else None
    satisfied = None if poa_lower is None else poa_lower <= bound
    return AnalysisReport(opt, values, poa_lower, pos_upper, name, bound,
                          satisfied, "ok", worst_profile, best_profile, classes)
