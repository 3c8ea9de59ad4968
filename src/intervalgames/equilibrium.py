"""Best responses, Nash-equilibrium checks, best-response dynamics, NE
constructions, and price-of-anarchy analysis.

Strategies are continuous, so searches run over a finite candidate grid:
endpoint-aligned starts (the job's own bounds plus finishes and shifted starts
of fixed jobs) together with interior representatives obtained by shifting
every event point by half the minimum gap. Deviations found this way are
exact and unconditional; *absence* of deviations is a statement about the
grid, and reports say so.

Grid-NE enumeration memoizes each player's verdict, keyed on the other
players' placements (see `_player_stable`). The memo is exact: it holds only
bounds that a search over the same grid proved. It is bounded: it lives in
the per-instance grid cache, which is cleared past 100,000 entries. It
leaves the searched grid unchanged, so the enumerated equilibria are those
of the plain search. Utilities are compared as integers over the lcm of the
weight denominators and returned as `Fraction`s.
"""

from __future__ import annotations

import itertools
import math
import weakref
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from .machine import machine_value_and_covered
from .model import (ZERO, GuardError, Instance, InternalFailure, Profile,
                    UnsupportedInstanceError, ValidationError, validate_profile)

BEST_RESPONSE_MAX_JOBS = 8
BEST_RESPONSE_MAX_GRID = 64
GRID_ENUM_MAX_PROFILES = 10 ** 6


class MachineCache:
    """Memoized machine responses for one instance.

    Cache keys are tuples of small ints, one start code per job in instance
    order: every distinct start value is interned once, so the hot path
    never hashes a Fraction. Cached values are (total, per-color utilities)
    with colors indexed densely. Utilities are ints scaled by `wden`, the
    lcm of the weight denominators, so the search compares them exactly
    without `Fraction` arithmetic; `utility` and every search result convert
    back."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.ids = tuple(j.id for j in instance.jobs)
        self.pos = {jid: i for i, jid in enumerate(self.ids)}
        self.color_index = {c: i for i, c in enumerate(instance.color_ids)}
        self.wden = math.lcm(*[j.weight.denominator for j in instance.jobs])
        self._job_cix = [self.color_index[j.color] for j in instance.jobs]
        self._job_w = [self.scaled(j.weight) for j in instance.jobs]
        self.totals = [0] * len(self.color_index)
        for cix, w in zip(self._job_cix, self._job_w):
            self.totals[cix] += w
        # Per player: its interchangeable-job groups (same length, weight and
        # window) as (sorted ids, key positions), ordered by smallest id, and
        # a getter for the other players' codes in a key.
        self.groups: dict[int, list[tuple[list[int], list[int]]]] = {}
        self._others = {}
        for c in instance.color_ids:
            by_key: dict[tuple, list[int]] = {}
            for j in instance.jobs_of_color(c):
                by_key.setdefault((j.length, j.weight, j.window), []).append(j.id)
            self.groups[c] = [(ids_, [self.pos[i] for i in ids_])
                              for ids_ in sorted(map(sorted, by_key.values()))]
            other = [p for p, j in enumerate(instance.jobs) if j.color != c]
            self._others[c] = itemgetter(*other) if other else (lambda key: ())
        self._intern: dict[Fraction, int] = {}
        self._cache: dict = {}
        self.grid_cache: dict = {}

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


class _GridRecord:
    """One player's aligned candidates against fixed other placements, and
    the player's verdict bounds there, in scaled utilities.

    `coded` holds one sorted (value, code) list per group of
    `MachineCache.groups`. `lo` is the best utility of a deviation found on
    this aligned grid (-1 before any), `hi` a ceiling on every utility over
    it (the player's total before a search proves a lower one)."""

    __slots__ = ("coded", "lo", "hi")

    def __init__(self, coded: list, hi: int):
        self.coded = coded
        self.lo = -1
        self.hi = hi


_CACHES: "weakref.WeakKeyDictionary[Instance, MachineCache]" = weakref.WeakKeyDictionary()


def _cache_for(instance: Instance) -> MachineCache:
    cache = _CACHES.get(instance)
    if cache is None:
        cache = MachineCache(instance)
        _CACHES[instance] = cache
    return cache


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

    def strategy_dict(self) -> dict[int, Fraction]:
        return dict(self.new_strategy)


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


def build_grid(instance: Instance, fixed_starts: Mapping[int, Fraction],
               player: int) -> CandidateGrid:
    """Candidate starts for every job of `player` against fixed placements.

    Aligned candidates: the job's own feasibility bounds, each fixed job's
    finish, start, and start minus the moving job's length. Interior
    representatives: every aligned point shifted by half the smallest gap.
    Computed on integer numerators over twice the common denominator of the
    inputs, so half a gap is an integer too.
    """
    T = instance.horizon
    own = instance.jobs_of_color(player)
    if not own:
        raise ValidationError(f"instance has no player {player}")
    fixed = [(instance.job(jid), s) for jid, s in fixed_starts.items()]
    den = 2 * math.lcm(*[x.denominator for k, s in fixed for x in (s, k.length)],
                       *[x.denominator for j in own
                         for x in (j.release, j.due(T), j.length)])

    def scaled(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    fixed_n = [(k.id, scaled(s), scaled(s + k.length)) for k, s in fixed]
    fractions: dict[int, Fraction] = {}
    entries = []
    for j in own:
        lo = scaled(j.release)
        length = scaled(j.length)
        hi = scaled(j.due(T)) - length
        bound_tag = "window-clipped" if j.window is not None else "endpoint-aligned"
        points: dict[int, str] = {lo: bound_tag, hi: bound_tag}
        for kid, sk, fk in fixed_n:
            if kid == j.id:
                continue
            for cand in (fk, sk - length, sk):
                if lo <= cand <= hi:
                    points.setdefault(cand, "endpoint-aligned")
        event = sorted(points)
        if len(event) > 1:
            delta = min(b - a for a, b in zip(event, event[1:])) // 2
            for m in event:
                cand = m + delta
                if lo <= cand <= hi:
                    points.setdefault(cand, "interior-shifted")
        cands = []
        for n, tag in sorted(points.items()):
            x = fractions.get(n)
            if x is None:
                x = fractions[n] = Fraction(n, den)
            cands.append((x, tag))
        entries.append((j.id, tuple(cands)))
    return CandidateGrid(player, tuple(entries))


def _has_code(coded, code: int) -> bool:
    for _, c in coded:
        if c == code:
            return True
    return False


def _missing(coded, positions, key: tuple) -> int:
    """Number of distinct start codes of a group's jobs absent from `coded`."""
    missing = []
    for p in positions:
        code = key[p]
        if code not in missing and not _has_code(coded, code):
            missing.append(code)
    return len(missing)


def _job_guard(player: int, count: int, force: bool) -> None:
    if count > BEST_RESPONSE_MAX_JOBS and not force:
        raise GuardError(f"player {player} controls {count} jobs "
                         f"(joint search limit {BEST_RESPONSE_MAX_JOBS})")


def _grid_guard(ids_, size: int, force: bool) -> None:
    if size > BEST_RESPONSE_MAX_GRID and not force:
        raise GuardError(f"jobs {ids_} have {size} candidate "
                         f"starts (limit {BEST_RESPONSE_MAX_GRID})")


def _coded_lists(cache: MachineCache, player: int, candidates) -> list:
    """One sorted (value, code) list per job group of the player: the union
    of `candidates(job id)` over the group's jobs."""
    lists = []
    for ids_, _ in cache.groups[player]:
        merged = {}
        for i in ids_:
            for s in candidates(i):
                merged[cache.intern(s)] = s
        lists.append(sorted((v, c) for c, v in merged.items()))
    return lists


def _coded_grid(instance: Instance, cache: MachineCache, starts, player: int,
                key: tuple):
    """The player's grid record and per-group candidate (value, code) lists.

    The aligned part depends only on the other players' placements, which
    repeat across enumeration sweeps, so it is cached in a `_GridRecord`;
    each job's current start is merged into its group's list afterwards.
    Interchangeable jobs share one group searched over nondecreasing tuples."""
    others_key = cache.others_key(player, key)
    record = cache.grid_cache.get(others_key)
    if record is None:
        grid = build_grid(instance, {i: starts[i] for i in cache.ids
                                     if instance.job(i).color != player}, player)
        coded = _coded_lists(cache, player, grid.starts)
        if len(cache.grid_cache) > 100_000:
            cache.grid_cache.clear()
        record = cache.grid_cache[others_key] = _GridRecord(
            coded, cache.totals[cache.color_index[player]])
    groups = []
    for (ids_, positions), coded in zip(cache.groups[player], record.coded):
        union = coded
        for i, p in zip(ids_, positions):
            code = key[p]
            if not _has_code(union, code):
                if union is coded:
                    union = list(coded)
                insort(union, (starts[i], code))
        groups.append((ids_, union))
    return record, groups


def _player_search(instance: Instance, cache: MachineCache,
                   starts: Mapping[int, Fraction], player: int, *,
                   mode: str, force: bool = False, grid_override=None,
                   prefer_value: bool = False, key=None):
    """Search the player's joint strategy grid.

    mode="best": return (strategy dict, utility), preferring the current
    strategy when it already attains the maximum. With prefer_value, ties on
    utility go to the strategy the machine values most (dynamics use this:
    stacking onto an already-covered slot never lowers the machine's total).
    mode="first": return the first strictly improving Deviation, or None.
    """
    own = instance.jobs_of_color(player)
    if not own:
        raise ValidationError(f"instance has no player {player}")
    if key is None:
        key = cache.key(starts)
    pix = cache.color_index[player]
    u_cur = cache.evaluate_key(key, starts)[1][pix]
    current = {j.id: starts[j.id] for j in own}
    if u_cur == cache.totals[pix]:  # fully covered players cannot improve
        return (current, Fraction(u_cur, cache.wden)) if mode == "best" else None
    _job_guard(player, len(own), force)

    if grid_override is not None:
        coded_groups = list(zip([ids_ for ids_, _ in cache.groups[player]],
                                _coded_lists(cache, player, grid_override.__getitem__)))
    else:
        _, coded_groups = _coded_grid(instance, cache, starts, player, key)
    for ids_, coded in coded_groups:
        _grid_guard(ids_, len(coded), force)

    work = dict(starts)
    base_key = list(key)
    coded_groups = [(ids_, coded, [cache.pos[i] for i in ids_])
                    for ids_, coded in coded_groups]
    best_u = u_cur
    best_value = None
    best_assign = None
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(coded, len(ids_))
            for ids_, coded, _ in coded_groups)):
        for (ids_, _, positions), tup in zip(coded_groups, combo):
            for jid, p, (sv, code) in zip(ids_, positions, tup):
                work[jid] = sv
                base_key[p] = code
        value, per = cache.evaluate_key(tuple(base_key), work)
        u = per[pix]
        if u > best_u or (prefer_value and best_assign is not None
                          and u == best_u and value > best_value):
            if mode == "first":
                strategy = tuple(sorted((j.id, work[j.id]) for j in own))
                return Deviation(player, strategy, Fraction(u_cur, cache.wden),
                                 Fraction(u, cache.wden))
            best_u = u
            best_value = value
            best_assign = {j.id: work[j.id] for j in own}
    if mode == "first":
        return None
    if best_assign is None:
        return (current, Fraction(u_cur, cache.wden))
    return (best_assign, Fraction(best_u, cache.wden))


def _player_stable(instance: Instance, cache: MachineCache, starts, key: tuple,
                   per: tuple, player: int, force: bool) -> bool:
    """Whether the player has no improving grid move: the verdict of a
    first-improvement `_player_search`, with the same guards in the same
    order, read from the grid record's bounds when they settle it.

    Only the player's current starts make its searched grid differ from the
    aligned grid of the record, and a deviation's utility depends only on
    the other players' placements. So a recorded aligned-grid deviation
    worth more than the current utility refutes the player, and when every
    current start is already on its group's aligned list, a recorded
    ceiling no higher than the current utility proves it stable. A search
    updates the bounds only in that second case."""
    pix = cache.color_index[player]
    u_cur = per[pix]
    if u_cur == cache.totals[pix]:
        return True
    _job_guard(player, len(instance.jobs_of_color(player)), force)
    record = cache.grid_cache.get(cache.others_key(player, key))
    if record is None:
        record, _ = _coded_grid(instance, cache, starts, player, key)
    groups = cache.groups[player]
    for (ids_, positions), coded in zip(groups, record.coded):
        # A group's union adds at most one start per job to its aligned list.
        if len(coded) + len(ids_) > BEST_RESPONSE_MAX_GRID:
            _grid_guard(ids_, len(coded) + _missing(coded, positions, key), force)
    if record.lo > u_cur:
        return False
    aligned = not any(_missing(coded, positions, key)
                      for (_, positions), coded in zip(groups, record.coded))
    if aligned and record.hi <= u_cur:
        return True
    dev = _player_search(instance, cache, starts, player, mode="first",
                         force=force, key=key)
    if aligned:
        if dev is None:
            record.hi = u_cur
        else:
            record.lo = cache.scaled(dev.utility_after)
    return dev is None


def best_response(instance: Instance, profile: Profile, player: int, *,
                  force: bool = False) -> tuple[dict[int, Fraction], Fraction]:
    """Utility-maximizing joint placement of the player's jobs over the grid.

    Among maximizers the current strategy wins if it attains the maximum,
    otherwise the lexicographically smallest start vector is returned.
    """
    cache = _cache_for(instance)
    return _player_search(instance, cache, profile.as_dict(), player,
                          mode="best", force=force)


def is_nash(instance: Instance, profile: Profile, *, first_improvement: bool = False,
            force: bool = False, players=None) -> Optional[Deviation]:
    """Return None when no player improves over the grid, else a Deviation.

    Players are scanned in color order. By default each player's full best
    response is computed; first_improvement=True short-circuits on the first
    improving move (same stable/unstable verdict, cheaper witness). `players`
    restricts the scan to a subset of colors.
    """
    cache = _cache_for(instance)
    starts = profile.as_dict()
    scan = instance.color_ids if players is None else tuple(sorted(players))
    for player in scan:
        if first_improvement:
            dev = _player_search(instance, cache, starts, player, mode="first",
                                 force=force)
            if dev is not None:
                return dev
        else:
            strategy, u = _player_search(instance, cache, starts, player,
                                         mode="best", force=force)
            u_cur = cache.utility(starts, player)
            if u > u_cur:
                return Deviation(player, tuple(sorted(strategy.items())), u_cur, u)
    return None


def verify_deviation(instance: Instance, profile: Profile, dev: Deviation) -> bool:
    """Re-check a deviation from scratch (no caches): exact strict improvement."""
    before, covered_before = machine_value_and_covered(instance, profile.as_dict())
    starts = profile.as_dict()
    starts.update(dev.strategy_dict())
    after, covered_after = machine_value_and_covered(instance, starts)
    weight = {j.id: j.weight for j in instance.jobs}
    color = {j.id: j.color for j in instance.jobs}
    u_before = sum((weight[i] for i in covered_before if color[i] == dev.player), ZERO)
    u_after = sum((weight[i] for i in covered_after if color[i] == dev.player), ZERO)
    return (u_before == dev.utility_before and u_after == dev.utility_after
            and u_after > u_before)


# ---------------------------------------------------------------------------
# Global event grid (finite play space for BRD and NE enumeration)

def global_grid_points(instance: Instance, resolution: int = 1) -> tuple[Fraction, ...]:
    """Alignment closure of {0, T} (and window bounds) under adding and
    subtracting job lengths, `resolution` rounds deep, plus one interior
    shift by half the minimum gap."""
    T = instance.horizon
    pts = {ZERO, T}
    for j in instance.jobs:
        if j.window is not None:
            pts.add(j.window[0])
            pts.add(j.window[1])
    lengths = sorted({j.length for j in instance.jobs if j.length > 0})
    for _ in range(max(1, resolution)):
        for x in list(pts):
            for p in lengths:
                y = x + p
                if y <= T:
                    pts.add(y)
                y = x - p
                if y >= ZERO:
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


def grid_candidates(instance: Instance,
                    resolution: int = 1) -> dict[int, tuple[Fraction, ...]]:
    """Global-grid start candidates per job, clipped to feasibility."""
    points = global_grid_points(instance, resolution)
    out = {}
    for j in instance.jobs:
        lo = j.release
        hi = j.due(instance.horizon) - j.length
        cands = {g for g in points if lo <= g <= hi}
        cands.add(lo)
        cands.add(hi)
        out[j.id] = tuple(sorted(cands))
    return out


def _grid_groups(instance: Instance, candidates):
    by_key: dict[tuple, list[int]] = {}
    for j in instance.jobs:
        by_key.setdefault((j.color, j.length, j.weight, j.window), []).append(j.id)
    groups = []
    for ids_ in sorted(by_key.values(), key=min):
        groups.append((sorted(ids_), candidates[ids_[0]]))
    return groups


def joint_grid_size(instance: Instance, resolution: int = 1) -> int:
    """Number of enumerated joint profiles (identical same-color jobs are
    interchangeable, so each group contributes multisets, not tuples)."""
    candidates = grid_candidates(instance, resolution)
    size = 1
    for ids_, cands in _grid_groups(instance, candidates):
        size *= math.comb(len(cands) + len(ids_) - 1, len(ids_))
    return size


def _iter_grid_coded(instance: Instance, resolution: int, force: bool,
                     cache: MachineCache):
    """Yield (starts, key) for every joint grid profile."""
    size = joint_grid_size(instance, resolution)
    if size > GRID_ENUM_MAX_PROFILES and not force:
        raise GuardError(f"joint grid holds {size} profiles "
                         f"(limit {GRID_ENUM_MAX_PROFILES})")
    candidates = grid_candidates(instance, resolution)
    groups = [(ids_, [cache.pos[i] for i in ids_],
               [(v, cache.intern(v)) for v in cands])
              for ids_, cands in _grid_groups(instance, candidates)]
    key = [0] * len(cache.ids)
    for combo in itertools.product(*(
            itertools.combinations_with_replacement(coded, len(ids_))
            for ids_, _, coded in groups)):
        starts: dict[int, Fraction] = {}
        for (ids_, positions, _), tup in zip(groups, combo):
            for jid, p, (sv, code) in zip(ids_, positions, tup):
                starts[jid] = sv
                key[p] = code
        yield starts, tuple(key)


def grid_profiles(instance: Instance, resolution: int = 1, *,
                  force: bool = False) -> Iterator[Profile]:
    """All canonical joint profiles on the global grid (enumeration domain)."""
    cache = _cache_for(instance)
    for starts, _ in _iter_grid_coded(instance, resolution, force, cache):
        yield Profile.from_dict(starts)


def enumerate_grid_ne(instance: Instance, resolution: int = 1, *,
                      force: bool = False) -> list[tuple[Profile, Fraction]]:
    """Certified grid Nash equilibria with their values, sorted by value.

    Every profile on the global grid is tested against all players' grid
    deviations; survivors are exact NE relative to the grid. Each player's
    verdict comes from `_player_stable`, which memoizes it per placement of
    the other players.
    """
    cache = _cache_for(instance)
    # Stability is a conjunction over players, so scan cheap searches first.
    scan_order = sorted(instance.color_ids,
                        key=lambda c: (len(instance.jobs_of_color(c)), c))
    results = []
    for starts, key in _iter_grid_coded(instance, resolution, force, cache):
        value, per = cache.evaluate_key(key, starts)
        if all(_player_stable(instance, cache, starts, key, per, player, force)
               for player in scan_order):
            results.append((Profile.from_dict(starts), value))
    results.sort(key=lambda pv: (pv[1], pv[0].placements))
    return results


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
    validate_profile(instance, initial)
    cache = _cache_for(instance)
    gcands = grid_candidates(instance, resolution)
    starts = initial.as_dict()
    colors = instance.color_ids
    ids = tuple(j.id for j in instance.jobs)
    seen = {tuple(starts[i] for i in ids): 0}
    history = [Profile.from_dict(starts)]
    trace: list[tuple[int, Fraction, Fraction]] = []
    iterations = 0
    pointer = 0
    quiet = 0  # players checked since the last accepted move
    while True:
        if quiet >= len(colors):
            return BrdOutcome("converged", Profile.from_dict(starts), None,
                              iterations, tuple(trace))
        if iterations >= max_iters:
            return BrdOutcome("iteration_cap", Profile.from_dict(starts), None,
                              iterations, tuple(trace))
        if order == "round_robin":
            player = colors[pointer % len(colors)]
            pointer += 1
        else:
            player = colors[quiet]
        strategy, u = _player_search(instance, cache, starts, player,
                                     mode="best", force=force,
                                     grid_override=gcands, prefer_value=True)
        u_cur = cache.utility(starts, player)
        if u > u_cur:
            starts.update(strategy)
            iterations += 1
            quiet = 0
            trace.append((player, u - u_cur, cache.value(starts)))
            key = tuple(starts[i] for i in ids)
            if key in seen:
                cycle = tuple(history[seen[key]:])
                return BrdOutcome("cycle_detected", None, cycle,
                                  iterations, tuple(trace))
            seen[key] = len(history)
            history.append(Profile.from_dict(starts))
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

def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


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
        k = _floor(instance.horizon)
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
    _, opt = social_optimum_enumerate(instance, force=force)
    nes = enumerate_grid_ne(instance, resolution, force=force)
    name, bound = tightest_bound(instance)
    classes = instance_classes(instance)
    if not nes:
        return AnalysisReport(opt, (), None, None, name, bound, None,
                              "no_ne_found", None, None, classes)
    values = tuple(v for _, v in nes)
    worst_profile, worst = nes[0]
    best_profile, best = nes[-1]
    poa_lower = opt / worst if worst > 0 else None
    pos_upper = opt / best if best > 0 else None
    satisfied = None if poa_lower is None else poa_lower <= bound
    return AnalysisReport(opt, values, poa_lower, pos_upper, name, bound,
                          satisfied, "ok", worst_profile, best_profile, classes)
