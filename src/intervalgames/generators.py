"""Named fixture games with machine-checkable facts, seeded random instance
families, and hardness-reduction constructions packaged as instance builders.

Fixture epsilon/delta parameters are concrete rationals chosen so every strict
inequality the construction relies on holds with slack under the solver's
deterministic tie-breaking.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .model import (ONE, ZERO, Instance, InternalFailure, Job, Profile,
                    ValidationError, _check_int, rational_str, to_rational,
                    validate_instance)

F = Fraction


@dataclass(frozen=True)
class Fact:
    """A machine-checkable claim about a fixture.

    kinds: opt_value; ne_value (value of the named profile, which must also
    certify stable); machine_value (value only); no_ne / has_ne (grid
    enumeration is empty, or the named profile is a certified equilibrium);
    utilities (per-color vector of the named profile); poa / pos (opt divided
    by the named worst / best equilibrium value); grid_poa (opt over the
    worst enumerated grid equilibrium); grid_ne_values (the set of all grid
    equilibrium values); stable_players (the listed colors have no improving
    deviation from the named profile); value_dominates (the named profile's
    machine value, and a strictly smaller best-alternative value); br_value /
    br_below (best response of `player` from the named profile equals /
    stays strictly below the payload).
    """

    kind: str
    payload: object = None
    profile: Optional[str] = None
    player: Optional[int] = None


@dataclass(frozen=True)
class Fixture:
    name: str
    instance: Instance
    facts: tuple[Fact, ...]
    notable_profiles: Mapping[str, Profile] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)


def _jobs(*specs) -> tuple[Job, ...]:
    return tuple(Job(i + 1, c, F(p), F(w), win)
                 for i, (c, p, w, win) in enumerate(specs))


def _fixture_ex1() -> Fixture:
    """Two players, T=4: a full-horizon job plus a unit job against a single
    heavier unit job. No profile is stable: the single-job player escapes
    overlaps, the two-job player re-creates them."""
    inst = validate_instance(Instance(F(4), _jobs(
        (1, 4, 2, None), (1, 1, 2, None), (2, 1, 3, None))))
    figure_a = Profile.from_dict({1: ZERO, 2: ZERO, 3: F(1)})
    figure_b = Profile.from_dict({1: ZERO, 2: F(1), 3: F(1)})
    facts = (
        Fact("utilities", (F(2), F(3)), profile="figure_a"),
        Fact("utilities", (F(4), ZERO), profile="figure_b"),
        Fact("opt_value", F(5)),
        Fact("no_ne"),
    )
    return Fixture("ex1", inst, facts,
                   {"figure_a": figure_a, "figure_b": figure_b})


def _fixture_prop_no_ne(epsilon=F(1, 10)) -> Fixture:
    """Proportional-weight two-player game with no equilibrium: T=3, one
    length-3 and one unit job against four jobs of length 1 - epsilon."""
    epsilon = to_rational(epsilon, "epsilon")
    if not 0 < epsilon < F(1, 4):
        raise ValidationError("epsilon must lie in (0, 1/4)")
    q = 1 - epsilon
    inst = validate_instance(Instance(F(3), _jobs(
        (1, 3, 3, None), (1, 1, 1, None),
        (2, q, q, None), (2, q, q, None), (2, q, q, None), (2, q, q, None))))
    spread = Profile.from_dict({1: ZERO, 2: ZERO, 3: F(1), 4: F(1), 5: F(1), 6: F(1)})
    overlap = Profile.from_dict({1: ZERO, 2: F(3, 2), 3: F(1), 4: F(1), 5: F(1), 6: F(1)})
    facts = (
        Fact("utilities", (F(1), 4 * q), profile="spread"),
        Fact("utilities", (F(4), ZERO), profile="overlap"),
        Fact("opt_value", 1 + 4 * q),
        Fact("no_ne"),
    )
    return Fixture("prop_no_ne", inst, facts,
                   {"spread": spread, "overlap": overlap},
                   {"epsilon": epsilon})


def _fixture_poa_tight(n: int, epsilon=F(1, 10)) -> Fixture:
    """Worst-case anarchy families for one-job-per-color games.

    n <= 4: n unit-weight unit jobs with T=2; the everyone-interior profile is
    a value-1 NE while the optimum is 2. n >= 5: T=n-1, one full-horizon job
    of weight 2+epsilon and n-1 unit jobs; stacking everything at 0 is an NE
    of value 2+epsilon while the optimum covers the n-1 unit jobs.
    """
    _check_int(n, "n")
    if n < 2:
        raise ValidationError("n must be at least 2")
    epsilon = to_rational(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    if n <= 4:
        inst = validate_instance(Instance(F(2), _jobs(
            *((i + 1, 1, 1, None) for i in range(n)))))
        worst = Profile.from_dict({j.id: F(1, 2) for j in inst.jobs})
        spread = Profile.from_dict(
            {j.id: (ZERO if i else F(1)) for i, j in enumerate(inst.jobs)})
        facts = (
            Fact("opt_value", F(2)),
            Fact("ne_value", F(1), profile="worst_ne"),
            Fact("poa", F(2), profile="worst_ne"),
            Fact("grid_poa", F(2)),
        )
        return Fixture("poa_tight", inst, facts,
                       {"worst_ne": worst, "spread": spread}, {"n": n})
    T = F(n - 1)
    inst = validate_instance(Instance(T, _jobs(
        (1, T, 2 + epsilon, None),
        *((i + 2, 1, 1, None) for i in range(n - 1)))))
    ne = Profile.from_dict({j.id: ZERO for j in inst.jobs})
    opt = Profile.from_dict(
        {1: ZERO, **{i + 2: F(i) for i in range(n - 1)}})
    facts = (
        Fact("opt_value", F(n - 1)),
        Fact("ne_value", 2 + epsilon, profile="ne"),
        Fact("poa", F(n - 1) / (2 + epsilon), profile="ne"),
    )
    return Fixture("poa_tight", inst, facts, {"ne": ne, "opt": opt},
                   {"n": n, "epsilon": epsilon})


def _fixture_pos_two(epsilon=F(1, 2)) -> Fixture:
    """Two-player stability gap: T=2, a length-2 job of weight delta plus a
    unit job against a unit job. Every NE hides the opponent's unit job under
    the long one, so the best NE is worth 1+delta against an optimum of 2,
    with epsilon = 2*delta/(1+delta)."""
    epsilon = to_rational(epsilon, "epsilon")
    if not 0 < epsilon < 1:
        raise ValidationError("epsilon must lie in (0, 1)")
    delta = epsilon / (2 - epsilon)
    inst = validate_instance(Instance(F(2), _jobs(
        (1, 2, delta, None), (1, 1, 1, None), (2, 1, 1, None))))
    opt = Profile.from_dict({1: ZERO, 2: ZERO, 3: F(1)})
    ne = Profile.from_dict({1: ZERO, 2: F(1, 2), 3: ZERO})
    facts = (
        Fact("opt_value", F(2)),
        Fact("ne_value", 1 + delta, profile="ne"),
        Fact("pos", F(2) / (1 + delta), profile="ne"),
        Fact("grid_ne_values", (1 + delta,)),
    )
    return Fixture("pos_two", inst, facts, {"opt": opt, "ne": ne},
                   {"epsilon": epsilon, "delta": delta})


def _fixture_pos_c(c: int, epsilon_prime=F(1, 4)) -> Fixture:
    """Stability gap linear in the player count: T=2c+1; every player has a
    unit job, player 1 adds a full-horizon job of weight 1+epsilon, player 2
    adds c+2 nested light jobs. Covering player 1 alone is an NE worth
    2+epsilon while the optimum covers everything but the long and the
    longest light job.

    Stability of every player except player 2 is certified by search; player
    2's joint grid (c+3 jobs of distinct lengths) is beyond the exhaustive
    guard, and its stability is analytic: any cover touching player 2's color
    drops the long job and one stacked unit, so it is worth at most
    2 + (c+2)/(c+3)*epsilon < 2+epsilon, and the machine never switches.
    The value_dominates fact pins that exact inequality."""
    _check_int(c, "c")
    if c <= 2:
        raise ValidationError("c must exceed 2")
    epsilon_prime = to_rational(epsilon_prime, "epsilon_prime")
    ceiling = F(c, 2) - F(c + 1, c + 3)
    if not 0 < epsilon_prime < ceiling:
        raise ValidationError(f"epsilon_prime must lie in (0, {rational_str(ceiling)})")
    epsilon = 2 * epsilon_prime / (ceiling - epsilon_prime)
    T = F(2 * c + 1)
    light = F(epsilon, c + 3)
    specs = [(i + 1, 1, 1, None) for i in range(c)]
    specs.append((1, T, 1 + epsilon, None))
    specs.extend((2, t, light, None) for t in range(2, c + 4))
    inst = validate_instance(Instance(T, _jobs(*specs)))
    ne = Profile.from_dict({j.id: ZERO for j in inst.jobs})
    opt_value = c + F(c + 1, c + 3) * epsilon
    light_total = (c + 2) * light
    facts = (
        Fact("opt_value", opt_value),
        Fact("machine_value", 2 + epsilon, profile="ne"),
        Fact("stable_players", tuple(i for i in range(1, c + 1) if i != 2),
             profile="ne"),
        Fact("value_dominates", (2 + epsilon, 2 + light_total), profile="ne"),
        Fact("pos", F(c, 2) - epsilon_prime, profile="ne"),
    )
    return Fixture("pos_c", inst, facts, {"ne": ne},
                   {"c": c, "epsilon_prime": epsilon_prime, "epsilon": epsilon})


def _fixture_unit_tight(c: int) -> Fixture:
    """Tight unit-jobs anarchy game: c = T = k even. Player 1 owns k/2 unit
    jobs parked in slots [j(2-e)-1, j(2-e)) with e = 1/k; every other player
    owns one unit job stacked in player 1's first slot. Idle gaps are shorter
    than 1, so only player 1 is served: value k/2 against optimum 3k/2 - 1.

    Stability of the shipped profile leans on the machine's deterministic
    tie-breaking toward smaller job ids, which player 1's jobs hold.
    """
    _check_int(c, "c")
    if c < 2 or c % 2:
        raise ValidationError("c must be an even integer >= 2")
    k = c
    offset = F(1, k)  # slot shift; gaps of 1 - 1/k and a tail of 1/2 fit no unit job
    T = F(k)
    specs = [(1, 1, 1, None) for _ in range(k // 2)]
    specs.extend((i, 1, 1, None) for i in range(2, k + 1))
    inst = validate_instance(Instance(T, _jobs(*specs)))
    starts: dict[int, Fraction] = {}
    for j in range(1, k // 2 + 1):
        starts[j] = j * (2 - offset) - 1
    for jid in range(k // 2 + 1, k // 2 + k):
        starts[jid] = 1 - offset  # the first slot, shared with player 1's job 1
    ne = Profile.from_dict(starts)
    facts = (
        Fact("opt_value", F(3 * k, 2) - 1),
        Fact("ne_value", F(k, 2), profile="ne"),
        Fact("poa", 3 - F(2, k), profile="ne"),
    )
    return Fixture("unit_tight", inst, facts, {"ne": ne}, {"c": c})


def _fixture_nonsymm_no_ne() -> Fixture:
    """Windowed unit game with no equilibrium: T=3, twelve unit-weight unit
    jobs; two of each player's jobs are pinned to the end slots and the rest
    roam, so whichever player concentrates, the other profitably regroups."""
    w01 = (ZERO, F(1))
    w23 = (F(2), F(3))
    free = (ZERO, F(3))
    specs = [(1, 1, 1, w01), (1, 1, 1, w01), (1, 1, 1, w23), (1, 1, 1, w23),
             (1, 1, 1, free), (1, 1, 1, free), (1, 1, 1, free),
             (2, 1, 1, w01), (2, 1, 1, w23),
             (2, 1, 1, free), (2, 1, 1, free), (2, 1, 1, free)]
    inst = validate_instance(Instance(F(3), _jobs(*specs)))
    return Fixture("nonsymm_no_ne", inst, (Fact("no_ne"),))


_FIXTURES = {
    "ex1": _fixture_ex1,
    "prop_no_ne": _fixture_prop_no_ne,
    "poa_tight": _fixture_poa_tight,
    "pos_two": _fixture_pos_two,
    "pos_c": _fixture_pos_c,
    "unit_tight": _fixture_unit_tight,
    "nonsymm_no_ne": _fixture_nonsymm_no_ne,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def fixture(name: str, **params) -> Fixture:
    """Build a named fixture; parametrized ones take keyword arguments
    (poa_tight: n, epsilon; pos_two: epsilon; pos_c: c, epsilon_prime;
    prop_no_ne: epsilon; unit_tight: c). A missing or unexpected parameter
    raises `ValidationError`, naming the fixture's parameters."""
    builder = _FIXTURES.get(name) if isinstance(name, str) else None
    if builder is None:
        raise ValidationError(f"unknown fixture {name!r}; "
                              f"known: {', '.join(fixture_names())}")
    takes = inspect.signature(builder).parameters.values()
    need = {p.name for p in takes if p.default is p.empty}
    if not need <= params.keys() <= {p.name for p in takes}:
        names = [p.name if p.name in need else f"{p.name}={p.default}" for p in takes]
        raise ValidationError(f"fixture {name!r} takes ({', '.join(names)}), "
                              f"got ({', '.join(sorted(params))})")
    return builder(**params)


# ---------------------------------------------------------------------------
# Seeded random families

FAMILIES = ("single", "unit", "prop", "general", "nonsymm")

_WEIGHT_SPREAD = 10 ** 9  # wide numerators make exact weight ties vanishingly rare


def _rand_length(rng: random.Random, horizon: Fraction) -> Fraction:
    q = rng.choice((1, 2, 3, 4))
    top = (horizon.numerator * q) // horizon.denominator
    return F(rng.randint(1, max(1, top)), q)


def _rand_weight(rng: random.Random) -> Fraction:
    return F(rng.randint(1, _WEIGHT_SPREAD), rng.choice((1, 2, 4, 5)))


def random_instance(family: str, n: int, c: int, horizon, seed: int) -> Instance:
    """Deterministic per (family, n, c, horizon, seed)."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    horizon = to_rational(horizon, "horizon")
    if horizon <= 0:
        raise ValidationError("horizon must be positive")
    _check_int(n, "n")
    _check_int(c, "c")
    if c < 1 or n < c:
        raise ValidationError("need n >= c >= 1 so every color owns a job")
    if family == "single" and n != c:
        raise ValidationError("single family requires n == c")
    if family == "unit" and horizon < 1:
        raise ValidationError("unit family requires horizon >= 1")
    rng = random.Random(f"igl:{family}:{n}:{c}:{horizon}:{seed}")
    colors = list(range(1, c + 1)) + [rng.randint(1, c) for _ in range(n - c)]
    rng.shuffle(colors)
    jobs = []
    for i in range(n):
        if family == "unit":
            length = ONE
        else:
            length = _rand_length(rng, horizon)
        weight = length if family == "prop" else _rand_weight(rng)
        window = None
        if family == "nonsymm":
            q = rng.choice((1, 2))
            slack = horizon - length
            r = F(rng.randint(0, max(0, (slack.numerator * q) // slack.denominator)), q) \
                if slack > 0 else ZERO
            room = horizon - r - length
            d = r + length
            if room > 0:
                d += F(rng.randint(0, (room.numerator * q) // room.denominator), q)
            window = (r, d)
        jobs.append(Job(i + 1, colors[i], length, weight, window))
    return validate_instance(Instance(horizon, tuple(jobs)))


def random_profile(instance: Instance, seed: int,
                   resolution: int = 1) -> Profile:
    """Seeded profile on the instance's global grid (plus its own bounds)."""
    from .equilibrium import _grid_ticks
    rng = random.Random(f"igl-profile:{seed}")
    den, _, cands = _grid_ticks(instance, resolution)
    return Profile.from_dict({jid: Fraction(rng.choice(c), den) for jid, c in cands.items()})


# ---------------------------------------------------------------------------
# Reduction constructions

def from_knapsack(items: Sequence[tuple], capacity) -> Instance:
    """One-job-per-color game whose social optimum equals the knapsack
    optimum: horizon = capacity, job i has length size_i and weight value_i."""
    capacity = to_rational(capacity, "capacity")
    if not items or not isinstance(items, (list, tuple)):
        raise ValidationError(f"no items: expected a list of (size, value) pairs, got {items!r}")
    jobs = []
    for i, item in enumerate(items):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ValidationError(f"item {i + 1} must be a (size, value) pair, got {item!r}")
        size, value = item
        size = to_rational(size, f"item {i + 1} size")
        value = to_rational(value, f"item {i + 1} value")
        if size > capacity:
            raise ValidationError(f"item {i + 1}: size exceeds capacity")
        jobs.append(Job(i + 1, i + 1, size, value, None))
    return validate_instance(Instance(capacity, tuple(jobs)))


def _partition_sides(values: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Indices of a subset summing to half the total, or None."""
    total = sum(values)
    half = total // 2
    reachable: dict[int, tuple[int, ...]] = {0: ()}
    for i, v in enumerate(values):
        for acc in sorted(reachable):
            cand = acc + v
            if cand <= half and cand not in reachable:
                reachable[cand] = reachable[acc] + (i,)
    return reachable.get(half)


def _check_partition_input(values: Sequence[int], minimum: int) -> list[int]:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"values must be a list of integers, got {values!r}")
    vals = list(values)
    if len(vals) < minimum:
        raise ValidationError(f"need at least {minimum} integers")
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in vals):
        raise ValidationError("values must be positive integers")
    if sum(vals) % 2:
        raise ValidationError("sum must be even")
    return vals


def from_partition_decide(values: Sequence[int]) -> Fixture:
    """NE-existence reduction: player 1 gets one unit-weight job per value
    plus a full-horizon job of weight 3/2; player 2 gets one short heavy job.
    The game has a (grid) NE iff the values split into two equal halves; the
    shipped profile stacks perfect halves back-to-back so every point of the
    horizon is triple-covered and the short job can never pay for itself."""
    vals = _check_partition_input(values, 2)
    half = sum(vals) // 2
    if max(vals) > half:
        raise ValidationError("largest value exceeds half the sum; the length "
                              "bound p <= T makes the game unrepresentable")
    n = len(vals)
    T = F(half)
    epsilon = F(1, 2)
    specs = [(1, v, 1, None) for v in vals]
    specs.append((1, T, 1 + epsilon, None))
    specs.append((2, F(1, n), 3, None))
    inst = validate_instance(Instance(T, _jobs(*specs)))
    side = _partition_sides(vals)
    facts = [Fact("has_ne" if side is not None else "no_ne")]
    profiles = {}
    if side is not None:
        starts: dict[int, Fraction] = {n + 1: ZERO, n + 2: ZERO}
        offset_in, offset_out = ZERO, ZERO
        chosen = set(side)
        for i, v in enumerate(vals):
            if i in chosen:
                starts[i + 1] = offset_in
                offset_in += v
            else:
                starts[i + 1] = offset_out
                offset_out += v
        if offset_in != T or offset_out != T:
            raise InternalFailure(f"partition sides fill {offset_in} and "
                                  f"{offset_out}, not {T}")
        profiles["ne"] = Profile.from_dict(starts)
        facts.append(Fact("ne_value", n + epsilon + 1, profile="ne"))
        facts.append(Fact("utilities", (n + 1 + epsilon, ZERO), profile="ne"))
    return Fixture("partition_decide", inst, tuple(facts), profiles,
                   {"values": tuple(vals)})


def from_partition_br(values: Sequence[int]) -> Fixture:
    """Best-response reduction: T=3; player 1 owns a unit job per value plus a
    length-3 job of weight 1/2; player 2 parks two weight-B unit jobs at [0,1)
    and [2,3). From that profile player 1's best response is worth 2B+1/2 iff
    the values split evenly (load B over each end slot frees the long job),
    and exactly 2B otherwise."""
    vals = _check_partition_input(values, 1)
    n = len(vals)
    B = F(sum(vals), 2)
    epsilon = F(1, 2)
    specs = [(1, 1, v, None) for v in vals]
    specs.append((1, 3, epsilon, None))
    specs.append((2, 1, B, None))
    specs.append((2, 1, B, None))
    inst = validate_instance(Instance(F(3), _jobs(*specs)))
    starts = {i + 1: ZERO for i in range(n)}
    starts[n + 1] = ZERO
    starts[n + 2] = ZERO
    starts[n + 3] = F(2)
    initial = Profile.from_dict(starts)
    yes = _partition_sides(vals) is not None
    facts = (Fact("br_value", 2 * B + epsilon if yes else 2 * B,
                  profile="initial", player=1),)
    return Fixture("partition_br", inst, facts, {"initial": initial},
                   {"values": tuple(vals), "partition_exists": yes})


def from_partition_nonsymm(values: Sequence[int]) -> Fixture:
    """Windowed best-response reduction: all unit jobs, T=3. Player 1 owns a
    job per value (free window) plus weight-1 jobs pinned to [0,1) and [2,3);
    player 2 owns jobs of weight B+1/2 pinned to the same end slots. Player 1
    covers everything iff it can load strictly more than B+1/2 onto each end
    slot, which the pinned +1 jobs reduce to an exact even split. The +1/2 on
    player 2's weights realizes the strict comparisons under deterministic
    tie-breaking."""
    vals = _check_partition_input(values, 1)
    n = len(vals)
    B = F(sum(vals), 2)
    guard = B + F(1, 2)
    w01 = (ZERO, F(1))
    w23 = (F(2), F(3))
    free = (ZERO, F(3))
    specs = [(1, 1, v, free) for v in vals]
    specs.append((1, 1, 1, w01))
    specs.append((1, 1, 1, w23))
    specs.append((2, 1, guard, w01))
    specs.append((2, 1, guard, w23))
    inst = validate_instance(Instance(F(3), _jobs(*specs)))
    starts = {i + 1: F(1) for i in range(n)}  # roaming jobs idle in the middle
    starts[n + 1] = ZERO
    starts[n + 2] = F(2)
    starts[n + 3] = ZERO
    starts[n + 4] = F(2)
    initial = Profile.from_dict(starts)
    total = F(sum(vals)) + 2
    yes = _partition_sides(vals) is not None
    facts = ((Fact("br_value", total, profile="initial", player=1),) if yes
             else (Fact("br_below", total, profile="initial", player=1),))
    return Fixture("partition_nonsymm", inst, facts, {"initial": initial},
                   {"values": tuple(vals), "partition_exists": yes})
