"""Fixtures, random families, and reduction builders."""

import itertools
from fractions import Fraction as F

import pytest

from intervalgames import (ValidationError, best_response, enumerate_grid_ne,
                           fixture, fixture_names, from_knapsack,
                           from_partition_br, from_partition_decide,
                           from_partition_nonsymm, instance_to_json, is_nash,
                           random_instance, social_optimum_enumerate,
                           solve_machine_dp, utilities)
from conftest import check_fact


def test_fixture_registry():
    names = fixture_names()
    for expected in ("ex1", "prop_no_ne", "poa_tight", "pos_two", "pos_c",
                     "unit_tight", "nonsymm_no_ne"):
        assert expected in names
    with pytest.raises(ValidationError, match="unknown fixture"):
        fixture("nope")


@pytest.mark.parametrize("name, params, message", [
    ("poa_tight", {}, r"fixture 'poa_tight' takes \(n, epsilon=1/10\), got \(\)"),
    ("pos_c", {"epsilon_prime": F(1, 8)},
     r"fixture 'pos_c' takes \(c, epsilon_prime=1/4\), got \(epsilon_prime\)"),
    ("unit_tight", {}, r"takes \(c\), got \(\)"),
    ("ex1", {"n": 3}, r"fixture 'ex1' takes \(\), got \(n\)"),
    ("poa_tight", {"n": 3, "c": 2}, r"takes \(n, epsilon=1/10\), got \(c, n\)"),
    ("pos_two", {"epsilon_prime": F(1, 4)}, r"takes \(epsilon=1/2\)"),
])
def test_fixture_rejects_missing_or_unexpected_parameters(name, params, message):
    with pytest.raises(ValidationError, match=message):
        fixture(name, **params)


def test_ex1_contents():
    fx = fixture("ex1")
    inst = fx.instance
    assert inst.horizon == 4 and inst.num_colors == 2
    assert [(j.color, j.length, j.weight) for j in inst.jobs] == [
        (1, F(4), F(2)), (1, F(1), F(2)), (2, F(1), F(3))]


def test_prop_no_ne_contents():
    fx = fixture("prop_no_ne", epsilon=F(1, 10))
    inst = fx.instance
    assert inst.is_prop
    s2 = inst.jobs_of_color(2)
    assert len(s2) == 4 and all(j.length == F(9, 10) for j in s2)


def test_unit_tight_requires_even():
    with pytest.raises(ValidationError):
        fixture("unit_tight", c=5)


def test_pos_c_parameter_domain():
    with pytest.raises(ValidationError):
        fixture("pos_c", c=2)
    fx = fixture("pos_c", c=4, epsilon_prime=F(1, 4))
    eps = fx.params["epsilon"]
    # the identity the epsilon was solved from
    assert (4 + F(5, 7) * eps) / (2 + eps) == F(4, 2) - F(1, 4)


CHEAP_FIXTURES = (
    ("ex1", {}),
    ("prop_no_ne", {}),
    ("pos_two", {}),
    ("poa_tight", {"n": 2}),
    ("poa_tight", {"n": 5, "epsilon": F(1, 10)}),
    ("pos_c", {"c": 4}),
    ("unit_tight", {"c": 4}),
    ("nonsymm_no_ne", {}),
)


@pytest.mark.parametrize("name,params", CHEAP_FIXTURES)
def test_fixture_facts_verify(name, params):
    fx = fixture(name, **params)
    for fact in fx.facts:
        check_fact(fx, fact)


def test_generator_determinism():
    a = random_instance("general", 6, 3, F(5), seed=42)
    b = random_instance("general", 6, 3, F(5), seed=42)
    c = random_instance("general", 6, 3, F(5), seed=43)
    assert instance_to_json(a) == instance_to_json(b)
    assert instance_to_json(a) != instance_to_json(c)


def test_generator_class_constraints():
    single = random_instance("single", 5, 5, F(10), seed=1)
    assert single.is_single
    unit = random_instance("unit", 8, 3, F(4), seed=7)
    assert unit.is_unit
    prop = random_instance("prop", 6, 2, F(3), seed=9)
    assert prop.is_prop
    windowed = random_instance("nonsymm", 5, 2, F(4), seed=3)
    assert windowed.has_windows
    with pytest.raises(ValidationError):
        random_instance("single", 4, 3, F(5), seed=0)
    with pytest.raises(ValidationError):
        random_instance("unit", 3, 2, F(1, 2), seed=0)


def _knapsack_oracle(items, cap):
    best = F(0)
    for mask in range(1 << len(items)):
        size = value = F(0)
        for i, (s, v) in enumerate(items):
            if (mask >> i) & 1:
                size += F(s)
                value += F(v)
        if size <= cap and value > best:
            best = value
    return best


def test_from_knapsack_matches_oracle():
    items = [(2, 3), (2, 3), (3, 1)]
    inst = from_knapsack(items, 4)
    assert inst.is_single
    _, value = social_optimum_enumerate(inst)
    assert value == _knapsack_oracle(items, F(4)) == 6


def test_from_knapsack_one_item():
    inst = from_knapsack([(1, 5)], 1)
    _, value = social_optimum_enumerate(inst)
    assert value == 5


def test_from_knapsack_rejects():
    with pytest.raises(ValidationError, match="no items"):
        from_knapsack([], 4)
    with pytest.raises(ValidationError, match="exceeds capacity"):
        from_knapsack([(5, 1)], 4)


# The non-ints of test_integer_parameters_must_be_ints, and two that int()
# used to truncate or could not read.
_NOT_INTS = ("2", 1.5, True, False, F(1), None, 4.9, "x")


@pytest.mark.parametrize("call, message", [
    *[(lambda v=v: fixture("poa_tight", n=v), "n must be an int") for v in _NOT_INTS],
    *[(lambda v=v: fixture("pos_c", c=v), "c must be an int") for v in _NOT_INTS],
    *[(lambda v=v: fixture("unit_tight", c=v), "c must be an int") for v in (2.5, *_NOT_INTS)],
    *[(lambda v=v: random_instance("general", v, 2, 3, 0), "n must be an int")
      for v in (3.5, "3", *_NOT_INTS)],
    *[(lambda v=v: random_instance("general", 3, v, 3, 0), "c must be an int")
      for v in _NOT_INTS],
    (lambda: from_knapsack([(1,)], 3), r"item 1 must be a \(size, value\) pair"),
    (lambda: from_knapsack(7, 3), "no items: expected a list"),
    (lambda: fixture(["ex1"]), "unknown fixture"),
    *[(lambda b=b, v=v: b(v), "values must be") for v in ([True, 1, 2], [2, 2.0], None, 4)
      for b in (from_partition_decide, from_partition_br, from_partition_nonsymm)],
])
def test_generator_parameters_must_have_their_types(call, message):
    """Integer parameters are ints (a `bool` is not), checked before their
    ranges: `int()` used to run n = 4.9 as 4 and c = 2.5 as 2, and a str,
    None, a malformed item or a non-list raised `ValueError` or `TypeError`
    where each of these now raises `ValidationError`."""
    with pytest.raises(ValidationError, match=message):
        call()


def test_partition_decide_yes_case():
    fx = from_partition_decide([1, 1, 2])
    assert any(f.kind == "has_ne" for f in fx.facts)
    ne = fx.notable_profiles["ne"]
    assert is_nash(fx.instance, ne) is None
    sched = solve_machine_dp(fx.instance, ne)
    assert utilities(fx.instance, ne, sched).as_tuple() == (F(9, 2), F(0))


def test_partition_decide_no_case():
    fx = from_partition_decide([2, 2, 2])
    assert any(f.kind == "no_ne" for f in fx.facts)
    assert enumerate_grid_ne(fx.instance) == []


def test_partition_decide_rejects():
    with pytest.raises(ValidationError, match="even"):
        from_partition_decide([1, 1, 1])
    with pytest.raises(ValidationError, match="at least 2"):
        from_partition_decide([2])
    with pytest.raises(ValidationError, match="exceeds half"):
        from_partition_decide([3, 1])


def test_partition_br_values():
    for values, expected in (([1, 1], F(5, 2)), ([2, 1, 1], F(9, 2)),
                             ([3, 1], F(4))):
        fx = from_partition_br(values)
        _, u = best_response(fx.instance, fx.notable_profiles["initial"], 1)
        assert u == expected


def test_partition_nonsymm_cases():
    for values, full in (([1, 1], True), ([2, 2], True), ([3, 1], False)):
        fx = from_partition_nonsymm(values)
        total = F(sum(values)) + 2
        _, u = best_response(fx.instance, fx.notable_profiles["initial"], 1)
        if full:
            assert u == total
        else:
            assert u < total


def test_partition_metadata_matches_bruteforce():
    # independent subset-sum oracle agrees with the builders' metadata
    for size in (2, 3):
        for values in itertools.combinations_with_replacement(range(1, 4), size):
            if sum(values) % 2:
                continue
            half = sum(values) // 2
            exists = any(sum(combo) == half
                         for r in range(len(values) + 1)
                         for combo in itertools.combinations(values, r))
            fx = from_partition_br(list(values))
            assert fx.params["partition_exists"] == exists
