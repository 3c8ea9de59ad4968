"""Domain types, parsing, validation, and document round-trips."""

import json
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalgames import (FormatError, Instance, Job, Profile, ValidationError,
                           fixture, instance_to_json, model, parse_instance,
                           parse_profile, profile_to_json, solve_machine_bruteforce,
                           solve_machine_dp, to_rational, utilities, validate_instance,
                           validate_profile)
from intervalgames.model import rational_str
from conftest import BAD_ID_JOBS

EX1_DOC = """
{"horizon": "4", "jobs": [
  {"id": 1, "color": 1, "length": "4", "weight": "2"},
  {"id": 2, "color": 1, "length": "1", "weight": "2"},
  {"id": 3, "color": 2, "length": "1", "weight": "3"}]}
"""


def test_to_rational_exact_decimal():
    assert to_rational("0.5") == F(1, 2)
    assert to_rational("1/3") == F(1, 3)
    assert to_rational(4) == F(4)
    assert to_rational("2.25") == F(9, 4)


def test_to_rational_rejects_floats():
    with pytest.raises(FormatError):
        to_rational(0.5)
    with pytest.raises(FormatError):
        to_rational("abc")


def test_parse_instance_ex1():
    inst = parse_instance(EX1_DOC)
    assert inst.num_colors == 2
    assert len(inst.jobs) == 3
    assert inst.job(3).weight == F(3)
    assert not inst.is_single  # color 1 owns two jobs


def test_parse_decimal_weight_is_exact():
    doc = {"horizon": "2", "jobs": [
        {"id": 1, "color": 1, "length": 1, "weight": 0.5}]}
    inst = parse_instance(json.dumps(doc))
    assert inst.job(1).weight == F(1, 2)


def test_parse_rejects_empty_jobs():
    with pytest.raises(ValidationError, match="no jobs"):
        parse_instance('{"horizon": "4", "jobs": []}')


def test_parse_syntax_error_position():
    with pytest.raises(FormatError, match="line"):
        parse_instance('{"horizon": ')


@pytest.mark.parametrize("shape", sorted(BAD_ID_JOBS))
def test_ids_and_colors_must_be_integers(shape):
    doc = json.dumps({"horizon": "4", "jobs": BAD_ID_JOBS[shape]})
    with pytest.raises(FormatError, match="must be an integer"):
        parse_instance(doc)


@pytest.mark.parametrize("job", [Job(True, 1, F(1), F(1)), Job(1, True, F(1), F(1))])
def test_validation_rejects_boolean_ids_and_colors(job):
    with pytest.raises(ValidationError, match="must be"):
        validate_instance(Instance(F(4), (job,)))


def test_length_exceeds_horizon():
    raw = Instance(F(1), (Job(1, 1, F(2), F(1)),))
    with pytest.raises(ValidationError, match="length exceeds horizon"):
        validate_instance(raw)


def test_window_shorter_than_length():
    raw = Instance(F(3), (Job(1, 1, F(1), F(1), (F(2), F(5, 2))),))
    with pytest.raises(ValidationError, match="window shorter than length"):
        validate_instance(raw)


def test_negative_weight_rejected():
    raw = Instance(F(2), (Job(1, 1, F(1), F(-1)),))
    with pytest.raises(ValidationError, match="negative weight"):
        validate_instance(raw)


def test_colors_reindexed_densely():
    raw = Instance(F(2), (Job(1, 7, F(1), F(1)), Job(2, 3, F(1), F(1))))
    inst = validate_instance(raw)
    assert inst.color_ids == (1, 2)
    assert inst.job(2).color == 1  # color 3 sorts before 7


def test_class_predicates():
    ex1 = parse_instance(EX1_DOC)
    assert not ex1.is_single and not ex1.is_unit and not ex1.is_prop
    unit = validate_instance(Instance(F(3), (
        Job(1, 1, F(1), F(2)), Job(2, 2, F(1), F(5)))))
    assert unit.is_unit and unit.is_single
    prop = validate_instance(Instance(F(3), (
        Job(1, 1, F(2), F(2)), Job(2, 2, F(1), F(1)))))
    assert prop.is_prop


def test_profile_validation_window():
    inst = validate_instance(Instance(F(3), (Job(1, 1, F(1), F(1), (F(1), F(3))),)))
    validate_profile(inst, Profile.from_dict({1: F(2)}))
    with pytest.raises(ValidationError, match="window"):
        validate_profile(inst, Profile.from_dict({1: F(0)}))
    with pytest.raises(ValidationError, match="missing start"):
        validate_profile(inst, Profile.from_dict({}))


def test_a_profile_placing_a_job_twice_is_rejected():
    """`validate_profile` and the machine solvers that take a `Profile`
    reject one that places job 3 twice, naming the job. `validate_profile`
    used to accept it, and `solve_machine_dp` silently used the last start
    and returned 4."""
    inst = fixture("ex1").instance
    twice = Profile(((1, F(0)), (2, F(0)), (3, F(1)), (3, F(0))))
    for check in (validate_profile, solve_machine_dp, solve_machine_bruteforce):
        with pytest.raises(ValidationError, match=re.escape("job 3: placed twice")):
            check(inst, twice)


@pytest.mark.parametrize("unknown, named", [((9, 8), 8), ((7, "a"), 7)])
def test_validate_profile_names_an_unknown_job(unknown, named):
    """Among unknown jobs, `validate_profile` names the least id, or the
    first placed when the ids cannot be compared; ids such as 7 and "a"
    used to escape as a bare `TypeError` from `min`."""
    inst = fixture("ex1").instance
    profile = Profile(((1, F(0)), (2, F(0)), (3, F(0)), *((i, F(0)) for i in unknown)))
    with pytest.raises(ValidationError, match=re.escape(f"start given for unknown job {named}")):
        validate_profile(inst, profile)


def test_utilities_example_profiles():
    fx = fixture("ex1")
    inst = fx.instance
    for name, expected in (("figure_a", (F(2), F(3))), ("figure_b", (F(4), F(0)))):
        profile = fx.notable_profiles[name]
        sched = solve_machine_dp(inst, profile)
        vec = utilities(inst, profile, sched)
        assert vec.as_tuple() == expected
        assert vec.total == sched.value


def test_utilities_empty_cover():
    from intervalgames import Schedule
    inst = parse_instance(EX1_DOC)
    profile = Profile.from_dict({1: F(0), 2: F(0), 3: F(0)})
    vec = utilities(inst, profile, Schedule(frozenset(), (), F(0)))
    assert vec.as_tuple() == (F(0), F(0))
    assert vec.total == 0


def test_utilities_inconsistent_cover():
    from intervalgames import Schedule
    inst = parse_instance(EX1_DOC)
    profile = Profile.from_dict({1: F(0), 2: F(0), 3: F(0)})
    with pytest.raises(ValidationError, match="inconsistent covered set"):
        utilities(inst, profile, Schedule(frozenset({9}), (), F(0)))


# --- round-trip properties -------------------------------------------------

rationals = st.fractions(min_value=0, max_value=4, max_denominator=6)
positive_rationals = st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6)


def _bounded_fraction(draw, lo, hi, den):
    """A fraction lo + k/den inside [lo, hi], drawn from integer numerators."""
    span = hi - lo
    top = (span.numerator * den) // span.denominator
    return lo + F(draw(st.integers(min_value=0, max_value=max(0, top))), den)


@st.composite
def instances(draw):
    horizon = F(draw(st.integers(min_value=2, max_value=16)),
                draw(st.sampled_from((1, 2))))
    n = draw(st.integers(min_value=1, max_value=5))
    jobs = []
    for i in range(n):
        length = _bounded_fraction(draw, F(0), horizon,
                                   draw(st.sampled_from((1, 2, 3, 4))))
        weight = F(draw(st.integers(min_value=0, max_value=24)),
                   draw(st.sampled_from((1, 2, 3, 6))))
        color = draw(st.integers(min_value=1, max_value=3))
        window = None
        if draw(st.booleans()):
            den = draw(st.sampled_from((1, 2, 4)))
            r = _bounded_fraction(draw, F(0), horizon - length, den)
            d = _bounded_fraction(draw, r + length, horizon, den)
            window = (r, d)
        jobs.append(Job(i + 1, color, length, weight, window))
    return validate_instance(Instance(horizon, tuple(jobs)))


@given(instances())
@settings(max_examples=60, deadline=None)
def test_instance_round_trip(inst):
    assert parse_instance(instance_to_json(inst)) == inst


@given(instances(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_profile_round_trip(inst, rng):
    starts = {}
    for j in inst.jobs:
        lo, hi = j.release, j.due(inst.horizon) - j.length
        num = rng.randint(0, 8)
        starts[j.id] = lo + (hi - lo) * F(num, 8)
    profile = validate_profile(inst, Profile.from_dict(starts))
    assert parse_profile(profile_to_json(profile), inst) == profile


@given(st.fractions(max_denominator=50), st.fractions(max_denominator=50),
       st.fractions(max_denominator=50))
@settings(max_examples=100, deadline=None)
def test_rational_arithmetic_consistency(a, b, c):
    assert (a + b) + c == a + (b + c)
    # ordering agrees with cross-multiplication
    lhs = a.numerator * b.denominator
    rhs = b.numerator * a.denominator
    assert (a < b) == (lhs < rhs)
    assert (a == b) == (lhs == rhs)


def test_schedule_round_trip():
    from intervalgames import parse_schedule, schedule_to_json
    fx = fixture("ex1")
    sched = solve_machine_dp(fx.instance, fx.notable_profiles["figure_a"])
    again = parse_schedule(schedule_to_json(sched))
    assert again == sched


@pytest.mark.parametrize("covered, color, message", [
    ("[1.5]", "2", "covered job id"),
    ('["3"]', "2", "covered job id"),
    ("[true]", "2", "covered job id"),
    ("[1]", "2.7", "segment color"),
    ("[1]", '"2"', "segment color"),
    ("[1]", "false", "segment color"),
    ("[1, 1.0]", "2", "covered job id"),
    ("[1, 2, 1]", "2", "names a job twice"),
])
def test_schedule_ids_and_colors_must_be_distinct_json_ints(covered, color, message):
    """`parse_schedule` read ids and colors with `int()`: 1.5 became job 1,
    "3" job 3, true job 1, and [1, 1.0] or [1, 2, 1] collapsed to a set."""
    from intervalgames import parse_schedule
    text = f'{{"covered": {covered}, "segments": [[0, 1, {color}]], "value": "1"}}'
    with pytest.raises(FormatError, match=message):
        parse_schedule(text)


def test_a_job_named_by_two_start_keys_is_rejected():
    """Keys that differ as text but name one job ("2", "02", " 2") were
    read as one placement, the last winning."""
    inst = fixture("ex1").instance
    for twin in ("02", " 2", "+2"):
        doc = json.dumps({"starts": {"1": "0", "2": "0", twin: "1/2", "3": "0"}})
        with pytest.raises(FormatError, match=re.escape(f"job 2 given twice in 'starts' "
                                                        f"(key {twin!r})")):
            parse_profile(doc, inst)


@pytest.fixture()
def digit_limit():
    """Set the interpreter's limit on int-string conversion for one test."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


# Number texts around the chunk size. Each reads as `Fraction` reads it with
# its underscores taken out, at every length and on every interpreter
# (Python 3.10's `Fraction` rejects underscores).
_NUMBER_TEXTS = [
    "7" * 639, "7" * 640, "-" + "9" * 1300, "+" + "1" * 700, " 12" + "0" * 700 + " ",
    "3" * 700 + "/" + "4" * 650, "5" * 700 + "/" + "7" * 3, "0." + "3" * 700,
    "." + "5" * 700, "6" * 700 + ".", "2" * 650 + "e-700", "1" * 650 + "E+3",
    "-" + "8" * 300 + "." + "1" * 400 + "e2", "0" * 700, "1_2" * 300,
    "1_2", "1_2/3_0", "1.2_5e1_0", "1" * 700 + "_2/3_0", "1" * 700 + ".2_5e1_0",
]
# Texts that no length makes readable: spaces around "/" (which Python
# 3.12's `Fraction` reads) and underscores not between digits.
_BAD_TEXTS = [head + tail for head in ("1", "1" * 700) for tail in (
    " / 3", "/ 3", " /3", "_", "__2", "/", "e", ".2.5", " 2", "x", "/0")] + ["_1", "4" * 4301]


@pytest.mark.parametrize("limit", [0, 640, 4300])
def test_decimal_text_converts_alike_under_every_digit_limit(digit_limit, limit):
    """`to_rational`, the document reader and `rational_str` convert every run
    of digits in chunks, so their answers do not depend on the interpreter's
    limit on int-string conversion, and text has one grammar on either side
    of 640 characters. A document's run of digits is bounded by the
    interpreter's default limit (4,300 digits) under every limit."""
    digit_limit(0)
    expected = [F(text.replace("_", "")) for text in _NUMBER_TEXTS]
    values = [F(int("7" * k), int("3" * (k // 2) + "1")) for k in (1, 600, 639, 640, 2500)]
    values += [-v for v in values] + [F(-int("9" * 5000))]
    texts = [str(v) for v in values]
    literals = ["7" * 700, "-" + "3" * 650 + ".25e-2", "4" * 4300]
    parsed = [int(literals[0]), F(literals[1]), int(literals[2])]
    digit_limit(limit)
    assert [to_rational(text) for text in _NUMBER_TEXTS] == expected
    assert model._loads(f"[{', '.join(literals)}]") == parsed
    assert [rational_str(v) for v in values] == texts
    assert [to_rational(text) for text in texts[:-1]] == values[:-1]
    for bad in _BAD_TEXTS:
        with pytest.raises(FormatError, match="cannot parse"):
            to_rational(bad)
    with pytest.raises(FormatError, match="number literal too long: 4301 digits"):
        model._loads("4" * 4301)
