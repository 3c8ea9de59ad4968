"""Domain types, validation, and document formats for interval scheduling games.

Every time and weight is a `fractions.Fraction`. Floats are rejected at the
boundaries (`validate_instance` and `validate_profile` accept only ints and
`Fraction`s): the games here are decided by exact ties and strict
inequalities, and binary floats would silently corrupt both. Intervals are
half-open [start, start + length); two intervals overlap iff their
intersection has positive length, so touching endpoints do not conflict.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class GameError(Exception):
    """Base class for errors raised by this package."""


class FormatError(GameError):
    """A document cannot be parsed."""


class ValidationError(GameError):
    """A domain invariant is violated."""


class GuardError(GameError):
    """A desk-scale size guard would be exceeded (pass force=True to override)."""


class UnsupportedInstanceError(GameError):
    """The operation does not apply to this instance class."""


class InternalFailure(Exception):
    """A solver invariant broke, or two routes that must agree did not.

    Raised explicitly rather than by `assert`, so the checks also run under
    `python -O`; the CLI maps it to exit code 3."""


# Decimal text and ints convert a run of fewer than 640 digits at a time:
# 640 is the lowest limit on int-string conversion that an interpreter may run
# under (`PYTHONINTMAXSTRDIGITS`), so no answer depends on that limit. A run of
# digits that a document may hold is bounded by the interpreter's default
# limit instead, whatever limit this process runs under.
_SHORT = getattr(sys.int_info, "str_digits_check_threshold", 640)
_CHUNK = 10 ** (_SHORT - 1)
_MAX_DIGITS = getattr(sys.int_info, "default_max_str_digits", 4300)
_DIGITS = r"\d+(?:_\d+)*"
# The one grammar of numeric text, whatever the interpreter's `Fraction`
# reads: a sign, then an integer and a denominator, or an integer part,
# decimals and an exponent; underscores only between digits, no space
# inside.
_NUMBER = re.compile(rf"([-+]?)(?=\d|\.\d)({_DIGITS})?"
                     rf"(?:/({_DIGITS})|(?:\.({_DIGITS})?)?(?:[eE]([-+]?{_DIGITS}))?)")


def _int(text: str) -> int:
    """The int a run of decimal digits spells (a sign and underscores
    allowed), read in chunks of fewer than 640 digits; a run of more than
    the interpreter's default limit raises `ValueError`."""
    digits = text.lstrip("+-").replace("_", "")
    if len(digits) > _MAX_DIGITS:
        raise ValueError(f"{len(digits)} digits, more than {_MAX_DIGITS}")
    n = 0
    for i in range(0, len(digits), _SHORT - 1):
        chunk = digits[i:i + _SHORT - 1]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if text[0] == "-" else n


def _fraction(text: str) -> Fraction:
    """The `Fraction` that `text` spells in `_NUMBER`'s grammar, each run of
    digits read by `_int`."""
    m = _NUMBER.fullmatch(text)
    if m is None:
        raise ValueError(f"invalid literal for Fraction: {text!r}")
    sign, whole, den, dec, exp = m.groups()
    if den:
        value = Fraction(_int(whole), _int(den))
    else:
        dec = (dec or "").replace("_", "")
        n = _int(whole or "0") * 10 ** len(dec) + _int(dec or "0")
        shift = _int(exp or "0") - len(dec)
        value = Fraction(n * 10 ** shift) if shift >= 0 else Fraction(n, 10 ** -shift)
    return -value if sign == "-" else value


def _decimal(n: int) -> str:
    """`str(n)`, converted fewer than 640 digits at a time."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(str(r).zfill(_SHORT - 1))
    return sign + str(n) + "".join(reversed(chunks))


def to_rational(value, what: str = "value") -> Fraction:
    """Convert an int, Fraction, or numeric string ("4", "0.5", "1/3") exactly.

    A string is read in one grammar on every interpreter (`_NUMBER`):
    underscores between digits are allowed, spaces around "/" are not."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"{what}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise FormatError(
            f"{what}: floats are not exact; pass a string such as '0.5' or '1/3'")
    if isinstance(value, str):
        try:
            return _fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{what}: cannot parse {value!r} as a rational") from exc
    raise FormatError(f"{what}: unsupported numeric type {type(value).__name__}")


def rational_str(x: Fraction) -> str:
    """Canonical text form ("5", "21/10") used in all documents."""
    n, d = x.numerator, x.denominator
    return _decimal(n) if d == 1 else f"{_decimal(n)}/{_decimal(d)}"


@dataclass(frozen=True)
class Job:
    """One job: owner color, processing length, weight, optional feasibility window."""

    id: int
    color: int
    length: Fraction
    weight: Fraction
    window: Optional[tuple[Fraction, Fraction]] = None

    @property
    def release(self) -> Fraction:
        return self.window[0] if self.window else ZERO

    def due(self, horizon: Fraction) -> Fraction:
        return self.window[1] if self.window else horizon


@dataclass(frozen=True)
class Instance:
    """A game: horizon T and the jobs, partitioned into players by color."""

    horizon: Fraction
    jobs: tuple[Job, ...]

    def __post_init__(self):
        by_id = {j.id: j for j in self.jobs}
        colors: dict[int, list[Job]] = {}
        for j in self.jobs:
            colors.setdefault(j.color, []).append(j)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_colors",
                           {c: tuple(sorted(js, key=lambda j: j.id))
                            for c, js in colors.items()})

    def __getstate__(self):
        # The solver core (`machine.MachineCache`) lives on the instance but
        # is not part of its value: pickles and copies leave it out.
        return {k: v for k, v in self.__dict__.items() if k != "_core"}

    @property
    def color_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._colors))

    @property
    def num_colors(self) -> int:
        return len(self._colors)

    def job(self, job_id: int) -> Job:
        try:
            return self._by_id[job_id]
        except KeyError:
            raise ValidationError(f"unknown job id {job_id}") from None

    def jobs_of_color(self, color: int) -> tuple[Job, ...]:
        return self._colors.get(color, ())

    @property
    def is_single(self) -> bool:
        return all(len(js) == 1 for js in self._colors.values())

    @property
    def is_unit(self) -> bool:
        return all(j.length == ONE for j in self.jobs)

    @property
    def is_prop(self) -> bool:
        return all(j.weight == j.length for j in self.jobs)

    @property
    def has_windows(self) -> bool:
        return any(j.window is not None for j in self.jobs)


@dataclass(frozen=True)
class Profile:
    """Joint strategy: one start time per job; the interval is [s, s + p)."""

    placements: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(starts: Mapping[int, Fraction]) -> "Profile":
        return Profile(tuple(sorted(starts.items())))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.placements)


@dataclass(frozen=True)
class Schedule:
    """Machine output: covered jobs, color-labeled busy segments, total value."""

    covered: frozenset[int]
    segments: tuple[tuple[Fraction, Fraction, int], ...]
    value: Fraction


@dataclass(frozen=True)
class UtilityVector:
    """Per-player covered weight; total equals the machine's value."""

    entries: tuple[tuple[int, Fraction], ...]
    total: Fraction

    def as_tuple(self) -> tuple[Fraction, ...]:
        return tuple(u for _, u in self.entries)


def _inexact(*xs) -> bool:
    """Whether any of `xs` is not an exact number: an int (not a bool) or a
    `Fraction`."""
    for x in xs:  # a loop: twice as fast as any() over a generator here
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            return True
    return False


def _check_int(value, what: str, least: Optional[int] = None) -> None:
    """Raise `ValidationError` unless `value` is an int, not a `bool`, >= any `least`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValidationError(f"{what} must be at least {least}, got {_decimal(value)}")


def validate_instance(raw: Instance) -> Instance:
    """Check all instance invariants; re-index colors densely as 1..c.

    Raises ValidationError naming the first violated invariant and job id.
    """
    if not raw.jobs:
        raise ValidationError("no jobs")
    T = raw.horizon
    if _inexact(T):
        raise ValidationError(f"horizon {T!r} must be an int or a Fraction")
    if T <= 0:
        raise ValidationError(f"horizon must be positive, got {rational_str(T)}")
    seen_ids: set[int] = set()
    for j in raw.jobs:
        if isinstance(j.id, bool) or not isinstance(j.id, int) or j.id < 1:
            raise ValidationError(f"job id {j.id!r} must be a positive integer")
        if j.id in seen_ids:
            raise ValidationError(f"duplicate job id {j.id}")
        seen_ids.add(j.id)
        if isinstance(j.color, bool) or not isinstance(j.color, int):
            raise ValidationError(f"job {j.id}: color must be an integer")
        if _inexact(j.length, j.weight, *(j.window or ())):
            raise ValidationError(f"job {j.id}: length, weight and window bounds "
                                  f"must be ints or Fractions")
        if j.length < 0:
            raise ValidationError(f"job {j.id}: negative length")
        if j.length > T:
            raise ValidationError(f"job {j.id}: length exceeds horizon")
        if j.weight < 0:
            raise ValidationError(f"job {j.id}: negative weight")
        if j.window is not None:
            r, d = j.window
            if r < 0 or d > T:
                raise ValidationError(f"job {j.id}: window outside [0, T]")
            if d - r < j.length:
                raise ValidationError(f"job {j.id}: window shorter than length")
    remap = {c: i + 1 for i, c in enumerate(sorted({j.color for j in raw.jobs}))}
    if all(remap[c] == c for c in remap):
        return raw
    jobs = tuple(Job(j.id, remap[j.color], j.length, j.weight, j.window)
                 for j in raw.jobs)
    return Instance(T, jobs)


def _check_start(instance: Instance, j: Job, s) -> None:
    """Check that `s` is an exact start placing job `j` in [0, T) and its window."""
    if _inexact(s):
        raise ValidationError(f"job {j.id}: start {s!r} must be an int or a Fraction")
    if s < 0 or s + j.length > instance.horizon:
        raise ValidationError(f"job {j.id}: interval [{rational_str(s)}, "
                              f"{rational_str(s + j.length)}) outside "
                              f"[0, {rational_str(instance.horizon)})")
    if j.window is not None:
        r, d = j.window
        if s < r or s + j.length > d:
            raise ValidationError(f"job {j.id}: interval outside window "
                                  f"[{rational_str(r)}, {rational_str(d)})")


def _starts_of(profile: Profile) -> dict:
    """The profile's starts by job id. Anything but a `Profile`, a mapping
    of starts too, raises `ValidationError` naming its type, a placement
    that is not a (hashable job id, start) pair raises it naming the first
    such placement, and a profile that places a job twice raises it naming
    the first such job."""
    if not isinstance(profile, Profile):
        raise ValidationError(f"expected a Profile, got {type(profile).__name__}")
    try:
        starts = profile.as_dict()
    except (TypeError, ValueError):
        for placement in profile.placements:
            try:
                dict((placement,))
            except (TypeError, ValueError):
                raise ValidationError(f"placement {placement!r} is not a "
                                      f"(job id, start) pair") from None
        raise
    if len(starts) < len(profile.placements):
        ids = [jid for jid, _ in profile.placements]
        twice = next(jid for n, jid in enumerate(ids) if jid in ids[:n])
        raise ValidationError(f"job {twice}: placed twice")
    return starts


def validate_profile(instance: Instance, profile: Profile) -> Profile:
    """Check the profile places each job once, inside [0, T) and its window."""
    starts = _starts_of(profile)
    for j in instance.jobs:
        if j.id not in starts:
            raise ValidationError(f"missing start for job {j.id}")
        _check_start(instance, j, starts[j.id])
    extra = set(starts) - {j.id for j in instance.jobs}
    if extra:
        try:
            first = min(extra)
        except TypeError:  # ids that cannot be compared: the first placed
            first = next(jid for jid in starts if jid in extra)
        raise ValidationError(f"start given for unknown job {first}")
    return profile


def utilities(instance: Instance, profile: Profile, schedule: Schedule) -> UtilityVector:
    """Per-color covered weight under the given machine schedule."""
    known = {j.id for j in instance.jobs}
    bad = schedule.covered - known
    if bad:
        raise ValidationError(f"inconsistent covered set: unknown job {min(bad)}")
    sums = {c: ZERO for c in instance.color_ids}
    for jid in schedule.covered:
        j = instance.job(jid)
        sums[j.color] += j.weight
    entries = tuple(sorted(sums.items()))
    return UtilityVector(entries, sum(sums.values(), ZERO))


# ---------------------------------------------------------------------------
# Document formats (JSON; rationals as canonical strings)

def instance_to_document(instance: Instance) -> dict:
    jobs = []
    for j in sorted(instance.jobs, key=lambda j: j.id):
        d = {"id": j.id, "color": j.color,
             "length": rational_str(j.length), "weight": rational_str(j.weight)}
        if j.window is not None:
            d["window"] = [rational_str(j.window[0]), rational_str(j.window[1])]
        jobs.append(d)
    return {"horizon": rational_str(instance.horizon), "jobs": jobs}


def instance_to_json(instance: Instance) -> str:
    return json.dumps(instance_to_document(instance), sort_keys=True)


def instance_from_document(doc) -> Instance:
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    if "horizon" not in doc:
        raise FormatError("instance document missing 'horizon'")
    if "jobs" not in doc or not isinstance(doc["jobs"], list):
        raise FormatError("instance document missing 'jobs' array")
    horizon = to_rational(doc["horizon"], "horizon")
    jobs = []
    for entry in doc["jobs"]:
        if not isinstance(entry, dict):
            raise FormatError("each job must be a JSON object")
        for key in ("id", "color", "length", "weight"):
            if key not in entry:
                raise FormatError(f"job entry missing '{key}'")
        for key in ("id", "color"):  # checked before an `Instance` hashes and sorts them
            _json_int(entry[key], f"job {key}")
        window = None
        if entry.get("window") is not None:
            pair = entry["window"]
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise FormatError(f"job {entry['id']}: window must be a [release, due] pair")
            window = (to_rational(pair[0], "window release"),
                      to_rational(pair[1], "window due"))
        jobs.append(Job(entry["id"], entry["color"],
                        to_rational(entry["length"], f"job {entry['id']} length"),
                        to_rational(entry["weight"], f"job {entry['id']} weight"),
                        window))
    return validate_instance(Instance(horizon, tuple(jobs)))


def _json_int(value, what: str) -> int:
    """`value` if it is a JSON int (a bool is not), else `FormatError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} {value!r} must be an integer")
    return value


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key given twice raises `FormatError`
    naming the first such key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for n, k in enumerate(keys) if k in keys[:n])
        raise FormatError(f"key {twice!r} given twice in one object")
    return doc


def _loads(text: str):
    """A JSON document, with `FormatError` for every way its text can fail:
    a syntax error, a repeated key, nesting too deep for the parser, or a
    number literal with a run of more digits than the interpreter's default
    limit (`_int`). Number literals are read as `to_rational` reads text."""
    try:
        # parse_float receives the raw literal, so "0.5" becomes exactly 1/2
        return json.loads(text, parse_float=_fraction, parse_int=_int,
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"syntax error at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except RecursionError as exc:
        raise FormatError("document nested too deeply to parse") from exc
    except ValueError as exc:  # `_int`'s bound on a run of digits
        raise FormatError(f"number literal too long: {exc}") from exc


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document."""
    return instance_from_document(_loads(text))


def profile_to_document(profile: Profile) -> dict:
    return {"starts": {str(jid): rational_str(s) for jid, s in profile.placements}}


def profile_to_json(profile: Profile) -> str:
    return json.dumps(profile_to_document(profile), sort_keys=True)


def profile_from_document(doc, instance: Instance) -> Profile:
    if not isinstance(doc, dict) or "starts" not in doc or not isinstance(doc["starts"], dict):
        raise FormatError("profile document must be an object with a 'starts' map")
    starts: dict[int, Fraction] = {}
    for key, value in doc["starts"].items():
        try:
            jid = int(key)
        except ValueError:
            raise FormatError(f"job id key {key!r} is not an integer") from None
        if jid in starts:  # "2", "02" and " 2" name one job
            raise FormatError(f"job {jid} given twice in 'starts' (key {key!r})")
        starts[jid] = to_rational(value, f"start of job {key}")
    return validate_profile(instance, Profile.from_dict(starts))


def parse_profile(text: str, instance: Instance) -> Profile:
    """Parse and validate a profile document against an instance."""
    return profile_from_document(_loads(text), instance)


def schedule_to_document(schedule: Schedule) -> dict:
    return {"covered": sorted(schedule.covered),
            "segments": [[rational_str(a), rational_str(b), c]
                         for a, b, c in schedule.segments],
            "value": rational_str(schedule.value)}


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(schedule_to_document(schedule), sort_keys=True)


def parse_schedule(text: str) -> Schedule:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise FormatError("schedule document must be a JSON object")
    try:
        ids = [_json_int(x, "covered job id") for x in doc["covered"]]
        segments = tuple((to_rational(a, "segment start"),
                          to_rational(b, "segment end"), _json_int(c, "segment color"))
                         for a, b, c in doc["segments"])
        value = to_rational(doc["value"], "value")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed schedule document: {exc}") from exc
    if len(set(ids)) < len(ids):
        raise FormatError("'covered' names a job twice")
    return Schedule(frozenset(ids), segments, value)
