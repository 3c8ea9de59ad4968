"""The golden `igl` byte stream, and an instance whose answer has 5,000-digit
numbers.

This module imports only the standard library and the package, so that any
supported interpreter can run it without the test dependencies. With `src`
and `tests` on `PYTHONPATH`, `python -m golden DIR` prints the sha256 of the
golden stream (writing its start profiles to `DIR`), and `python -m golden
DIR large` prints what `igl opt` and `igl analyze` print on the large-number
instance, written to `DIR`.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
from fractions import Fraction as F

from intervalgames import fixture, profile_to_json, random_profile
from intervalgames.cli import main

# The seven named fixtures: builder parameters and the same as `igl` flags.
GOLDEN_FIXTURES = (
    ("ex1", {}, ()),
    ("nonsymm_no_ne", {}, ()),
    ("poa_tight", {"n": 5, "epsilon": F(1, 10)}, ("--n", "5", "--epsilon", "1/10")),
    ("pos_c", {"c": 4}, ("--c", "4")),
    ("pos_two", {}, ()),
    ("prop_no_ne", {}, ()),
    ("unit_tight", {"c": 4}, ("--c", "4")),
)
# One best response of pos_c's six-job player runs for seconds on the global
# grid, so its dynamics are pinned at zero iterations.
GOLDEN_BRD_FLAGS = {"pos_c": ("--max-iters", "0")}
GOLDEN_SHA256 = "bc5d648940d0f1a2bc04742d3b6e34359b312aead1a5c42b93aa26a5e185ee71"


def _igl(*argv) -> tuple[int, str]:
    """The exit code and stdout of one in-process `igl` command."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, out.getvalue()


def golden_stream(directory) -> bytes:
    """The exit codes and stdout bytes of `ne`, `analyze` (window-free
    instances only: `analyze` rejects windows), `brd` from a seeded grid
    profile and `ne --construct` (single and unit classes) on every fixture,
    each after its command line. `pos_c` exceeds the enumeration guard, so
    its `ne` and `analyze` give exit 2 and empty stdout. Start profiles are
    written to `directory`."""
    stream = []
    for name, kwargs, flags in GOLDEN_FIXTURES:
        instance = fixture(name, **kwargs).instance
        start = pathlib.Path(directory) / f"{name}.start.json"
        start.write_text(profile_to_json(random_profile(instance, 0)))
        brd_flags = GOLDEN_BRD_FLAGS.get(name, ())
        runs = [(("ne",), ()), (("brd", *brd_flags), (str(start),))]
        if not instance.has_windows:
            runs.append((("analyze",), ()))
        for cls in ("single", "unit"):
            if getattr(instance, f"is_{cls}"):
                runs.append((("ne", "--construct", cls), ()))
        for command, paths in runs:
            code, out = _igl(*command, "--fixture", name, *flags, *paths)
            stream.append(" ".join([*command, name, *flags]))
            stream.append(f"\n{code}\n{out}\n")
    return "".join(stream).encode()


def _weight(tail: str) -> str:
    """A 2,500-digit numerator over a 2,500-digit denominator, 10**2499 + a
    over 10**2499 + a + 2 for the odd digit `tail` a: coprime, since both
    are odd. Written from text, so no int is converted to build it."""
    lead = "1" + "0" * 2498
    return f"{lead}{tail}/{lead}{int(tail) + 2}"


# Two jobs whose weights are such fractions: the optimum, their sum, has
# 5,000-digit numbers.
LARGE_INSTANCE = json.dumps({"horizon": "2", "jobs": [
    {"id": 1, "color": 1, "length": "1", "weight": _weight("1")},
    {"id": 2, "color": 2, "length": "1", "weight": _weight("5")}]})


def large_stream(directory) -> bytes:
    """The exit codes and stdout of `igl opt` and `igl analyze` on
    `LARGE_INSTANCE`, written to `directory`."""
    path = pathlib.Path(directory) / "large.json"
    path.write_text(LARGE_INSTANCE)
    return "".join(f"{code}\n{out}" for code, out in (
        _igl("opt", str(path)), _igl("analyze", str(path)))).encode()


if __name__ == "__main__":
    if sys.argv[2:] == ["large"]:
        sys.stdout.buffer.write(large_stream(sys.argv[1]))
    else:
        print(hashlib.sha256(golden_stream(sys.argv[1])).hexdigest())
