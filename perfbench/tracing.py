"""Per-layer tracing from outside the package.

The tracer wraps the module-level seams each layer is called through. Every
wrapped call is a span: it counts one call, adds its duration to the seam's
inclusive time, and adds its duration minus its child spans to the seam's
self time. Seams are looked up by name when the tracer is installed, and a
seam that no longer exists is skipped: its metrics are left out of the report
instead of failing the run, so the package can be refactored under the
benchmark.

Wrapping rebinds every name in the package that refers to the original
object, so calls through `from .x import y` aliases are seen as well.
"""

from __future__ import annotations

import importlib
import sys

import calibration

PACKAGE = "intervalgames"

# (seam, module, attribute path). The seam prefix names the layer.
SEAMS = (
    ("cli.main", "cli", "main"),
    ("model.parse_instance", "model", "parse_instance"),
    ("model.parse_profile", "model", "parse_profile"),
    ("optimum.enumerate", "optimum", "social_optimum_enumerate"),
    ("search.enumerate_grid_ne", "equilibrium", "enumerate_grid_ne"),
    ("search.best_response", "equilibrium", "best_response"),
    ("search.is_nash", "equilibrium", "is_nash"),
    ("search.brd", "equilibrium", "brd"),
    ("search.player", "equilibrium", "_player_search"),
    ("grid.candidates", "equilibrium", "grid_candidates"),
    ("grid.coded", "equilibrium", "_coded_grid"),
    ("grid.build", "equilibrium", "build_grid"),
    ("memo.lookup", "equilibrium", "MachineCache.evaluate_key"),
    ("machine.entry", "equilibrium", "machine_value_and_covered"),
    ("machine.solve", "machine", "solve_machine_dp"),
    ("machine.core", "machine", "_dp_core"),
)


class SeamStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(old, new) -> list:
    """Point every package-level name bound to `old` at `new`; return undo
    records."""
    undo = []
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is old:
                setattr(module, key, new)
                undo.append((module, key, old))
    return undo


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.stats: dict[str, SeamStats] = {}
        self.missing: list[str] = []
        self.memo_misses = 0
        self.first_searches = 0
        self.refuted_searches = 0
        self.grid_jobs = 0
        self.grid_points = 0
        self._stack: list[list] = []  # [seam, child seconds] per open span
        self._undo: list = []

    def install(self) -> None:
        for seam, module_name, path in SEAMS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(seam)
                continue
            owner, attr, original = found
            wrapper = self._wrap(seam, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))
            else:
                self._undo.extend(_rebind(original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, seam: str, fn):
        stats = self.stats.setdefault(seam, SeamStats())
        stack = self._stack
        clock = calibration.now
        observe = {"search.player": self._observe_search,
                   "grid.build": self._observe_grid}.get(seam)
        counts_miss = seam == "machine.entry"

        def traced(*args, **kwargs):
            if counts_miss and stack and stack[-1][0] == "memo.lookup":
                self.memo_misses += 1
            frame = [seam, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(result, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_search(self, result, kwargs) -> None:
        if kwargs.get("mode") == "first":
            self.first_searches += 1
            if result is not None:
                self.refuted_searches += 1

    def _observe_grid(self, result, kwargs) -> None:
        for _, cands in getattr(result, "entries", ()):
            self.grid_jobs += 1
            self.grid_points += len(cands)

    # -- derived per-layer metrics -------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit). A metric whose seams
        are missing is left out."""
        s = self.stats
        out: dict[str, tuple[float, str]] = {}

        def has(*seams):
            return all(x in s for x in seams)

        def ratio(a, b):
            return a / b if b else 0.0

        if has("machine.core"):
            core = s["machine.core"]
            out["machine.core_calls"] = (core.calls, "count")
            out["machine.core_s"] = (core.total_s, "s")
            out["machine.core_us_per_call"] = (ratio(core.total_s, core.calls) * 1e6, "us")
        if has("machine.solve"):
            solve = s["machine.solve"]
            out["machine.solve_calls"] = (solve.calls, "count")
            out["machine.solve_s"] = (solve.total_s, "s")
            out["machine.closure_s"] = (solve.self_s, "s")
        if has("grid.build"):
            out["grid.build_calls"] = (s["grid.build"].calls, "count")
            out["grid.build_s"] = (s["grid.build"].total_s, "s")
            out["grid.points_mean"] = (ratio(self.grid_points, self.grid_jobs), "count")
        if has("grid.coded"):
            out["grid.coded_calls"] = (s["grid.coded"].calls, "count")
            out["grid.coded_self_s"] = (s["grid.coded"].self_s, "s")
        if has("grid.build", "grid.coded"):
            coded = s["grid.coded"].calls
            out["grid.cache_hit_ratio"] = (
                1 - s["grid.build"].calls / coded if coded else 0.0, "ratio")
        if has("grid.candidates"):
            out["grid.candidates_s"] = (s["grid.candidates"].total_s, "s")
        if has("memo.lookup"):
            memo = s["memo.lookup"]
            out["memo.lookups"] = (memo.calls, "count")
            out["memo.self_s"] = (memo.self_s, "s")
            if has("machine.entry"):
                out["memo.misses"] = (self.memo_misses, "count")
                out["memo.hit_ratio"] = (
                    1 - self.memo_misses / memo.calls if memo.calls else 0.0, "ratio")
        if has("search.player"):
            calls = s["search.player"].calls
            out["search.calls"] = (calls, "count")
            out["search.self_s"] = (sum(v.self_s for k, v in s.items()
                                        if k.startswith("search.")), "s")
            out["search.refuted_ratio"] = (
                ratio(self.refuted_searches, self.first_searches), "ratio")
            if has("memo.lookup"):
                out["search.lookups_per_call"] = (
                    ratio(s["memo.lookup"].calls, calls), "count")
        if has("optimum.enumerate"):
            out["optimum.calls"] = (s["optimum.enumerate"].calls, "count")
            out["optimum.s"] = (s["optimum.enumerate"].total_s, "s")
        parse = [s[k] for k in ("model.parse_instance", "model.parse_profile") if k in s]
        if parse:
            out["model.parse_calls"] = (sum(p.calls for p in parse), "count")
            out["model.parse_s"] = (sum(p.total_s for p in parse), "s")
        if has("cli.main"):
            out["cli.commands"] = (s["cli.main"].calls, "count")
            out["cli.self_s"] = (s["cli.main"].self_s, "s")
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time summed per layer (the seam prefix)."""
        layers: dict[str, float] = {}
        for seam, st in self.stats.items():
            layer = seam.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + st.self_s
        return layers
