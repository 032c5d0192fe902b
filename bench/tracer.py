"""Per-layer tracing from outside the program.

`Tracer` replaces chosen public functions and methods of `normgraph.*`
modules by wrappers that record a span per call.  A module-level function is
replaced in its defining module and in every `normgraph.*` module that
imported it by name; a method is replaced on its class.  Spans live on a
stack, so a call's self time is its duration minus the durations of the
traced calls made inside it.  A target that no longer exists is skipped,
and its metrics are left out of the report.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Target:
    module: str                      # short module name, e.g. "zmod"
    attr: str                        # "howell_form" or "CodeSubgroup.intersect"
    name: str                        # metric prefix, e.g. "zmod.howell_form"
    stats: tuple[str, ...]           # reported as `<name>.<stat>`
    # optional work counter: (args, kwargs, result) -> int, summed per call
    count: Callable | None = None
    count_name: str = ""
    # optional maximum tracked over calls: (args, kwargs, result) -> int
    peak: Callable | None = None
    peak_name: str = ""


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0             # outermost activations only
    self_s: float = 0.0
    counted: int = 0
    peak: int = 0


class Tracer:
    """Install with `with tracer:`; originals are restored on exit."""

    def __init__(self, targets: list[Target], clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.installed: list[Target] = []
        self._stack: list[list[float]] = []     # [start, child time] per span
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: Target, fn):
        stat = self.stats.setdefault(target.name, Stat())
        clock, stack, active = self.clock, self._stack, self._active
        key = target.name

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            active[key] = active.get(key, 0) + 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - frame[0]
                stack.pop()
                active[key] -= 1
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if not active[key]:
                    stat.total_s += dur
                if stack:
                    stack[-1][1] += dur
                if target.count:
                    stat.counted += target.count(args, kwargs, result)
                if target.peak:
                    stat.peak = max(stat.peak, target.peak(args, kwargs, result))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def __enter__(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "normgraph" or name.startswith("normgraph.")}
        for target in self.targets:
            home = modules.get(f"normgraph.{target.module}")
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(target, original)
            self._patch(owner, attr, original, wrapper)
            if not owner_name:
                for mod in modules.values():
                    if mod is not home and mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, original, wrapper)
            self.installed.append(target)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def _cells_howell(args, kwargs, result) -> int:
    rows = args[0] if args else kwargs["rows"]
    ncols = args[2] if len(args) > 2 else kwargs["ncols"]
    return len(rows) * ncols if hasattr(rows, "__len__") else 0


def _cells_kernel(args, kwargs, result) -> int:
    nrows = args[1] if len(args) > 1 else kwargs["nrows"]
    ncols = args[2] if len(args) > 2 else kwargs["ncols"]
    return nrows * ncols


def _codewords(args, kwargs, result) -> int:
    code = args[0] if args else kwargs["code"]
    return code.order


def _reduced(args, kwargs, result) -> int:
    r = args[0] if args else kwargs["r"]
    return int(result is not None and result is not r)


def _universe_width(args, kwargs, result) -> int:
    return result.universe.ambient.width if result is not None else 0


CALLS_SELF = ("calls", "self_s")
CALLS_TOTAL = ("calls", "total_s")
TOTAL = ("total_s",)

# README.md in this directory says which end-to-end metric each one should
# move, on which workload.
TARGETS = [
    Target("zmod", "howell_form", "zmod.howell_form",
           ("calls", "cells", "self_s"), _cells_howell, "cells"),
    Target("zmod", "kernel", "zmod.kernel",
           ("calls", "cells", "self_s"), _cells_kernel, "cells"),
    Target("intmat", "hermite_form", "intmat.hermite_form", CALLS_SELF),
    Target("intmat", "smith_form", "intmat.smith_form", CALLS_SELF),
    Target("subgroups", "CodeSubgroup.__init__", "subgroups.CodeSubgroup",
           CALLS_SELF),
    *(Target("subgroups", f"CodeSubgroup.{m}", f"subgroups.{m}", CALLS_TOTAL)
      for m in ("intersect", "orthogonal", "project", "cross_section",
                "quotient_by")),
    Target("realization", "Realization.behavior_bundle",
           "realization.behavior_bundle", ("calls", "total_s", "width_max"),
           peak=_universe_width, peak_name="width_max"),
    Target("analysis", "local_reduce", "analysis.local_reduce",
           ("calls", "reduced", "useful_ratio", "total_s"), _reduced, "reduced"),
    *(Target("analysis", f, f"analysis.{f}", CALLS_TOTAL)
      for f in ("obs_ctrl", "state_trim_status", "trim_proper")),
    Target("minimize", "minimize_cycle_free", "minimize.minimize_cycle_free",
           TOTAL),
    Target("duality", "dualize", "duality.dualize", TOTAL),
    Target("duality", "verify_duality", "duality.verify_duality", TOTAL),
    Target("graphcore", "second_canonical_decomposition",
           "graphcore.second_canonical_decomposition", TOTAL),
    Target("decode", "sp_update", "decode.sp_update",
           ("calls", "codewords", "self_s"), _codewords, "codewords"),
    Target("decode", "decode_iterative", "decode.decode_iterative", TOTAL),
    Target("decode", "decode_exact", "decode.decode_exact", TOTAL),
    Target("serialize", "load_realization", "serialize.load_realization",
           CALLS_SELF),
    Target("serialize", "load_priors", "serialize.load_priors", CALLS_SELF),
    *(Target("cli", f"cmd_{c}", f"cli.cmd_{c}", TOTAL)
      for c in ("validate", "behavior", "check_duality", "minimize", "analyze",
                "decode", "two_core")),
]

COUNT_STATS = ("calls", "cells", "codewords", "reduced", "width_max")


def stat_values(tracer: Tracer) -> dict[str, float]:
    """Flat `<name>.<stat>` values for every installed target."""
    out = {}
    for target in tracer.installed:
        st = tracer.stats[target.name]
        values = {"calls": st.calls, "total_s": st.total_s, "self_s": st.self_s}
        if target.count_name:
            values[target.count_name] = st.counted
        if target.peak_name:
            values[target.peak_name] = st.peak
        if target.count_name == "reduced":
            values["useful_ratio"] = st.counted / st.calls if st.calls else 0.0
        for stat in target.stats:
            out[f"{target.name}.{stat}"] = values[stat]
    return out
