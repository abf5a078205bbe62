"""Span tracer that wraps the toolkit's public functions from outside.

Modules import functions by name, so one function object can be bound in
several modules; ``install`` replaces every binding of each wrapped function
and ``uninstall`` restores them.  Each call records a span

    (name id, start, end, parent span, job id, work)

in memory.  ``work`` is a per-function count (rows transformed, refinement
steps, ...) read from the call's arguments or result.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

import numpy as np

# layer -> public names traced in that module (None: every public function
# defined there).  cli is traced at its entry point only: the cmd_* bodies
# are glue and count toward cli.main's self time.
LAYERS = {
    "groups": None,
    "harmonic": None,
    "bohr": None,
    "reg_f2": None,
    "reg_general": None,
    "applications": None,
    "cli": ("main",),
}

SPAN_DTYPE = np.dtype([
    ("name", np.int32), ("t0", np.float64), ("t1", np.float64),
    ("parent", np.int64), ("job", np.int32), ("work", np.int64),
])


def _shape_class(group) -> str:
    if all(m == 2 for m in group.factors):
        return "f2"
    return "cyclic" if len(group.factors) == 1 else "mixed"


def _leading_rows(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# name -> (args, kwargs, result) -> work count
WORK = {
    "harmonic.dft_many": lambda a, k, r: _leading_rows(a[1] if len(a) > 1 else k["rows"]),
    "reg_f2.wht_last_axis": lambda a, k, r: _leading_rows(a[0] if a else k["mat"]),
    "reg_general.regularize": lambda a, k, r: len(r[1]["iterations"]),
    "reg_f2.regularize_f2": lambda a, k, r: int(r.iterations),
}

# name -> ((args, kwargs) -> suffix appended to the span name, every suffix).
# Suffix names are registered at install time, so a forked job child never
# records a name its parent does not know.
LABEL = {
    "harmonic.dft_many": (
        lambda a, k: _shape_class(a[0] if a else k["group"]),
        ("f2", "cyclic", "mixed"),
    ),
}


def _traceable(module, name: str, obj) -> bool:
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.job = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "arithreg" or name.startswith("arithreg."))
        }
        targets = []
        for layer, only in LAYERS.items():
            mod = modules[f"arithreg.{layer}"]
            for name, obj in vars(mod).items():
                if (only is None and _traceable(mod, name, obj)) or (only and name in only):
                    targets.append((f"{layer}.{name}", obj))
        for span_name, fn in targets:
            wrapper = self._wrap(fn, span_name)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        # RegPair is a class: trace its constructor
        reg_pair = modules["arithreg.reg_general"].RegPair
        init = reg_pair.__init__
        self._patches.append((reg_pair, "__init__", init))
        reg_pair.__init__ = self._wrap(init, "reg_general.RegPair")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, fn, span_name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work_of = WORK.get(span_name)
        label_of, suffixes = LABEL.get(span_name, (None, ()))
        base_id = self._name_id(span_name)
        label_ids = {s: self._name_id(f"{span_name}.{s}") for s in suffixes}
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = base_id if label_of is None else label_ids[label_of(args, kwargs)]
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            work = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if work_of is not None:
                    work = work_of(args, kwargs, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, tracer.job, work)

        return traced

    # -- records ------------------------------------------------------------

    def take(self) -> np.ndarray:
        """Recorded spans as a structured array; the in-memory list is emptied."""
        out = np.array(self.spans, dtype=SPAN_DTYPE) if self.spans else np.zeros(0, SPAN_DTYPE)
        self.spans.clear()
        self.stack.clear()
        return out

    def dump(self, path: Path) -> None:
        np.save(path, self.take())


def concat(parts: list[np.ndarray]) -> np.ndarray:
    """Join span arrays recorded separately, re-basing parent indices."""
    out, offset = [], 0
    for arr in parts:
        arr = arr.copy()
        arr["parent"] = np.where(arr["parent"] >= 0, arr["parent"] + offset, -1)
        out.append(arr)
        offset += arr.size
    return np.concatenate(out) if out else np.zeros(0, SPAN_DTYPE)


def summarize(spans: np.ndarray, names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time, summed duration and summed work."""
    dur = spans["t1"] - spans["t0"]
    child = np.zeros(spans.size)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    for name_id, name in enumerate(names):
        sel = spans["name"] == name_id
        out[name] = {
            "calls": float(np.count_nonzero(sel)),
            "self_s": float(self_time[sel].sum()),
            "total_s": float(dur[sel].sum()),
            "work": float(spans["work"][sel].sum()),
        }
    return out


def rollup(summary: dict[str, dict[str, float]], prefix: str, field: str) -> float:
    """Sum ``field`` over span names equal to ``prefix`` or nested under it."""
    return sum(
        stats[field] for name, stats in summary.items()
        if name == prefix or name.startswith(prefix + ".")
    )
