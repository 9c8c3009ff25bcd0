"""Outside-in span tracer for the infopay package.

The tracer changes no file of the package.  It wraps the public
functions that make up each layer and rebinds every ``infopay.*``
module attribute that holds one of them, because consumers import by
name (``from .garbling import find_garbling``) and a patch of the
defining module alone would miss their calls.  ``to_float`` methods are
wrapped on the classes that define them.

Each call records one span: layer, start, end and parent span.  Spans
stay in memory (flat arrays, a few dozen bytes each) and are written
out when the run ends.  The exact counters ``lp_cells`` and
``max_bits`` are recorded on the same spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from fractions import Fraction

PACKAGE = "infopay"


def _generator_fn(name: str) -> bool:
    return name.startswith("random_") or name in ("extreme_structure", "trial_rng")


def _discrimination_fn(name: str) -> bool:
    return name == "pay_gap" or name.startswith("check_")


# layer name -> (defining module, predicate on the function name)
FUNCTION_LAYERS = {
    "simplex.feasible_point": ("simplex", lambda n: n == "feasible_point"),
    "garbling.find_garbling": ("garbling", lambda n: n == "find_garbling"),
    "garbling.kernel_reproduces": ("garbling", lambda n: n == "kernel_reproduces"),
    "garbling.is_slightly_more_informative": (
        "garbling", lambda n: n == "is_slightly_more_informative"
    ),
    "model.average_pay": ("model", lambda n: n == "average_pay"),
    "model.posterior": ("model", lambda n: n == "posterior"),
    "decomposition": (
        "decomposition",
        lambda n: n in ("decompose", "instrumental", "perception_correcting"),
    ),
    "discrimination": ("discrimination", _discrimination_fn),
    "orders": ("orders", None),  # every public function in orders.__all__
    "generators": ("generators", _generator_fn),
    "suites.run_suite": ("suites", lambda n: n == "run_suite"),
    "cli.main": ("cli", lambda n: n == "main"),
    "instancefile.load_instance": ("instancefile", lambda n: n == "load_instance"),
    "sweep.figure1_rows": ("sweep", lambda n: n == "figure1_rows"),
}
METHOD_LAYERS = {"model.to_float": "to_float"}  # layer -> method name on classes
LAYERS = tuple(FUNCTION_LAYERS) + tuple(METHOD_LAYERS)

# exact counters: name -> (layer, kind); "cells" sums rows x columns of
# the LP handed to the simplex, "bits" is the largest numerator or
# denominator bit length among the values a call returns
COUNTERS = {
    "simplex.feasible_point.lp_cells": ("simplex.feasible_point", "cells"),
    "simplex.feasible_point.max_bits": ("simplex.feasible_point", "bits"),
    "model.average_pay.max_bits": ("model.average_pay", "bits"),
    "decomposition.max_bits": ("decomposition", "bits"),
}


def package_modules() -> list:
    """Import and return every module of the package."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return [
        m for name, m in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def traced_targets() -> tuple[dict, dict]:
    """(function -> layer, class -> layer) for every traced callable."""
    package_modules()
    functions, classes = {}, {}
    for layer, (modname, keep) in FUNCTION_LAYERS.items():
        module = sys.modules[f"{PACKAGE}.{modname}"]
        names = module.__all__ if keep is None else [n for n in vars(module) if keep(n)]
        for name in names:
            fn = inspect.unwrap(getattr(module, name))
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                functions[fn] = layer
    for layer, method in METHOD_LAYERS.items():
        for module in package_modules():
            for obj in vars(module).values():
                if (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and method in vars(obj)
                ):
                    classes[obj] = layer
    return functions, classes


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value).bit_length()
    return 0  # floats carry no exact size


def _result_bits(result) -> int:
    if result is None:
        return 0
    if isinstance(result, (list, tuple)):
        return max((_bits(v) for v in result), default=0)
    if hasattr(result, "identity_gap"):  # DecompResult
        return max(
            _bits(result.total),
            _bits(result.perception_correcting),
            _bits(result.instrumental),
        )
    return _bits(result)


def _lp_cells(args, kwargs) -> int:
    rows = args[0] if args else kwargs["a_rows"]
    return len(rows) * (len(rows[0]) if rows else 0)


class Tracer:
    """Span recorder; ``install`` wraps the package, ``uninstall`` restores it."""

    def __init__(self):
        self.layer_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cells = array("q")
        self.bits = array("q")
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.layer_of)

    def _wrap(self, layer: str, fn):
        index = LAYERS.index(layer)
        kinds = {kind for lay, kind in COUNTERS.values() if lay == layer}
        cells_of = _lp_cells if "cells" in kinds else None
        bits_of = _result_bits if "bits" in kinds else None
        layer_of, parent, start, end = self.layer_of, self.parent, self.start, self.end
        cells, bits, stack, clock = self.cells, self.bits, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(layer_of)
            layer_of.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            cells.append(0)
            bits.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if cells_of is not None:
                cells[span] = cells_of(args, kwargs)
            if bits_of is not None:
                bits[span] = bits_of(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        functions, classes = traced_targets()
        wrapped = {fn: self._wrap(layer, fn) for fn, layer in functions.items()}
        for module in package_modules():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._rebound.append((module, name, value))
                    setattr(module, name, wrapped[value])
        for cls, layer in classes.items():
            method = METHOD_LAYERS[layer]
            original = vars(cls)[method]
            self._rebound.append((cls, method, original))
            setattr(cls, method, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._rebound):
            setattr(owner, name, original)
        self._rebound = []

    def layer_totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-layer calls, busy and self seconds and counters over spans
        ``lo:hi``.  Busy time counts each outermost call of a layer once;
        self time is a span's duration minus its direct child spans."""
        hi = len(self) if hi is None else hi
        child = {}
        for s in range(lo, hi):
            p = self.parent[s]
            if p >= lo:
                child[p] = child.get(p, 0.0) + self.end[s] - self.start[s]
        out = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS
        }
        for name in COUNTERS:
            out[name] = 0
        for s in range(lo, hi):
            index = self.layer_of[s]
            row = out[LAYERS[index]]
            dur = self.end[s] - self.start[s]
            row["calls"] += 1
            row["self_s"] += dur - child.get(s, 0.0)
            p = self.parent[s]
            while p >= lo and self.layer_of[p] != index:
                p = self.parent[p]
            if p < lo:  # no enclosing span of the same layer
                row["busy_s"] += dur
        for name, (layer, kind) in COUNTERS.items():
            index = LAYERS.index(layer)
            picked = [s for s in range(lo, hi) if self.layer_of[s] == index]
            if kind == "cells":
                out[name] = sum(self.cells[s] for s in picked)
            else:
                out[name] = max((self.bits[s] for s in picked), default=0)
        return out

    def dump(self, path: str) -> None:
        """Write every span as columns: layer names, then per-span arrays."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "layers": LAYERS,
                    "layer": self.layer_of.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "lp_cells": self.cells.tolist(),
                    "max_bits": self.bits.tolist(),
                },
                fh,
            )

    def extend(self, data: dict) -> None:
        """Append spans dumped by another process, re-basing parents."""
        base = len(self)
        names = data["layers"]
        self.layer_of.extend(LAYERS.index(names[i]) for i in data["layer"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.cells.extend(data["lp_cells"])
        self.bits.extend(data["max_bits"])


def unwrapped_leftovers() -> list[str]:
    """Places in the package that still hold an original traced callable
    (empty while an installed tracer has missed nothing)."""
    functions, classes = traced_targets()
    originals = set(functions)
    missed = []
    for module in package_modules():
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value in originals:
                missed.append(f"{module.__name__}.{name}")
            elif isinstance(value, (dict, list, tuple)):
                items = value.values() if isinstance(value, dict) else value
                if any(inspect.isfunction(v) and v in originals for v in items):
                    missed.append(f"{module.__name__}.{name} (container)")
    for cls, layer in classes.items():
        method = vars(cls)[METHOD_LAYERS[layer]]
        if getattr(method, "__wrapped__", None) is None:
            missed.append(f"{cls.__module__}.{cls.__qualname__}.{METHOD_LAYERS[layer]}")
    return missed
