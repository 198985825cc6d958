"""Per-layer tracing of mvprob from outside the package.

`Tracer` replaces every module-level binding of every public mvprob
function -- in the defining module, in modules that re-import the name,
and in the package namespace -- with a wrapper that counts calls and
keeps inclusive and self time.  Self time is inclusive time minus the
time of wrapped calls made directly beneath, tracked on one stack, so
private helpers, dataclass hooks and inline loops are charged to the
nearest public function above them.  Aggregates stay in memory; nothing
is written while a run is traced.  Leaving the ``with`` block restores
every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "mvprob"
LAYERS = (
    "core",
    "rationals",
    "axioms",
    "states",
    "spectra",
    "representation",
    "analysis",
    "independence",
    "documents",
    "cli",
)


class Tracer:
    """Wraps public mvprob functions while active; see the module docstring."""

    def __init__(self) -> None:
        # "layer.function" -> [calls, inclusive seconds, self seconds, depth]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for obj in list(vars(module).values()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not obj.__name__.startswith("_")
                    and id(obj) not in wrappers
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, key: str, fn):
        record = self.stats[key] = [0, 0.0, 0.0, 0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            record[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[3] -= 1
                record[0] += 1
                record[2] += elapsed - stack.pop()
                if not record[3]:  # count recursive calls once in inclusive time
                    record[1] += elapsed
                if stack:
                    stack[-1] += elapsed

        return wrapper

    # -- queries -----------------------------------------------------------

    def has(self, key: str) -> bool:
        return key in self.stats

    def calls(self, key: str) -> int:
        return self.stats[key][0] if key in self.stats else 0

    def seconds(self, key: str) -> float:
        return self.stats[key][1] if key in self.stats else 0.0

    def us_per_call(self, key: str) -> float:
        calls = self.calls(key)
        return self.seconds(key) / calls * 1e6 if calls else 0.0

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(r[2] for k, r in self.stats.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(r[0] for k, r in self.stats.items() if k.startswith(prefix))
