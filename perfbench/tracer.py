"""Per-layer tracer for the benchmark's traced runs.

The tracer measures psdorder from the outside.  `Tracer.install` replaces
every public function of the layer modules in every psdorder namespace that
binds it (``lattice`` and ``cli`` both bind ``strength.strength``, and the
package re-exports almost everything), so a call is seen whichever name it
goes through.  It also wraps ``numpy.linalg.eigh``, the one spectral
primitive every decision reduces to.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the spans it caused; it is charged to the layer that defines the
function, not the namespace it was called through.  Spans are only recorded
between `begin_op` and `end_op` (or while `active` is set by hand), so the
benchmark's own output checks never enter the counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core", "strength", "lebesgue", "lattice", "forms", "sampling", "cli")


class Tracer:
    def __init__(self, package: str, breakdown_error: type[BaseException]):
        self.package = package
        self.breakdown_error = breakdown_error
        self.active = False
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.ops = 0
        self.op_s = 0.0
        self.calls: Counter = Counter()  # (layer, function) -> calls
        self.self_s: Counter = Counter()  # layer -> self seconds
        self.top_s: Counter = Counter()  # layer -> seconds of spans with no parent
        self.eigh_calls = 0
        self.eigh_n3 = 0
        self.eigh_unique = 0
        self.eigh_s = 0.0
        self.inf_calls = 0
        self.inf_witness = 0
        self.breakdowns = 0
        self._op_inputs: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(prefix):
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(prefix) or layer not in LAYERS:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._saved.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])
        self._saved.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap_eigh(np.linalg.eigh)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._span(layer, name, fn, args, kwargs)

        return traced

    def _span(self, layer: str, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and name == "ando_witness" and parent[1] == "inf_exists":
            parent[3] = True
        frame = [layer, name, 0.0, False]  # layer, function, child seconds, took witness path
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self.breakdown_error:
            if layer == "lattice" and (parent is None or parent[0] != "lattice"):
                self.breakdowns += 1
            raise
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.calls[(layer, name)] += 1
            self.self_s[layer] += dt - frame[2]
            if parent is None:
                self.top_s[layer] += dt
            else:
                parent[2] += dt
            if name == "inf_exists":
                self.inf_calls += 1
                self.inf_witness += frame[3]

    def _wrap_eigh(self, eigh):
        @functools.wraps(eigh)
        def traced(a, *args, **kwargs):
            if not self.active:
                return eigh(a, *args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            h0 = perf_counter()
            m = np.asarray(a)
            # hashing is tracer overhead: it is charged to no layer
            self._op_inputs.add((m.shape, m.dtype.str, m.tobytes()))
            t0 = perf_counter()
            try:
                return eigh(a, *args, **kwargs)
            finally:
                end = perf_counter()
                self.eigh_calls += 1
                self.eigh_n3 += m.shape[-1] ** 3
                self.eigh_s += end - t0
                if parent is not None:
                    parent[2] += end - h0

        return traced

    # -- per-operation bookkeeping -----------------------------------------

    def begin_op(self) -> None:
        self._op_inputs = set()
        self.active = True

    def end_op(self, seconds: float) -> None:
        self.active = False
        self.ops += 1
        self.op_s += seconds
        self.eigh_unique += len(self._op_inputs)
        self._op_inputs = set()

    _TOTALS = ("eigh_calls", "eigh_n3", "eigh_unique", "eigh_s", "inf_calls", "inf_witness", "breakdowns")

    def state(self) -> dict:
        """Raw counts, as JSON, for `merge` in another process."""
        return {
            "calls": [[lay, fn, n] for (lay, fn), n in self.calls.items()],
            "self_s": dict(self.self_s),
            **{key: getattr(self, key) for key in self._TOTALS},
        }

    def merge(self, state: dict) -> None:
        """Add the counts of another process's tracer (operations excepted)."""
        for lay, fn, n in state["calls"]:
            self.calls[(lay, fn)] += n
        self.self_s.update(state["self_s"])
        for key in self._TOTALS:
            setattr(self, key, getattr(self, key) + state[key])

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics as ``name -> (value, unit)``."""
        ops = max(self.ops, 1)
        out = {
            "core.eigh_calls_per_op": (self.eigh_calls / ops, "count"),
            "core.eigh_n3_per_op": (self.eigh_n3 / ops, "count"),
            "core.eigh_unique_ratio": (
                self.eigh_unique / self.eigh_calls if self.eigh_calls else 0.0,
                "ratio",
            ),
            "core.eigh_s_share": (self.eigh_s / self.op_s if self.op_s else 0.0, "ratio"),
            "core.as_hermitian_calls_per_op": (
                self.calls[("core", "as_hermitian")] / ops,
                "count",
            ),
            "core.self_s_per_op": (self.self_s["core"] / ops, "s"),
        }
        for layer in ("strength", "lebesgue", "lattice", "forms"):
            out[f"{layer}.calls_per_op"] = (self.layer_calls(layer) / ops, "count")
            out[f"{layer}.self_s_per_op"] = (self.self_s[layer] / ops, "s")
        out["lebesgue.ac_part_calls_per_op"] = (self.calls[("lebesgue", "ac_part")] / ops, "count")
        out["lattice.compress_calls_per_op"] = (self.calls[("lattice", "compress")] / ops, "count")
        out["lattice.witness_share"] = (
            self.inf_witness / self.inf_calls if self.inf_calls else 0.0,
            "ratio",
        )
        out["lattice.breakdowns_per_op"] = (self.breakdowns / ops, "count")
        return out
