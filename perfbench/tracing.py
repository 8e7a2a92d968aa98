"""Spans around every public lgsim function, installed from outside.

Every module-level attribute of ``lgsim`` and its layer modules that *is* a
public function of one of the layers (matched by identity) is replaced by a
wrapper, so cross-module bindings such as ``cli.ttb_map`` or ``noise.soe``
are traced too. ``noise.solve_ivp`` is wrapped as a layer of its own; its
self time includes the Bloch right-hand-side closure, which cannot be reached
from outside. ``uninstall`` puts every original back. A function that a later
version of lgsim no longer has is simply absent from ``names``.

Each span records (function, start, end, parent span, item). Self time is a
span's duration minus the durations of its direct child spans. Every span is
kept in memory (28 bytes each) and written when the run ends.

A wrapper's own bookkeeping, before its span starts and after it ends, is
charged to no function: it is taken out of the callers' self and total times
and summed in ``overhead``, so that a frequently called function
(``superpose.soe`` on every Bloch right-hand-side evaluation) does not
inflate its callers' figures.
"""

from __future__ import annotations

import functools
import types
from array import array
from time import perf_counter

LAYERS = ("linalg", "superpose", "lgi", "ancilla", "noise", "cli")
EXTRA = {"noise.solve_ivp": ("noise", "solve_ivp")}

# Work units of one call, for the functions that have per-unit metrics.
UNITS = {
    "lgi.ttb_map": lambda args: len(args[0]) * len(args[1]),
    "lgi.k3max_surface": lambda args: len(args[0]) * len(args[1]),
    "ancilla.verify_pulse_sequences": lambda args: len(args[0]) * len(args[1]),
    "lgi.k3_curve": lambda args: len(args[1]),
    "cli.emit_series": lambda args: len(args[2]),
}


def layer_of(name: str) -> str:
    """Layer a traced function belongs to (``noise.solve_ivp`` is its own)."""
    return name if name in EXTRA else name.split(".", 1)[0]


class Tracer:
    """Installs the wrappers and accumulates per-function counts and times.

    Times accumulate raw during an item; ``fold(factor)`` moves them into the
    reference-time totals (``total``, ``self_time`` and ``overhead``) scaled
    by ``factor``. ``total`` counts outermost activations only, so recursion
    is not counted twice.
    """

    def __init__(self):
        import lgsim
        from lgsim import ancilla, cli, lgi, linalg, noise, superpose

        self._modules = [lgsim, linalg, superpose, lgi, ancilla, noise, cli]
        self.names: list[str] = []
        self._originals: list[object] = []
        for layer, mod in zip(LAYERS, self._modules[1:]):
            for attr, val in sorted(vars(mod).items()):
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    self._add(f"{layer}.{attr}", val)
        for name, (layer, attr) in EXTRA.items():
            val = getattr(self._modules[1 + LAYERS.index(layer)], attr, None)
            if val is not None:
                self._add(name, val)
        n = len(self.names)
        self.calls = [0] * n
        self.units = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self._raw_total = [0.0] * n
        self._raw_self = [0.0] * n
        self._depth = [0] * n
        self.overhead = 0.0
        self._raw_overhead = 0.0
        self._child: list[float] = []   # child time of each open span
        self._inner: list[float] = []   # wrapper overhead inside each open span
        self._open: list[int] = []      # span index of each open span
        self.item = -1
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_item = array("i")
        self._by_id = {id(fn): self._wrap(i, fn) for i, fn in enumerate(self._originals)}
        self._saved: list[tuple[object, str, object]] = []

    def _add(self, name: str, fn) -> None:
        if fn not in self._originals:
            self.names.append(name)
            self._originals.append(fn)

    def _wrap(self, idx: int, fn):
        count_units = UNITS.get(self.names[idx])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            sid = len(self.span_name)
            self.span_name.append(idx)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self.span_item.append(self.item)
            self._child.append(0.0)
            self._inner.append(0.0)
            self._open.append(sid)
            self._depth[idx] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self._open.pop()
                self._depth[idx] -= 1
                self.calls[idx] += 1
                self._raw_self[idx] += dur - self._child.pop()
                inner = self._inner.pop()
                if self._depth[idx] == 0:
                    self._raw_total[idx] += dur - inner
                if count_units is not None:
                    try:
                        self.units[idx] += count_units(args)
                    except (IndexError, TypeError):
                        pass
                self.span_start[sid] = t0
                self.span_end[sid] = t1
                t_out = perf_counter()
                own = (t_out - t_in) - dur
                self._raw_overhead += own
                if self._child:
                    self._child[-1] += t_out - t_in
                    self._inner[-1] += inner + own

        return traced

    def index(self, name: str):
        """Position of ``name`` in the per-function lists, or None if absent."""
        return self.names.index(name) if name in self.names else None

    def exclude(self, seconds: float) -> None:
        """Count ``seconds`` spent inside the open span as no function's time."""
        if self._child:
            self._child[-1] += seconds
            self._inner[-1] += seconds

    def fold(self, factor: float) -> None:
        """Add this item's raw times, scaled by ``factor``, to the totals."""
        for i in range(len(self.names)):
            self.total[i] += factor * self._raw_total[i]
            self.self_time[i] += factor * self._raw_self[i]
            self._raw_total[i] = self._raw_self[i] = 0.0
        self.overhead += factor * self._raw_overhead
        self._raw_overhead = 0.0

    def __enter__(self):
        for mod in self._modules:
            for attr, val in list(vars(mod).items()):
                wrapper = self._by_id.get(id(val))
                if wrapper is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()
        return False

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: index, function, start, end, parent span, item."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span\tfunction\tstart_s\tend_s\tparent\titem\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                         f"{self.span_end[i]!r}\t{self.span_parent[i]}\t{self.span_item[i]}\n")
