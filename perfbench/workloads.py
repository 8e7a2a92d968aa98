"""Seeded item lists for the four benchmark workloads.

An item is one ``lgsim`` command line (without ``--out``). A workload's pass
is a fixed list: the setup item (cheap, measured cold in fresh interpreters),
the experiments' default-settings invocations, then ``DRAWS[workload]``
seeded draws. The draws are stratified: a continuous dimension is split
into equal strata, each holding one jittered point (Latin hypercube), or an
antithetic pair of points where the dimension sets the cost (the grid in
``maxima``, gamma in the lifetime workloads), and discrete choices (experiment, grid parity, output
format) are balanced by draw index. Every seed still reaches the whole input
range, but the work of a pass, and hence the throughput, depends little on
the seed.

Why these workloads:

- ``maxima``: ``ttb-map`` and ``k3-surface`` over grids 2..50. Almost all
  time is ``lgi``'s scalar golden-section loop; ``noise``, ``ancilla`` and
  scipy are never called, so Lindblad and Bloch changes must leave it alone.
- ``bloch``: ``lifetime-bloch`` with phi in [30, 175] deg, 3-5 alpha points
  and gamma log-uniform in [1e-3, 100] (weak up to Zeno-regime dephasing).
  Time sits in scipy's RK45 and its right-hand side.
- ``lindblad``: the same draws through ``lifetime-lindblad``; time sits in
  ``noise``'s fixed-step RK4/Hermite loop, whose cost grows with gamma.
- ``circuits``: ``verify-circuits``, ``k3-curves`` (trace route),
  ``soe-profiles`` and ``selftest`` in CSV and JSON, so that ``ancilla``,
  ``linalg``'s tiny-matrix helpers, ``lgi``'s dense sampling and
  ``cli.emit_series`` are measured somewhere.

gamma above 100 is left out: ``lifetime-bloch`` at gamma >> 100 does not
finish within a minute, so each such item would cost the full per-item
limit on every run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("maxima", "bloch", "lindblad", "circuits")

# Seeded draws per pass, after the setup item and the defaults.
DRAWS = {"maxima": 4, "bloch": 16, "lindblad": 16, "circuits": 16}

GAMMA_RANGE = (1e-3, 100.0)
PHI_RANGE_DEG = (30.0, 175.0)
MAP_GRID = (2, 50)
CIRCUIT_GRID = (2, 30)
CURVE_GRID = (100, 4000)

DEFAULTS = {
    "maxima": (("ttb-map",), ("k3-surface",)),
    "bloch": (("lifetime-bloch",),),
    "lindblad": (("lifetime-lindblad",),),
    "circuits": (("verify-circuits",), ("k3-curves",), ("soe-profiles",), ("selftest",)),
}


@dataclass(frozen=True)
class Item:
    """One CLI invocation; ``kind`` is "setup", "default" or "draw"."""

    argv: tuple
    kind: str

    @property
    def experiment(self) -> str:
        return self.argv[0]

    def option(self, name: str, default=None):
        """Value of ``--name`` in argv as a string, or ``default``."""
        flag = f"--{name}"
        for i, tok in enumerate(self.argv[:-1]):
            if tok == flag:
                return self.argv[i + 1]
        return default


def _rng(workload: str, seed: int) -> np.random.Generator:
    # lindblad shares bloch's stream: "the same draws through lifetime-lindblad".
    stream = {"maxima": 1, "bloch": 2, "lindblad": 2, "circuits": 4}[workload]
    return np.random.default_rng([int(seed), stream])


def _strata(rng: np.random.Generator, m: int) -> np.ndarray:
    """m points in [0, 1), one jittered point per equal stratum, shuffled."""
    return (rng.permutation(m) + rng.random(m)) / m


def _num(x: float) -> str:
    return repr(float(x))


def _log_uniform(u, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** np.asarray(u)


def _int_in(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from a unit draw, with equal mass per value."""
    return min(hi, lo + int(u * (hi - lo + 1)))


def _with_parity(u: float, lo: int, hi: int, parity: int) -> int:
    """Integer of the given parity in [lo, hi] from a unit draw."""
    values = [g for g in range(lo, hi + 1) if g % 2 == parity]
    return values[min(len(values) - 1, int(u * len(values)))]


def _maxima(rng: np.random.Generator, m: int) -> list[Item]:
    setup = Item(("k3-surface", "--grid", str(int(rng.integers(2, 5)))), "setup")
    # The cost grows with grid^2, so each of the m // 2 grid strata gets an
    # antithetic pair (v and 1 - v): one ttb-map and one k3-surface, both of
    # one parity, which alternates over the strata from a seeded offset.
    strata = m // 2
    v = rng.random(strata)
    offset = int(rng.integers(2))
    draws = []
    for i in range(strata):
        for exp, w in (("ttb-map", v[i]), ("k3-surface", 1.0 - v[i])):
            grid = _with_parity((i + w) / strata, *MAP_GRID, parity=(i + offset) % 2)
            draws.append(Item((exp, "--grid", str(grid)), "draw"))
    return [setup] + draws


def _lifetime(rng: np.random.Generator, m: int, model: str) -> list[Item]:
    exp = f"lifetime-{model}"
    setup = Item((exp, "--phi", _num(rng.uniform(*PHI_RANGE_DEG)),
                  "--gamma", _num(_log_uniform(rng.random(), 0.1, 1.0)), "--grid", "2"), "setup")
    # gamma sets the cost (Lindblad work grows about linearly with it), so each
    # of the m // 2 log-gamma strata gets an antithetic pair of points, at v
    # and 1 - v within the stratum, and the alpha-point count falls as v rises.
    # Both keep the work of a pass nearly independent of the seed; every
    # stratum still sees every alpha-point count.
    strata = m // 2
    v = rng.random(strata)
    phi = PHI_RANGE_DEG[0] + (PHI_RANGE_DEG[1] - PHI_RANGE_DEG[0]) * _strata(rng, m)
    draws = []
    for i in range(strata):
        for j, w in enumerate((v[i], 1.0 - v[i])):
            gamma = _log_uniform((i + w) / strata, *GAMMA_RANGE)
            grid = 4 - min(2, int(3.0 * w))
            draws.append(Item((exp, "--phi", _num(phi[2 * i + j]), "--gamma", _num(gamma),
                               "--grid", str(grid)), "draw"))
    return [setup] + draws


def _circuits(rng: np.random.Generator, m: int) -> list[Item]:
    setup = Item(("verify-circuits", "--grid", str(int(rng.integers(2, 5)))), "setup")
    kinds = ("verify-circuits", "k3-curves", "soe-profiles", "selftest")
    per_kind = m // len(kinds)
    # Each kind gets its own strata, so that every kind reaches every part of
    # each range in every pass. The grid sets the cost, so, as in _maxima, its
    # per_kind // 2 strata each hold an antithetic pair (v and 1 - v).
    half = per_kind // 2
    size = {}
    for k in kinds:
        v = rng.random(half)
        size[k] = np.column_stack((np.arange(half) + v, np.arange(half) + 1.0 - v)).ravel() / half
    phi = {k: _strata(rng, per_kind) for k in kinds}
    alpha = {k: _strata(rng, per_kind) for k in kinds}
    draws = []
    for i in range(m):
        kind, j = kinds[i % len(kinds)], i // len(kinds)
        fmt = ("csv", "json")[j % 2]
        if kind == "verify-circuits":
            argv = (kind, "--grid", str(_int_in(size[kind][j], *CIRCUIT_GRID)))
        elif kind == "selftest":
            argv = (kind, "--seed", str(int(rng.integers(2**31))))
        else:
            grid = int(round(float(_log_uniform(size[kind][j], *CURVE_GRID))))
            argv = (kind, "--grid", str(grid), "--phi", _num(180.0 * phi[kind][j]),
                    "--alpha", _num(0.5 * np.pi * alpha[kind][j]))
        draws.append(Item(argv + ("--format", fmt), "draw"))
    return [setup] + draws


def build(workload: str, seed: int) -> list[Item]:
    """The pass for ``workload`` under ``seed``: setup item, defaults, draws."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = _rng(workload, seed)
    m = DRAWS[workload]
    if workload == "maxima":
        setup, *draws = _maxima(rng, m)
    elif workload == "circuits":
        setup, *draws = _circuits(rng, m)
    else:
        setup, *draws = _lifetime(rng, m, workload)
    defaults = [Item(argv, "default") for argv in DEFAULTS[workload]]
    return [setup] + defaults + draws
