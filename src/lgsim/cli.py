"""Batch front-end over the simulation modules.

Each named experiment reproduces one theory dataset (temporal-bound map, K3
maxima, K3 curves, lifetime gain curves, rotation-rate profiles, circuit
verification) and writes it as CSV or JSON. Every experiment also runs a set
of embedded sanity assertions on its own output; the process exits 0 only if
all of them pass, 1 on a failed assertion, 2 on bad parameters or an
unwritable output path.

Outputs are deterministic: for a fixed configuration and seed the emitted
file is byte-identical across runs. CSV files start with a
single '#' provenance line naming the experiment and its parameters, followed
by a header row; floats are written with full round-trip precision, LF line
endings throughout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .ancilla import KET_PLUS, PROJ0, PROJ1, VERIFY_TOL, ancilla_state, interferometer_signal, \
    normalization_signal, postselect_map, project_ancilla, verify_pulse_sequences
from .lgi import correlator, k3_at, k3_curve, k3_max, k3max_surface, ttb_map
from .linalg import SIGMA_Z, dagger, dist_upto_phase, rot
from .noise import NoiseConfig, evolve_lindblad, gain_curve, integrate_bloch, \
    k3_bloch, noisy_correlator
from .superpose import SuperpositionConfig, f_of_t, norm_factor_sq, planar, soe, soe_span, \
    superposed_unitary, unnormalized_superposed

EXPERIMENTS = ("ttb-map", "k3-surface", "k3-curves", "lifetime-bloch",
               "lifetime-lindblad", "soe-profiles", "verify-circuits", "selftest")

DEFAULT_SEED = 12345
MAX_ROWS = 250_000
DEFAULT_GAMMA = 1.0 / (4.0 * np.pi)

_DEFAULT_FORMATS = {"verify-circuits": "json", "selftest": "json"}
_CSV_QUOTED = re.compile('[,"\n]')  # what csv.writer(lineterminator="\n") quotes; not "\r"
_CSV_BLOCK_ROWS = 4096  # rows per write; one string for a 250000-row table adds 14 MB
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # repr -> json.dumps


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: experiment name plus parameter overrides.

    alpha is in radians, phi in degrees (converted at the dispatch boundary),
    grid is a per-experiment density knob with per-experiment defaults.
    """

    experiment: str
    alpha: float | None = None
    phi: float | None = None
    gamma: float | None = None
    omega: float = 1.0
    grid: int | None = None
    out: str | None = None
    format: str | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.format not in (None, "csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if self.grid is not None and self.grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.grid!r}")
        # dataset rows per grid; lifetime grids cost time, not memory, and are not capped
        g = self.grid or 0
        rows = {"ttb-map": (g + 1) * g, "k3-surface": (g + 1) * g, "k3-curves": g + 1,
                "soe-profiles": g + 1, "verify-circuits": 3 * g * g}.get(self.experiment, 0)
        if rows > MAX_ROWS:
            raise ValueError(f"grid {g!r} gives {rows} dataset rows, more than {MAX_ROWS}")
        if not (np.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be finite and positive, got {self.omega!r}")


@dataclass(frozen=True)
class Check:
    """One embedded assertion outcome."""

    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))  # not np.bool_: 1/0, true/false


def _cell_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _cell_json(v):
    if v is None or isinstance(v, (str, bool)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    return float(v)


def _is_float_array(col) -> bool:
    return isinstance(col, np.ndarray) and col.dtype.kind == "f"


def _cells(col, fmt: str) -> list:
    """A column's cells as _cell_csv gives them, or _cell_json's as json.dumps writes them.

    A float array is formatted once per distinct bit pattern (-0.0 is not 0.0) by repr
    itself, in JSON with json's NaN, Infinity and -Infinity for the non-finite values.
    Other JSON columns go through json.JSONEncoder.
    """
    if _is_float_array(col):
        bits, inverse = np.unique(col.astype(np.float64).view(np.int64), return_inverse=True)
        values = bits.view(float)
        distinct = list(map(repr, values.tolist()))
        if fmt == "json":
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                distinct[i] = _JSON_NONFINITE[distinct[i]]
        return np.array(distinct, dtype=object)[inverse].tolist()
    if fmt == "csv" or not len(col):
        return list(map(_cell_csv, col))
    lines = json.JSONEncoder(separators=("\n", ": ")).encode(list(map(_cell_json, col)))
    return lines[1:-1].split("\n")  # one scalar per line: "\n" in a string is escaped


def _csv_quote(cells: list, lone: bool) -> list:
    """cells quoted as csv.writer(lineterminator="\n") quotes them in its minimal mode.

    A cell holding a comma, a double quote or a newline is quoted, its quotes doubled;
    lone cells are one-column rows, and an empty one is written "".
    """
    if _CSV_QUOTED.search("".join(cells)):
        cells = ['"' + c.replace('"', '""') + '"' if _CSV_QUOTED.search(c) else c for c in cells]
    return [c or '""' for c in cells] if lone else cells


def emit_series(name: str, columns, data, fmt: str, path: str, meta: dict) -> None:
    """Write one rectangular dataset deterministically.

    data holds one column per name in columns. CSV: '#' provenance line
    (experiment name and sorted parameters), header row, minimal RFC-4180
    quoting, LF endings, rows written in blocks. JSON: {"meta", "columns", "rows"}
    as json.dumps with indent=2 and sorted keys. Both are byte-stable for
    identical inputs.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    cells = [_cells(col, fmt) for col in data]
    if fmt == "csv":  # a float's repr needs no quotes
        cells = [c if _is_float_array(col) else _csv_quote(c, len(columns) == 1)
                 for col, c in zip(data, cells)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            provenance = " ".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in sorted(meta.items()))
            fh.write(f"# lgsim {name} {provenance}".rstrip() + "\n"
                     + ",".join(_csv_quote(list(columns), len(columns) == 1)) + "\n")
            rows = map(",".join, zip(*cells))
            for _ in range(0, len(cells[0]) if cells else 0, _CSV_BLOCK_ROWS):
                fh.write("\n".join(itertools.islice(rows, _CSV_BLOCK_ROWS)) + "\n")
            return
        rows = list(map(",\n      ".join, zip(*cells)))
        doc = {"meta": {"name": name, **meta}, "columns": list(columns), "rows": []}
        head = json.dumps(doc, indent=2, sort_keys=True)  # "rows" sorts last
        body = "\n    ],\n    [\n      ".join(rows)
        fh.write(head[:-len("[]\n}")] + (f"[\n    [\n      {body}\n    ]\n  ]" if rows else "[]")
                 + "\n}\n")


# --- experiment runners ------------------------------------------------------
# Each returns (table, meta, checks); table maps column names to columns.

def _run_ttb_map(config: RunConfig):
    n = config.grid or 50
    eta = np.linspace(0.0, np.pi, n + 1)
    xi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    k3m, arg = ttb_map(eta, xi)
    table = {"eta": np.repeat(eta, len(xi)), "xi": np.tile(xi, len(eta)),
             "k3max": k3m.ravel(), "argmax_omega_t": arg.ravel()}
    peak = float(k3m.max())
    analytic = 1.0 + 0.5 * np.sin(eta) ** 2
    dev = float(np.abs(k3m - analytic[:, None]).max())
    if n % 2 == 0:
        top = Check("peak equals the single-rotation bound 1.5", abs(peak - 1.5) < 1e-12,
                    f"max = {peak!r}")
    else:
        # an odd grid has no eta = pi/2 row, so the bound itself is not on it
        grid_top = float(analytic.max())
        top = Check("peak equals the closed-form maximum on the eta grid",
                    abs(peak - grid_top) < 1e-12, f"max = {peak!r}, closed form = {grid_top!r}")
    checks = [
        top,
        Check("no entry exceeds the bound", peak <= 1.5 + 1e-12, f"max = {peak!r}"),
        Check("matches the azimuth-independent closed form", dev < 1e-12,
              f"max deviation = {dev:.3e}"),
    ]
    meta = {"alpha": 0.0, "eta_points": n + 1, "xi_points": n}
    return table, meta, checks


def _run_k3_surface(config: RunConfig):
    n = config.grid or 50
    alphas = np.linspace(0.0, np.pi / 4, n + 1)
    phis = np.linspace(0.0, np.pi, n, endpoint=False)
    k3m = k3max_surface(alphas, phis)
    table = {"alpha": np.repeat(alphas, len(phis)), "phi": np.tile(phis, len(alphas)),
             "k3max": k3m.ravel()}
    zero_row_dev = float(np.abs(k3m[0] - 1.5).max())
    peak = float(k3m.max())
    checks = [
        Check("no superposition recovers the single-rotation bound",
              zero_row_dev < 1e-12, f"max |k3max - 1.5| on the alpha=0 row = {zero_row_dev:.3e}"),
        Check("every maximum stays below the algebraic bound 3",
              peak < 3.0, f"max = {peak!r}"),
    ]
    if n % 2 == 0:
        anchor = float(k3m[-1, n // 2])
        checks.append(Check("equal-weight orthogonal-axes maximum", abs(anchor - 1.846637) < 5e-5,
                            f"k3max(alpha=pi/4, phi=90deg) = {anchor!r}"))
    meta = {"alpha_points": n + 1, "phi_points": n}
    return table, meta, checks


def _run_k3_curves(config: RunConfig):
    n = config.grid or 2000
    us = np.linspace(0.0, 2.0 * np.pi, n + 1)
    alpha = np.pi / 4 if config.alpha is None else config.alpha
    phis_deg = [90.0, 135.0, 160.0] if config.phi is None else [config.phi]
    table, checks = {"omega_t": us}, []
    for pd in phis_deg:
        c12, c13, k3 = k3_curve(planar(alpha, np.deg2rad(pd), config.omega), us)
        label = f"{pd:g}"
        if len(phis_deg) == 1:
            table.update({f"c12_phi{label}": c12, f"c13_phi{label}": c13})
        table[f"k3_phi{label}"] = k3
        start_err = abs(float(k3[0]) - 1.0)
        sym_err = float(np.abs(k3 - k3[::-1]).max())
        checks.append(Check(f"K3 starts at 1 (phi = {label} deg)", start_err < 1e-9,
                            f"|K3(0) - 1| = {start_err:.3e}"))
        checks.append(Check(f"K3 symmetric about omega*t = pi (phi = {label} deg)",
                            sym_err < 1e-9, f"max asymmetry = {sym_err:.3e}"))
        if abs(alpha - np.pi / 4) < 1e-12 and abs(pd - 160.0) < 1e-9:
            peak = float(k3.max())
            checks.append(Check("equal-weight 160-degree peak", abs(peak - 2.883110) < 0.01,
                                f"max K3 = {peak!r}"))
    meta = {"alpha": alpha, "omega": config.omega, "points": n + 1,
            "phi_deg": ",".join(f"{p:g}" for p in phis_deg)}
    return table, meta, checks


def _run_lifetime(config: RunConfig, model: str):
    gamma = DEFAULT_GAMMA if config.gamma is None else config.gamma
    noise = NoiseConfig(gamma=gamma)
    n = config.grid or 4
    alphas = np.linspace(0.0, np.pi / 4, n + 1)
    phis_deg = [90.0, 115.0, 140.0] if config.phi is None else [config.phi]
    curves, checks = [], []
    for pd in phis_deg:
        tau, gain, status = gain_curve(np.deg2rad(pd), noise, alphas, model=model,
                                       omega=config.omega)
        curves.append((tau, gain, status))
        label = f"{pd:g}"
        ok = all(s == "ok" for s in status)
        checks.append(Check(f"every scan found a crossing (phi = {label} deg)", ok,
                            f"{status.count('ok')}/{len(status)} ok"))
        if not ok:
            continue
        gains = gain.tolist()
        checks.append(Check(f"no-superposition gain is 1 (phi = {label} deg)",
                            gains[0] == 1.0, f"gain(alpha=0) = {gains[0]!r}"))
        diffs = np.diff(gains)
        if model == "bloch":
            checks.append(Check(f"gain never drops with alpha (phi = {label} deg)",
                                bool(np.all(diffs >= -1e-6)), f"min step = {diffs.min():.3e}"))
            if abs(pd - 115.0) < 1e-9:
                checks.append(Check("gain strictly increases at 115 degrees",
                                    bool(np.all(diffs > 0.0)), f"min step = {diffs.min():.3e}"))
        else:
            worst = min(gains)
            checks.append(Check(f"dephasing on both qubits never hurts (phi = {label} deg)",
                                worst >= 1.0 - 1e-6, f"min gain = {worst!r}"))
            checks.append(Check(f"full superposition still gains (phi = {label} deg)",
                                gains[-1] > 1.0, f"gain(alpha=pi/4) = {gains[-1]!r}"))
    meta = {"model": model, "gamma": gamma, "omega": config.omega,
            "alpha_points": n + 1, "phi_deg": ",".join(f"{p:g}" for p in phis_deg)}
    tau, gain, status = zip(*curves)
    table = {"phi_deg": np.repeat(np.array(phis_deg, dtype=float), n + 1),
             "alpha": np.tile(alphas, len(phis_deg)),
             "tau_alpha": _none_for_nan(tau), "gain": _none_for_nan(gain),
             "status": sum(status, [])}
    return table, meta, checks


def _none_for_nan(arrays) -> list:
    """The arrays' values in one list, None (an empty CSV cell, JSON null) for each NaN."""
    return [None if math.isnan(v) else v for v in np.concatenate(arrays).tolist()]


def _run_soe_profiles(config: RunConfig):
    # the stencil below reaches 2 d <= 0.002 / omega past the last time 2 pi / omega
    if not math.isfinite((2.0 * np.pi + 2e-3) / config.omega):
        raise ValueError(f"--omega {config.omega!r} is too small for soe-profiles: its longest "
                         f"time, (2 pi + 0.002) / omega, is not finite")
    pd = 135.0 if config.phi is None else config.phi
    phi = np.deg2rad(pd)
    n = config.grid or 2000
    us = np.linspace(0.0, 2.0 * np.pi, n + 1)
    ts = us / config.omega
    alphas = [0.0, np.pi / 8, np.pi / 4] if config.alpha is None else [config.alpha]
    table, checks = {"omega_t": us}, []
    for a in alphas:
        cfg = planar(a, phi, config.omega)
        f_vals = np.asarray(f_of_t(cfg, ts), dtype=float)
        g_vals = np.asarray(soe(cfg, ts), dtype=float)
        label = f"{a:.4f}"
        table.update({f"f_alpha{label}": f_vals, f"g_alpha{label}": g_vals})
        if a == 0.0:
            flat = float(np.abs(g_vals - config.omega).max())
            linear = float(np.abs(f_vals - us).max())
            checks.append(Check("no superposition means a constant rate",
                                flat < 1e-12 and linear < 1e-9,
                                f"max |g - omega| = {flat:.3e}, max |f - omega*t| = {linear:.3e}"))
        # 5-point stencil, offset fixed inside the rate spike (width ~ B/A = g(0) / omega)
        d = 1e-3 * min(1.0, float(soe(cfg, 0.0)) / config.omega) / config.omega
        fd = (f_of_t(cfg, ts - 2 * d) - 8 * f_of_t(cfg, ts - d) + 8 * f_of_t(cfg, ts + d)
              - f_of_t(cfg, ts + 2 * d))
        rel = float(np.abs(fd / (12.0 * d) - g_vals).max() / g_vals.min())
        checks.append(Check(f"rate is the derivative of the accumulated angle (alpha = {a:.4f})",
                            rel < 1e-4, f"max relative FD mismatch = {rel:.3e}"))
    span_grid = np.linspace(0.0, np.pi / 4, 9)
    spans = [soe_span(planar(a, phi, config.omega)) for a in span_grid]
    span_diffs = np.diff(spans)
    checks.append(Check("rate modulation depth grows with the superposition weight",
                        bool(np.all(span_diffs >= -1e-12)), f"min step = {span_diffs.min():.3e}"))
    meta = {"phi_deg": pd, "omega": config.omega, "points": n + 1,
            "alphas": ",".join(f"{a:.4f}" for a in alphas)}
    return table, meta, checks


def _run_verify_circuits(config: RunConfig):
    n = config.grid or 21
    phis = np.linspace(0.0, np.pi, n + 2)[1:-1]
    omega_ts = np.linspace(0.0, 2.0 * np.pi, n)
    distances = verify_pulse_sequences(phis, omega_ts)
    worst = {name: float(d.max()) for name, d in distances.items()}
    print(f"{'sequence':<24} {'max distance':>14} {'tolerance':>11} {'status':>8}")
    for name, dist in worst.items():
        status = "ok" if dist < VERIFY_TOL else "FAIL"
        print(f"{name:<24} {dist:>14.3e} {VERIFY_TOL:>11.0e} {status:>8}")
    # rows run phi-major, then omega_t, then the library's program order
    names = list(distances)
    table = {"sequence": names * (n * n), "phi": np.repeat(phis, n * len(names)),
             "omega_t": np.tile(np.repeat(omega_ts, len(names)), n),
             "distance": np.stack(list(distances.values()), axis=-1).ravel()}
    checks = [Check("all pulse sequences realize their gates",
                    all(d < VERIFY_TOL for d in worst.values()), f"tolerance = {VERIFY_TOL!r}")]
    meta = {"tolerance": VERIFY_TOL, "phi_points": n, "omega_t_points": n}
    for name, dist in sorted(worst.items()):
        checks.append(Check(f"{name} within tolerance", dist < VERIFY_TOL,
                            f"max distance = {dist:.3e}"))
        meta[f"max_dist_{name}"] = dist
    return table, meta, checks


def _run_selftest(config: RunConfig):
    rng = np.random.default_rng(config.seed)
    omega = config.omega
    if not math.isfinite(12.0 / omega):
        raise ValueError(f"--omega {omega!r} is too small for selftest: its longest time, "
                         f"12 / omega, is not finite")
    checks = []

    def random_axis():
        v = rng.normal(size=3)
        return v / math.sqrt(v.dot(v))  # np.linalg.norm(v), as that computes it

    def random_cfg():
        while True:
            n_axis, m_axis = random_axis(), random_axis()
            if float(n_axis @ m_axis) > -0.99:
                return SuperpositionConfig(alpha=rng.uniform(0.0, np.pi / 2),
                                           n_axis=n_axis, m_axis=m_axis, omega=omega)

    def random_planar():
        return planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.05, np.pi - 0.05), omega)

    # each randomized check draws all its inputs first, in the order one draw at a time
    # takes them, then evaluates its identity once over the stacks (configs as objects)
    def stacked(k, draw):
        return [np.array(col) for col in zip(*[draw() for _ in range(k)])]

    ax, a, b = stacked(10, lambda: (random_axis(), rng.uniform(-6, 6), rng.uniform(-6, 6)))
    r_a, r_b, r_ab = rot(ax, np.stack((a, b, a + b)))
    worst = float(dist_upto_phase(r_a @ r_b, r_ab).max())
    checks.append(Check("rotations about one axis compose", worst < 1e-12, f"max = {worst:.3e}"))

    cfgs, deltas = stacked(20, lambda: (random_cfg(), rng.uniform(0.0, 6.0)))
    ut = unnormalized_superposed(cfgs, deltas)
    direct = 0.5 * np.trace(ut @ dagger(ut), axis1=-2, axis2=-1).real
    worst = float(np.abs(norm_factor_sq(cfgs, deltas) - direct).max())
    checks.append(Check("norm factor matches the trace definition", worst < 1e-12,
                        f"max = {worst:.3e}"))

    # a (10, 1) stack of configs and delays against a (10, 3) stack of states a a^dag / tr
    cfgs, deltas, a = stacked(10, lambda: (random_planar(), rng.uniform(0.1, 5.0), [
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]))
    cfgs, deltas, rhos = cfgs[:, None], deltas[:, None], a @ dagger(a)
    rhos = rhos / np.trace(rhos, axis1=-2, axis2=-1).real[..., None, None]
    u = superposed_unitary(cfgs, deltas)
    out, prob = postselect_map(cfgs, rhos, 0.0, deltas)
    worst = float(np.abs(out - u @ rhos @ dagger(u)).max())
    spread = float(np.ptp(prob, axis=1).max())
    checks.append(Check("post-selected channel equals the normalized conjugation",
                        worst < 1e-10, f"max = {worst:.3e}"))
    checks.append(Check("post-selection probability is state-independent",
                        spread < 1e-12, f"max spread = {spread:.3e}"))

    cfgs, deltas = stacked(10, lambda: (random_planar(), rng.uniform(0.1, 5.0)))
    sig = interferometer_signal(cfgs, 0.0, deltas)
    norm = normalization_signal(cfgs, 0.0, deltas)
    worst_id = float(np.abs(sig.re_cm - 0.25 * (sig.t_plus + sig.t_minus)).max())
    worst_corr = float(np.abs(sig.t_plus / norm.n_plus - correlator(cfgs, 0.0, deltas)).max())
    checks.append(Check("interferometer coherence identity", worst_id < 1e-10,
                        f"max = {worst_id:.3e}"))
    checks.append(Check("normalized coherence reproduces the correlator",
                        worst_corr < 1e-10, f"max = {worst_corr:.3e}"))

    quiet = NoiseConfig(gamma=0.0)
    cfg = planar(np.pi / 8, np.deg2rad(135.0), omega)
    ts = np.array([0.4, 1.1]) / omega
    exact = k3_at(cfg, ts)[2]
    c = noisy_correlator(cfg, quiet, 0.0, np.concatenate([ts, 2.0 * ts]))
    worst = float(max(np.abs(k3_bloch(cfg, quiet, ts) - exact).max(),
                      np.abs(2.0 * c[:2] - c[2:] - exact).max()))
    checks.append(Check("all three noiseless routes agree on K3", worst < 1e-6,
                        f"max = {worst:.3e}"))

    # each sigma_z branch propagated as a joint state and post-selected on |+>,
    # against the closed form behind noisy_correlator
    noisy = NoiseConfig(gamma=DEFAULT_GAMMA)
    cfg = planar(np.pi / 4, np.deg2rad(115.0), omega)
    rho_a = np.outer(ancilla_state(cfg.alpha), ancilla_state(cfg.alpha))
    branches = np.array([np.kron(rho_a, p) for p in (PROJ0, PROJ1)])
    ts = np.array([0.37, 1.9, 3.3]) / omega
    blocks = project_ancilla(evolve_lindblad(branches, cfg, noisy, ts), KET_PLUS)
    sz = 0.5 * (np.trace(SIGMA_Z @ blocks, axis1=-2, axis2=-1).real
                / np.trace(blocks, axis1=-2, axis2=-1).real)
    worst = float(np.abs(sz[:, 0] - sz[:, 1] - noisy_correlator(cfg, noisy, 0.0, ts)).max())
    checks.append(Check("joint-state propagator matches the closed-form correlator",
                        worst < 1e-10, f"max = {worst:.3e}"))

    worst = max(float(d.max()) for d in verify_pulse_sequences(
        np.linspace(0.3, np.pi - 0.3, 5), np.linspace(0.0, 2.0 * np.pi, 5)).values())
    checks.append(Check("pulse sequences verify on a spot grid", worst < VERIFY_TOL,
                        f"max = {worst:.3e}"))

    # omega*t in [0, 12], like the other draws
    cfgs, ts = stacked(15, lambda: (random_planar(), rng.uniform(0.0, 12.0) / omega))
    worst = float(np.abs(np.cos(f_of_t(cfgs, ts)) - correlator(cfgs, 0.0, ts)).max())
    checks.append(Check("accumulated angle reproduces the correlator", worst < 1e-10,
                        f"max = {worst:.3e}"))

    # a dense scan can only read at or below the true maximum: 2001 points over
    # the cycle, then 2001 within one coarse step of the coarse argmax
    cfg = planar(np.pi / 4, np.deg2rad(135.0), omega)
    closed, _ = k3_max(cfg)
    coarse = np.linspace(0.0, 2.0 * np.pi, 2001)
    centre = coarse[np.argmax(k3_curve(cfg, coarse)[2])]
    dense = float(k3_curve(cfg, centre + coarse[1] * np.linspace(-1.0, 1.0, 2001))[2].max())
    delta = closed - dense
    checks.append(Check("closed-form K3 maximum tops a dense scan", -1e-15 <= delta < 1e-9,
                        f"closed - dense = {delta:.3e}"))

    traj = integrate_bloch(planar(np.pi / 8, 2.0, omega), NoiseConfig(gamma=0.05), 6.0 / omega)
    samples = np.linspace(0.0, 6.0 / omega, 31)
    s = traj(samples)
    norms = np.sqrt(np.vecdot(s, s))  # each np.linalg.norm(s[k]), as that computes it
    shrinks = bool(np.all(np.diff(norms) <= 1e-8)) and bool(np.all(norms <= 1.0 + 1e-8))
    s = integrate_bloch(planar(np.pi / 8, 2.0, omega), quiet, 6.0 / omega)(samples)
    quiet_dev = float(np.abs(np.sqrt(np.vecdot(s, s)) - 1.0).max())
    checks.append(Check("Bloch norm never grows under dephasing", shrinks,
                        f"max norm = {float(norms.max())!r}"))
    checks.append(Check("Bloch norm is conserved without dephasing", quiet_dev < 1e-8,
                        f"max deviation = {quiet_dev:.3e}"))

    table = {"check": [c.name for c in checks], "passed": [c.passed for c in checks],
             "detail": [c.detail for c in checks]}
    return table, {"seed": config.seed, "omega": omega}, checks


_RUNNERS = {
    "ttb-map": _run_ttb_map,
    "k3-surface": _run_k3_surface,
    "k3-curves": _run_k3_curves,
    "lifetime-bloch": lambda c: _run_lifetime(c, "bloch"),
    "lifetime-lindblad": lambda c: _run_lifetime(c, "lindblad"),
    "soe-profiles": _run_soe_profiles,
    "verify-circuits": _run_verify_circuits,
    "selftest": _run_selftest,
}


def run(config: RunConfig) -> int:
    """Execute one experiment; return the process exit code."""
    try:
        table, meta, checks = _RUNNERS[config.experiment](config)
    except ValueError as exc:  # DegenerateSuperposition and UnsupportedGeometry included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fmt = config.format or _DEFAULT_FORMATS.get(config.experiment, "csv")
    out = config.out or f"lgsim-{config.experiment}.{fmt}"
    try:
        emit_series(config.experiment, list(table), list(table.values()), fmt, out, meta)
    except OSError as exc:
        print(f"error: cannot write {out!r}: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"{tag} {config.experiment}: {check.name}{detail}")
        failed += 0 if check.passed else 1
    rows = len(next(iter(table.values()), ()))
    print(f"wrote {out}: {rows} rows, {len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgsim",
        description="Three-time correlator and decoherence datasets for superposed rotations.")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--alpha", type=float, default=None,
                        help="superposition weight in radians (default per experiment)")
    parser.add_argument("--phi", type=float, default=None,
                        help="angle between the two rotation axes, in degrees")
    parser.add_argument("--gamma", type=float, default=None,
                        help="dephasing rate (default 1/(4 pi) for lifetime experiments)")
    parser.add_argument("--omega", type=float, default=1.0, help="rotation rate")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid density (cells for maps, intervals for curves)")
    parser.add_argument("--out", default=None, help="output path (default lgsim-<experiment>.<ext>)")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv; json for reports)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the randomized self-test draws")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(experiment=args.experiment, alpha=args.alpha, phi=args.phi,
                           gamma=args.gamma, omega=args.omega, grid=args.grid,
                           out=args.out, format=args.format, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
