"""Three-time correlators and the K3 Leggett-Garg quantity.

The two-time correlator of a dichotomic observable Q under the normalized
superposed rotation U is

    C(ti, tj) = (1/2) tr[Q U Q U^dag],   U = superposed_unitary(cfg, tj - ti)

and K3 = C12 + C23 - C13 on the stationary grid t1 = 0, t2 = t, t3 = 2t
(so C12 = C23). For a single rotation (alpha = 0) the maximum of K3 over t is
bounded by 1.5; superpositions push it toward the algebraic bound of 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Z_AXIS, as_unit_vector, dagger, pauli
from .superpose import SuperpositionConfig, superposed_unitary

GOLDEN_TOL = 1e-6

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepGrid:
    """Named inclusive 1-D parameter grid with a fixed point count."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError(f"grid '{self.name}' needs at least 2 points, got {self.count}")
        if not self.stop > self.start:
            raise ValueError(f"grid '{self.name}' range must be ordered (start < stop)")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class CorrelatorSet:
    """Correlators on the t, 2t grid plus their K3 combination."""

    c12: float
    c23: float
    c13: float
    k3: float


def _grid_values(grid) -> np.ndarray:
    if isinstance(grid, SweepGrid):
        return grid.values()
    return np.asarray(grid, dtype=float)


def correlator(cfg: SuperpositionConfig, ti: float, tj: float, q_axis=Z_AXIS) -> float:
    """Two-time correlator (1/2) tr[Q U Q U^dag] of the observable along q_axis."""
    q = pauli(q_axis)
    u = superposed_unitary(cfg, tj - ti)
    c = 0.5 * np.trace(q @ u @ q @ dagger(u)).real
    return float(min(1.0, max(-1.0, c)))


def _correlator_values(cfg: SuperpositionConfig, omega_dt: np.ndarray, q_axis=Z_AXIS) -> np.ndarray:
    """Vectorized correlator over an array of omega*(tj - ti).

    Uses the rotation-matrix element q.R(U)q of U = c*1 - i w.sigma, which
    equals the trace formula exactly: C = (c^2 - |w|^2 + 2 (w.q)^2) / N^2.
    """
    q = as_unit_vector(q_axis)
    x = 0.5 * np.asarray(omega_dt, dtype=float)
    sa, ca = np.sin(cfg.alpha), np.cos(cfg.alpha)
    axis_mix = sa * cfg.n_axis + ca * cfg.m_axis
    c = (sa + ca) * np.cos(x)
    w = np.sin(x)[..., None] * axis_mix
    w_sq = (w**2).sum(axis=-1)
    wq = w @ q
    nsq = c**2 + w_sq
    return (c**2 - w_sq + 2.0 * wq**2) / nsq


def _k3_values(cfg: SuperpositionConfig, omega_t: np.ndarray, q_axis=Z_AXIS) -> np.ndarray:
    """K3 on the stationary grid, vectorized over omega*t."""
    u = np.asarray(omega_t, dtype=float)
    return 2.0 * _correlator_values(cfg, u, q_axis) - _correlator_values(cfg, 2.0 * u, q_axis)


def k3_at(cfg: SuperpositionConfig, t: float, q_axis=Z_AXIS) -> CorrelatorSet:
    """Correlators and K3 at the grid (0, t, 2t).

    C23 is C12: the correlator depends on the delay only, and 2t - t == t
    exactly in floating point (Sterbenz's lemma).
    """
    c12 = correlator(cfg, 0.0, t, q_axis)
    c23 = c12
    c13 = correlator(cfg, 0.0, 2.0 * t, q_axis)
    return CorrelatorSet(c12=c12, c23=c23, c13=c13, k3=c12 + c23 - c13)


def default_omega_t_grid(count: int = 2000) -> np.ndarray:
    """Coarse scan grid over one full cycle omega*t in [0, 2 pi]."""
    return np.linspace(0.0, 2.0 * np.pi, count)


def k3_max(cfg: SuperpositionConfig, omega_t_grid=None, q_axis=Z_AXIS) -> tuple[float, float]:
    """Maximum of K3 over omega*t and its location.

    Coarse grid scan (first-occurrence argmax, so ties resolve to the smallest
    omega*t) followed by golden-section refinement of the bracketing interval
    down to width GOLDEN_TOL. Returns (k3_maximum, omega_t_at_maximum).
    """
    grid = default_omega_t_grid() if omega_t_grid is None else _grid_values(omega_t_grid)
    vals = _k3_values(cfg, grid, q_axis)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    def f(u: float) -> float:
        return float(_k3_values(cfg, np.array([u]), q_axis)[0])

    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    u_star = 0.5 * (a + b)
    f_star = f(u_star)
    if float(vals[i]) > f_star:
        return float(vals[i]), float(grid[i])
    return f_star, float(u_star)


@dataclass(frozen=True)
class TemporalBoundMap:
    """K3 maxima for a single rotation axis swept over the sphere (alpha = 0)."""

    eta: np.ndarray
    xi: np.ndarray
    k3max: np.ndarray           # shape (len(eta), len(xi))
    argmax_omega_t: np.ndarray  # same shape


def ttb_map(eta_grid, xi_grid, omega: float = 1.0) -> TemporalBoundMap:
    """Map of max_t K3 against the rotation-axis polar angles, at alpha = 0.

    The observable stays along z; the single rotation axis points at
    (sin eta cos xi, sin eta sin xi, cos eta). Every entry is bounded by 1.5
    (the temporal analogue of the Tsirelson bound) and depends on eta only.
    """
    etas = _grid_values(eta_grid)
    xis = _grid_values(xi_grid)

    k3m = np.empty((len(etas), len(xis)))
    arg = np.empty_like(k3m)
    for i, eta in enumerate(etas):
        for j, xi in enumerate(xis):
            axis = np.array([np.sin(eta) * np.cos(xi),
                             np.sin(eta) * np.sin(xi),
                             np.cos(eta)])
            axis /= np.linalg.norm(axis)
            cfg = SuperpositionConfig(alpha=0.0, n_axis=axis, m_axis=axis, omega=omega)
            k3m[i, j], arg[i, j] = k3_max(cfg)
    return TemporalBoundMap(eta=etas, xi=xis, k3max=k3m, argmax_omega_t=arg)


@dataclass(frozen=True)
class K3MaxSurface:
    """K3 maxima over the (alpha, phi) plane for planar configurations."""

    alpha: np.ndarray
    phi: np.ndarray
    k3max: np.ndarray  # shape (len(alpha), len(phi))


def k3max_surface(alpha_grid, phi_grid, omega: float = 1.0) -> K3MaxSurface:
    """max_t K3 for every (alpha, phi) pair of planar configurations."""
    from .superpose import planar

    alphas = _grid_values(alpha_grid)
    phis = _grid_values(phi_grid)

    rows = [[k3_max(planar(alpha, phi, omega))[0] for phi in phis] for alpha in alphas]
    return K3MaxSurface(alpha=alphas, phi=phis, k3max=np.array(rows))


@dataclass(frozen=True)
class K3Curve:
    """Sampled correlators and K3 against omega*t for one configuration."""

    omega_t: np.ndarray
    c12: np.ndarray
    c13: np.ndarray
    k3: np.ndarray


def k3_curve(cfg: SuperpositionConfig, omega_t_grid, q_axis=Z_AXIS) -> K3Curve:
    """Sample k3_at over a grid of omega*t (pure sampling, no refinement)."""
    us = _grid_values(omega_t_grid)
    sets = [k3_at(cfg, u / cfg.omega, q_axis) for u in us]
    return K3Curve(omega_t=us,
                   c12=np.array([s.c12 for s in sets]),
                   c13=np.array([s.c13 for s in sets]),
                   k3=np.array([s.k3 for s in sets]))
