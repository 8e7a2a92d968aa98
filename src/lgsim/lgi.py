"""Three-time correlators and the K3 Leggett-Garg quantity.

The two-time correlator of a dichotomic observable Q under the normalized
superposed rotation U = superposed_unitary(cfg, tj - ti) is

    C(ti, tj) = (1/2) tr[Q U Q U^dag]

and K3 = C12 + C23 - C13 on the stationary grid t1 = 0, t2 = t, t3 = 2t
(so C12 = C23). For a single rotation (alpha = 0) the maximum of K3 over t is
bounded by 1.5; superpositions push it toward the algebraic bound of 3.

U is again an SU(2) rotation, so C has a closed form in which a config enters
through three scalars only; it is the one route here. `correlator` and `k3_at`
take it at a config or a stack of configs (as superpose takes them) and at times
that broadcast against it; k3_curve samples it over a grid of omega*t. Both
return the plain tuple (C12, C13, K3), arrays or floats as the inputs give. The
maximum of K3 over omega*t is solved for, not searched for: K3 rises to the
one root of a quartic in sin^2(omega*t / 2) that is monotone on [0, 1], so
k3_max, ttb_map and k3max_surface report it with its first location, in
[0, pi], for whole batches of configs at once.
"""

from __future__ import annotations

import numpy as np

from .linalg import X_AXIS, Z_AXIS, as_unit_vector
from .superpose import SuperpositionConfig, UnsupportedGeometry, _checked_norm_sq, _fields


def _dot3(a, b) -> np.ndarray:
    """Row-wise dot product of (..., 3) arrays.

    Summed in a fixed order, so a row's value does not depend on the shape
    of the batch it sits in.
    """
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _coefficients(alpha, n_axes, m_axes, q_axis=Z_AXIS):
    """The three scalars through which each config of a batch enters C.

    With x = omega*d / 2, U = c 1 - i w.sigma has c = c0 cos x and
    w = sin x v, where v = sin(alpha) n + cos(alpha) m. Returns the arrays
    c0 = sin(alpha) + cos(alpha), m2 = |v|^2 and mq = v.q, one entry per
    row of alpha (shape (B,)) and of the (B, 3) axis arrays.
    """
    alpha = np.asarray(alpha, dtype=float)
    sa, ca = np.sin(alpha), np.cos(alpha)
    v = sa[..., None] * n_axes + ca[..., None] * m_axes
    return sa + ca, _dot3(v, v), _dot3(v, as_unit_vector(q_axis))


def _config_coefficients(cfg: SuperpositionConfig, q_axis=Z_AXIS):
    return _coefficients([cfg.alpha], cfg.n_axis[None], cfg.m_axis[None], q_axis)


def _trig(omega_t):
    """cos and sin of the half angles of C(t) and C(2t): omega*t/2 and omega*t."""
    half = 0.5 * omega_t
    return np.cos(half), np.sin(half), np.cos(omega_t), np.sin(omega_t)


def _correlator_terms(coef, cos_x, sin_x):
    """C = (c^2 - |w|^2 + 2 (w.q)^2) / N^2 from the coefficients of a config.

    This is the rotation-matrix element q.R(U)q of U = c 1 - i w.sigma, equal
    to the trace formula (1/2) tr[Q U Q U^dag] up to rounding.
    """
    c0, m2, mq = coef
    c_sq = (c0 * cos_x) ** 2
    w_sq = m2 * sin_x**2
    wq = mq * sin_x
    return (c_sq - w_sq + 2.0 * wq**2) / (c_sq + w_sq)


def correlator(cfg: SuperpositionConfig, ti: float, tj: float, q_axis=Z_AXIS) -> float:
    """Two-time correlator (1/2) tr[Q U Q U^dag] of the observable along q_axis.

    The closed form, clamped to [-1, 1], at one config or a stack of them and at
    times that broadcast against it; raises DegenerateSuperposition where
    superposed_unitary would.
    """
    delta = np.asarray(tj, dtype=float) - ti
    _checked_norm_sq(cfg, delta)
    alpha, n, m, omega = _fields(cfg, "alpha", "n_axis", "m_axis", "omega")
    # on a trailing axis of one: one config takes a stack's array arithmetic (x**2 as x * x)
    x = 0.5 * (omega * delta)[..., None]
    coef = _coefficients(alpha[..., None], n[..., None, :], m[..., None, :], q_axis)
    c = np.minimum(1.0, np.maximum(-1.0, _correlator_terms(coef, np.cos(x), np.sin(x))[..., 0]))
    return c if c.shape else float(c)


def _k3_terms(coef, trig):
    """K3 = 2 C(t) - C(2t) on the stationary grid, broadcast over coef and trig."""
    cos_h, sin_h, cos_f, sin_f = trig
    return 2.0 * _correlator_terms(coef, cos_h, sin_h) - _correlator_terms(coef, cos_f, sin_f)


def _peak_s(rho) -> np.ndarray:
    """The root in (0, 1) of q(s) of _k3_maxima, for an array of rho in [0, 1].

    8 Newton steps from s = 0.25, each kept only inside the bracket of the signs
    of q seen so far, ends included (at rho = 1 the root is the start), else
    the bracket is halved; a fixed count keeps each entry batch-independent.
    """
    a, b = 2.0 * (rho - 1.0) ** 2, 4.0 * rho
    lo, hi, s = np.zeros_like(rho), np.ones_like(rho), np.full_like(rho, 0.25)
    with np.errstate(divide="ignore", invalid="ignore"):  # q' = 0 only at rho = s = 0
        for _ in range(8):
            q = a * s * s * ((8.0 * s - 14.0) * s + 7.0) + b * s - 1.0
            lo, hi = np.where(q < 0.0, s, lo), np.where(q < 0.0, hi, s)
            step = s - q / (2.0 * a * s * ((16.0 * s - 21.0) * s + 7.0) + b)
            s = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    return s


def _k3_maxima(coef) -> tuple[np.ndarray, np.ndarray]:
    """max over omega*t of K3 and its first location in [0, pi], for a batch of B configs.

    coef holds (c0, m2, mq), each of shape (B,). With s = sin^2(omega*t / 2)
    and D = c0^2, C(s) = (D + (2 mq^2 - m2 - D) s) / (D + (m2 - D) s) and
    K3 = 2 C(s) - C(4 s (1 - s)), so omega*t in [0, pi] covers s in [0, 1] once
    and [pi, 2 pi] mirrors it. With rho = m2 / D, in [0, 1] since |v| <= c0,
    dK3/ds is 4 D^3 (mq^2 - m2) <= 0 times, over a positive denominator,
        q(s) = 2 (rho - 1)^2 s^2 (8 s^2 - 14 s + 7) + 4 rho s - 1.
    q(0) = -1 < 0 < q(1) and
    q'(s) = 4 (rho - 1)^2 s (16 s^2 - 21 s + 7) + 4 rho > 0 on (0, 1], as the
    quadratic has discriminant -7, so K3 rises to the one root s* (_peak_s)
    and falls after it. Where mq^2 = m2 (the poles of the bound map) K3 is 1
    throughout. K3 at s = 0, s* and 1 rounds differently there, and the
    first largest of the three is kept: location 0 at those poles.
    """
    c0, m2, mq = coef
    u = np.zeros((len(c0), 3))
    u[:, 1], u[:, 2] = 2.0 * np.arcsin(np.sqrt(_peak_s(m2 / (c0 * c0)))), np.pi
    vals = _k3_terms((c0[:, None], m2[:, None], mq[:, None]), _trig(u))
    best = np.argmax(vals, axis=1)[:, None]
    return (np.take_along_axis(vals, best, axis=1)[:, 0],
            np.take_along_axis(u, best, axis=1)[:, 0])


def k3_at(cfg: SuperpositionConfig, t: float, q_axis=Z_AXIS):
    """(C12, C13, K3) at the grid (0, t, 2t), for t and cfg as correlator takes them.

    C23 is C12: the correlator depends on the delay only, and 2t - t == t
    exactly in floating point (Sterbenz's lemma).
    """
    c12, c13 = correlator(cfg, 0.0, np.multiply.outer((1.0, 2.0), t), q_axis)
    return c12, c13, c12 + c12 - c13


def k3_max(cfg: SuperpositionConfig, q_axis=Z_AXIS) -> tuple[float, float]:
    """Maximum of K3 over omega*t and its location.

    Solved from the one root of a monotone quartic; the one-config call of
    the batched kernel behind ttb_map and k3max_surface. K3 is symmetric about
    omega*t = pi, and the location reported is the first twin peak u* in
    [0, pi], never 2 pi - u*; it is 0 where K3 is 1 for every t.
    Returns (k3_maximum, omega_t_at_maximum).
    """
    value, loc = _k3_maxima(_config_coefficients(cfg, q_axis))
    return float(value[0]), float(loc[0])


def ttb_map(eta_grid, xi_grid) -> tuple[np.ndarray, np.ndarray]:
    """Map of max over omega*t of K3 against the rotation-axis polar angles, at alpha = 0.

    The observable stays along z; the single rotation axis points at
    (sin eta cos xi, sin eta sin xi, cos eta). Every entry is bounded by 1.5
    (the temporal analogue of the Tsirelson bound) and depends on eta only.
    The map is in units of omega*t, so the rate does not enter. All cells go
    through the batched kernel at once; as in k3_max, an argmax entry is the
    first twin peak u*, in [0, pi] (pi/3 wherever eta is off the poles).
    Returns (k3max, argmax_omega_t), each of shape (len(eta), len(xi)).
    """
    etas = np.asarray(eta_grid, dtype=float)
    xis = np.asarray(xi_grid, dtype=float)

    axes = np.empty((len(etas), len(xis), 3))
    axes[..., 0] = np.sin(etas)[:, None] * np.cos(xis)
    axes[..., 1] = np.sin(etas)[:, None] * np.sin(xis)
    axes[..., 2] = np.cos(etas)[:, None]
    axes = axes.reshape(-1, 3)
    k3m, arg = _k3_maxima(_coefficients(np.zeros(len(axes)), axes, axes))
    shape = (len(etas), len(xis))
    return k3m.reshape(shape), arg.reshape(shape)


def k3max_surface(alpha_grid, phi_grid) -> np.ndarray:
    """max over omega*t of K3 for every (alpha, phi) pair of planar configurations.

    Returns the array of shape (len(alpha), len(phi)) whose entry (i, j) is
    k3_max(planar(alpha_i, phi_j, omega))[0] for any omega; the whole grid goes
    through the batched kernel at once.
    """
    alphas = np.asarray(alpha_grid, dtype=float)
    phis = np.asarray(phi_grid, dtype=float)
    if not np.all((alphas >= 0.0) & (alphas <= np.pi / 2)):
        raise ValueError(f"alpha must lie in [0, pi/2], got {alphas!r}")
    if not np.all((phis >= 0.0) & (phis < np.pi)):
        raise UnsupportedGeometry(f"planar longitude must lie in [0, pi), got {phis!r}")

    n_axes = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=-1)
    coef = _coefficients(np.repeat(alphas, len(phis)), np.tile(n_axes, (len(alphas), 1)), X_AXIS)
    k3m, _ = _k3_maxima(coef)
    return k3m.reshape(len(alphas), len(phis))


def k3_curve(cfg: SuperpositionConfig, omega_t, q_axis=Z_AXIS):
    """(C12, C13, K3) sampled over a grid of omega*t (pure sampling, no refinement)."""
    us = np.asarray(omega_t, dtype=float)
    cos_h, sin_h, cos_f, sin_f = _trig(us)
    coef = _config_coefficients(cfg, q_axis)
    c12 = _correlator_terms(coef, cos_h, sin_h)
    c13 = _correlator_terms(coef, cos_f, sin_f)
    return c12, c13, 2.0 * c12 - c13
