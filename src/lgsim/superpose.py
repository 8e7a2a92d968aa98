"""Normalized superpositions of two SU(2) rotations and their kinematics.

The central object is the one-parameter family

    W(d) = sin(alpha) * rot(n, omega*d) + cos(alpha) * rot(m, omega*d)

whose normalized version W(d) / N(d) is again an SU(2) rotation, by an angle
f(d) about a fixed axis in the n-m plane. For the planar family (m along x,
n at longitude phi in the xy-plane) everything has closed form: the rotation
axis longitude theta, the accumulated angle f(t), and the instantaneous
angular speed g(t) = df/dt, which is non-uniform in t whenever alpha > 0.

A SuperpositionConfig is a batch of configs: its fields are arrays of one batch
shape S, and one config is the batch of shape (). The functions of delta or t
broadcast the batch against delta or t like one more array, and a float comes back
for one config at scalar times; the functions of the config alone return arrays of
shape S, or a float for one config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import X_AXIS, as_unit_vector, rot

NORM_FLOOR = 1e-12

_PLANAR_TOL = 1e-10
_M_BOUND = _PLANAR_TOL + 1e-5 * X_AXIS  # np.allclose(m, X_AXIS, atol=_PLANAR_TOL), entrywise


class DegenerateSuperposition(ValueError):
    """The superposition norm vanishes (or the axis pair is anti-parallel)."""


class UnsupportedGeometry(ValueError):
    """Operation requires the canonical planar axis configuration."""


@dataclass(frozen=True, eq=False)
class SuperpositionConfig:
    """Weights, axes and rates defining the superposed rotation family, for a batch of configs.

    The fields broadcast against each other to one batch shape S and are kept as read-only
    arrays of it: alpha and omega of shape S, n_axis and m_axis of shape S + (3,). One
    config is the batch of shape (). Every config of the batch must satisfy:

    alpha:  mixing angle in [0, pi/2]; sin(alpha) weights the n-axis branch.
    n_axis: unit 3-vector, first rotation axis.
    m_axis: unit 3-vector, second rotation axis; n.m > -1 strictly.
    omega:  angular rate (radians per second), finite and > 0.
    """

    alpha: np.ndarray
    n_axis: np.ndarray
    m_axis: np.ndarray
    omega: np.ndarray = 1.0

    def __post_init__(self):
        alpha, omega = np.asarray(self.alpha, dtype=float), np.asarray(self.omega, dtype=float)
        if not ((alpha >= 0.0) & (alpha <= np.pi / 2)).all():
            raise ValueError(f"alpha must lie in [0, pi/2], got {self.alpha!r}")
        if not ((omega > 0.0) & (omega < np.inf)).all():  # a NaN fails too
            raise ValueError(f"omega must be finite and positive, got {self.omega!r}")
        n = as_unit_vector(self.n_axis)
        m = as_unit_vector(self.m_axis)
        shape = np.broadcast(alpha, omega, n[..., 0], m[..., 0]).shape
        for name, value, tail in (("alpha", alpha, ()), ("n_axis", n, (3,)),
                                  ("m_axis", m, (3,)), ("omega", omega, ())):
            if value.shape != shape + tail:
                value = np.broadcast_to(value, shape + tail)  # a read-only view
            elif value.flags.writeable:  # a view, so that the caller's array stays writeable
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        if np.count_nonzero(np.vecdot(n, m) <= -1.0):
            raise DegenerateSuperposition("anti-parallel axes are excluded (n.m must exceed -1)")


def planar(alpha, phi, omega=1.0) -> SuperpositionConfig:
    """Canonical planar configurations: m along x, n at longitude phi in [0, pi).

    alpha, phi and omega broadcast against each other to the batch shape.
    """
    phis = np.asarray(phi, dtype=float)
    if not ((phis >= 0.0) & (phis < np.pi)).all():
        raise UnsupportedGeometry(f"planar longitude must lie in [0, pi), got {phi!r}")
    n = np.zeros(phis.shape + (3,))
    n[..., 0], n[..., 1] = np.cos(phis), np.sin(phis)
    return SuperpositionConfig(alpha=alpha, n_axis=n, m_axis=X_AXIS, omega=omega)


def planar_angle(cfg: SuperpositionConfig):
    """Longitude phi of the n axis for canonical planar configurations, of shape S.

    Raises UnsupportedGeometry unless m = x and n = (cos phi, sin phi, 0) with
    phi in [0, pi) for every config; the closed-form kinematics below are derived
    in that frame.
    """
    n = cfg.n_axis
    if not (abs(cfg.m_axis - X_AXIS) <= _M_BOUND).all():
        raise UnsupportedGeometry("closed-form kinematics need m_axis along x")
    if ((abs(n[..., 2]) > _PLANAR_TOL) | (n[..., 1] < -_PLANAR_TOL)).any():
        raise UnsupportedGeometry("closed-form kinematics need n_axis in the upper xy half-plane")
    phi = np.arctan2(np.where(0.0 > n[..., 1], 0.0, n[..., 1]), n[..., 0])  # max(n_y, 0.0)
    if (phi >= np.pi).any():
        raise UnsupportedGeometry("planar longitude must be below pi")
    return phi if phi.shape else float(phi)


def _branches(cfg: SuperpositionConfig, delta):
    """sin, cos(alpha) as (..., 1, 1) and rot(n, omega*delta), rot(m, omega*delta) from one rot."""
    axes = np.stack((cfg.n_axis, cfg.m_axis), axis=-2)
    u = rot(axes, (cfg.omega * np.asarray(delta, dtype=float))[..., None])
    return (np.sin(cfg.alpha)[..., None, None], np.cos(cfg.alpha)[..., None, None],
            u[..., 0, :, :], u[..., 1, :, :])


def unnormalized_superposed(cfg: SuperpositionConfig, delta: float) -> np.ndarray:
    """sin(alpha) * rot(n, omega*delta) + cos(alpha) * rot(m, omega*delta)."""
    sa, ca, u_n, u_m = _branches(cfg, delta)
    return sa * u_n + ca * u_m


def norm_factor_sq(cfg: SuperpositionConfig, delta: float):
    """Squared norm N^2 = (1/2) tr[W W^dag] of the unnormalized superposition.

    Closed form 1 + sin(2 alpha) (cos^2(omega delta / 2) + n.m sin^2(...)),
    valid for arbitrary axes; the trace route is the test-side cross-check.
    Accepts scalar or array delta.
    """
    x = 0.5 * cfg.omega * np.asarray(delta, dtype=float)
    c, s = np.cos(x), np.sin(x)  # squared as c * c: ** is C pow on a numpy scalar
    nsq = 1.0 + np.sin(2.0 * cfg.alpha) * (c * c + np.vecdot(cfg.n_axis, cfg.m_axis) * (s * s))
    return nsq if nsq.shape else float(nsq)


def _checked_norm_sq(cfg: SuperpositionConfig, delta: float) -> float:
    """N^2(delta), raising DegenerateSuperposition where it falls below NORM_FLOOR."""
    nsq = norm_factor_sq(cfg, delta)
    if np.count_nonzero(nsq < NORM_FLOOR):
        raise DegenerateSuperposition(
            f"superposition norm collapses (N^2 = {float(np.min(nsq))!r} < {NORM_FLOOR})")
    return nsq


def superposed_unitary(cfg: SuperpositionConfig, delta: float) -> np.ndarray:
    """The normalized superposed rotation W(delta) / N(delta), an SU(2) element."""
    return (unnormalized_superposed(cfg, delta)
            / np.sqrt(_checked_norm_sq(cfg, delta))[..., None, None])


def _half_angle_coeffs(cfg: SuperpositionConfig):
    """(A, B, phi, omega): cos(f/2) = A cos(wt/2)/N, sin(f/2) = B sin(wt/2)/N."""
    phi = planar_angle(cfg)
    a = np.cos(cfg.alpha) + np.sin(cfg.alpha)
    b = np.sqrt(1.0 + np.cos(phi) * np.sin(2.0 * cfg.alpha))
    return a, b, phi, cfg.omega


def axis_theta(cfg: SuperpositionConfig):
    """Longitude theta of the fixed rotation axis of the normalized family, of shape S.

    Planar configurations only. theta lies in [0, pi) and interpolates from 0
    (pure m-axis rotation at alpha = 0) to phi (pure n-axis at alpha = pi/2).
    """
    _, b, phi, _ = _half_angle_coeffs(cfg)
    cos_t = (np.cos(cfg.alpha) + np.cos(phi) * np.sin(cfg.alpha)) / b
    sin_t = np.sin(cfg.alpha) * np.sin(phi) / b
    theta = np.arctan2(sin_t, cos_t)
    theta = np.where(theta >= 0.0, theta, theta + np.pi)
    return theta if theta.shape else float(theta)


def f_of_t(cfg: SuperpositionConfig, t):
    """Accumulated rotation angle f(t) of the normalized planar family.

    Continuous lift with f(0) = 0, strictly increasing in t. The half angle
    f/2 is the phase of the ellipse point (A cos(wt/2), B sin(wt/2)) with
    A, B > 0; that phase stays within pi/2 of wt/2, which fixes the winding
    number in closed form (no grid unwrapping needed). Accepts arrays.
    """
    a, b, _, omega = _half_angle_coeffs(cfg)
    x = 0.5 * omega * np.asarray(t, dtype=float)
    psi = np.arctan2(b * np.sin(x), a * np.cos(x))
    winding = np.round((x - psi) / (2.0 * np.pi))
    f = 2.0 * (psi + 2.0 * np.pi * winding)
    return f if f.shape else float(f)


def soe(cfg: SuperpositionConfig, t):
    """Speed of evolution g(t) = df/dt for the planar family.

    Closed form omega * A * B / N^2(t): strictly positive and free of the
    removable singularities of the quotient definition, so the analytic limit
    is returned everywhere (including f = 0 mod 2 pi). At alpha = 0 this is
    identically omega. Accepts scalar or array t.
    """
    a, b, _, omega = _half_angle_coeffs(cfg)
    g = omega * a * b / np.asarray(norm_factor_sq(cfg, t))
    return g if g.shape else float(g)


def soe_span(cfg: SuperpositionConfig):
    """max g - min g over a full cycle, from the analytic extrema of N^2, of shape S.

    N^2 ranges over [B^2, A^2] (minimum at omega*t = pi, maximum at 0), so the
    span is omega (A/B - B/A). Grid evaluation of soe() is the test-side check.
    """
    a, b, _, _ = _half_angle_coeffs(cfg)
    span = cfg.omega * (a / b - b / a)
    return span if span.shape else float(span)
