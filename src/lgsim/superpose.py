"""Normalized superpositions of two SU(2) rotations and their kinematics.

The central object is the one-parameter family

    W(d) = sin(alpha) * rot(n, omega*d) + cos(alpha) * rot(m, omega*d)

whose normalized version W(d) / N(d) is again an SU(2) rotation, by an angle
f(d) about a fixed axis in the n-m plane. For the planar family (m along x,
n at longitude phi in the xy-plane) everything has closed form: the rotation
axis longitude theta, the accumulated angle f(t), and the instantaneous
angular speed g(t) = df/dt, which is non-uniform in t whenever alpha > 0.

The functions of delta or t also take a stack of configs (any sequence or array
of them) in place of one, broadcast against delta or t like one more array; one
config is the stack of shape (), and a float comes back for scalar times.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .linalg import InvalidAxis, X_AXIS, as_unit_vector, rot

NORM_FLOOR = 1e-12

_PLANAR_TOL = 1e-10


class DegenerateSuperposition(ValueError):
    """The superposition norm vanishes (or the axis pair is anti-parallel)."""


class UnsupportedGeometry(ValueError):
    """Operation requires the canonical planar axis configuration."""


@dataclass(frozen=True, eq=False)
class SuperpositionConfig:
    """Weights, axes and rate defining the superposed rotation family.

    alpha:  mixing angle in [0, pi/2]; sin(alpha) weights the n-axis branch.
    n_axis: unit 3-vector, first rotation axis.
    m_axis: unit 3-vector, second rotation axis; n.m > -1 strictly.
    omega:  angular rate (radians per second), > 0.
    """

    alpha: float
    n_axis: np.ndarray
    m_axis: np.ndarray
    omega: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= np.pi / 2:
            raise ValueError(f"alpha must lie in [0, pi/2], got {self.alpha!r}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        n = as_unit_vector(self.n_axis)
        m = as_unit_vector(self.m_axis)
        if n.shape != (3,) or m.shape != (3,):
            raise InvalidAxis("a config takes one n axis and one m axis")
        n.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "n_axis", n)
        object.__setattr__(self, "m_axis", m)
        if float(np.dot(n, m)) <= -1.0:
            raise DegenerateSuperposition("anti-parallel axes are excluded (n.m must exceed -1)")


def planar(alpha: float, phi: float, omega: float = 1.0) -> SuperpositionConfig:
    """Canonical planar configuration: m along x, n at longitude phi in [0, pi)."""
    if not 0.0 <= phi < np.pi:
        raise UnsupportedGeometry(f"planar longitude must lie in [0, pi), got {phi!r}")
    n = np.array([np.cos(phi), np.sin(phi), 0.0])
    return SuperpositionConfig(alpha=alpha, n_axis=n, m_axis=X_AXIS.copy(), omega=omega)


def planar_angle(cfg: SuperpositionConfig) -> float:
    """Longitude phi of the n axis for a canonical planar configuration.

    Raises UnsupportedGeometry unless m = x and n = (cos phi, sin phi, 0) with
    phi in [0, pi); the closed-form kinematics below are derived in that frame.
    """
    (mx, my, mz), n = cfg.m_axis.tolist(), cfg.n_axis.tolist()
    # np.allclose(m, X_AXIS, atol=_PLANAR_TOL) in scalars: |m_i - x_i| <= atol + 1e-5 |x_i|
    if not (abs(mx - 1.0) <= _PLANAR_TOL + 1e-5 and abs(my) <= _PLANAR_TOL
            and abs(mz) <= _PLANAR_TOL):
        raise UnsupportedGeometry("closed-form kinematics need m_axis along x")
    if abs(n[2]) > _PLANAR_TOL or n[1] < -_PLANAR_TOL:
        raise UnsupportedGeometry("closed-form kinematics need n_axis in the upper xy half-plane")
    phi = float(np.arctan2(max(n[1], 0.0), n[0]))
    if phi >= np.pi:
        raise UnsupportedGeometry("planar longitude must be below pi")
    return phi


def _fields(cfg, *fields) -> list:
    """Each field (attribute name or function of one config) of a config stack of shape S, as
    an array of shape S (a number) or S + (3,) (an axis); one config is the stack of shape ()."""
    cfgs = np.asarray(cfg, dtype=object)
    cols = [np.array(list(map(f if callable(f) else attrgetter(f), cfgs.ravel().tolist())))
            for f in fields]
    return [col.reshape(cfgs.shape + col.shape[1:]) for col in cols]


def _branches(cfg: SuperpositionConfig, delta):
    """sin, cos(alpha) as (..., 1, 1) and rot(n, omega*delta), rot(m, omega*delta) from one rot."""
    alpha, axes, omega = _fields(cfg, "alpha", attrgetter("n_axis", "m_axis"), "omega")
    u = rot(axes, (omega * np.asarray(delta, dtype=float))[..., None])
    return (np.sin(alpha)[..., None, None], np.cos(alpha)[..., None, None],
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
    alpha, n, m, omega = _fields(cfg, "alpha", "n_axis", "m_axis", "omega")
    x = 0.5 * omega * np.asarray(delta, dtype=float)
    c, s = np.cos(x), np.sin(x)  # squared as c * c: ** is C pow on a numpy scalar
    nsq = 1.0 + np.sin(2.0 * alpha) * (c * c + np.vecdot(n, m) * (s * s))
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
    alpha, phi, omega = _fields(cfg, "alpha", planar_angle, "omega")
    a = np.cos(alpha) + np.sin(alpha)
    b = np.sqrt(1.0 + np.cos(phi) * np.sin(2.0 * alpha))
    return a, b, phi, omega


def axis_theta(cfg: SuperpositionConfig) -> float:
    """Longitude theta of the fixed rotation axis of the normalized family.

    Planar configurations only. theta lies in [0, pi) and interpolates from 0
    (pure m-axis rotation at alpha = 0) to phi (pure n-axis at alpha = pi/2).
    """
    _, b, phi, _ = _half_angle_coeffs(cfg)
    cos_t = (np.cos(cfg.alpha) + np.cos(phi) * np.sin(cfg.alpha)) / b
    sin_t = np.sin(cfg.alpha) * np.sin(phi) / b
    theta = float(np.arctan2(sin_t, cos_t))
    return theta if theta >= 0.0 else theta + np.pi


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


def soe_span(cfg: SuperpositionConfig) -> float:
    """max g - min g over a full cycle, from the analytic extrema of N^2.

    N^2 ranges over [B^2, A^2] (minimum at omega*t = pi, maximum at 0), so the
    span is omega (A/B - B/A). Grid evaluation of soe() is the test-side check.
    """
    a, b, _, _ = _half_angle_coeffs(cfg)
    return float(cfg.omega * (a / b - b / a))
