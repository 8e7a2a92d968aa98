"""Dephasing robustness of the superposed rotation.

Two models of the same physics live here. The phenomenological route evolves
the Bloch vector s = (sx, sy, sz) of the system alone, driving it with the
instantaneous rotation that the superposition generates (rate soe(cfg, t),
axis in the equatorial plane at angle axis_theta(cfg)) and damping the
transverse components at rate gamma:

    ds/dt = g(t) axis x s - gamma (sx, sy, 0)

The equation is linear with a generator of period T = 2 pi / omega, so it is
solved in Floquet form from one period of its fundamental matrix, built from
4th-order Magnus steps (see _BlochK3); no adaptive solver is involved.

The microscopic route evolves the joint ancilla (x) system state under the
block-diagonal two-branch Hamiltonian with independent sigma_z dephasing on
both qubits, exactly through one eigendecomposition of its time-independent
Liouvillian, then post-selects the ancilla on |+> as the circuit would. Both
reduce to the unitary picture at gamma = 0, which the tests pin.

K3 keeps the stationary grid (0, t, 2t): K3(t) = 2 sz(t) - sz(2t) for the
Bloch route and 2 C(t) - C(2t) with the post-selected correlator C for the
Lindblad route. The lifetime is the first time K3 drops through 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ancilla import (POSTSELECT_FLOOR, PROJ0, PROJ1, KET_PLUS, PostSelectionStarved,
                      ancilla_state, project_ancilla)
from .linalg import ID2, SIGMA_Z, Z_AXIS, is_density_matrix, kron, pauli
from .superpose import SuperpositionConfig, _half_angle_coeffs, axis_theta, planar

MAGNUS_TOL = 1e-10
MAGNUS_MAX_STEPS = 2 ** 15
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
SCAN_OMEGA_STEP = 1e-2
BISECT_REL_TOL = 1e-6
LIFETIME_HORIZON_OVER_GAMMA = 50.0

DEFAULT_ALPHA_GRID = (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)


class NoCrossing(RuntimeError):
    """K3 never dropped through 1 inside the search horizon."""


@dataclass(frozen=True)
class NoiseConfig:
    """Pure-dephasing rate gamma, applied to every qubit of the model."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")


# --- Bloch route ------------------------------------------------------------

class _BlochK3:
    """Floquet form of the Bloch flow of one (cfg, noise); K3(t) when called.

    In the frame (a, b = z x a, z) of the axis a, s_a decays as exp(-gamma t) and
    (s_b, s_z) obeys [[-gamma, -g], [g, 0]]. Its fundamental matrix Phi is tabulated
    over one period T on Magnus-4 steps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)) uniform in f, so short where the rate spikes; then (s_b, s_z)(t) =
    E(u - t_j) Phi_j M^k (s_b, s_z)(0), M = Phi(T), t = kT + u with u in step j
    (Floquet, Ann. Sci. ENS 12, 47 (1883)). The step count doubles from 64 until
    Phi moves by at most MAGNUS_TOL at the shared nodes (the error falls as
    steps^-4) or reaches MAGNUS_MAX_STEPS; at gamma = 0 or A = B one step is exact.
    """

    def __init__(self, cfg: SuperpositionConfig, noise: NoiseConfig):
        self._a, self._b, _ = _half_angle_coeffs(cfg)
        self._omega, self._gamma, self._period = cfg.omega, noise.gamma, 2.0 * np.pi / cfg.omega
        cos_t, sin_t = np.cos(axis_theta(cfg)), np.sin(axis_theta(cfg))
        self._frame = np.array([[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
        n = 1 if self._gamma == 0.0 or self._a == self._b else 64
        self._t, self._phi = self._table(n)
        while 1 < n < MAGNUS_MAX_STEPS:
            n, coarse = 2 * n, self._phi
            self._t, self._phi = self._table(n)
            if np.abs(self._phi[::2] - coarse).max() <= MAGNUS_TOL:
                break

    def _steps(self, t0, t1) -> np.ndarray:
        """exp(Omega), shape (..., 2, 2), of the steps [t0, t1] within one period.

        Omega = [[-gamma h, c - df], [c + df, 0]] = mu I + N, where df is the exact
        rotation angle, c = (sqrt 3 / 12) h^2 gamma (g1 - g2) the commutator term (g1,
        g2 the rates at the Gauss points), mu = -gamma h / 2 and N^2 = r^2 I. So
        exp(Omega) = e^(mu + r) [(1 + e^-2r) / 2 I + (1 - e^-2r) / 2r N] with complex r;
        mu + r = (c^2 - df^2) / (r - mu) is capped at 0 (the exact flow never lengthens
        s): no cancellation, and no overflow however large gamma h is.
        """
        h = t1 - t0
        x = (0.5 * self._omega) * np.stack([t0, t1, t0 + _GAUSS[0] * h, t0 + _GAUSS[1] * h])
        ca, sb = self._a * np.cos(x), self._b * np.sin(x)
        df = 2.0 * (np.arctan2(sb[1], ca[1]) - np.arctan2(sb[0], ca[0]))
        g = self._omega * self._a * self._b / (ca[2:] ** 2 + sb[2:] ** 2)
        c = (np.sqrt(3.0) / 12.0) * h * h * self._gamma * (g[0] - g[1])
        mu = -0.5 * self._gamma * h
        r = np.sqrt(mu * mu + c * c - df * df + 0j)
        lead = (c * c - df * df) / np.where(r == mu, 1.0, r - mu)
        lead = np.exp(np.minimum(lead.real, 0.0) + 1j * lead.imag)
        q = np.where(r == 0.0, 1.0, -np.expm1(-2.0 * r) / np.where(r == 0.0, 1.0, 2.0 * r))
        half = 0.5 + 0.5 * np.exp(-2.0 * r)
        parts = np.stack([half + mu * q, q * (c - df), q * (c + df), half - mu * q], axis=-1)
        return (lead[..., None] * parts).real.reshape(h.shape + (2, 2))

    def _table(self, n: int):
        psi = np.linspace(0.0, np.pi, n + 1)  # f / 2
        t = (2.0 / self._omega) * np.arctan2(self._a * np.sin(psi), self._b * np.cos(psi))
        phi = np.concatenate([np.eye(2)[None], self._steps(t[:-1], t[1:])])
        for span in (1 << k for k in range(n.bit_length())):  # prefix products, log2(n) passes
            phi[span:] = phi[span:] @ phi[:-span]
        return t, phi

    def evolve(self, t: np.ndarray, s0) -> np.ndarray:
        """Bloch vectors at the times t (1-d array) from s(0) = s0."""
        s_a, s_b, s_z = self._frame @ s0
        k = np.floor(t / self._period)
        u = np.clip(t - k * self._period, 0.0, self._period)
        j = np.clip(np.searchsorted(self._t, u, side="right") - 1, 0, len(self._t) - 2)
        v = np.array([np.linalg.matrix_power(self._phi[-1], int(p)) @ (s_b, s_z) for p in k])
        bz = (self._steps(self._t[j], u) @ self._phi[j] @ v[..., None])[..., 0]
        return np.column_stack([np.exp(-self._gamma * t) * s_a, bz]) @ self._frame

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        s_z = self.evolve(np.array([t, 2.0 * t]), Z_AXIS)[:, 2]
        return float(2.0 * s_z[0] - s_z[1])


def integrate_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t_end: float, s0=None):
    """Bloch trajectory(t) -> (sx, sy, sz) on [0, t_end] from s0 (default the north pole).

    At gamma = 0 it is the rigid rotation of s0 about the superposition axis by f_of_t.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    s0 = Z_AXIS if s0 is None else np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise ValueError("initial Bloch vector must have shape (3,)")
    flow = _BlochK3(cfg, noise)

    def trajectory(t: float) -> np.ndarray:
        if t < -1e-12 or t > t_end + 1e-9:
            raise ValueError(f"t = {t!r} outside the integrated range [0, {t_end!r}]")
        return flow.evolve(np.array([min(max(t, 0.0), t_end)]), s0)[0]

    return trajectory


def k3_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t: float) -> float:
    """K3 on the stationary grid from the Bloch state at t and 2t."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return _BlochK3(cfg, noise)(t)


# --- Lindblad route ---------------------------------------------------------

_DEPHASER_A = kron(SIGMA_Z, ID2)
_DEPHASER_S = kron(ID2, SIGMA_Z)


def hamiltonian_as(cfg: SuperpositionConfig) -> np.ndarray:
    """Two-branch generator on ancilla (x) system.

    Block-diagonal: the ancilla |0> branch drives the n-axis rotation, the
    |1> branch the m-axis one, so exp(-i H t) equals the product of the two
    controlled evolution gates.
    """
    half = 0.5 * cfg.omega
    return kron(PROJ0, half * pauli(cfg.n_axis)) + kron(PROJ1, half * pauli(cfg.m_axis))


def liouvillian(cfg: SuperpositionConfig, noise: NoiseConfig) -> np.ndarray:
    """16x16 superoperator of the master equation on row-major vec(rho).

    vec(A rho B) = kron(A, B^T) vec(rho) for C-ordered ravel (the convention
    of Havel, J. Math. Phys. 44, 534 (2003)). The generator is
    time-independent, so one eigendecomposition of it gives the exact
    propagator behind every joint-state evolution here.
    """
    h = hamiltonian_as(cfg)
    eye = np.eye(4, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in (_DEPHASER_S, _DEPHASER_A):
        lv += (0.5 * noise.gamma) * (np.kron(op, op.T) - np.eye(16, dtype=complex))
    return lv


def _propagator(cfg: SuperpositionConfig, noise: NoiseConfig):
    """Exact rho(t) = V diag(exp(lam t)) V^-1 vec(rho0) from L = V diag(lam) V^-1.

    L is diagonalized in the eigenbasis of the Hamiltonian, where its unitary
    part is diagonal: at gamma = 0 its spectrum is degenerate, and eig in the
    computational basis returns cond(V) ~ 1e8 there (errors ~ 1e-8).
    """
    _, w = np.linalg.eigh(hamiltonian_as(cfg))
    basis = np.kron(w, w.conj())
    lam, v = np.linalg.eig(basis.conj().T @ liouvillian(cfg, noise) @ basis)
    v = basis @ v
    v_inv = np.linalg.inv(v)

    def propagate(rho0: np.ndarray, t: float) -> np.ndarray:
        return (v @ (np.exp(lam * t) * (v_inv @ rho0.ravel()))).reshape(4, 4)

    return propagate


def evolve_lindblad(rho0: np.ndarray, cfg: SuperpositionConfig, noise: NoiseConfig,
                    t: float) -> np.ndarray:
    """Joint state at time t under the dephasing master equation."""
    rho0 = np.asarray(rho0, dtype=complex)
    if not is_density_matrix(rho0):
        raise ValueError("rho0 must be a 4x4 density matrix")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return rho0.copy() if t == 0.0 else _propagator(cfg, noise)(rho0, t)


def noisy_correlator(cfg: SuperpositionConfig, noise: NoiseConfig, ti: float,
                     tj: float) -> float:
    """Two-time correlator with the ancilla channel evolved under dephasing.

    Each sigma_z eigenstate of S is evolved jointly with a fresh ancilla for
    the duration tj - ti, the ancilla is post-selected on |+>, and the signed
    halves of <sigma_z> are summed, each divided by its own branch's
    post-selection probability. At gamma = 0 that probability is
    state-independent and the result is exactly the unitary correlator.
    """
    if tj < ti:
        raise ValueError("tj must be >= ti")
    return float(_LindbladK3(cfg, noise).correlator(tj - ti))


# --- lifetime of the K3 > 1 violation ---------------------------------------

class _LindbladK3:
    """K3(t) evaluator propagating both branch states exactly."""

    def __init__(self, cfg: SuperpositionConfig, noise: NoiseConfig):
        self._propagate = _propagator(cfg, noise)
        anc = ancilla_state(cfg.alpha)
        rho_a = np.outer(anc, anc.conj())
        self._branches = [(+1, kron(rho_a, PROJ0)), (-1, kron(rho_a, PROJ1))]

    def correlator(self, delta: float) -> float:
        """Post-selected correlator over the delay delta (see noisy_correlator)."""
        total = 0.0
        for q, rho0 in self._branches:
            block = project_ancilla(self._propagate(rho0, delta), KET_PLUS)
            prob = float(np.trace(block).real)
            if prob < POSTSELECT_FLOOR:
                raise PostSelectionStarved(f"branch q = {q} probability {prob!r} below floor")
            total += q * 0.5 * float(np.trace(SIGMA_Z @ block).real) / prob
        return total

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return 2.0 * self.correlator(t) - self.correlator(2.0 * t)


_K3_MODELS = {"bloch": _BlochK3, "lindblad": _LindbladK3}


@dataclass(frozen=True)
class LifetimeResult:
    """First time K3 drops through 1, its alpha = 0 reference, and the ratio."""

    tau_alpha: float
    tau_0: float
    gain: float
    crossing_bracket: tuple[float, float] = field(repr=False)


def _first_crossing(k3, step: float, t_max: float) -> tuple[float, float]:
    """Bracket the first downward crossing of K3 = 1 by forward scanning."""
    t_prev, v_prev = 0.0, 1.0
    for k in itertools.count(1):
        t = k * step
        if t > t_max:
            raise NoCrossing(f"K3 stayed above 1 on every scan point up to t = {t_max!r}")
        v = k3(t)
        if v_prev >= 1.0 > v:
            return t_prev, t
        t_prev, v_prev = t, v


def _bisect_crossing(k3, lo: float, hi: float) -> tuple[float, float]:
    while (hi - lo) > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if k3(mid) >= 1.0 else (lo, mid)
    return lo, hi


def lifetime(cfg: SuperpositionConfig, noise: NoiseConfig, model: str = "bloch",
             tau_ref: float | None = None) -> LifetimeResult:
    """Duration of the K3 > 1 violation and its gain over the alpha = 0 case.

    Scans forward in steps of 0.01/omega, then bisects the first bracket where
    K3 drops through 1 to a relative width of 1e-6. tau_ref short-circuits the
    alpha = 0 reference computation when the caller already has it.
    """
    if not noise.gamma > 0.0:
        raise ValueError("lifetime needs gamma > 0 (the noiseless K3 never decays)")
    if model not in _K3_MODELS:
        raise ValueError(f"unknown model {model!r} (expected 'bloch' or 'lindblad')")
    k3 = _K3_MODELS[model](cfg, noise)
    lo, hi = _first_crossing(k3, SCAN_OMEGA_STEP / cfg.omega,
                             LIFETIME_HORIZON_OVER_GAMMA / noise.gamma)
    lo, hi = _bisect_crossing(k3, lo, hi)
    tau = 0.5 * (lo + hi)
    if tau_ref is not None:
        tau_0 = float(tau_ref)
    elif cfg.alpha == 0.0:
        tau_0 = tau
    else:
        tau_0 = lifetime(replace(cfg, alpha=0.0), noise, model=model).tau_alpha
    return LifetimeResult(tau_alpha=tau, tau_0=tau_0, gain=tau / tau_0,
                          crossing_bracket=(lo, hi))


@dataclass(frozen=True)
class GainPoint:
    """One row of a gain curve; tau_alpha and gain are None on no-crossing."""

    alpha: float
    tau_alpha: float | None
    gain: float | None
    status: str


def gain_curve(phi: float, noise: NoiseConfig, alpha_grid=None, model: str = "bloch",
               omega: float = 1.0) -> list[GainPoint]:
    """Lifetime gain against the superposition weight at fixed branch angle.

    phi is the planar angle between the two rotation axes, in radians. Rows
    where the scan finds no crossing are flagged rather than fatal.
    """
    alphas = DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid
    alphas = [float(a) for a in np.asarray(alphas, dtype=float)]
    tau_0 = lifetime(planar(0.0, phi, omega), noise, model=model).tau_alpha

    def one(alpha: float) -> GainPoint:
        try:
            res = lifetime(planar(alpha, phi, omega), noise, model=model, tau_ref=tau_0)
        except NoCrossing:
            return GainPoint(alpha=alpha, tau_alpha=None, gain=None, status="no-crossing")
        return GainPoint(alpha=alpha, tau_alpha=res.tau_alpha, gain=res.gain, status="ok")

    return [one(a) for a in alphas]
