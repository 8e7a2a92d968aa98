"""Dephasing robustness of the superposed rotation.

Two models of the same physics live here. The phenomenological route evolves
the Bloch vector s = (sx, sy, sz) of the system alone, driving it with the
instantaneous rotation that the superposition generates (rate soe(cfg, t),
axis in the equatorial plane at angle axis_theta(cfg)) and damping the
transverse components at rate gamma:

    ds/dt = g(t) axis x s - gamma (sx, sy, 0)

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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .ancilla import (POSTSELECT_FLOOR, PROJ0, PROJ1, KET_PLUS, PostSelectionStarved,
                      ancilla_state, project_ancilla)
from .linalg import ID2, SIGMA_Z, Z_AXIS, is_density_matrix, kron, pauli
from .superpose import SuperpositionConfig, axis_theta, planar, soe

BLOCH_TOL = 1e-10
SCAN_OMEGA_STEP = 1e-2
BISECT_REL_TOL = 1e-6
LIFETIME_HORIZON_OVER_GAMMA = 50.0

DEFAULT_ALPHA_GRID = (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)


class NoCrossing(RuntimeError):
    """K3 never dropped through 1 inside the search horizon."""


class SolverDiverged(RuntimeError):
    """The Bloch-equation integration failed."""


@dataclass(frozen=True)
class NoiseConfig:
    """Pure-dephasing rate gamma, applied to every qubit of the model."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")


# --- Bloch route ------------------------------------------------------------

def _bloch_rhs_fn(cfg: SuperpositionConfig, noise: NoiseConfig):
    """Damped Bloch right-hand side rhs(t, s), with the axis and gamma bound once.

    The damping acts on the transverse components only, so the poles are
    fixed points of the noise alone and the equator is damped hardest.
    """
    theta = axis_theta(cfg)
    axis = np.array([np.cos(theta), np.sin(theta), 0.0])
    gamma = noise.gamma

    def rhs(t, s):
        return soe(cfg, t) * np.cross(axis, s) - gamma * np.array([s[0], s[1], 0.0])

    return rhs


def bloch_rhs(s, t: float, cfg: SuperpositionConfig, noise: NoiseConfig) -> np.ndarray:
    """Right-hand side of the damped Bloch equation at (s, t)."""
    return _bloch_rhs_fn(cfg, noise)(t, np.asarray(s, dtype=float))


class _DenseTrajectory:
    """Query wrapper around a solve_ivp dense-output solution."""

    def __init__(self, interpolant, t_end: float):
        self._sol = interpolant
        self.t_end = float(t_end)

    def __call__(self, t: float) -> np.ndarray:
        if t < -1e-12 or t > self.t_end + 1e-9:
            raise ValueError(f"t = {t!r} outside the integrated range [0, {self.t_end!r}]")
        return self._sol(min(max(t, 0.0), self.t_end))


def integrate_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t_end: float, s0=None):
    """Dense Bloch trajectory on [0, t_end], starting at the north pole.

    Returns a callable trajectory(t) -> (sx, sy, sz). At gamma = 0 the result
    matches the algebraic rotation of the start vector about the fixed
    superposition axis by the accumulated angle f_of_t.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    s0 = Z_AXIS if s0 is None else np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise ValueError("initial Bloch vector must have shape (3,)")

    sol = solve_ivp(_bloch_rhs_fn(cfg, noise), (0.0, t_end), s0, method="RK45",
                    rtol=BLOCH_TOL, atol=BLOCH_TOL, dense_output=True)
    if not sol.success:
        raise SolverDiverged(f"adaptive integration failed: {sol.message}")
    return _DenseTrajectory(sol.sol, t_end)


def k3_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t: float) -> float:
    """K3 on the stationary grid from one Bloch trajectory out to 2t."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return 1.0
    traj = integrate_bloch(cfg, noise, 2.0 * t)
    return float(2.0 * traj(t)[2] - traj(2.0 * t)[2])


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
    if t == 0.0:
        return rho0.copy()
    return _propagator(cfg, noise)(rho0, t)


def _branch_states(cfg: SuperpositionConfig) -> list[tuple[int, np.ndarray]]:
    anc = ancilla_state(cfg.alpha)
    rho_a = np.outer(anc, anc.conj())
    return [(+1, kron(rho_a, PROJ0)), (-1, kron(rho_a, PROJ1))]


def _postselected_moments(rho_as: np.ndarray) -> tuple[float, float]:
    """(probability, unnormalized <sigma_z>) after projecting A on |+>."""
    block = project_ancilla(rho_as, KET_PLUS)
    prob = float(np.trace(block).real)
    moment = float(np.trace(SIGMA_Z @ block).real)
    return prob, moment


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

class _BlochK3:
    """K3(t) evaluator reusing one trajectory, re-integrated as it grows."""

    def __init__(self, cfg: SuperpositionConfig, noise: NoiseConfig):
        self._cfg, self._noise = cfg, noise
        self._horizon = 4.0 * np.pi / cfg.omega
        self._traj = integrate_bloch(cfg, noise, self._horizon)

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        if 2.0 * t > self._horizon:
            while self._horizon < 2.0 * t:
                self._horizon *= 2.0
            self._traj = integrate_bloch(self._cfg, self._noise, self._horizon)
        return float(2.0 * self._traj(t)[2] - self._traj(2.0 * t)[2])


class _LindbladK3:
    """K3(t) evaluator propagating both branch states exactly."""

    def __init__(self, cfg: SuperpositionConfig, noise: NoiseConfig):
        self._propagate = _propagator(cfg, noise)
        self._branches = _branch_states(cfg)

    def correlator(self, delta: float) -> float:
        """Post-selected correlator over the delay delta (see noisy_correlator)."""
        total = 0.0
        for q, rho0 in self._branches:
            prob, moment = _postselected_moments(self._propagate(rho0, delta))
            if prob < POSTSELECT_FLOOR:
                raise PostSelectionStarved(f"branch q = {q} probability {prob!r} below floor")
            total += q * 0.5 * moment / prob
        return total

    def __call__(self, t: float) -> float:
        if t <= 0.0:
            return 1.0
        return 2.0 * self.correlator(t) - self.correlator(2.0 * t)


def _k3_evaluator(cfg: SuperpositionConfig, noise: NoiseConfig, model: str):
    if model == "bloch":
        return _BlochK3(cfg, noise)
    if model == "lindblad":
        return _LindbladK3(cfg, noise)
    raise ValueError(f"unknown model {model!r} (expected 'bloch' or 'lindblad')")


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
    k = 1
    while True:
        t = k * step
        if t > t_max:
            raise NoCrossing(f"K3 stayed above 1 on every scan point up to t = {t_max!r}")
        v = k3(t)
        if v_prev >= 1.0 > v:
            return t_prev, t
        t_prev, v_prev = t, v
        k += 1


def _bisect_crossing(k3, lo: float, hi: float) -> tuple[float, float]:
    while (hi - lo) > BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if k3(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
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
    k3 = _k3_evaluator(cfg, noise, model)
    step = SCAN_OMEGA_STEP / cfg.omega
    t_max = LIFETIME_HORIZON_OVER_GAMMA / noise.gamma
    lo, hi = _first_crossing(k3, step, t_max)
    lo, hi = _bisect_crossing(k3, lo, hi)
    tau = 0.5 * (lo + hi)
    if tau_ref is not None:
        tau_0 = float(tau_ref)
    elif cfg.alpha == 0.0:
        tau_0 = tau
    else:
        base = SuperpositionConfig(alpha=0.0, n_axis=cfg.n_axis, m_axis=cfg.m_axis,
                                   omega=cfg.omega)
        tau_0 = lifetime(base, noise, model=model).tau_alpha
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
