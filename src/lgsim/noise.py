"""Dephasing robustness of the superposed rotation.

Two models of the same physics live here, both in u = omega t and kappa = gamma /
omega. The phenomenological route evolves the system's Bloch vector s alone under
the instantaneous rotation of the superposition (rate g = df/du about the planar
axis at axis_theta(cfg)), with its transverse components damped at rate kappa:

    ds/du = g(u) axis x s - kappa (sx, sy, 0)

The equation is linear with a generator of period 2 pi, so it is solved in
Floquet form from one period of its fundamental matrix, built from 6th-order
Magnus steps (see _BlochK3); no adaptive solver is involved.

The microscopic route evolves the joint ancilla (x) system state under the
block-diagonal two-branch Hamiltonian with sigma_z dephasing on both qubits,
then post-selects the ancilla on |+> as the circuit would. Its correlator is a
closed form in one entry of a damped 2x2 rotation, taken in real arithmetic
(see _LindbladK3 and _e_zz); evolve_lindblad propagates a whole joint state
through one scaling-and-squaring exponential of the Liouvillian, not an
eigendecomposition. Both reduce to the unitary picture at gamma = 0, which the
tests pin.

K3 keeps the stationary grid (0, u, 2u): 2 sz(u) - sz(2u) for the Bloch route,
2 C(u) - C(2u) for the Lindblad one, on a (rows x u) block. The lifetime is the
first u where K3 drops through 1, found for a whole batch by one engine
(_first_crossings: a chunked scan, then Chandrupatla's root step to a bracket a
few ulps wide) in which every row takes exactly the steps it would take alone.
gain_curve returns one phi's lifetimes as arrays over the alpha grid: (tau, gain,
status), NaN in tau and gain where a row's status gives no value.

Besides alpha and phi, kappa is the one parameter of the lifetime problem, so omega
stays out of the K3 models and the engine: the one-config functions convert on entry
(_row_model), gain_curve divides omega tau by omega once, and only the joint-state
route (hamiltonian_as, liouvillian, evolve_lindblad) works in physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ancilla import POSTSELECT_FLOOR, PROJ0, PROJ1, PostSelectionStarved
from .linalg import ID2, SIGMA_Z, Z_AXIS, _frozen, is_density_matrix, kron, pauli
from .superpose import SuperpositionConfig, axis_theta, planar, planar_angle

MAGNUS_TOL = 1e-10
MAGNUS_MAX_STEPS = 2 ** 15
_MAGNUS_BUDGET = 2 ** 12  # rows x steps per stacked table build at most; a longer row goes alone
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
_PERIOD = 2.0 * np.pi  # of the Bloch generator in u = omega t
SCAN_OMEGA_STEP = 1e-2
LIFETIME_HORIZON_OVER_MIN_RATE = 50.0  # the scan ends at u = this / min(kappa, 1)
_EPS = np.finfo(float).eps
# smallest peak K3 - 1 whose tau rounding does not set: K3 carries ~100 eps of rounding, which
# moves tau by about that / peak relative, so 1e-6 at most from this peak on
PEAK_RESOLUTION = 100.0 * _EPS / 1e-6
# A scan chunk opens at _SCAN_CHUNK_CAP // rows points per row, _SCAN_FIRST_CHUNK at least,
# and doubles within the cap: over perfbench's lifetime draws of seeds 1-10 the crossings fall
# at scan point 101/157/195 (Lindblad) and 112/180/306 (Bloch) at the 5th/50th/95th
# percentile, so a 3-5 row batch mostly ends its scan in one chunk
_SCAN_FIRST_CHUNK = 16  # scan points per row in a chunk at least
_SCAN_CHUNK_CAP = 1024  # (rows x points) per chunk at most, unless that is below 16 points per row
_ROOT_INTERPOLATED_STEPS = 16  # root-step evaluations per row that may interpolate; later bisect
_ROOT_MAX_STEPS = 80  # root-step evaluations per row at most; bisection from k >= 2 takes <= 50

DEFAULT_ALPHA_GRID = (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)


@dataclass(frozen=True)
class NoiseConfig:
    """Pure-dephasing rate gamma, applied to every qubit of the model."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")


def _kappa(noise: NoiseConfig, omega: float):
    """kappa = gamma / omega, inf past the float range (s_z frozen, which both models take)."""
    with np.errstate(over="ignore"):
        return np.float64(noise.gamma) / omega


def _row_model(model, cfg: SuperpositionConfig, noise: NoiseConfig):
    """The one-row K3 model (_BlochK3 or _LindbladK3) of a planar cfg; it takes u = omega t."""
    return model(np.array([cfg.alpha]), planar_angle(cfg), _kappa(noise, cfg.omega))


# --- Bloch route ------------------------------------------------------------

def _magnus_steps(a, b, kappa, u0, u1) -> np.ndarray:
    """exp(Omega), shape u0.shape + (2, 2), of the steps [u0, u1] within one period.

    a and b broadcast against u0 and u1. Omega is the 6th-order Magnus exponent on three
    Gauss nodes (Blanes et al., see _BlochK3) with its first term exact, -k (I + Z) + df J
    (k = kappa h / 2, df the exact rotation angle); the nested commutators, in G_i = h g(u0
    + c_i h), p = (sqrt 15 / 3)(G3 - G1) and q = (10 / 3)(G3 - 2 G2 + G1), close in
    span{Z, X, J}. They take k capped at pi / 2: the series' convergence bound, integral of
    ||A|| < pi, fails once kappa h >= pi, where its k^3 terms add error, not accuracy, and
    the exact first term alone holds the Zeno decay of s_z; the cap keeps products finite.
    kappa enters capped at 2^1020, far past where exp(-2k) is 0, so that k stays finite (h
    is at most 2 pi) and a kappa near the float range gives the frozen s_z of its limit.
    """
    h = u1 - u0
    x = 0.5 * np.stack([u0, u1, *(u0 + c * h for c in _GAUSS)])
    ca, sb = a * np.cos(x), b * np.sin(x)
    df = 2.0 * (np.arctan2(sb[1], ca[1]) - np.arctan2(sb[0], ca[0]))
    g1, g2, g3 = h * a * b / (ca[2:] ** 2 + sb[2:] ** 2)
    k = 0.5 * min(kappa, 2.0 ** 1020) * h
    p, q = (math.sqrt(15.0) / 3.0) * (g3 - g1), (10.0 / 3.0) * (g3 - 2.0 * g2 + g1)
    kc = np.minimum(k, 0.5 * np.pi)
    w, v = 1.0 - kc * kc / 15.0, (20.0 * g2 + q) / 15.0
    z = -k + kc * (2.0 * p * p * w - q * v) / 120.0
    c = -kc * p * (g2 * v + 20.0 * w) / 120.0
    return _damped_rotation(-k, z, c, df + kc * kc * (2.0 * p * p * g2 + 20.0 * q) / 1800.0)


def _damped_rotation(mu, z, c, df) -> np.ndarray:
    """exp([[mu + z, c - df], [c + df, mu - z]]) for mu <= 0, shape mu.shape + (2, 2).

    z, c, df broadcast. The exponent is mu I + N, N = z Z + c X + df J, N^2 = r^2 I, taken in
    real arithmetic on each side of r^2 = 0. For real r >= 0 it is e^(mu + r) [(1 + e^-2r)
    / 2 I + (1 - e^-2r) / 2r N], where mu + r = ((z - mu)(z + mu) + c^2 - df^2) / (r - mu)
    has no cancellation and is capped at 0 (these flows never lengthen a vector); for r =
    i w it is e^mu [cos w I + sin w / w N]; both are exact at r = 0. The squares are of mu,
    z, c and df scaled by the power of two s that brings the largest into [1/2, 1) (exact
    short of subnormals): none overflows however large mu is, nor underflows however small.
    """
    largest = np.maximum(np.maximum(abs(mu), abs(z)), np.maximum(abs(c), abs(df)))
    s = np.ldexp(1.0, np.frexp(largest)[1])
    mu_s, z_s, c_s, df_s = mu / s, z / s, c / s, df / s
    r2_s = z_s * z_s + c_s * c_s - df_s * df_s
    r_s = np.sqrt(abs(r2_s))
    r, real, zero = s * r_s, r2_s >= 0.0, r_s == 0.0
    lead = (z_s - mu_s) * (z_s + mu_s) + c_s * c_s - df_s * df_s
    lead = s * (lead / np.where(r_s == mu_s, 1.0, r_s - mu_s))
    lead = np.exp(np.where(real, np.minimum(lead, 0.0), mu))
    half = np.where(real, 0.5 + 0.5 * np.exp(-2.0 * r), np.cos(r))
    q = np.where(real, -0.5 * np.expm1(-2.0 * r), np.sin(r)) / np.where(zero, 1.0, r)
    q = np.where(zero, 1.0, q)
    parts = np.stack([half + z * q, q * (c - df), q * (c + df), half - z * q], axis=-1)
    return (lead[..., None] * parts).reshape(mu.shape + (2, 2))


def _powers(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """m[i]^k[i, j], shape k.shape + (2, 2): one stacked matrix_power per distinct k."""
    out = np.empty(k.shape + (2, 2))
    for p in set(k.ravel().tolist()):  # np.unique would import numpy.ma on first use
        i, j = np.nonzero(k == p)
        out[i, j] = np.linalg.matrix_power(m, int(p))[i]
    return out


class _BlochK3:
    """Floquet form of the Bloch flows of rows alphas at branch angle phi under one kappa.

    phi is one angle or one per row. In the frame (a, b = z x a, z) of the axis a, s_a
    decays as exp(-kappa u) and (s_b, s_z) obeys [[-kappa, -g], [g, 0]], g = df/du. For
    each row its fundamental matrix Phi is tabulated over one period 2 pi on 6th-order
    Magnus steps (_magnus_steps; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))
    uniform in f, so short where the rate spikes; then (s_b, s_z)(u) = E(p - u_j) Phi_j M^k
    (s_b, s_z)(0), M = Phi(2 pi), u = 2 pi k + p with p in step j (Floquet, Ann. Sci. ENS
    12, 47 (1883)). A row's step count doubles from 64 until its Phi moves by at most
    MAGNUS_TOL at the shared nodes (the error falls as steps^-6) or reaches
    MAGNUS_MAX_STEPS; at kappa = 0 or A = B one step is exact. Each doubling level is
    built for many rows in one stacked call (_tables), in groups of at most
    _MAGNUS_BUDGET rows x steps (a longer row goes alone) that each run to their last
    level before the next starts, so the rows in flight stay bounded; every row takes the
    arithmetic it would take alone. steps and residuals hold each row's final count and
    last move (0 for one exact step). Called with row indices and a (rows x m) block of u,
    it returns K3 there and no post-selection probability.
    """

    def __init__(self, alphas, phi, kappa):
        alphas, phi = np.broadcast_arrays(np.asarray(alphas, dtype=float), phi)
        self._kappa, self._a = kappa, np.cos(alphas) + np.sin(alphas)
        self._b = np.sqrt(1.0 + np.cos(phi) * np.sin(2.0 * alphas))
        self.steps, self.residuals = np.zeros(len(alphas), dtype=int), np.zeros(len(alphas))
        exact, done = (kappa == 0.0) | (self._a == self._b), []
        self._refine(np.flatnonzero(exact), 1, None, done)
        self._refine(np.flatnonzero(~exact), 64, None, done)
        self._first = np.concatenate([[0], np.cumsum(self.steps + 1)])  # row r's nodes start here
        self._nodes, self._phi = np.empty(self._first[-1]), np.empty((self._first[-1], 2, 2))
        while done:  # the nodes are taken again here, so that no level holds them till now
            rows, phi = done.pop()
            at = self._first[rows, None] + np.arange(phi.shape[1])
            self._nodes[at], self._phi[at] = self._node_table(rows, phi.shape[1] - 1), phi

    def _refine(self, rows: np.ndarray, n: int, coarse, done: list) -> None:
        """Take rows from n steps up the doubling levels; coarse is their Phi on n / 2 steps.

        Rows go in groups of max(1, _MAGNUS_BUDGET // n), each through its later levels
        before the next group is built. A row stops at MAGNUS_TOL or MAGNUS_MAX_STEPS, and
        its (rows, Phi) goes to done.
        """
        size = max(1, _MAGNUS_BUDGET // n)
        for start in range(0, rows.size, size):
            group = rows[start:start + size]
            phi = self._tables(group, n)
            going = np.full(group.size, 1 < n < MAGNUS_MAX_STEPS)
            if coarse is not None:
                moved = np.abs(phi[:, ::2] - coarse[start:start + size]).max(axis=(1, 2, 3))
                self.residuals[group] = moved
                going &= ~(moved <= MAGNUS_TOL)
            self.steps[group] = n
            done.append((group[~going], phi[~going]))
            finer = phi[going]
            del phi  # the finer levels below must not hold this one
            if finer.size:
                self._refine(group[going], 2 * n, finer, done)

    def _node_table(self, rows: np.ndarray, n: int) -> np.ndarray:
        """The nodes (rows x n + 1) of n steps uniform in f over one period."""
        psi = np.linspace(0.0, np.pi, n + 1)  # f / 2
        return 2.0 * np.arctan2(self._a[rows, None] * np.sin(psi),
                                self._b[rows, None] * np.cos(psi))

    def _tables(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Phi (rows x n + 1 x 2 x 2) at the nodes of n steps."""
        u = self._node_table(rows, n)
        phi = np.empty(u.shape + (2, 2))
        phi[:, 0] = np.eye(2)
        phi[:, 1:] = _magnus_steps(self._a[rows, None], self._b[rows, None], self._kappa,
                                   u[:, :-1], u[:, 1:])
        for span in (1 << k for k in range(n.bit_length())):  # prefix products, log2(n) passes
            phi[:, span:] = phi[:, span:] @ phi[:, :-span]
        return phi

    def flow(self, rows: np.ndarray, u: np.ndarray, sbz: np.ndarray) -> np.ndarray:
        """(s_b, s_z) of each row at its u (rows x m) from sbz (rows x 2) at u = 0."""
        k = np.floor(u / _PERIOD)
        p = np.clip(u - k * _PERIOD, 0.0, _PERIOD)
        a, b, n = self._a[rows, None], self._b[rows, None], self.steps[rows, None]
        # flat index j of the step holding p: from psi = f / 2, uniform in steps (_node_table),
        psi = np.arctan2(b * np.sin(0.5 * p), a * np.cos(0.5 * p))  # then to the last node <= p
        j = self._first[rows, None] + np.minimum(psi * n // np.pi, n - 1).astype(int)
        j -= self._nodes[j] > p
        j += (j < self._first[rows + 1, None] - 2) & (self._nodes[j + 1] <= p)
        v = _powers(self._phi[self._first[rows + 1] - 1], k) @ sbz[:, None, :, None]
        steps = _magnus_steps(a, b, self._kappa, self._nodes[j], p)
        return (steps @ self._phi[j] @ v)[..., 0]

    def __call__(self, rows: np.ndarray, u: np.ndarray):
        pole = np.broadcast_to([0.0, 1.0], (len(rows), 2))  # Z_AXIS in every row's frame
        s_z = self.flow(rows, np.concatenate([u, 2.0 * u], axis=1), pole)[..., 1]
        return 2.0 * s_z[:, :u.shape[1]] - s_z[:, u.shape[1]:], None


def integrate_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t_end: float, s0=None):
    """Bloch trajectory(t) -> (sx, sy, sz) on [0, t_end] from s0 (default the north pole).

    t is one time or an array of them; the result has shape t.shape + (3,). At gamma = 0
    it is the rigid rotation of s0 about the superposition axis by f_of_t; at kappa = inf
    (see _brackets) s_z is frozen and the rest of s0 is gone at any t > 0.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    s0 = Z_AXIS if s0 is None else np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise ValueError("initial Bloch vector must have shape (3,)")
    kappa = _kappa(noise, cfg.omega)
    flow = None if kappa == np.inf else _row_model(_BlochK3, cfg, noise)
    theta = axis_theta(cfg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    frame = np.array([[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
    s_a, s_b, s_z = frame @ s0

    def trajectory(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > t_end + 1e-9):
            raise ValueError(f"t = {t!r} outside the integrated range [0, {t_end!r}]")
        u = cfg.omega * np.minimum(np.maximum(t, 0.0), t_end).reshape(1, -1)
        if flow is None:
            return np.where(u[0, :, None] > 0.0, [0.0, 0.0, s0[2]], s0).reshape(t.shape + (3,))
        bz = flow.flow(np.array([0]), u, np.array([[s_b, s_z]]))[0]
        with np.errstate(over="ignore"):  # kappa u past the float range: e^-kappa u is 0
            s = np.column_stack([np.exp(-kappa * u[0]) * s_a, bz]) @ frame
        return s.reshape(t.shape + (3,))

    return trajectory


def k3_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t):
    """K3 on the stationary grid from the Bloch state at t and 2t (1 at t = 0 and kappa = inf),
    at one time or an array of them, all from one model."""
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(t < 0.0):
        raise ValueError(f"t must be >= 0, got {t!r}")
    u = cfg.omega * t.reshape(1, -1)
    k3 = np.ones_like(u)  # at t = 0, and at every t once s_z is frozen, as in _brackets
    if _kappa(noise, cfg.omega) < np.inf:
        k3 = np.where(u > 0.0, _row_model(_BlochK3, cfg, noise)(np.array([0]), u)[0], 1.0)
    return k3.reshape(t.shape) if t.shape else float(k3[0, 0])


# --- Lindblad route ---------------------------------------------------------

def hamiltonian_as(cfg: SuperpositionConfig) -> np.ndarray:
    """Two-branch generator on ancilla (x) system.

    Block-diagonal: the ancilla |0> branch drives the n-axis rotation, the
    |1> branch the m-axis one, so exp(-i H t) equals the product of the two
    controlled evolution gates.
    """
    half = 0.5 * cfg.omega
    return kron(PROJ0, half * pauli(cfg.n_axis)) + kron(PROJ1, half * pauli(cfg.m_axis))


# the two sigma_z dephasing superoperators, on the ancilla and on the system:
# vec(op rho op) - vec(rho) = (kron(op, op^T) - 1) vec(rho)
_DEPHASERS = tuple(_frozen(np.kron(op, op.T) - np.eye(16, dtype=complex))
                   for op in (kron(ID2, SIGMA_Z), kron(SIGMA_Z, ID2)))
_EYE4 = _frozen(np.eye(4, dtype=complex))


def liouvillian(cfg: SuperpositionConfig, noise: NoiseConfig) -> np.ndarray:
    """16x16 superoperator of the master equation on row-major vec(rho).

    vec(A rho B) = kron(A, B^T) vec(rho) for C-ordered ravel (the convention
    of Havel, J. Math. Phys. 44, 534 (2003)).
    """
    h = hamiltonian_as(cfg)
    # kron(h, 1) - kron(1, h^T) as [i, k, j, l] = h_ij 1_kl - 1_ij h_lk, the same products
    commutator = h[:, None, :, None] * _EYE4[None, :, None, :] \
        - _EYE4[:, None, :, None] * h.T[None, :, None, :]
    lv = -1j * commutator.reshape(16, 16)
    for dephaser in _DEPHASERS:
        lv += (0.5 * noise.gamma) * dephaser
    return lv


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a degree-18 Taylor sum, for a matrix or each of a stack.

    Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 3: a / 2^s has 1-norm <= 1/2, so the
    terms past degree 18 add at most 2e-23 in norm, and the sum is squared s times (per matrix).
    """
    s = np.maximum(np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))[1] + 1, 0)
    a = a * np.ldexp(1.0, -s)[..., None, None]
    eye = out = np.eye(a.shape[-1], dtype=a.dtype)
    for k in range(18, 0, -1):  # Horner: I + a (I + a / 2 (I + ... (I + a / 18)))
        # numpy divides a complex array by k as a multiply by 1 / k (Smith's method);
        # adding eye turns the multiply's -0.0 back to 0.0, so for the complex a this
        # is called with it is bitwise a @ out / k, at a fraction of the cost
        out = eye + a @ out * (1.0 / k)
    for j in range(int(s.max())):
        squared = s > j
        out[squared] = out[squared] @ out[squared]
    return out


def evolve_lindblad(rho0: np.ndarray, cfg: SuperpositionConfig, noise: NoiseConfig,
                    t) -> np.ndarray:
    """Joint state at time t under the dephasing master equation, of shape t.shape + rho0.shape.

    rho0 may be a stack of states and t an array of times: one propagator per t, and each
    state goes through it alone (a matrix-vector product), bitwise as in a one-state call.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape[-2:] != (4, 4) or not is_density_matrix(rho0):
        raise ValueError("rho0 must be a 4x4 density matrix")
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(t < 0.0):
        raise ValueError(f"t must be >= 0, got {t!r}")
    props = _expm(liouvillian(cfg, noise) * t[..., None, None])
    props = props.reshape(t.shape + (1,) * (rho0.ndim - 2) + (16, 16))
    return (props @ rho0.reshape(rho0.shape[:-2] + (16, 1))).reshape(t.shape + rho0.shape)


def noisy_correlator(cfg: SuperpositionConfig, noise: NoiseConfig, ti: float, tj):
    """Two-time correlator with the ancilla channel evolved under dephasing (planar cfg).

    Each sigma_z eigenstate of S is evolved jointly with a fresh ancilla for tj - ti,
    post-selected on |+>, and the signed halves of <sigma_z> are summed, each over its
    branch's post-selection probability: at gamma = 0 the unitary correlator. tj may be
    an array of times, all taken by one model.
    """
    delta = np.asarray(tj, dtype=float) - ti
    if np.count_nonzero(delta < 0.0):
        raise ValueError("tj must be >= ti")
    u = cfg.omega * delta.reshape(1, -1)
    c, prob = _row_model(_LindbladK3, cfg, noise).correlator(np.array([0]), u)
    _check_postselection(prob, u)
    return c.reshape(delta.shape) if delta.shape else float(c[0, 0])


def _e_zz(kappa, u) -> np.ndarray:
    """E_zz of exp(u [[-kappa, -1], [1, 0]]) on an array u >= 0, for one kappa >= 0 (inf included).

    With s = kappa / 2 and r^2 = s^2 - 1 this is e^(-s u) [cosh(r u) + s sinh(r u) / r], taken
    in real arithmetic on each side of critical damping; kappa picks the side once. Below s =
    1, r = i w with w^2 = (1 - s)(1 + s) (no cancellation as s -> 1), and E_zz = e^(-s u)
    [cos(w u) + s sin(w u) / w]. Below s = 1/2 the phase w u is kept as u - u d, d = 1 - w =
    s^2 / (1 + w), so that the rounding of w u (~1e-14 at u = 60) stays out of the undamped
    cosine. From s = 1 on, with the slow rate a = s - r = 1 / (s + r) and q = -expm1(-2 r u)
    / (2 r) (q = u at r = 0), E_zz = e^(-a u) (1 + a q): every term is positive, so nothing
    cancels as r -> 0, and at kappa = inf (a = 0) it is the frozen value 1. Past r = 2^26,
    a q < 2^-54 rounds away beside 1 whatever q is, so q takes r capped there and 2 r u stays
    finite.
    """
    s = 0.5 * kappa
    if s < 1.0:
        w = np.sqrt((1.0 - s) * (1.0 + s))
        if s < 0.5:
            e = u * (s * s / (1.0 + w))
            cp, sp, ce, se = np.cos(u), np.sin(u), np.cos(e), np.sin(e)
            return np.exp(-s * u) * (cp * ce + sp * se + s * (sp * ce - cp * se) / w)
        p = w * u
        return np.exp(-s * u) * (np.cos(p) + s * np.sin(p) / w)
    r = np.sqrt(s - 1.0) * np.sqrt(s + 1.0)
    a, r = 1.0 / (s + r), min(r, 2.0 ** 26)
    q = -np.expm1(-2.0 * r * u) / (2.0 * r) if r > 0.0 else u
    return np.exp(-a * u) * (1.0 + a * q)


class _LindbladK3:
    """K3 of the post-selected joint model for rows alphas at branch angle phi, one kappa.

    phi is one angle or one per row, as for _BlochK3. sigma_z on the ancilla commutes
    with H and both dephasers, so the ancilla blocks of the joint state evolve apart.
    Each population block rotates the system Bloch vector about its branch's axis under
    dephasing: s_z = q E_zz from |q>, E = exp(u [[-kappa, -1], [1, 0]]). The coherence
    blocks decay by a further e^(-kappa u); with s = sin 2 alpha, c^2 = cos^2(phi / 2) and
    d^2 = sin^2(phi / 2), post-selection on |+> gives both branches the probability p =
    [1 + s e^(-kappa u) (c^2 + d^2 E_zz)] / 2 and C = [E_zz + s e^(-kappa u) (c^2 E_zz +
    d^2)] / (2 p); E_zz (_e_zz) is exact at kappa = 2, kappa -> 0 and kappa = inf. On row
    indices and a (rows x m) block of u it gives K3 and the smaller p at u or 2u.
    """

    def __init__(self, alphas, phi, kappa):
        alphas, phi = np.broadcast_arrays(np.asarray(alphas, dtype=float), phi)
        self._kappa, self._s = kappa, np.sin(2.0 * alphas)
        self._c2, self._d2 = np.cos(0.5 * phi) ** 2, np.sin(0.5 * phi) ** 2

    def correlator(self, rows: np.ndarray, u: np.ndarray):
        """(C, post-selection probability), each of u's shape (rows x m)."""
        e_zz = _e_zz(self._kappa, u)
        c2, d2 = self._c2[rows, None], self._d2[rows, None]
        # kappa u overflows to inf, the limit of e^-kappa u = 0; starved points raise in the caller
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ku = np.multiply(self._kappa, u, out=np.zeros_like(u), where=u != 0.0)  # 0 at u = 0
            coherent = self._s[rows, None] * np.exp(-ku)
            norm = 1.0 + coherent * (c2 + d2 * e_zz)
            c = (e_zz + coherent * (c2 * e_zz + d2)) / norm
        return c, 0.5 * norm

    def __call__(self, rows: np.ndarray, u: np.ndarray):
        c, prob = self.correlator(rows, np.concatenate([u, 2.0 * u], axis=1))
        m = u.shape[1]
        return 2.0 * c[:, :m] - c[:, m:], np.minimum(prob[:, :m], prob[:, m:])


_K3_MODELS = {"bloch": _BlochK3, "lindblad": _LindbladK3}


# --- lifetime of the K3 > 1 violation ---------------------------------------

def _check_postselection(prob, u: np.ndarray, visited=True) -> None:
    """Raise PostSelectionStarved where a visited point's probability is below the floor."""
    if prob is None:
        return
    starved = visited & (prob < POSTSELECT_FLOOR)
    if starved.any():
        i, j = np.argwhere(starved)[0]
        raise PostSelectionStarved(f"branch probability {prob[i, j]!r} below floor "
                                   f"at omega t = {u[i, j]!r}")


def _first_crossings(k3, horizon: np.ndarray):
    """Brackets (lo, hi) of the first downward crossing of K3 = 1, and peak K3 - 1 before it.

    k3(rows, u) gives (K3, probability or None) on a (len(rows) x m) block of u. The scan
    points are k * SCAN_OMEGA_STEP, k = 1, 2, ..., up to each row's horizon, in chunks of
    _SCAN_CHUNK_CAP // rows points per row (_SCAN_FIRST_CHUNK at least) that then double
    within the cap, so a default-size batch mostly scans in one chunk; a row leaves
    the scan at its first point with K3 < 1, and rows that reach the horizon first get
    NaN brackets. The peak is over the scan points before the crossing, or up to the
    horizon without one (-inf on none). _root_step then narrows each scan bracket from
    the K3 the scan found at its ends. Per-row active masks keep each row's steps, and
    so its result, those it would take alone; the post-selection floor is checked only
    at the points those steps evaluate, never past a row's crossing.
    """
    n = len(horizon)
    lo, hi, peak = np.full(n, np.nan), np.full(n, np.nan), np.full(n, -np.inf)
    f_lo, f_hi = np.zeros(n), np.zeros(n)  # K3 - 1 at the bracket ends (f_lo: last scan point)
    k0, chunk = 1, _SCAN_CHUNK_CAP
    active = np.flatnonzero(SCAN_OMEGA_STEP <= horizon)
    while active.size:
        chunk = min(chunk, max(_SCAN_FIRST_CHUNK, _SCAN_CHUNK_CAP // active.size))
        u = np.broadcast_to(np.arange(k0, k0 + chunk) * SCAN_OMEGA_STEP, (active.size, chunk))
        inside = u <= horizon[active, None]
        v, prob = k3(active, u)
        hit = (v < 1.0) & inside
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), chunk)
        _check_postselection(prob, u, inside & (np.arange(chunk) <= first[:, None]))
        before = inside & (np.arange(chunk) < first[:, None])
        peak[active] = np.maximum(peak[active], np.max(v, axis=1, where=before, initial=-np.inf))
        found = first < chunk
        done, j = active[found], first[found]
        lo[done], hi[done] = (k0 + j - 1) * SCAN_OMEGA_STEP, (k0 + j) * SCAN_OMEGA_STEP
        f_lo[done] = np.where(j > 0, v[found, j - 1] - 1.0, f_lo[done])
        f_hi[done] = v[found, j] - 1.0
        going = ~found & inside[:, -1]
        active = active[going]
        f_lo[active] = v[going, -1] - 1.0
        k0, chunk = k0 + chunk, 2 * chunk
    return (*_root_step(k3, lo, f_lo, hi, f_hi), peak - 1.0)


def _root_step(k3, x1, f1, x2, f2):
    """(lo, hi) narrowed from brackets x1 < x2 with f = K3 - 1: f1 >= 0 > f2 (NaN rows stay).

    Chandrupatla's method (Adv. Eng. Softw. 28, 145 (1997)): x1 is the newest point, x2
    the last one on the other side of K3 = 1 and x3 the one dropped. Where the three
    allow it, the next point comes from inverse quadratic interpolation, else from
    bisection, and it stays 2 eps hi inside the bracket. A row stops when its bracket is
    at most 4 eps hi wide, or at a point with K3 = 1 exactly (lo = hi there; u = 0, where
    K3 is 1 by definition, is never evaluated). After _ROOT_INTERPOLATED_STEPS
    evaluations it only bisects, and it stops after _ROOT_MAX_STEPS whatever its width.
    Otherwise K3(lo) >= 1 > K3(hi). The open rows' points live in compact arrays; a row's
    bracket goes back to its place in (lo, hi) when it stops.
    """
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    rows = np.flatnonzero(x2 - x1 > 4.0 * _EPS * x2)  # False on NaN
    x1, f1, x2, f2 = x1[rows], f1[rows], x2[rows], f2[rows]
    frac = np.full(rows.size, 0.5)
    for steps in range(1, _ROOT_MAX_STEPS + 1):
        if not rows.size:
            break
        x = x1 + frac * (x2 - x1)
        v, prob = k3(rows, x[:, None])
        _check_postselection(prob, x[:, None])
        fx = v[:, 0] - 1.0
        same = (fx >= 0.0) == (f1 >= 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
        x2 = np.where(fx == 0.0, x, x2)  # an exact root closes the bracket on itself
        wide = np.abs(x2 - x1) > 4.0 * _EPS * np.maximum(x1, x2)
        if not wide.all():
            stop = rows[~wide]
            lo[stop], hi[stop] = np.minimum(x1, x2)[~wide], np.maximum(x1, x2)[~wide]
            rows, x1, f1, x2, f2, x3, f3 = (a[wide] for a in (rows, x1, f1, x2, f2, x3, f3))
        t = np.full(rows.size, 0.5)
        if steps < _ROOT_INTERPOLATED_STEPS:
            with np.errstate(all="ignore"):  # rows that fail the test below bisect
                xi, ph = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)  # xi in (0, 1)
                ok = (1.0 - np.sqrt(1.0 - xi) < ph) & (ph < np.sqrt(xi))
                al = (x3 - x1) / (x2 - x1)
                t = np.where(ok, f1 / (f1 - f2) * f3 / (f3 - f2)
                             - al * f1 / (f3 - f1) * f2 / (f2 - f3), t)
        edge = 2.0 * _EPS * np.maximum(x1, x2) / np.abs(x2 - x1)
        frac = np.clip(t, edge, 1.0 - edge)
    lo[rows], hi[rows] = np.minimum(x1, x2), np.maximum(x1, x2)
    return lo, hi


def _brackets(alphas, phi, kappa, model: str):
    """_first_crossings, in u, for the rows alphas at branch angle phi under one kappa.

    Past kappa = 2 the slowest decay rate falls as 1 / kappa (Zeno regime: Misra &
    Sudarshan, J. Math. Phys. 18, 756 (1977)): the scan runs to u = 50 / min(kappa, 1),
    which is inf where that overflows (a subnormal kappa; the rows still cross early). At
    kappa = inf s_z is frozen, so K3 = 1 in both models: every row gets NaN brackets and
    peak K3 - 1 = 0, what the Lindblad scan finds there, and no model is built.
    """
    if not kappa > 0.0:
        raise ValueError("lifetime needs gamma > 0 (the noiseless K3 never decays)")
    if model not in _K3_MODELS:
        raise ValueError(f"unknown model {model!r} (expected 'bloch' or 'lindblad')")
    if kappa == np.inf:
        return np.full(len(alphas), np.nan), np.full(len(alphas), np.nan), np.zeros(len(alphas))
    with np.errstate(over="ignore"):  # below kappa ~ 2.8e-307 the horizon is unbounded: inf
        horizon = np.full(len(alphas), LIFETIME_HORIZON_OVER_MIN_RATE / np.float64(min(kappa, 1.0)))
    return _first_crossings(_K3_MODELS[model](alphas, phi, kappa), horizon)


def gain_curve(phi: float, noise: NoiseConfig, alpha_grid=None, model: str = "bloch",
               omega: float = 1.0) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Lifetime gain against the superposition weight at fixed branch angle.

    The one public route to violation lifetimes. phi is the planar angle between the
    two rotation axes, in radians. Every alpha of the grid is one row of a single
    _first_crossings batch in u = omega t at kappa = gamma / omega, and the alpha = 0
    reference is an ordinary row of it (added when the grid lacks it). Rows without a
    tau or a reference are flagged, not fatal.

    Returns (tau, gain, status) over the alpha grid: tau and gain are float arrays, NaN
    where the status gives no value, and status is one string per alpha. "ok" has both;
    "no-reference", a tau whose alpha = 0 reference has none, has tau only; "unresolved",
    a peak K3 - 1 before the crossing below PEAK_RESOLUTION, and "no-crossing", none up
    to the horizon, have neither.
    """
    alphas = np.asarray(DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid, float).tolist()
    if not all(0.0 <= a <= np.pi / 2 for a in alphas):
        raise ValueError(f"every alpha must lie in [0, pi/2], got {alphas!r}")
    rows = alphas if 0.0 in alphas else alphas + [0.0]
    angle = planar_angle(planar(0.0, phi, omega))
    lo, hi, peak = _brackets(np.array(rows), angle, _kappa(noise, omega), model)
    taus = 0.5 * (lo + hi) / omega
    status = ["unresolved" if p < PEAK_RESOLUTION else "no-crossing" if math.isnan(t) else "ok"
              for t, p in zip(taus.tolist(), peak)]
    ref, n = rows.index(0.0), len(alphas)
    tau_0 = taus[ref] if status[ref] == "ok" else np.nan
    tau = np.where([s == "ok" for s in status[:n]], taus[:n], np.nan)
    return tau, tau / tau_0, ["no-reference" if s == "ok" and math.isnan(tau_0) else s
                              for s in status[:n]]
