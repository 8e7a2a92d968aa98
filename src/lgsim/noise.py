"""Dephasing robustness of the superposed rotation.

Two models of the same physics live here. The phenomenological route evolves
the system's Bloch vector s alone under the instantaneous rotation of the
superposition (rate g = soe(cfg, t) about the planar axis at axis_theta(cfg)),
with its transverse components damped at rate gamma:

    ds/dt = g(t) axis x s - gamma (sx, sy, 0)

The equation is linear with a generator of period T = 2 pi / omega, so it is
solved in Floquet form from one period of its fundamental matrix, built from
4th-order Magnus steps (see _BlochK3); no adaptive solver is involved.

The microscopic route evolves the joint ancilla (x) system state under the
block-diagonal two-branch Hamiltonian with sigma_z dephasing on both qubits,
then post-selects the ancilla on |+> as the circuit would. Its correlator is a
closed form in one entry of a damped 2x2 rotation, taken in real arithmetic
(see _LindbladK3 and _e_zz); evolve_lindblad propagates a whole joint state
through one scaling-and-squaring exponential of the Liouvillian, not an
eigendecomposition. Both reduce to the unitary picture at gamma = 0, which the
tests pin.

K3 keeps the stationary grid (0, t, 2t): 2 sz(t) - sz(2t) for the Bloch route,
2 C(t) - C(2t) for the Lindblad one. The lifetime is the first time K3 drops
through 1. Both models evaluate K3 on a (rows x t) block of configs and times,
and one engine (_first_crossings) finds the lifetimes of a batch together: a
chunked forward scan, then Chandrupatla's bracketed root step (_root_step) to a
bracket a few ulps wide, both vectorised over rows, in which every row takes
exactly the steps it would take alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ancilla import POSTSELECT_FLOOR, PROJ0, PROJ1, PostSelectionStarved
from .linalg import ID2, SIGMA_Z, Z_AXIS, is_density_matrix, kron, pauli
from .superpose import (SuperpositionConfig, _half_angle_coeffs, axis_theta, planar,
                        planar_angle)

MAGNUS_TOL = 1e-10
MAGNUS_MAX_STEPS = 2 ** 15
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
SCAN_OMEGA_STEP = 1e-2
LIFETIME_HORIZON_OVER_MIN_RATE = 50.0  # the scan ends at this / min(gamma, omega)
_EPS = np.finfo(float).eps
# smallest peak K3 - 1 whose tau rounding does not set: K3 carries ~100 eps of rounding, which
# moves tau by about that / peak relative, so 1e-6 at most from this peak on
PEAK_RESOLUTION = 100.0 * _EPS / 1e-6
_SCAN_FIRST_CHUNK = 16  # scan points per row in a chunk at least; crossings mostly fall by ~200
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


# --- Bloch route ------------------------------------------------------------

def _magnus_steps(a, b, omega, gamma, t0, t1) -> np.ndarray:
    """exp(Omega), shape t0.shape + (2, 2), of the steps [t0, t1] within one period.

    a, b and omega broadcast against t0 and t1. Omega = [[-gamma h, c - df], [c + df, 0]]
    with df the exact rotation angle and c = (sqrt 3 / 12) h^2 gamma (g1 - g2) the
    commutator term (g1, g2 the rates at the Gauss points).
    """
    h = t1 - t0
    x = (0.5 * omega) * np.stack([t0, t1, t0 + _GAUSS[0] * h, t0 + _GAUSS[1] * h])
    ca, sb = a * np.cos(x), b * np.sin(x)
    df = 2.0 * (np.arctan2(sb[1], ca[1]) - np.arctan2(sb[0], ca[0]))
    g = omega * a * b / (ca[2:] ** 2 + sb[2:] ** 2)
    c = (np.sqrt(3.0) / 12.0) * h * h * gamma * (g[0] - g[1])
    return _damped_rotation(-0.5 * gamma * h, c, df)


def _damped_rotation(mu, c, df) -> np.ndarray:
    """exp([[2 mu, c - df], [c + df, 0]]) for mu <= 0 (c, df broadcast), shape mu.shape + (2, 2).

    The exponent is mu I + N, N^2 = r^2 I, so this is e^(mu + r) [(1 + e^-2r) / 2 I + (1 -
    e^-2r) / 2r N], exact at r = 0; mu + r = (c^2 - df^2) / (r - mu) has no cancellation
    and is capped at 0 (these flows never lengthen a vector). The squares are of mu, c and
    df scaled by the power of two s >= 1 that brings them below 1 (exact short of
    underflow), so none overflows however large mu is.
    """
    largest = np.maximum(np.maximum(abs(mu), abs(c)), abs(df))
    s = np.ldexp(1.0, np.maximum(np.frexp(largest)[1], 0))
    mu_s, c_s, df_s = mu / s, c / s, df / s
    r_s = np.sqrt(mu_s * mu_s + c_s * c_s - df_s * df_s + 0j)
    r = s * r_s
    lead = s * ((c_s * c_s - df_s * df_s) / np.where(r_s == mu_s, 1.0, r_s - mu_s))
    lead = np.exp(np.minimum(lead.real, 0.0) + 1j * lead.imag)
    q = np.where(r == 0.0, 1.0, -np.expm1(-2.0 * r) / np.where(r == 0.0, 1.0, 2.0 * r))
    half = 0.5 + 0.5 * np.exp(-2.0 * r)
    parts = np.stack([half + mu * q, q * (c - df), q * (c + df), half - mu * q], axis=-1)
    return (lead[..., None] * parts).real.reshape(mu.shape + (2, 2))


def _powers(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """m[i]^k[i, j], shape k.shape + (2, 2): one stacked matrix_power per distinct k."""
    out = np.empty(k.shape + (2, 2))
    for p in set(k.ravel().tolist()):  # np.unique would import numpy.ma on first use
        i, j = np.nonzero(k == p)
        out[i, j] = np.linalg.matrix_power(m, int(p))[i]
    return out


class _BlochK3:
    """Floquet form of the Bloch flows of a batch of configs under one noise.

    In the frame (a, b = z x a, z) of the axis a, s_a decays as exp(-gamma t) and
    (s_b, s_z) obeys [[-gamma, -g], [g, 0]]. For each row its fundamental matrix Phi
    is tabulated over one period T on Magnus-4 steps (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)) uniform in f, so short where the rate spikes; then
    (s_b, s_z)(t) = E(u - t_j) Phi_j M^k (s_b, s_z)(0), M = Phi(T), t = kT + u with
    u in step j (Floquet, Ann. Sci. ENS 12, 47 (1883)). A row's step count doubles
    from 64 until its Phi moves by at most MAGNUS_TOL at the shared nodes (the error
    falls as steps^-4) or reaches MAGNUS_MAX_STEPS; at gamma = 0 or A = B one step
    is exact. Called with row indices and a (rows x t) block of times, it returns
    K3 there and no post-selection probability (the Bloch route has none).
    """

    def __init__(self, cfgs, noise: NoiseConfig):
        self._gamma = noise.gamma
        ab = np.array([_half_angle_coeffs(cfg)[:2] for cfg in cfgs])
        self._a, self._b = ab[:, 0], ab[:, 1]
        self._omega = np.array([cfg.omega for cfg in cfgs], dtype=float)
        self._period = 2.0 * np.pi / self._omega
        self._tables = [self._converged_table(r) for r in range(len(cfgs))]
        self._monodromy = np.array([phi[-1] for _, phi in self._tables])

    def _converged_table(self, row: int):
        a, b = self._a[row], self._b[row]
        n = 1 if self._gamma == 0.0 or a == b else 64
        t, phi = self._table(row, n)
        while 1 < n < MAGNUS_MAX_STEPS:
            n, coarse = 2 * n, phi
            t, phi = self._table(row, n)
            if np.abs(phi[::2] - coarse).max() <= MAGNUS_TOL:
                break
        return t, phi

    def _table(self, row: int, n: int):
        a, b, omega = self._a[row], self._b[row], self._omega[row]
        psi = np.linspace(0.0, np.pi, n + 1)  # f / 2
        t = (2.0 / omega) * np.arctan2(a * np.sin(psi), b * np.cos(psi))
        phi = np.concatenate([np.eye(2)[None], _magnus_steps(a, b, omega, self._gamma,
                                                             t[:-1], t[1:])])
        for span in (1 << k for k in range(n.bit_length())):  # prefix products, log2(n) passes
            phi[span:] = phi[span:] @ phi[:-span]
        return t, phi

    def flow(self, rows: np.ndarray, t: np.ndarray, sbz: np.ndarray) -> np.ndarray:
        """(s_b, s_z) of each row at its times t (rows x m) from sbz (rows x 2) at t = 0."""
        period = self._period[rows, None]
        k = np.floor(t / period)
        u = np.clip(t - k * period, 0.0, period)
        t_j, phi_j = np.empty(u.shape), np.empty(u.shape + (2, 2))
        for i, row in enumerate(rows):
            nodes, phi = self._tables[row]
            j = np.clip(np.searchsorted(nodes, u[i], side="right") - 1, 0, len(nodes) - 2)
            t_j[i], phi_j[i] = nodes[j], phi[j]
        v = _powers(self._monodromy[rows], k) @ sbz[:, None, :, None]
        steps = _magnus_steps(self._a[rows, None], self._b[rows, None], self._omega[rows, None],
                              self._gamma, t_j, u)
        return (steps @ phi_j @ v)[..., 0]

    def __call__(self, rows: np.ndarray, t: np.ndarray):
        pole = np.broadcast_to([0.0, 1.0], (len(rows), 2))  # Z_AXIS in every row's frame
        s_z = self.flow(rows, np.concatenate([t, 2.0 * t], axis=1), pole)[..., 1]
        return 2.0 * s_z[:, :t.shape[1]] - s_z[:, t.shape[1]:], None


def integrate_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t_end: float, s0=None):
    """Bloch trajectory(t) -> (sx, sy, sz) on [0, t_end] from s0 (default the north pole).

    At gamma = 0 it is the rigid rotation of s0 about the superposition axis by f_of_t.
    """
    if not t_end > 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    s0 = Z_AXIS if s0 is None else np.asarray(s0, dtype=float)
    if s0.shape != (3,):
        raise ValueError("initial Bloch vector must have shape (3,)")
    flow = _BlochK3([cfg], noise)
    cos_t, sin_t = np.cos(axis_theta(cfg)), np.sin(axis_theta(cfg))
    frame = np.array([[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
    s_a, s_b, s_z = frame @ s0

    def trajectory(t: float) -> np.ndarray:
        if t < -1e-12 or t > t_end + 1e-9:
            raise ValueError(f"t = {t!r} outside the integrated range [0, {t_end!r}]")
        t = np.array([[min(max(t, 0.0), t_end)]])
        bz = flow.flow(np.array([0]), t, np.array([[s_b, s_z]]))[0]
        return (np.column_stack([np.exp(-noise.gamma * t[0]) * s_a, bz]) @ frame)[0]

    return trajectory


def k3_bloch(cfg: SuperpositionConfig, noise: NoiseConfig, t: float) -> float:
    """K3 on the stationary grid from the Bloch state at t and 2t."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return 1.0
    return float(_BlochK3([cfg], noise)(np.array([0]), np.array([[t]]))[0][0, 0])


# --- Lindblad route ---------------------------------------------------------

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
    of Havel, J. Math. Phys. 44, 534 (2003)).
    """
    h = hamiltonian_as(cfg)
    eye = np.eye(4, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in (kron(ID2, SIGMA_Z), kron(SIGMA_Z, ID2)):
        lv += (0.5 * noise.gamma) * (np.kron(op, op.T) - np.eye(16, dtype=complex))
    return lv


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring a degree-18 Taylor sum.

    Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 3: a / 2^s has 1-norm <= 1/2, so the
    terms past degree 18 add at most 2e-23 in norm, and the sum is squared s times.
    """
    s = max(math.frexp(float(np.abs(a).sum(axis=0).max()))[1] + 1, 0)
    a = a * math.ldexp(1.0, -s)
    eye = out = np.eye(len(a), dtype=a.dtype)
    for k in range(18, 0, -1):  # Horner: I + a (I + a / 2 (I + ... (I + a / 18)))
        out = eye + a @ out / k
    for _ in range(s):
        out = out @ out
    return out


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
    return (_expm(liouvillian(cfg, noise) * t) @ rho0.ravel()).reshape(4, 4)


def noisy_correlator(cfg: SuperpositionConfig, noise: NoiseConfig, ti: float,
                     tj: float) -> float:
    """Two-time correlator with the ancilla channel evolved under dephasing (planar cfg).

    Each sigma_z eigenstate of S is evolved jointly with a fresh ancilla for tj - ti,
    post-selected on |+>, and the signed halves of <sigma_z> are summed, each over its
    branch's post-selection probability: at gamma = 0 the unitary correlator.
    """
    if tj < ti:
        raise ValueError("tj must be >= ti")
    t = np.array([[tj - ti]])
    c, prob = _LindbladK3([cfg], noise).correlator(np.array([0]), t)
    _check_postselection(prob, t)
    return float(c[0, 0])


def _e_zz(kappa, u) -> np.ndarray:
    """E_zz of exp(u [[-kappa, -1], [1, 0]]) for kappa >= 0 (inf included) and u >= 0, broadcast.

    With s = kappa / 2 and r^2 = s^2 - 1 this is e^(-s u) [cosh(r u) + s sinh(r u) / r], taken
    in real arithmetic on each side of critical damping. Below s = 1, r = i w with w^2 =
    (1 - s)(1 + s) (no cancellation as s -> 1), and E_zz = e^(-s u) [cos(w u) + s sin(w u) / w].
    The phase w u is kept as p - e: below s = 1/2 as u - u d, d = 1 - w = s^2 / (1 + w), so
    that the rounding of w u (~1e-14 at u = 60) does not enter the cosine where nothing damps
    it.
    From s = 1 on, with the slow rate a = s - r = 1 / (s + r) and q = -expm1(-2 r u) / (2 r)
    (q = u at r = 0), E_zz = e^(-a u) (1 + a q): every term is positive, so nothing cancels as
    r -> 0, and at kappa = inf (a = 0) it is the frozen value 1. Past r = 2^26, a q < 2^-54
    rounds away beside 1 whatever q is, so q takes r capped there and 2 r u stays finite.
    """
    s, u = np.broadcast_arrays(0.5 * kappa, u)
    out = np.empty(s.shape)
    under = s < 1.0
    if under.any():
        so, uo = s[under], u[under]
        w = np.sqrt((1.0 - so) * (1.0 + so))
        light = so < 0.5
        p = np.where(light, uo, w * uo)
        e = np.where(light, uo * (so * so / (1.0 + w)), 0.0)
        cp, sp, ce, se = np.cos(p), np.sin(p), np.cos(e), np.sin(e)
        out[under] = np.exp(-so * uo) * (cp * ce + sp * se + so * (sp * ce - cp * se) / w)
    if not under.all():
        so, uo = s[~under], u[~under]
        r = np.sqrt(so - 1.0) * np.sqrt(so + 1.0)
        a, r = 1.0 / (so + r), np.minimum(r, 2.0 ** 26)
        q = np.divide(-np.expm1(-2.0 * r * uo), 2.0 * r, out=uo.copy(), where=r > 0.0)
        out[~under] = np.exp(-a * uo) * (1.0 + a * q)
    return out


class _LindbladK3:
    """K3 of the post-selected joint model for a batch of planar configs under one noise.

    sigma_z on the ancilla commutes with H and both dephasers, so the ancilla blocks of
    the joint state evolve apart. With u = omega t and kappa = gamma / omega, each
    population block rotates the system Bloch vector about its branch's axis under
    dephasing: s_z = q E_zz from |q>, E = exp(u [[-kappa, -1], [1, 0]]). The coherence
    blocks decay by a further e^(-kappa u); with s = sin 2 alpha, c^2 = cos^2(phi / 2) and
    d^2 = sin^2(phi / 2), post-selection on |+> gives both branches the probability p =
    [1 + s e^(-kappa u) (c^2 + d^2 E_zz)] / 2 and C = [E_zz + s e^(-kappa u) (c^2 E_zz +
    d^2)] / (2 p); E_zz (_e_zz) is exact at kappa = 2, kappa -> 0 and kappa = inf. On row
    indices and a (rows x t) block of times it gives K3 and the smaller p at t or 2t.
    """

    def __init__(self, cfgs, noise: NoiseConfig):
        phi = np.array([planar_angle(cfg) for cfg in cfgs])
        self._omega = np.array([cfg.omega for cfg in cfgs], dtype=float)
        with np.errstate(over="ignore"):  # past the float range kappa = inf, which _e_zz takes
            self._kappa = noise.gamma / self._omega
        self._s = np.sin(2.0 * np.array([cfg.alpha for cfg in cfgs], dtype=float))
        self._c2, self._d2 = np.cos(0.5 * phi) ** 2, np.sin(0.5 * phi) ** 2

    def correlator(self, rows: np.ndarray, t: np.ndarray):
        """(C, post-selection probability), each of t's shape (rows x m)."""
        kappa, u = self._kappa[rows, None], self._omega[rows, None] * t
        e_zz = _e_zz(kappa, u)
        coherent = self._s[rows, None] * np.exp(-kappa * u)
        c2, d2 = self._c2[rows, None], self._d2[rows, None]
        norm = 1.0 + coherent * (c2 + d2 * e_zz)
        with np.errstate(divide="ignore", invalid="ignore"):  # starved points raise in the caller
            c = (e_zz + coherent * (c2 * e_zz + d2)) / norm
        return c, 0.5 * norm

    def __call__(self, rows: np.ndarray, t: np.ndarray):
        c, prob = self.correlator(rows, np.concatenate([t, 2.0 * t], axis=1))
        m = t.shape[1]
        return 2.0 * c[:, :m] - c[:, m:], np.minimum(prob[:, :m], prob[:, m:])


_K3_MODELS = {"bloch": _BlochK3, "lindblad": _LindbladK3}


# --- lifetime of the K3 > 1 violation ---------------------------------------

def _check_postselection(prob, t: np.ndarray, visited=True) -> None:
    """Raise PostSelectionStarved where a visited point's probability is below the floor."""
    if prob is None:
        return
    starved = visited & (prob < POSTSELECT_FLOOR)
    if starved.any():
        i, j = np.argwhere(starved)[0]
        raise PostSelectionStarved(f"branch probability {prob[i, j]!r} below floor "
                                   f"at t = {t[i, j]!r}")


def _first_crossings(k3, step: np.ndarray, t_max: np.ndarray):
    """Brackets (lo, hi) of the first downward crossing of K3 = 1, and peak K3 - 1 before it.

    k3(rows, t) gives (K3, probability or None) on a (len(rows) x m) block of
    times. The scan points are k * step, k = 1, 2, ..., up to t_max (per-row
    arrays); a row leaves the scan at its first point with K3 < 1, and rows that
    reach t_max first get NaN brackets. The peak is taken over the scan points
    before the crossing, or up to t_max without one (-inf on none). The chunk of
    points per row starts at _SCAN_FIRST_CHUNK and doubles, shrinking to keep at most
    _SCAN_CHUNK_CAP points over all active rows but never below _SCAN_FIRST_CHUNK.
    _root_step then narrows each scan bracket, from the K3 the scan found at its ends.
    The per-row active masks give every row exactly the steps it would take alone, so
    a row's result does not depend on its batch. The post-selection floor is checked
    at the points a one-row scan and root step evaluate, never past a row's crossing.
    """
    n = len(step)
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    f_lo, f_hi = np.zeros(n), np.zeros(n)  # K3 - 1 at the bracket ends (f_lo: last scan point)
    peak = np.full(n, -np.inf)
    k0, chunk = 1, _SCAN_FIRST_CHUNK
    active = np.flatnonzero(step <= t_max)
    while active.size:
        chunk = min(chunk, max(_SCAN_FIRST_CHUNK, _SCAN_CHUNK_CAP // active.size))
        k = np.arange(k0, k0 + chunk)
        t = k * step[active, None]
        inside = t <= t_max[active, None]
        v, prob = k3(active, t)
        hit = (v < 1.0) & inside
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), chunk)
        _check_postselection(prob, t, inside & (np.arange(chunk) <= first[:, None]))
        before = inside & (np.arange(chunk) < first[:, None])
        peak[active] = np.maximum(peak[active], np.max(v, axis=1, where=before, initial=-np.inf))
        found = first < chunk
        done, j = active[found], first[found]
        lo[done], hi[done] = (k0 + j - 1) * step[done], (k0 + j) * step[done]
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
    at most 4 eps hi wide, or at a point with K3 = 1 exactly (lo = hi there; t = 0, where
    K3 is 1 by definition, is never evaluated). After _ROOT_INTERPOLATED_STEPS
    evaluations it only bisects, and it stops after _ROOT_MAX_STEPS whatever its width.
    Otherwise K3(lo) >= 1 > K3(hi).
    """
    x1, f1, x2, f2 = x1.copy(), f1.copy(), x2.copy(), f2.copy()
    x3, f3, frac = np.zeros_like(x1), np.zeros_like(x1), np.full(x1.shape, 0.5)
    rows = np.flatnonzero(x2 - x1 > 4.0 * _EPS * x2)  # False on NaN
    for steps in range(1, _ROOT_MAX_STEPS + 1):
        if not rows.size:
            break
        a, b, fa, fb = x1[rows], x2[rows], f1[rows], f2[rows]
        x = a + frac[rows] * (b - a)
        v, prob = k3(rows, x[:, None])
        _check_postselection(prob, x[:, None])
        fx = v[:, 0] - 1.0
        same = (fx >= 0.0) == (fa >= 0.0)
        x3[rows], f3[rows] = np.where(same, a, b), np.where(same, fa, fb)
        x2[rows], f2[rows] = np.where(same, b, a), np.where(same, fb, fa)
        x1[rows], f1[rows] = x, fx
        root = fx == 0.0
        x2[rows[root]] = x[root]  # an exact root closes the bracket on itself
        p1, p2 = x1[rows], x2[rows]
        wide = np.abs(p2 - p1) > 4.0 * _EPS * np.maximum(p1, p2)
        rows, p1, p2, p3 = rows[wide], p1[wide], p2[wide], x3[rows[wide]]
        t = np.full(rows.size, 0.5)
        if steps < _ROOT_INTERPOLATED_STEPS:
            g1, g2, g3 = f1[rows], f2[rows], f3[rows]
            xi, ph = (p1 - p2) / (p3 - p2), (g1 - g2) / (g3 - g2)  # xi in (0, 1); g3 != g2
            ok = (1.0 - np.sqrt(1.0 - xi) < ph) & (ph < np.sqrt(xi))
            g1, g2, g3, al = g1[ok], g2[ok], g3[ok], ((p3 - p1) / (p2 - p1))[ok]
            t[ok] = g1 / (g1 - g2) * g3 / (g3 - g2) - al * g1 / (g3 - g1) * g2 / (g2 - g3)
        edge = 2.0 * _EPS * np.maximum(p1, p2) / np.abs(p2 - p1)
        frac[rows] = np.clip(t, edge, 1.0 - edge)
    return np.minimum(x1, x2), np.maximum(x1, x2)


def _brackets(cfgs, noise: NoiseConfig, model: str):
    """_first_crossings for a batch of configs under one noise and model.

    Past gamma = 2 omega the slowest decay rate falls as omega^2 / gamma (Zeno regime:
    Misra & Sudarshan, J. Math. Phys. 18, 756 (1977)): the scan runs to 50 / min(gamma, omega).
    """
    if not noise.gamma > 0.0:
        raise ValueError("lifetime needs gamma > 0 (the noiseless K3 never decays)")
    if model not in _K3_MODELS:
        raise ValueError(f"unknown model {model!r} (expected 'bloch' or 'lindblad')")
    step = np.array([SCAN_OMEGA_STEP / cfg.omega for cfg in cfgs])
    t_max = np.array([LIFETIME_HORIZON_OVER_MIN_RATE / min(noise.gamma, cfg.omega)
                      for cfg in cfgs])
    return _first_crossings(_K3_MODELS[model](cfgs, noise), step, t_max)


@dataclass(frozen=True)
class GainPoint:
    """One row of a gain curve; gain is None unless status is "ok".

    status "unresolved": the peak K3 - 1 before the crossing is below PEAK_RESOLUTION;
    "no-crossing": no crossing up to the horizon (both without tau_alpha);
    "no-reference": the row has a tau but its alpha = 0 reference has none.
    """

    alpha: float
    tau_alpha: float | None
    gain: float | None
    status: str


def gain_curve(phi: float, noise: NoiseConfig, alpha_grid=None, model: str = "bloch",
               omega: float = 1.0) -> list[GainPoint]:
    """Lifetime gain against the superposition weight at fixed branch angle.

    The one public route to violation lifetimes. phi is the planar angle between the
    two rotation axes, in radians. Every alpha of the grid is one row of a single
    _first_crossings batch, and the alpha = 0 reference is an ordinary row of it (added
    when the grid lacks it). Rows without a tau or a reference are flagged, not fatal.
    """
    alphas = DEFAULT_ALPHA_GRID if alpha_grid is None else alpha_grid
    alphas = [float(a) for a in np.asarray(alphas, dtype=float)]
    rows = alphas if 0.0 in alphas else alphas + [0.0]
    lo, hi, peak = _brackets([planar(a, phi, omega) for a in rows], noise, model)
    taus = [float(t) for t in 0.5 * (lo + hi)]
    status = ["unresolved" if p < PEAK_RESOLUTION else "no-crossing" if math.isnan(t) else "ok"
              for t, p in zip(taus, peak)]
    tau_0 = taus[rows.index(0.0)] if status[rows.index(0.0)] == "ok" else None

    def one(alpha: float, tau: float, status: str) -> GainPoint:
        if status != "ok":
            return GainPoint(alpha=alpha, tau_alpha=None, gain=None, status=status)
        if tau_0 is None:
            return GainPoint(alpha=alpha, tau_alpha=tau, gain=None, status="no-reference")
        return GainPoint(alpha=alpha, tau_alpha=tau, gain=tau / tau_0, status="ok")

    return [one(*row) for row in zip(alphas, taus, status)]
