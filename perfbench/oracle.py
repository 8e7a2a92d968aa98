"""Independent checks of every dataset the benchmark's items write.

Nothing here calls lgsim. Unitary datasets are checked against the closed
forms of the planar superposition: the normalized evolution rotates about an
axis in the xy-plane by f(t), so the sigma_z correlator is C = cos f, with

    cos f(u) = (A^2 cos^2 x - B^2 sin^2 x) / (A^2 cos^2 x + B^2 sin^2 x),
    x = u / 2,  A = cos a + sin a,  B^2 = 1 + cos(phi) sin(2a),

and a single rotation at polar angle eta peaks at K3 = 1 + sin^2(eta) / 2.
A lifetime is the first downward crossing of K3 = 1 on lgsim's scan
t = k * SCAN_STEP: K3 must be >= 1 at every scan point before the reported
tau, >= 1 just before tau and < 1 just after it. K3 comes from the
benchmark's own eigendecomposition of the 16x16 Liouvillian for the Lindblad
model, and from a tight-tolerance DOP853 integration for the Bloch model. ``verify-circuits`` and ``selftest`` carry
their own embedded checks; here only their shape is checked.

Every check assumes omega = 1 (no workload passes ``--omega``); an item that
sets it is rejected. Tolerances are loose enough for reordered floating-point sums (a batched
kernel moves K3 by about 1e-15) and tight enough to catch a wrong value.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

K3MAX_TOL = 1e-7      # absolute, on K3 maxima
CURVE_TOL = 1e-9      # absolute, on sampled correlators, K3, f and g
TAU_REL = 1e-3        # K3 is evaluated at tau * (1 -/+ TAU_REL)
TAU_SLACK = 1e-9      # allowed excursion of K3 across 1 at those points
SCAN_STEP = 1e-2      # lgsim's lifetime scan spacing in t (omega = 1)
SCAN_POINTS = 2001     # coarse scan of one period, then a fine rescan of
FINE_POINTS = 1001     # the two cells around the coarse maximum

DEFAULT_GAMMA = 1.0 / (4.0 * np.pi)


class OracleError(AssertionError):
    """A dataset disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def load_dataset(path: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a CSV or JSON dataset written by ``lgsim``."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.startswith("{"):
        doc = json.loads(text)
        return list(doc["columns"]), [list(r) for r in doc["rows"]]
    lines = text.split("\n")
    _require(lines[0].startswith("# lgsim "), "CSV lacks its provenance line")
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    header = next(reader)
    return header, [row for row in reader if row]


def _column(columns, rows, name: str) -> np.ndarray:
    _require(name in columns, f"column {name!r} missing")
    k = columns.index(name)
    return np.array([float(r[k]) for r in rows])


def _ab(alpha, phi):
    alpha, phi = np.asarray(alpha, dtype=float), np.asarray(phi, dtype=float)
    a = np.cos(alpha) + np.sin(alpha)
    b = np.sqrt(1.0 + np.cos(phi) * np.sin(2.0 * alpha))
    return a, b


def planar_correlator(a, b, u):
    """cos f(u) for the planar superposition with coefficients (A, B)."""
    x = 0.5 * np.asarray(u, dtype=float)
    c2, s2 = (a * np.cos(x)) ** 2, (b * np.sin(x)) ** 2
    return (c2 - s2) / (c2 + s2)


def _planar_k3(a, b, u):
    return 2.0 * planar_correlator(a, b, u) - planar_correlator(a, b, 2.0 * u)


def planar_k3max(alpha, phi) -> np.ndarray:
    """max over omega*t of K3 for each (alpha, phi), by a dense scan.

    The fine rescan's spacing, 2 pi / 1e6, puts the result within about 1e-9
    of the true maximum even for the sharpest peaks the grids reach (phi near
    180 deg, where the peak width is about B = 0.04).
    """
    a, b = _ab(alpha, phi)
    a, b = a.ravel(), b.ravel()
    out = np.empty(a.size)
    grid = np.linspace(0.0, 2.0 * np.pi, SCAN_POINTS)
    step = grid[1] - grid[0]
    fine = np.linspace(-step, step, FINE_POINTS)
    for lo in range(0, a.size, 64):
        aa, bb = a[lo:lo + 64, None], b[lo:lo + 64, None]
        coarse = _planar_k3(aa, bb, grid[None, :])
        centre = grid[np.argmax(coarse, axis=1)]
        out[lo:lo + 64] = _planar_k3(aa, bb, centre[:, None] + fine[None, :]).max(axis=1)
    return out.reshape(np.shape(alpha))


def _grid_arg(item, default: int) -> int:
    return int(item.option("grid", default))


def check_ttb_map(item, columns, rows) -> None:
    n = _grid_arg(item, 50)
    _require(len(rows) == (n + 1) * n, f"expected {(n + 1) * n} rows, got {len(rows)}")
    eta = _column(columns, rows, "eta")
    k3max = _column(columns, rows, "k3max")
    arg = _column(columns, rows, "argmax_omega_t")
    expected = 1.0 + 0.5 * np.sin(eta) ** 2
    dev = float(np.abs(k3max - expected).max())
    _require(dev < K3MAX_TOL, f"k3max off the closed form 1 + sin^2(eta)/2 by {dev:.3e}")
    # A single rotation: C(u) = cos^2 eta + sin^2 eta cos u.
    s2 = np.sin(eta) ** 2
    k3_at_arg = 1.0 + 2.0 * s2 * np.cos(arg) * (1.0 - np.cos(arg))
    dev = float(np.abs(k3_at_arg - k3max).max())
    _require(dev < K3MAX_TOL, f"K3 at the reported argmax differs from k3max by {dev:.3e}")


def check_k3_surface(item, columns, rows) -> None:
    n = _grid_arg(item, 50)
    _require(len(rows) == (n + 1) * n, f"expected {(n + 1) * n} rows, got {len(rows)}")
    alpha = _column(columns, rows, "alpha")
    phi = _column(columns, rows, "phi")
    _require(np.allclose(np.unique(alpha), np.linspace(0.0, np.pi / 4, n + 1), atol=1e-15),
             "alpha grid differs from linspace(0, pi/4, grid + 1)")
    expected = planar_k3max(alpha, phi)
    dev = float(np.abs(_column(columns, rows, "k3max") - expected).max())
    _require(dev < K3MAX_TOL, f"k3max off the dense-scan maximum by {dev:.3e}")


def check_k3_curves(item, columns, rows) -> None:
    n = _grid_arg(item, 2000)
    _require(len(rows) == n + 1, f"expected {n + 1} rows, got {len(rows)}")
    alpha = float(item.option("alpha", np.pi / 4))
    phis = [float(item.option("phi"))] if item.option("phi") else [90.0, 135.0, 160.0]
    u = _column(columns, rows, "omega_t")
    _require(np.allclose(u, np.linspace(0.0, 2.0 * np.pi, n + 1), atol=1e-15),
             "omega_t grid differs from linspace(0, 2 pi, grid + 1)")
    for pd in phis:
        a, b = _ab(alpha, np.deg2rad(pd))
        label = f"{pd:g}"
        c12, c13 = planar_correlator(a, b, u), planar_correlator(a, b, 2.0 * u)
        expected = {f"k3_phi{label}": 2.0 * c12 - c13}
        if len(phis) == 1:
            expected.update({f"c12_phi{label}": c12, f"c13_phi{label}": c13})
        for name, want in expected.items():
            dev = float(np.abs(_column(columns, rows, name) - want).max())
            _require(dev < CURVE_TOL, f"{name} off C = cos f by {dev:.3e}")


def check_soe_profiles(item, columns, rows) -> None:
    n = _grid_arg(item, 2000)
    _require(len(rows) == n + 1, f"expected {n + 1} rows, got {len(rows)}")
    phi = np.deg2rad(float(item.option("phi", 135.0)))
    alphas = [float(item.option("alpha"))] if item.option("alpha") else [0.0, np.pi / 8, np.pi / 4]
    u = _column(columns, rows, "omega_t")
    x = 0.5 * u
    for alpha in alphas:
        a, b = _ab(alpha, phi)
        nsq = (a * np.cos(x)) ** 2 + (b * np.sin(x)) ** 2
        label = f"{alpha:.4f}"
        g = _column(columns, rows, f"g_alpha{label}")
        dev = float(np.abs(g - a * b / nsq).max() / (a * b / nsq).max())
        _require(dev < CURVE_TOL, f"g_alpha{label} off A B / N^2 by {dev:.3e}")
        f = _column(columns, rows, f"f_alpha{label}")
        _require(abs(f[0]) < CURVE_TOL, "f does not start at 0")
        _require(bool(np.all(np.diff(f) >= -CURVE_TOL)), "f decreases")
        _require(bool(np.all(np.abs(f - u) <= np.pi + CURVE_TOL)), "f leaves the lift window")
        norm = np.sqrt(nsq)
        dev = max(float(np.abs(np.cos(0.5 * f) - a * np.cos(x) / norm).max()),
                  float(np.abs(np.sin(0.5 * f) - b * np.sin(x) / norm).max()))
        _require(dev < CURVE_TOL, f"f_alpha{label} off the closed-form half angle by {dev:.3e}")


def check_verify_circuits(item, columns, rows) -> None:
    n = _grid_arg(item, 21)
    _require(columns == ["sequence", "phi", "omega_t", "distance"], f"columns {columns}")
    _require(len(rows) == 3 * n * n, f"expected {3 * n * n} rows, got {len(rows)}")
    dist = _column(columns, rows, "distance")
    _require(bool(np.all(np.isfinite(dist))), "non-finite distance")


def check_selftest(item, columns, rows) -> None:
    _require(columns == ["check", "passed", "detail"], f"columns {columns}")
    _require(len(rows) > 0, "no checks reported")


# --- lifetimes ---------------------------------------------------------------

_SZ = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _spin(axis) -> np.ndarray:
    return axis[0] * _SX + axis[1] * _SY + axis[2] * _SZ


class LindbladK3:
    """Exact K3(t) of the post-selected joint ancilla-system model.

    The 16x16 Liouvillian on row-major vec(rho) is diagonalised once;
    rho(t) = V exp(Lambda t) V^-1 vec(rho0) for each branch state. ``t`` may
    be a scalar or an array.
    """

    def __init__(self, alpha: float, phi: float, gamma: float):
        p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        n_axis = np.array([np.cos(phi), np.sin(phi), 0.0])
        m_axis = np.array([1.0, 0.0, 0.0])
        h = np.kron(p0, 0.5 * _spin(n_axis)) + np.kron(p1, 0.5 * _spin(m_axis))
        eye4, eye16 = np.eye(4), np.eye(16)
        lv = -1j * (np.kron(h, eye4) - np.kron(eye4, h.T))
        for op in (np.kron(_SZ, _I2), np.kron(_I2, _SZ)):
            lv = lv + 0.5 * gamma * (np.kron(op, op.T) - eye16)
        self._lam, self._vec = np.linalg.eig(lv)
        anc = np.array([np.sin(alpha), np.cos(alpha)])
        rho_a = np.outer(anc, anc)
        self._coeffs = [(q, np.linalg.solve(self._vec, np.kron(rho_a, proj).ravel()))
                        for q, proj in ((+1, p0), (-1, p1))]

    def correlator(self, t):
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for q, c in self._coeffs:
            decay = np.exp(np.multiply.outer(self._lam, t))
            rho = np.tensordot(self._vec, c.reshape((16,) + (1,) * t.ndim) * decay, axes=1)
            block = np.einsum("a,aibj...,b->ij...", plus, rho.reshape((2, 2, 2, 2) + t.shape), plus)
            total += q * 0.5 * (block[0, 0] - block[1, 1]).real / (block[0, 0] + block[1, 1]).real
        return total

    def __call__(self, t):
        return 2.0 * self.correlator(t) - self.correlator(2.0 * np.asarray(t, dtype=float))


class BlochK3:
    """K3(t) of the damped Bloch equation from one DOP853 trajectory.

    ds/dt = g(t) (axis x s) - gamma (sx, sy, 0) with the closed-form rate
    g = A B / N^2(t) and axis longitude theta, integrated at
    rtol = atol = 1e-12 out to ``t_end``. ``t`` may be a scalar or an array.
    """

    def __init__(self, alpha: float, phi: float, gamma: float, t_end: float):
        from scipy.integrate import solve_ivp

        a, b = _ab(alpha, phi)
        cos_t = (np.cos(alpha) + np.cos(phi) * np.sin(alpha)) / b
        sin_t = np.sin(alpha) * np.sin(phi) / b
        ax, ay = float(cos_t), float(sin_t)
        ab = float(a * b)
        a2, b2 = float(a * a), float(b * b)

        def rhs(t, s):
            x = 0.5 * t
            g = ab / (a2 * math.cos(x) ** 2 + b2 * math.sin(x) ** 2)
            return [g * ay * s[2] - gamma * s[0],
                    -g * ax * s[2] - gamma * s[1],
                    g * (ax * s[1] - ay * s[0])]

        sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-12, atol=1e-12, dense_output=True)
        _require(sol.success, f"oracle integration failed: {sol.message}")
        self._sol = sol.sol

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * self._sol(t)[2] - self._sol(2.0 * t)[2]


def check_tau(k3, tau: float, where: str) -> None:
    """tau must be the first downward crossing of K3 = 1 on the scan.

    K3 is >= 1 at every scan point up to tau * (1 - TAU_REL), and at that
    point, and < 1 at tau * (1 + TAU_REL).
    """
    before, after = float(k3(tau * (1.0 - TAU_REL))), float(k3(tau * (1.0 + TAU_REL)))
    _require(before >= 1.0 - TAU_SLACK and after < 1.0 + TAU_SLACK,
             f"{where}: tau = {tau!r} does not bracket K3 = 1 "
             f"(K3 before = {before!r}, after = {after!r})")
    scan = SCAN_STEP * np.arange(1, int(tau * (1.0 - TAU_REL) / SCAN_STEP) + 1)
    scan = scan[scan <= tau * (1.0 - TAU_REL)]
    if scan.size:
        values = k3(scan)
        k = int(np.argmin(values))
        _require(values[k] >= 1.0 - TAU_SLACK,
                 f"{where}: tau = {tau!r} is not the first crossing "
                 f"(K3 = {values[k]!r} at the earlier scan point t = {scan[k]!r})")


def check_lifetime(item, columns, rows) -> None:
    model = item.experiment.split("-", 1)[1]
    gamma = float(item.option("gamma", DEFAULT_GAMMA))
    n = _grid_arg(item, 4)
    phis = [float(item.option("phi"))] if item.option("phi") else [90.0, 115.0, 140.0]
    _require(columns == ["phi_deg", "alpha", "tau_alpha", "gain", "status"], f"columns {columns}")
    _require(len(rows) == len(phis) * (n + 1), f"expected {len(phis) * (n + 1)} rows, got {len(rows)}")
    for k, pd in enumerate(phis):
        block = rows[k * (n + 1):(k + 1) * (n + 1)]
        alphas = np.array([float(r[1]) for r in block])
        _require(np.allclose(alphas, np.linspace(0.0, np.pi / 4, n + 1), atol=1e-15),
                 "alpha grid differs from linspace(0, pi/4, grid + 1)")
        tau_0 = None
        for r in block:
            if r[4] != "ok":
                _require(r[4] == "no-crossing", f"unknown status {r[4]!r}")
                continue
            alpha, tau, gain = float(r[1]), float(r[2]), float(r[3])
            if alpha == 0.0:
                tau_0 = tau
            if tau_0 is not None:
                _require(abs(gain - tau / tau_0) <= 1e-12 * gain,
                         f"gain {gain!r} is not tau / tau_0 at alpha = {alpha!r}")
            phi = np.deg2rad(pd)
            if model == "lindblad":
                k3 = LindbladK3(alpha, phi, gamma)
            else:
                k3 = BlochK3(alpha, phi, gamma, 2.0 * tau * (1.0 + 2.0 * TAU_REL))
            check_tau(k3, tau, f"phi = {pd:g} deg, alpha = {alpha!r}")


CHECKS = {
    "ttb-map": check_ttb_map,
    "k3-surface": check_k3_surface,
    "k3-curves": check_k3_curves,
    "soe-profiles": check_soe_profiles,
    "verify-circuits": check_verify_circuits,
    "selftest": check_selftest,
    "lifetime-bloch": check_lifetime,
    "lifetime-lindblad": check_lifetime,
}


def check(item, path: str) -> None:
    """Raise OracleError unless the dataset at ``path`` is right for ``item``."""
    _require(item.option("omega") is None, "the oracle assumes omega = 1; --omega is not checked")
    columns, rows = load_dataset(path)
    CHECKS[item.experiment](item, columns, rows)
