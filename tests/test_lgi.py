"""Two-time correlators, K3, and its maxima over time and parameters."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lgsim import lgi
from lgsim.lgi import (
    CorrelatorSet,
    correlator,
    k3_at,
    k3_curve,
    k3_max,
    k3max_surface,
    ttb_map,
)
from lgsim.linalg import X_AXIS, Z_AXIS, dagger, pauli
from lgsim.superpose import (SuperpositionConfig, UnsupportedGeometry, f_of_t, planar,
                             superposed_unitary)

# dense-scan oracle values at alpha = pi/4 (step 1e-4 with parabolic
# refinement): {phi degrees: (max K3, omega*t at the max)}
K3MAX_ANCHORS = {
    90.0: (1.8466366895, 1.3575240694),
    135.0: (2.5030035586, 1.5392739110),
    160.0: (2.8831099177, 1.5690880274),
    175.0: (2.9924039037, 1.5707890851),
}


def test_equal_times_give_unit_correlator():
    for alpha, phi in ((0.0, 1.0), (np.pi / 4, 2.0), (0.3, 0.5)):
        assert np.isclose(correlator(planar(alpha, phi), 1.3, 1.3), 1.0, atol=1e-12)


def test_correlator_is_cos_of_accumulated_angle():
    # z observable, planar axes: C(0, t) reduces to cos f(t)
    rng = np.random.default_rng(21)
    for _ in range(60):
        cfg = planar(rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi - 0.05),
                     omega=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.0, 10.0)
        assert np.isclose(correlator(cfg, 0.0, t), np.cos(f_of_t(cfg, t)), atol=1e-10)


def test_correlator_depends_only_on_the_delay():
    cfg = planar(np.pi / 8, 1.7)
    assert np.isclose(correlator(cfg, 0.0, 0.9), correlator(cfg, 2.0, 2.9), atol=1e-12)


def test_correlator_without_superposition():
    cfg = planar(0.0, 1.0, omega=1.3)
    for t in (0.2, 1.0, 2.9):
        assert np.isclose(correlator(cfg, 0.0, t), np.cos(1.3 * t), atol=1e-12)


def test_correlator_stays_in_bounds():
    rng = np.random.default_rng(5)
    for _ in range(200):
        cfg = planar(rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi - 1e-6))
        q = [0.0, 1.0, 0.0] if rng.random() < 0.3 else Z_AXIS
        c = correlator(cfg, 0.0, rng.uniform(0, 20.0), q_axis=q)
        assert -1.0 <= c <= 1.0


def test_observable_along_rotation_axis_never_decays():
    cfg = planar(0.0, 1.0)  # single rotation about x
    for t in (0.3, 1.1, 2.0):
        assert np.isclose(correlator(cfg, 0.0, t, q_axis=X_AXIS), 1.0, atol=1e-12)


def test_k3_at_zero_time_is_unity():
    out = k3_at(planar(np.pi / 4, 2.0), 0.0)
    assert np.isclose(out.c12, 1.0, atol=1e-12)
    assert np.isclose(out.c13, 1.0, atol=1e-12)
    assert np.isclose(out.k3, 1.0, atol=1e-12)


def test_k3_combination():
    cfg = planar(np.pi / 4, 2.4)
    out = k3_at(cfg, 0.8)
    assert isinstance(out, CorrelatorSet)
    assert np.isclose(out.c12, out.c23, atol=1e-12)
    assert np.isclose(out.k3, 2 * out.c12 - out.c13, atol=1e-12)
    assert np.isclose(out.c12, correlator(cfg, 0.0, 0.8))
    assert np.isclose(out.c13, correlator(cfg, 0.0, 1.6))


def test_k3_symmetric_about_half_cycle():
    cfg = planar(np.pi / 4, 3 * np.pi / 4)
    for u in (0.3, 0.9, 1.4):
        assert np.isclose(k3_at(cfg, u).k3, k3_at(cfg, 2 * np.pi - u).k3, atol=1e-9)


def test_k3_frozen_anchors():
    for deg, (k3_ref, loc_ref) in K3MAX_ANCHORS.items():
        value, loc = k3_max(planar(np.pi / 4, np.deg2rad(deg)))
        assert np.isclose(value, k3_ref, atol=1e-9)
        assert np.isclose(loc, loc_ref, atol=1e-5)


def test_k3_max_single_rotation_is_bounded():
    value, loc = k3_max(planar(0.0, 1.0))
    assert np.isclose(value, 1.5, atol=1e-12)
    # the first of the twin peaks pi/3 and 5 pi/3, never its mirror
    assert abs(loc - np.pi / 3) < 1e-12


def test_k3_max_near_antiparallel_axes():
    # as phi -> pi the peak at omega*t = pi/2 narrows to a width of about
    # pi - phi; a 2000-point scan missed it and read 1.143 at eps = 1e-8,
    # where the maximum is 3 - O(10 eps^2)
    for eps in 10.0 ** -np.arange(3, 9):
        value, _ = k3_max(planar(np.pi / 4, np.pi * (1.0 - eps)))
        assert 2.99999 <= value <= 3.0


def test_k3_max_grid_independence():
    # the golden-section oracle lands on the closed-form maximum from either
    # scan grid; it may report the mirror twin, the closed form never does
    cfg = planar(np.pi / 4, 3 * np.pi / 4)
    value, loc = k3_max(cfg)
    assert 0.0 <= loc <= np.pi
    coef = lgi._config_coefficients(cfg)
    for grid in (_ORACLE_GRID, np.linspace(0.0, 2 * np.pi, 1237)):
        v_grid, loc_grid = _golden_k3_maxima(coef, grid)
        assert np.isclose(v_grid[0], value, atol=1e-9)
        assert min(abs(loc_grid[0] - loc), abs(2 * np.pi - loc_grid[0] - loc)) < 1e-4


def test_default_grid_covers_one_cycle():
    g = _ORACLE_GRID
    assert g[0] == 0.0
    assert np.isclose(g[-1], 2 * np.pi)
    assert len(g) == 2000


def test_ttb_map_analytic_profile():
    # single rotation: max K3 = 1 + sin(eta)^2 / 2, independent of xi
    etas = np.linspace(0.0, np.pi, 7)
    xis = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
    k3m, arg = ttb_map(etas, xis)
    assert k3m.shape == (7, 5)
    assert arg.shape == (7, 5)
    expected = 1.0 + 0.5 * np.sin(etas) ** 2
    assert np.allclose(k3m, expected[:, None], rtol=0, atol=1e-12)
    assert k3m.max() <= 1.5 + 1e-12
    # away from the poles the maximum sits a third of the way into the
    # cycle, at the first twin peak and never at its mirror 5 pi/3
    args = arg[1:-1]
    assert np.allclose(args, np.pi / 3, rtol=0, atol=1e-12)


def test_k3max_surface_growth_with_mixing():
    alphas = np.linspace(0.0, np.pi / 4, 5)
    phis = np.deg2rad([90.0, 135.0, 165.0])
    k3m = k3max_surface(alphas, phis)
    assert k3m.shape == (5, 3)
    assert np.allclose(k3m[0], 1.5, atol=1e-9)
    assert np.all(np.diff(k3m, axis=0) > -1e-9)
    assert np.all(k3m[-1] > 1.5)
    assert np.all(k3m < 3.0)
    # spot agreement with the pointwise maximizer
    assert np.isclose(k3m[-1][0], k3_max(planar(np.pi / 4, np.pi / 2))[0],
                      atol=1e-12)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _trace_correlator(cfg, delta, q_axis=Z_AXIS):
    """(1/2) tr[Q U Q U^dag] with U = superposed_unitary(cfg, delta), unclamped.

    The trace formula on the 2x2 matrices: the independent oracle for the
    closed form behind every correlator and K3 of lgi.
    """
    q = pauli(q_axis)
    u = superposed_unitary(cfg, delta)
    return 0.5 * np.trace(q @ u @ q @ dagger(u)).real


def _trace_k3(cfg, u, q_axis):
    return 2.0 * _trace_correlator(cfg, u, q_axis) - _trace_correlator(cfg, 2.0 * u, q_axis)


_ORACLE_GRID = np.linspace(0.0, 2.0 * np.pi, 2000)
_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_k3_maxima(coef, grid=_ORACLE_GRID):
    """The search the closed form replaced: a scan over grid, then a golden section.

    Each config's first-occurrence argmax on the grid brackets the peak, and a
    golden-section search shrinks every bracket at once down to width 1e-6. A
    config leaves the search as soon as its own bracket is narrow enough, so
    its result does not depend on the batch. Where the scan value beats the
    refined one, the scan point is returned.
    """
    c0, m2, mq = coef
    vals = lgi._k3_terms((c0[:, None], m2[:, None], mq[:, None]), lgi._trig(grid))
    i, peak = np.argmax(vals, axis=1), vals.max(axis=1)

    def f(u):
        return lgi._k3_terms(coef, lgi._trig(u))

    a = grid[np.maximum(i - 1, 0)]
    b = grid[np.minimum(i + 1, len(grid) - 1)]
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    active = (b - a) > 1e-6
    while active.any():
        left = active & (fc >= fd)  # keep [a, d]
        right = active & ~left      # keep [c, b]
        a = np.where(right, c, a)
        b = np.where(left, d, b)
        c, d = (np.where(left, b - _INV_GOLDEN * (b - a), np.where(right, d, c)),
                np.where(right, a + _INV_GOLDEN * (b - a), np.where(left, c, d)))
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        f_new = f(np.where(left, c, d))
        fc = np.where(left, f_new, fc)
        fd = np.where(right, f_new, fd)
        active = (b - a) > 1e-6
    u_star = 0.5 * (a + b)
    f_star = f(u_star)
    scan_wins = peak > f_star
    return np.where(scan_wins, peak, f_star), np.where(scan_wins, grid[i], u_star)


def _dense_k3_maxima(coef):
    """max of K3 by sampling alone, for a batch of configs.

    2001 points over one cycle, then 2001 within one coarse step of each
    config's coarse argmax: a spacing of 3.1e-6, which can only read at or
    below the true maximum. The fine points are evaluated in long double: in
    float64 one K3 evaluation is off by up to about 6 ulps, and the largest
    of 2001 such values reads that much above the maximum even where K3 is
    constant.
    """
    c0, m2, mq = (c[:, None] for c in coef)
    coarse = np.linspace(0.0, 2.0 * np.pi, 2001)
    centre = coarse[np.argmax(lgi._k3_terms((c0, m2, mq), lgi._trig(coarse)), axis=1)]
    fine = centre[:, None] + coarse[1] * np.linspace(-1.0, 1.0, 2001)
    return lgi._k3_terms((c0, m2, mq), lgi._trig(fine.astype(np.longdouble))).max(axis=1)


def _dense_k3_max(cfg, q_axis):
    """Independent maximum of K3 through the trace-route correlator.

    A 500-point scan over one cycle, then four zooms of 41 points onto the
    best point found so far, each one spanning two steps of the previous.
    """
    us = np.linspace(0.0, 2.0 * np.pi, 500)
    best = max(us, key=lambda u: _trace_k3(cfg, u, q_axis))
    step = us[1] - us[0]
    for _ in range(4):
        us = np.linspace(best - step, best + step, 41)
        best = max(us, key=lambda u: _trace_k3(cfg, u, q_axis))
        step = us[1] - us[0]
    return _trace_k3(cfg, best, q_axis)


def test_k3_max_matches_dense_trace_scan():
    rng = np.random.default_rng(8)
    cases = [
        # a non-planar axis pair read out along a tilted observable
        (SuperpositionConfig(np.pi / 4, _unit([0.2, 0.9, 0.4]), _unit([1.0, -0.3, 0.5])),
         _unit([0.3, -0.5, 0.8])),
        (planar(np.pi / 4, np.deg2rad(135.0)), Z_AXIS),
    ]
    while len(cases) < 20:
        n, m = _unit(rng.normal(size=3)), _unit(rng.normal(size=3))
        if n @ m < -0.9:
            continue
        q = Z_AXIS if len(cases) % 2 else _unit(rng.normal(size=3))
        cases.append((SuperpositionConfig(rng.uniform(0.0, np.pi / 2), n, m), q))
    for cfg, q in cases:
        value, loc = k3_max(cfg, q_axis=q)
        assert abs(value - _dense_k3_max(cfg, q)) < 1e-9
        assert abs(_trace_k3(cfg, loc, q) - value) < 1e-9


def test_batched_maxima_equal_single_config_calls_bitwise():
    # irregular grids: the neighbours in a batch may not change an entry
    etas = np.array([0.0, 0.13, 0.7, 1.1, np.pi / 2, 2.2, 3.0])
    xis = np.array([0.0, 0.4, 1.9, 2.05, 4.4, 6.1])
    k3m, arg = ttb_map(etas, xis)
    for i, eta in enumerate(etas):
        for j, xi in enumerate(xis):
            axis = np.array([np.sin(eta) * np.cos(xi), np.sin(eta) * np.sin(xi), np.cos(eta)])
            cfg = SuperpositionConfig(alpha=0.0, n_axis=axis, m_axis=axis)
            assert (k3m[i, j], arg[i, j]) == k3_max(cfg)
    alphas = np.array([0.0, 0.05, 0.3, 0.61, 0.785, np.pi / 2])
    phis = np.array([0.0, 0.2, 1.0, np.pi / 2, 2.3, 2.9, 3.1])
    surface = k3max_surface(alphas, phis)
    for i, alpha in enumerate(alphas):
        for j, phi in enumerate(phis):
            assert surface[i, j] == k3_max(planar(alpha, phi))[0]


def test_golden_section_steps_do_not_depend_on_the_batch():
    # on this grid the steps are ten times finer below omega*t = 1.2, so the
    # oracle's configs that peak there (near pi/3) start from narrower
    # brackets and need fewer golden-section steps than those peaking above
    # (near 1.5); the closed form takes no steps at all
    grid = np.concatenate([np.linspace(0.0, 1.2, 500, endpoint=False),
                           np.linspace(1.2, 2 * np.pi, 200)])
    cfgs = [planar(alpha, phi) for alpha in (0.0, 0.1, np.pi / 4)
            for phi in (0.5, 1.5, 2.4, 3.0)]
    coefs = [lgi._config_coefficients(cfg) for cfg in cfgs]
    coef = [np.concatenate(c) for c in zip(*coefs)]
    values, locs = lgi._k3_maxima(coef)
    singles = [k3_max(cfg) for cfg in cfgs]
    assert list(zip(values, locs)) == singles
    g_values, g_locs = _golden_k3_maxima(coef, grid)
    g_singles = [tuple(v[0] for v in _golden_k3_maxima(c, grid)) for c in coefs]
    assert min(loc for _, loc in g_singles) < 1.2 < max(loc for _, loc in g_singles)
    assert list(zip(g_values, g_locs)) == g_singles
    assert np.allclose(values, g_values, rtol=0, atol=1e-10)


def test_k3max_surface_memory_is_bounded():
    # the kernel keeps a few floats per config; a dense scan's (3600 x 2000)
    # float64 temporary alone would take 57.6 MB
    alphas = np.linspace(0.0, np.pi / 4, 60)
    phis = np.linspace(0.0, np.pi, 60, endpoint=False)
    tracemalloc.start()
    try:
        k3max_surface(alphas, phis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_batched_maps_validate_inputs():
    with pytest.raises(ValueError):
        k3max_surface([0.0, 2.0], [1.0])
    with pytest.raises(UnsupportedGeometry):
        k3max_surface([0.0], [np.pi])


def test_k3_curve_matches_trace_route():
    us = np.linspace(0.0, 2 * np.pi, 301)
    tilted = SuperpositionConfig(0.4, _unit([0.2, 0.9, 0.4]), _unit([1.0, -0.3, 0.5]), omega=1.7)
    for cfg, q in ((planar(np.pi / 4, 2.8), Z_AXIS), (tilted, _unit([0.3, -0.5, 0.8]))):
        curve = k3_curve(cfg, us, q_axis=q)
        c12 = np.array([_trace_correlator(cfg, u / cfg.omega, q) for u in us])
        c13 = np.array([_trace_correlator(cfg, 2.0 * u / cfg.omega, q) for u in us])
        assert np.allclose(curve.c12, c12, rtol=0, atol=1e-12)
        assert np.allclose(curve.c13, c13, rtol=0, atol=1e-12)
        assert np.allclose(curve.k3, 2.0 * c12 - c13, rtol=0, atol=1e-12)


_AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n=_AXES, m=_AXES, q=_AXES, alpha=st.floats(0.0, np.pi / 2),
       omega=st.floats(0.1, 10.0), ti=st.floats(-20.0, 20.0), delay=st.floats(0.0, 20.0))
def test_closed_form_correlator_matches_the_trace(n, m, q, alpha, omega, ti, delay):
    n, m, q = _unit(n), _unit(m), _unit(q)
    assume(n @ m > -0.9)
    cfg = SuperpositionConfig(alpha, n, m, omega=omega)
    tj = ti + delay
    x = 0.5 * (omega * (tj - ti))
    raw = lgi._correlator_terms(lgi._config_coefficients(cfg, q), np.cos(x), np.sin(x))[0]
    assert abs(raw) <= 1.0 + 1e-15  # before the clamp
    assert abs(raw - _trace_correlator(cfg, tj - ti, q)) <= 1e-12
    assert correlator(cfg, ti, tj, q) == min(1.0, max(-1.0, raw))


# the observable along v = m: K3 is 1 for every t, and the dense scan reads
# 1 + 1.6e-15, which K3 at s = 1 matches but K3 at s = 0 and s* does not
_Q_ALONG_V = dict(n=(-0.6637026320966307, 0.7431693656398208, 0.08484167680162182),
                  m=(-0.38647591628657574, -0.1491827303601039, -0.9101543160875284),
                  q=(-0.38647591628657574, -0.1491827303601039, -0.9101543160875284),
                  alpha=0.0)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n=_AXES, m=_AXES, q=_AXES, alpha=st.floats(0.0, np.pi / 2))
@example(**_Q_ALONG_V)
def test_closed_form_maximum_tops_the_scans(n, m, q, alpha):
    n, m, q = _unit(n), _unit(m), _unit(q)
    assume(n @ m > -0.9)
    coef = lgi._config_coefficients(SuperpositionConfig(alpha, n, m), q)
    (value,), (loc,) = lgi._k3_maxima(coef)
    assert value >= _dense_k3_maxima(coef)[0] - 1e-15
    assert value <= 3.0
    assert abs(value - _golden_k3_maxima(coef)[0][0]) <= 1e-10
    assert 0.0 <= loc <= np.pi


def _q_of_s(rho, s):
    return 2.0 * (rho - 1.0) ** 2 * s * s * (8.0 * s * s - 14.0 * s + 7.0) + 4.0 * rho * s - 1.0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(rho=st.floats(0.0, 1.0))
@example(rho=0.0)
@example(rho=1.0)
@example(rho=1.0 - 1e-16)
@example(rho=5e-324)
def test_peak_s_is_the_root_of_the_monotone_quartic(rho):
    (s,) = lgi._peak_s(np.array([rho]))
    assert 0.0 < s < 1.0
    assert abs(_q_of_s(rho, s)) <= 8.0 * np.finfo(float).eps
    # the root it brackets: q changes sign within 1e-13 of s
    assert _q_of_s(rho, s - 1e-13) < 0.0 < _q_of_s(rho, s + 1e-13)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n=_AXES, m=_AXES, q=_AXES, alpha=st.floats(0.0, np.pi / 2))
@example(**_Q_ALONG_V)
def test_k3_rises_to_the_peak_root_and_falls_after_it(n, m, q, alpha):
    n, m, q = _unit(n), _unit(m), _unit(q)
    assume(n @ m > -0.9)
    c0, m2, mq = lgi._config_coefficients(SuperpositionConfig(alpha, n, m), q)
    u_star = 2.0 * np.arcsin(np.sqrt(lgi._peak_s(m2 / (c0 * c0))[0]))
    us = np.linspace(0.0, np.pi, 4001)
    k3 = lgi._k3_terms((c0, m2, mq), lgi._trig(us))
    steps = np.diff(k3)
    assert np.all(steps[us[1:] <= u_star] >= -1e-14)
    assert np.all(steps[us[:-1] >= u_star] <= 1e-14)


def test_k3_curve_sampling():
    cfg = planar(np.pi / 4, np.pi / 2)
    us = np.linspace(0.0, 2 * np.pi, 101)
    curve = k3_curve(cfg, us)
    assert curve.k3.shape == (101,)
    assert np.allclose(curve.k3, 2 * curve.c12 - curve.c13, atol=1e-12)
    assert np.isclose(curve.k3[0], 1.0, atol=1e-12)
    assert np.isclose(curve.k3[-1], 1.0, atol=1e-9)
    assert np.allclose(curve.c12, np.cos(f_of_t(cfg, us)), atol=1e-10)


def test_k3_curve_rate_invariance():
    # K3 against omega*t does not depend on the rate itself
    us = np.linspace(0.0, 2 * np.pi, 41)
    slow = k3_curve(planar(np.pi / 8, 2.0, omega=1.0), us)
    fast = k3_curve(planar(np.pi / 8, 2.0, omega=2.5), us)
    assert np.allclose(slow.k3, fast.k3, atol=1e-12)
