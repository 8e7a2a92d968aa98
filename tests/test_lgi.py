"""Two-time correlators, K3, and its maxima over time and parameters."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lgsim import lgi
from lgsim.lgi import (
    CorrelatorSet,
    correlator,
    default_omega_t_grid,
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
    assert np.isclose(value, 1.5, atol=1e-9)
    # K3 is symmetric about omega*t = pi, so the twin peak is equally valid
    assert min(abs(loc - np.pi / 3), abs(loc - (2 * np.pi - np.pi / 3))) < 1e-5


def test_k3_max_grid_independence():
    cfg = planar(np.pi / 4, 3 * np.pi / 4)
    v_default, loc_default = k3_max(cfg)
    v_alt, loc_alt = k3_max(cfg, omega_t_grid=np.linspace(0.0, 2 * np.pi, 1237))
    assert np.isclose(v_default, v_alt, atol=1e-9)
    # the curve is symmetric about omega*t = pi, so either twin peak is valid
    mirror = 2 * np.pi - loc_alt
    assert min(abs(loc_alt - loc_default), abs(mirror - loc_default)) < 1e-4


def test_default_grid_covers_one_cycle():
    g = default_omega_t_grid()
    assert g[0] == 0.0
    assert np.isclose(g[-1], 2 * np.pi)
    assert len(g) == 2000


def test_ttb_map_analytic_profile():
    # single rotation: max K3 = 1 + sin(eta)^2 / 2, independent of xi
    etas = np.linspace(0.0, np.pi, 7)
    xis = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
    out = ttb_map(etas, xis)
    assert out.k3max.shape == (7, 5)
    expected = 1.0 + 0.5 * np.sin(etas) ** 2
    assert np.allclose(out.k3max, expected[:, None], atol=1e-6)
    assert out.k3max.max() <= 1.5 + 1e-9
    # away from the poles the maximum sits a third of the way into the
    # cycle (or at its mirror image about omega*t = pi)
    args = out.argmax_omega_t[1:-1]
    dev = np.minimum(np.abs(args - np.pi / 3), np.abs(args - 5 * np.pi / 3))
    assert np.all(dev < 1e-3)


def test_k3max_surface_growth_with_mixing():
    alphas = np.linspace(0.0, np.pi / 4, 5)
    phis = np.deg2rad([90.0, 135.0, 165.0])
    surf = k3max_surface(alphas, phis)
    assert surf.k3max.shape == (5, 3)
    assert np.allclose(surf.k3max[0], 1.5, atol=1e-9)
    assert np.all(np.diff(surf.k3max, axis=0) > -1e-9)
    assert np.all(surf.k3max[-1] > 1.5)
    assert np.all(surf.k3max < 3.0)
    # spot agreement with the pointwise maximizer
    assert np.isclose(surf.k3max[-1][0], k3_max(planar(np.pi / 4, np.pi / 2))[0],
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
    # more configs than one scan block holds, on irregular grids: neither the
    # block boundaries nor the neighbours in a batch may change an entry
    etas = np.array([0.0, 0.13, 0.7, 1.1, np.pi / 2, 2.2, 3.0])
    xis = np.array([0.0, 0.4, 1.9, 2.05, 4.4, 6.1])
    tm = ttb_map(etas, xis)
    for i, eta in enumerate(etas):
        for j, xi in enumerate(xis):
            axis = np.array([np.sin(eta) * np.cos(xi), np.sin(eta) * np.sin(xi), np.cos(eta)])
            cfg = SuperpositionConfig(alpha=0.0, n_axis=axis, m_axis=axis)
            assert (tm.k3max[i, j], tm.argmax_omega_t[i, j]) == k3_max(cfg)
    alphas = np.array([0.0, 0.05, 0.3, 0.61, 0.785, np.pi / 2])
    phis = np.array([0.0, 0.2, 1.0, np.pi / 2, 2.3, 2.9, 3.1])
    surf = k3max_surface(alphas, phis)
    for i, alpha in enumerate(alphas):
        for j, phi in enumerate(phis):
            assert surf.k3max[i, j] == k3_max(planar(alpha, phi))[0]


def test_golden_section_steps_do_not_depend_on_the_batch():
    # on this grid the steps are ten times finer below omega*t = 1.2, so the
    # configs that peak there (near pi/3) start from narrower brackets and
    # need fewer golden-section steps than those peaking above (near 1.5)
    grid = np.concatenate([np.linspace(0.0, 1.2, 500, endpoint=False),
                           np.linspace(1.2, 2 * np.pi, 200)])
    cfgs = [planar(alpha, phi) for alpha in (0.0, 0.1, np.pi / 4)
            for phi in (0.5, 1.5, 2.4, 3.0)]
    coef = [np.concatenate(c) for c in zip(*(lgi._config_coefficients(cfg) for cfg in cfgs))]
    values, locs = lgi._k3_maxima(coef, grid)
    singles = [k3_max(cfg, omega_t_grid=grid) for cfg in cfgs]
    assert min(loc for _, loc in singles) < 1.2 < max(loc for _, loc in singles)
    assert list(zip(values, locs)) == singles


def test_k3max_surface_memory_is_bounded():
    # the coarse scan runs in blocks of configs; one unblocked (3600 x 2000)
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
