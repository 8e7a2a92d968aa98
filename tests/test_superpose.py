"""Kinematics of the normalized superposition of two SU(2) rotations."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgsim.lgi import correlator
from lgsim.linalg import ID2, X_AXIS, InvalidAxis, dagger, dist_upto_phase, is_unitary, rot
from lgsim.superpose import (
    DegenerateSuperposition,
    SuperpositionConfig,
    UnsupportedGeometry,
    axis_theta,
    f_of_t,
    norm_factor_sq,
    planar,
    planar_angle,
    soe,
    soe_span,
    superposed_unitary,
    unnormalized_superposed,
)


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_config_validation():
    with pytest.raises(ValueError):
        planar(-0.1, 1.0)
    with pytest.raises(ValueError):
        planar(np.pi / 2 + 0.1, 1.0)
    with pytest.raises(ValueError):
        planar(0.3, 1.0, omega=0.0)
    with pytest.raises(DegenerateSuperposition):
        SuperpositionConfig(alpha=0.3, n_axis=[1, 0, 0], m_axis=[-1, 0, 0])


def test_planar_constructor_and_angle_roundtrip():
    for phi in np.linspace(0.0, np.pi, 13, endpoint=False):
        cfg = planar(0.4, float(phi))
        assert np.allclose(cfg.m_axis, X_AXIS)
        assert np.isclose(planar_angle(cfg), phi, atol=1e-12)
    with pytest.raises(UnsupportedGeometry):
        planar(0.4, np.pi)
    with pytest.raises(UnsupportedGeometry):
        planar(0.4, -0.2)


def test_planar_angle_needs_canonical_frame():
    tilted = SuperpositionConfig(alpha=0.3, n_axis=[0, 0, 1], m_axis=[1, 0, 0])
    with pytest.raises(UnsupportedGeometry):
        planar_angle(tilted)
    rotated_m = SuperpositionConfig(alpha=0.3, n_axis=[1, 0, 0], m_axis=[0, 1, 0])
    with pytest.raises(UnsupportedGeometry):
        planar_angle(rotated_m)


def test_planar_angle_accepts_the_m_axes_allclose_accepts():
    # planar_angle tests m against x in scalars; it must accept exactly the m that
    # np.allclose(m, X_AXIS, atol=1e-10) accepts (rtol 1e-5 on the x component), one ulp
    # either side of each bound, and raise the same error on the rest
    n = np.array([0.0, 1.0, 0.0])
    x_bound, tol = 1e-10 + 1e-5, 1e-10
    xs = [1.0, 1.0 + x_bound, 1.0 - x_bound, np.nan, np.inf, -np.inf, 0.0]
    xs += [np.nextafter(x, d) for x in xs[1:3] for d in (-np.inf, np.inf)]
    others = [0.0, -0.0, tol, -tol, np.nan, np.inf]
    others += [np.nextafter(x, d) for x in (tol, -tol) for d in (-np.inf, np.inf)]
    seen = set()
    for mx in xs:
        for my in others:
            for mz in others:
                m = np.array([mx, my, mz])
                cfg = SimpleNamespace(m_axis=m, n_axis=n)
                close = bool(np.allclose(m, X_AXIS, atol=tol))
                seen.add(close)
                if close:
                    assert planar_angle(cfg) == np.pi / 2, m
                else:
                    with pytest.raises(UnsupportedGeometry, match="m_axis along x"):
                        planar_angle(cfg)
    assert seen == {True, False}


def test_zero_delay_is_scaled_identity():
    cfg = planar(0.7, 2.0)
    assert np.allclose(unnormalized_superposed(cfg, 0.0),
                       (np.sin(0.7) + np.cos(0.7)) * ID2)


def test_norm_factor_matches_trace_route():
    # closed form against (1/2) tr[W W^dag], arbitrary (non-planar) axes
    rng = np.random.default_rng(42)
    for _ in range(50):
        cfg = SuperpositionConfig(alpha=rng.uniform(0, np.pi / 2),
                                  n_axis=_random_axis(rng),
                                  m_axis=_random_axis(rng),
                                  omega=rng.uniform(0.5, 2.0))
        delta = rng.uniform(0.0, 10.0)
        w = unnormalized_superposed(cfg, delta)
        assert np.isclose(norm_factor_sq(cfg, delta),
                          0.5 * np.trace(w @ dagger(w)).real, atol=1e-12)


def test_norm_factor_array_input():
    cfg = planar(np.pi / 4, np.pi / 2)
    deltas = np.linspace(0.0, 7.0, 23)
    vec = norm_factor_sq(cfg, deltas)
    assert vec.shape == (23,)
    assert np.allclose(vec, [norm_factor_sq(cfg, float(d)) for d in deltas])
    assert isinstance(norm_factor_sq(cfg, 1.0), float)


def test_superposed_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(30):
        cfg = SuperpositionConfig(alpha=rng.uniform(0, np.pi / 2),
                                  n_axis=_random_axis(rng),
                                  m_axis=_random_axis(rng))
        assert is_unitary(superposed_unitary(cfg, rng.uniform(0, 8.0)))


def test_norm_collapse_raises():
    # nearly anti-parallel axes at equal weights: the norm vanishes half-way
    cfg = planar(np.pi / 4, np.pi - 1e-7)
    with pytest.raises(DegenerateSuperposition):
        superposed_unitary(cfg, np.pi)
    with pytest.raises(DegenerateSuperposition):
        correlator(cfg, 1.0, 1.0 + np.pi)
    # same configuration is fine away from the collapse point
    assert is_unitary(superposed_unitary(cfg, 0.1))


def test_accumulated_angle_lift():
    for alpha in (0.0, np.pi / 8, np.pi / 4, 0.6):
        for phi in (0.3, np.pi / 2, 2.5):
            cfg = planar(alpha, phi)
            assert f_of_t(cfg, 0.0) == 0.0
            # half and full cycle are weight-independent
            assert np.isclose(f_of_t(cfg, np.pi), np.pi, atol=1e-12)
            assert np.isclose(f_of_t(cfg, 2 * np.pi), 2 * np.pi, atol=1e-12)
            t = np.linspace(0.0, 6 * np.pi, 4001)
            f = f_of_t(cfg, t)
            assert np.all(np.diff(f) > 0)
            assert np.allclose(f_of_t(cfg, t + 2 * np.pi) - f, 2 * np.pi, atol=1e-9)


def test_accumulated_angle_matches_unitary_trace():
    # cos(f/2) must equal half the trace of the normalized rotation
    rng = np.random.default_rng(11)
    for _ in range(40):
        cfg = planar(rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi - 1e-3),
                     omega=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.0, 12.0)
        half_trace = 0.5 * np.trace(superposed_unitary(cfg, t)).real
        assert np.isclose(np.cos(0.5 * f_of_t(cfg, t)), half_trace, atol=1e-10)


def test_fixed_axis_reconstructs_the_rotation():
    # the family is a fixed-axis rotation by the accumulated angle
    rng = np.random.default_rng(9)
    for _ in range(30):
        cfg = planar(rng.uniform(0, np.pi / 2), rng.uniform(0, np.pi - 1e-3))
        theta = axis_theta(cfg)
        axis = np.array([np.cos(theta), np.sin(theta), 0.0])
        t = rng.uniform(0.0, 9.0)
        rebuilt = rot(axis, f_of_t(cfg, t))
        assert dist_upto_phase(rebuilt, superposed_unitary(cfg, t)) < 1e-10


def test_axis_theta_limits():
    assert np.isclose(axis_theta(planar(0.0, 1.234)), 0.0, atol=1e-12)
    assert np.isclose(axis_theta(planar(np.pi / 2, 1.234)), 1.234, atol=1e-12)
    # equal weights at right angles: axis bisects the two rotation axes
    assert np.isclose(axis_theta(planar(np.pi / 4, np.pi / 2)), np.pi / 4, atol=1e-12)


def test_soe_is_the_derivative_of_f():
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(40):
        cfg = planar(rng.uniform(0, np.pi / 4), rng.uniform(0, np.pi - 0.1),
                     omega=rng.uniform(0.5, 2.0))
        t = rng.uniform(0.1, 10.0)
        fd = (f_of_t(cfg, t + h) - f_of_t(cfg, t - h)) / (2 * h)
        assert np.isclose(soe(cfg, t), fd, rtol=1e-5, atol=1e-5)


def test_soe_constant_without_superposition():
    cfg = planar(0.0, 2.0, omega=1.7)
    assert np.allclose(soe(cfg, np.linspace(0.0, 12.0, 200)), 1.7)
    assert soe(cfg, 0.37) == 1.7


def test_soe_positive_and_span():
    for alpha, phi in ((np.pi / 8, 0.7), (np.pi / 4, np.pi / 2), (0.5, 2.8)):
        cfg = planar(alpha, phi)
        g = soe(cfg, np.linspace(0.0, 2 * np.pi, 20001))
        assert np.all(g > 0)
        assert np.isclose(soe_span(cfg), g.max() - g.min(), atol=1e-6)
    assert np.isclose(soe_span(planar(np.pi / 4, np.pi / 2)), 1.0 / np.sqrt(2))
    assert np.isclose(soe_span(planar(0.0, 1.0)), 0.0)


# --- stacks of configs against one-config calls -----------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(_bits(a), _bits(b)), (a, b)


def _stack_of_configs(seed, k, general):
    """k configs (arbitrary axes, or planar) and k delays drawn from seed."""
    rng = np.random.default_rng(seed)
    if general:
        cfgs = []
        while len(cfgs) < k:
            n, m = _random_axis(rng), _random_axis(rng)
            if float(n @ m) > -0.99:
                cfgs.append(SuperpositionConfig(alpha=rng.uniform(0.0, np.pi / 2), n_axis=n,
                                                m_axis=m, omega=rng.uniform(0.2, 3.0)))
    else:
        cfgs = [planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, np.pi - 0.05),
                       omega=rng.uniform(0.2, 3.0)) for _ in range(k)]
    return cfgs, rng.uniform(0.0, 12.0, size=k)


def _norm_factor_sq_oracle(cfg, delta):
    """norm_factor_sq as first written, for one config, squaring as x * x."""
    x = 0.5 * cfg.omega * delta
    c, s = np.cos(x), np.sin(x)
    return 1.0 + np.sin(2.0 * cfg.alpha) * (c * c
                                            + float(np.dot(cfg.n_axis, cfg.m_axis)) * (s * s))


def _unnormalized_oracle(cfg, delta):
    """unnormalized_superposed as first written: one rot call per branch."""
    angle = cfg.omega * delta
    return np.sin(cfg.alpha) * rot(cfg.n_axis, angle) + np.cos(cfg.alpha) * rot(cfg.m_axis, angle)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 7), general=st.booleans())
def test_a_stack_of_configs_is_each_config_alone(seed, k, general):
    cfgs, deltas = _stack_of_configs(seed, k, general)
    ws = unnormalized_superposed(cfgs, deltas)
    for cfg, delta, w in zip(cfgs, deltas, ws):
        _assert_bitwise(w, unnormalized_superposed(cfg, delta))
        _assert_bitwise(w, _unnormalized_oracle(cfg, delta))
        _assert_bitwise(norm_factor_sq(cfg, delta), _norm_factor_sq_oracle(cfg, delta))
    for func in (norm_factor_sq, superposed_unitary):
        _assert_bitwise(func(cfgs, deltas), np.array([func(c, d) for c, d in zip(cfgs, deltas)]))
    # a (k, 1) stack against k x 3 delays: each row is one config's array call
    stack = np.array(cfgs, dtype=object)[:, None]
    grid = deltas[:, None] * np.array([0.5, 1.0, 2.0])
    funcs = (norm_factor_sq, superposed_unitary) + (() if general else (f_of_t, soe))
    for func in funcs:
        _assert_bitwise(func(stack, grid), np.array([func(c, row) for c, row in zip(cfgs, grid)]))
    if not general:
        _assert_bitwise(f_of_t(cfgs, deltas), np.array([f_of_t(c, d) for c, d in zip(cfgs, deltas)]))
        _assert_bitwise(soe(cfgs, deltas), np.array([soe(c, d) for c, d in zip(cfgs, deltas)]))


def test_one_config_calls_keep_their_types():
    cfg = planar(0.4, 1.1, omega=1.7)
    for func in (norm_factor_sq, f_of_t, soe):
        assert type(func(cfg, 0.3)) is float
        assert func(cfg, np.array([0.3, 0.4])).shape == (2,)
    assert superposed_unitary(cfg, 0.3).shape == (2, 2)
    assert superposed_unitary([cfg], [0.3]).shape == (1, 2, 2)


def test_a_stack_raises_where_one_of_its_configs_would():
    bad = SuperpositionConfig(alpha=np.pi / 4, n_axis=[1.0, 0.0, 0.0],
                              m_axis=[-np.cos(1e-7), np.sin(1e-7), 0.0])
    good = planar(0.3, 1.0)
    with pytest.raises(DegenerateSuperposition):
        superposed_unitary(bad, np.pi)
    with pytest.raises(DegenerateSuperposition):
        superposed_unitary([good, bad], [np.pi, np.pi])
    with pytest.raises(UnsupportedGeometry):
        f_of_t([good, bad], [1.0, 1.0])
    with pytest.raises(InvalidAxis):
        SuperpositionConfig(alpha=0.3, n_axis=np.eye(3)[:2], m_axis=np.eye(3)[:2])
