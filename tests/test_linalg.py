import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm

from lgsim.linalg import (
    DEFAULT_TOL,
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    DimError,
    InvalidAxis,
    as_unit_vector,
    dagger,
    dist_upto_phase,
    is_density_matrix,
    is_hermitian,
    is_unitary,
    kron,
    pauli,
    rot,
)


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_pauli_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, ID2)
        assert is_hermitian(s)
        assert np.isclose(np.trace(s), 0.0)
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)
    assert np.allclose(SIGMA_X @ SIGMA_Y + SIGMA_Y @ SIGMA_X, np.zeros((2, 2)))


def test_pauli_along_axis():
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = _random_axis(rng)
        expect = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
        assert np.allclose(pauli(v), expect)
        # unit axis keeps the involution property
        assert np.allclose(pauli(v) @ pauli(v), ID2)


def test_axis_validation():
    with pytest.raises(InvalidAxis):
        as_unit_vector([0.0, 0.0, 0.0])
    with pytest.raises(InvalidAxis):
        as_unit_vector([1.0, 1.0])
    with pytest.raises(InvalidAxis):
        pauli([0.5, 0.5, 0.5])
    assert np.allclose(as_unit_vector([0.0, 1.0, 0.0]), Y_AXIS)


def test_rot_matches_eigendecomposition_route():
    # closed form against scipy's Pade exponential
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = _random_axis(rng)
        angle = rng.uniform(-4 * np.pi, 4 * np.pi)
        assert np.allclose(rot(v, angle), expm(-0.5j * angle * pauli(v)), atol=1e-12)


def test_rot_special_values():
    assert np.allclose(rot(Z_AXIS, 0.0), ID2)
    theta = 0.7
    assert np.allclose(rot(Z_AXIS, theta),
                       np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)]))
    # SU(2) double cover: full turn is -1, double turn is +1
    assert np.allclose(rot(X_AXIS, 2 * np.pi), -ID2)
    assert np.allclose(rot(X_AXIS, 4 * np.pi), ID2)


def test_rot_composes_along_fixed_axis():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = _random_axis(rng)
        a, b = rng.uniform(-np.pi, np.pi, size=2)
        assert np.allclose(rot(v, a) @ rot(v, b), rot(v, a + b))


def test_rot_rejects_non_finite_angle():
    with pytest.raises(ValueError):
        rot(X_AXIS, np.nan)
    with pytest.raises(ValueError):
        rot(X_AXIS, np.inf)
    with pytest.raises(ValueError):
        rot(X_AXIS, np.array([0.3, np.nan, 1.0]))


def test_stacks_match_their_elements():
    rng = np.random.default_rng(23)
    axis = _random_axis(rng)
    angles = rng.uniform(-4 * np.pi, 4 * np.pi, size=(3, 5))
    stack = rot(axis, angles)
    assert stack.shape == (3, 5, 2, 2)
    singles = np.array([[rot(axis, a) for a in row] for row in angles])
    assert np.allclose(stack, singles, rtol=0.0, atol=1e-15)
    embedded = kron(ID2, stack)
    assert embedded.shape == (3, 5, 4, 4)
    assert np.array_equal(embedded[1, 2], np.kron(ID2, stack[1, 2]))
    dists = dist_upto_phase(kron(stack, ID2), kron(rot(axis, angles + 0.1), ID2))
    assert dists.shape == (3, 5)
    single = dist_upto_phase(kron(singles[2, 4], ID2), kron(rot(axis, angles[2, 4] + 0.1), ID2))
    assert abs(dists[2, 4] - single) < 1e-15
    # exact matches round to at most 0, never below it
    same = dist_upto_phase(stack, stack * np.exp(0.7j))
    assert np.all(same >= 0.0) and np.all(same < 1e-15)


def test_kron_register_dimensions():
    assert kron(ID2, ID2).shape == (4, 4)
    assert kron(np.eye(4), ID2).shape == (8, 8)
    rng = np.random.default_rng(17)
    for n1, n2 in ((2, 2), (2, 4), (4, 2)):
        for _ in range(20):
            a = rng.normal(size=(n1, n1)) + 1j * rng.normal(size=(n1, n1))
            b = rng.normal(size=(n2, n2)) + 1j * rng.normal(size=(n2, n2))
            assert np.array_equal(kron(a, b), np.kron(a, b))
    with pytest.raises(DimError):
        kron(np.eye(4), np.eye(4))
    with pytest.raises(DimError):
        kron(ID2, np.ones((2, 3)))


def test_dagger():
    m = np.array([[1 + 2j, 3j], [0, 4]], dtype=complex)
    assert np.allclose(dagger(m), m.conj().T)


def test_dist_upto_phase_ignores_global_phase():
    rng = np.random.default_rng(19)
    for _ in range(20):
        u = rot(_random_axis(rng), rng.uniform(0, 2 * np.pi))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert dist_upto_phase(u, phase * u) < 1e-14
    assert dist_upto_phase(ID2, SIGMA_X) > 0.5
    with pytest.raises(DimError):
        dist_upto_phase(ID2, np.eye(4))


def test_predicates():
    assert is_unitary(rot(Y_AXIS, 1.3))
    assert not is_unitary(2 * ID2)
    assert is_hermitian(SIGMA_Y)
    assert not is_hermitian(rot(Y_AXIS, 1.0))
    assert is_density_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert not is_density_matrix(SIGMA_Z)                    # trace 0
    assert not is_density_matrix(np.diag([1.5, -0.5]))       # negative eigenvalue
    assert not is_density_matrix(np.array([[0.5, 0.5], [0.1, 0.5]]))


def test_density_matrix_on_larger_register():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    assert is_density_matrix(rho)


# --- the replaced forms, kept as oracles ------------------------------------

def _rot_oracle(axis, angle):
    """rot as two complex products: cos(angle/2) * 1 - i sin(angle/2) * pauli(axis)."""
    half = 0.5 * np.asarray(angle, dtype=float)[..., None, None]
    return np.cos(half) * ID2 - 1j * np.sin(half) * pauli(axis)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(_bits(a), _bits(b)), (a, b)


# axes with signed-zero components, on and off the coordinate axes
_SIGNED_AXES = [np.array(v) for v in (
    [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, -1.0], [-0.0, -0.0, -1.0],
    [1.0, -0.0, 0.0], [-1.0, 0.0, -0.0], [-0.0, 1.0, -0.0], [0.0, -1.0, 0.0],
    [0.6, -0.0, 0.8], [-0.6, 0.8, -0.0], [-0.0, -0.8, 0.6], [0.6, -0.8, 0.0])]
# +-0, tiny (half underflows to +-0), cos(angle/2) of both signs, a full turn, huge
_EDGE_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.7, -0.7, 3.0, -3.0, 5.0, -5.0,
                2.0 * np.pi, -2.0 * np.pi, 4.0 * np.pi, 1e300, -1e300]


def test_rot_is_bitwise_the_complex_expression_on_edge_values():
    for axis in _SIGNED_AXES:
        for angle in _EDGE_ANGLES:
            for form in (angle, np.float64(angle), np.array(angle)):   # scalars and 0-d
                _assert_bitwise(rot(axis, form), _rot_oracle(axis, form))
        stack = np.array(_EDGE_ANGLES).reshape(4, 4)
        _assert_bitwise(rot(axis, stack), _rot_oracle(axis, stack))
        _assert_bitwise(rot(axis, stack[:0]), _rot_oracle(axis, stack[:0]))
    _assert_bitwise(rot(list(Y_AXIS), 1), _rot_oracle(list(Y_AXIS), 1))   # list axis, int angle


@st.composite
def _axes(draw):
    """Unit axes, some with components of either sign set to exactly zero."""
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    for i in draw(st.lists(st.integers(0, 2), max_size=2)):
        v[i] = 0.0
    n = float(np.linalg.norm(v))
    assume(n > 1e-3)
    v = v / n
    return v * np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3)))


_ANGLES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_EDGE_ANGLES))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(axis=_axes(), angles=st.lists(_ANGLES, max_size=7), scalar=_ANGLES)
def test_rot_is_bitwise_the_complex_expression(axis, angles, scalar):
    _assert_bitwise(rot(axis, scalar), _rot_oracle(axis, scalar))
    _assert_bitwise(rot(axis, np.array(angles)), _rot_oracle(axis, np.array(angles)))
    _assert_bitwise(rot(axis, np.array(angles)[:, None]), _rot_oracle(axis, np.array(angles)[:, None]))


def test_rot_keeps_its_axis_check():
    with pytest.raises(InvalidAxis):
        rot([0.5, 0.5, 0.5], 0.3)
    with pytest.raises(InvalidAxis):
        rot([1.0, 0.0], 0.3)


def test_dagger_and_is_unitary_on_stacks():
    rng = np.random.default_rng(29)
    axis = _random_axis(rng)
    stack = rot(axis, rng.uniform(-4 * np.pi, 4 * np.pi, size=(3, 5)))
    daggers = dagger(stack)
    assert daggers.shape == (3, 5, 2, 2)
    for i, j in np.ndindex(3, 5):
        assert np.array_equal(daggers[i, j], stack[i, j].conj().T)
    assert is_unitary(stack)
    broken = stack.copy()
    broken[2, 1] *= 1.01
    assert not is_unitary(broken)
    assert is_unitary(rot(axis, np.array([]))) and dagger(rot(axis, np.array([]))).shape == (0, 2, 2)
    # a matrix keeps its conjugate transpose bit for bit
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    _assert_bitwise(dagger(m), m.conj().T)
    _assert_bitwise(dagger(m.real), m.real.conj().T)


def _outcome(fn, *args):
    """fn's return value, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle and the helper must fail alike
        return type(exc)


def _hermitian_oracle(a, tol=DEFAULT_TOL):
    return bool(np.allclose(a, np.asarray(a).conj().T, atol=tol))


def _density_oracle(a, tol=DEFAULT_TOL):
    a = np.asarray(a)
    if not _hermitian_oracle(a, tol):
        return False
    if abs(np.trace(a).real - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(a).min() >= -tol)


_EDGE = [np.nan, np.inf, -np.inf, 0.0, -0.0, DEFAULT_TOL, np.nextafter(DEFAULT_TOL, 1.0),
         np.nextafter(DEFAULT_TOL, 0.0), 1e-5, 1e300]


@st.composite
def _near_hermitian(draw):
    """A 2x2 or 4x4 Hermitian matrix, often a density matrix, moved by steps at the
    tolerance's edge or by NaN and infinite entries."""
    n = draw(st.sampled_from([2, 4]))
    values = st.floats(-2.0, 2.0)
    re = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    im = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):  # a density matrix, so that is_density_matrix can accept
        m = re + 1j * im
        h = m @ m.conj().T
        assume(np.trace(h).real > 1e-3)
        h = h / np.trace(h).real
    else:
        h = re + re.T + 1j * (im - im.T)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        # a step of exactly tol + 1e-5 |a_ji| (and its neighbours) lands on the edge
        step = (float(draw(st.sampled_from(_EDGE)))  # Python floats: NaN arithmetic is silent
                + draw(st.sampled_from([0.0, 1.0, -1.0])) * 1e-5 * float(abs(h[j, i])))
        step = complex(0.0, step) if draw(st.booleans()) else complex(step, 0.0)
        if draw(st.booleans()):
            h[i, j] = step
            if draw(st.booleans()):
                h[j, i] = np.conj(h[i, j])
        else:
            h[i, j] = h[i, j] + step
    return h


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(a=_near_hermitian(), tol=st.sampled_from([DEFAULT_TOL, 0.0, 1e-6]))
@example(a=np.array([[np.inf, 0.0], [0.0, 1.0]]), tol=DEFAULT_TOL)
@example(a=np.array([[0.5, np.inf], [np.inf, 0.5]]), tol=DEFAULT_TOL)
@example(a=np.array([[0.5, np.inf], [1.0, 0.5]]), tol=DEFAULT_TOL)
@example(a=np.array([[0.5, np.nan], [np.nan, 0.5]]), tol=DEFAULT_TOL)
@example(a=np.array([[0.5, complex(np.inf, 1.0)], [complex(np.inf, -1.0), 0.5]]), tol=DEFAULT_TOL)
@example(a=np.array([[0.5, 1e-10], [0.0, 0.5]]), tol=DEFAULT_TOL)
@example(a=np.array([[0.5, np.nextafter(1e-10, 1.0)], [0.0, 0.5]]), tol=DEFAULT_TOL)
def test_hermitian_and_density_tests_accept_what_allclose_accepts(a, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # both routes warn alike, if at all
        assert _outcome(is_hermitian, a, tol) == _outcome(_hermitian_oracle, a, tol)
        assert _outcome(is_density_matrix, a, tol) == _outcome(_density_oracle, a, tol)


def test_hermitian_test_on_other_dtypes():
    for a in (np.array([[1, 2], [2, 1]]), np.array([[1, 2], [3, 1]]),
              np.array([[True, False], [False, True]]), np.array([[1, 0], [0, 1]], dtype=np.int8),
              np.array([[0.5, 0.25], [0.25, 0.5]], dtype=np.float32),
              np.array([[0.5, 0.25j], [-0.25j, 0.5]], dtype=np.complex64),
              [[0.5, 0.5], [0.5, 0.5]]):
        assert is_hermitian(a) == _hermitian_oracle(a)
        assert is_density_matrix(a) == _density_oracle(a)


# --- stacks of axes ---------------------------------------------------------

@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(axes=st.lists(_axes(), min_size=1, max_size=6),
       angles=st.lists(_ANGLES, min_size=6, max_size=6))
def test_rot_on_a_stack_of_axes_is_bitwise_each_axis_alone(axes, angles):
    k, v = len(axes), np.array(axes)
    pairs = rot(v, np.array(angles[:k]))  # axis i at angle i
    assert pairs.shape == (k, 2, 2)
    grid = rot(v[:, None], np.array(angles))  # every axis at every angle
    assert grid.shape == (k, 6, 2, 2)
    shared = rot(v, angles[0])  # every axis at one angle
    for i, axis in enumerate(axes):
        _assert_bitwise(pairs[i], _rot_oracle(axis, angles[i]))
        _assert_bitwise(pairs[i], rot(axis, angles[i]))
        _assert_bitwise(grid[i], _rot_oracle(axis, np.array(angles)))
        _assert_bitwise(shared[i], _rot_oracle(axis, angles[0]))


def test_rot_on_a_stack_of_signed_zero_axes():
    v = np.array(_SIGNED_AXES).reshape(3, 4, 3)
    for angle in _EDGE_ANGLES:
        _assert_bitwise(rot(v, angle),
                        np.array([[_rot_oracle(ax, angle) for ax in row] for row in v]))
    _assert_bitwise(rot(v[:0], 0.3), np.empty((0, 4, 2, 2), dtype=complex))


def test_axis_checks_and_pauli_on_stacks():
    v = np.array([[1.0, 0.0, 0.0], [0.6, -0.0, 0.8]])
    assert as_unit_vector(v) is v
    _assert_bitwise(pauli(v), np.array([pauli(axis) for axis in v]))
    bad = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5]])  # one row off the unit sphere
    for call in (as_unit_vector, pauli, lambda a: rot(a, 0.3)):
        with pytest.raises(InvalidAxis):
            call(bad)
    with pytest.raises(InvalidAxis):
        as_unit_vector(np.ones((2, 2)))


def test_density_matrix_test_on_stacks():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    rhos = a @ dagger(a)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
    assert is_density_matrix(rhos) and all(is_density_matrix(r) for r in rhos)
    spoilers = (1.1 * rhos[3],  # trace 1.1
                np.diag([1.5, -0.5]),  # unit trace, an eigenvalue -0.5
                rhos[3] + np.array([[0.0, 0.1], [0.0, 0.0]]))  # not Hermitian
    for spoiler in spoilers:
        bad = rhos.copy()
        bad[3] = spoiler
        assert not is_density_matrix(spoiler)
        assert not is_density_matrix(bad)
