import numpy as np
import pytest
from scipy.linalg import expm

from lgsim.linalg import (
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
