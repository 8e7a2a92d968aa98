"""Dephasing models: damped Bloch dynamics, the joint master equation, and
the lifetime of the K3 > 1 violation."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from lgsim.ancilla import PROJ0, PROJ1, PostSelectionStarved, ancilla_state, controlled_u_t0, controlled_u_t1
from lgsim.lgi import correlator, k3_at
from lgsim.linalg import ID2, SIGMA_Z, dagger, is_density_matrix, kron
from lgsim.noise import (
    DEFAULT_ALPHA_GRID,
    NoCrossing,
    NoiseConfig,
    evolve_lindblad,
    gain_curve,
    hamiltonian_as,
    integrate_bloch,
    k3_bloch,
    lifetime,
    liouvillian,
    noisy_correlator,
)
from lgsim.superpose import axis_theta, f_of_t, planar, planar_angle

GAMMA_REF = 1.0 / (4.0 * np.pi)

# ODE + bisection oracle values at gamma = 1/(4 pi), alpha = pi/4, phi = 115 deg
BLOCH_TAU = 1.9092059326
BLOCH_TAU0 = 1.5487896729
BLOCH_GAIN = 1.2327083310
LINDBLAD_TAU = 1.8733575439
LINDBLAD_GAIN = 1.2095622645


def _random_joint_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _bloch_rhs_fn(cfg, noise):
    """Damped Bloch right-hand side rhs(t, s) = g(t) axis x s - gamma (sx, sy, 0).

    Written in plain floats from the closed forms g = omega A B / N^2(t) and
    the axis longitude, so that the tight DOP853 oracle below stays cheap.
    """
    phi, alpha, omega, gamma = planar_angle(cfg), cfg.alpha, cfg.omega, noise.gamma
    a = math.cos(alpha) + math.sin(alpha)
    b = math.sqrt(1.0 + math.cos(phi) * math.sin(2.0 * alpha))
    ax, ay = math.cos(axis_theta(cfg)), math.sin(axis_theta(cfg))

    def rhs(t, s):
        x = 0.5 * omega * t
        g = omega * a * b / ((a * math.cos(x)) ** 2 + (b * math.sin(x)) ** 2)
        return [g * ay * s[2] - gamma * s[0], -g * ax * s[2] - gamma * s[1],
                g * (ax * s[1] - ay * s[0])]

    return rhs


def _bloch_oracle(cfg, noise, t_end, s0=(0.0, 0.0, 1.0), tol=1e-13):
    """Dense DOP853 solution of the damped Bloch equation on [0, t_end]."""
    sol = solve_ivp(_bloch_rhs_fn(cfg, noise), (0.0, t_end), list(s0), method="DOP853",
                    rtol=tol, atol=tol, dense_output=True)
    assert sol.success
    return sol.sol


def _lindblad_rhs(rho, cfg, noise):
    """Matrix-form master equation, written independently of liouvillian."""
    h = hamiltonian_as(cfg)
    out = -1j * (h @ rho - rho @ h)
    for op in (kron(ID2, SIGMA_Z), kron(SIGMA_Z, ID2)):
        out = out + (0.5 * noise.gamma) * (op @ rho @ op - rho)
    return out


def _evolve_exact(rho0, cfg, noise, t):
    """Superoperator-exponential oracle expm(L t) vec(rho0)."""
    return (expm(liouvillian(cfg, noise) * t) @ rho0.ravel()).reshape(4, 4)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(gamma=np.inf)
    with pytest.raises(ValueError):
        NoiseConfig(gamma=np.nan)


def _bloch_rhs(s, t, cfg, noise):
    return np.array(_bloch_rhs_fn(cfg, noise)(t, s))


def test_poles_are_untouched_by_damping():
    cfg = planar(np.pi / 8, 1.3)
    pole = np.array([0.0, 0.0, 1.0])
    quiet = _bloch_rhs(pole, 0.7, cfg, NoiseConfig(gamma=0.0))
    noisy = _bloch_rhs(pole, 0.7, cfg, NoiseConfig(gamma=5.0))
    assert np.allclose(quiet, noisy)
    # transverse components are damped straight toward the axis
    flat = np.array([1.0, 1.0, 0.0])
    diff = _bloch_rhs(flat, 0.7, cfg, NoiseConfig(gamma=2.0)) \
        - _bloch_rhs(flat, 0.7, cfg, NoiseConfig(gamma=0.0))
    assert np.allclose(diff, -2.0 * flat)


def test_noiseless_bloch_matches_algebraic_rotation():
    # gamma = 0: the trajectory is a rigid rotation of the start vector
    cfg = planar(np.pi / 4, 2.0)
    traj = integrate_bloch(cfg, NoiseConfig(gamma=0.0), 8.0)
    theta = axis_theta(cfg)
    axis = np.array([np.cos(theta), np.sin(theta), 0.0])
    z = np.array([0.0, 0.0, 1.0])
    for t in (0.0, 0.9, 2.7, 5.5, 8.0):
        f = f_of_t(cfg, t)
        expect = np.cos(f) * z + np.sin(f) * np.cross(axis, z)
        assert np.allclose(traj(t), expect, atol=1e-8)


def test_noiseless_bloch_is_the_rigid_rotation_to_rounding():
    # gamma = 0: one exact step per period, so the Floquet form is the rotation
    # by f(t) itself, over many periods and from any start vector
    for cfg in (planar(np.pi / 4, 2.0), planar(np.pi / 8, np.deg2rad(175.0), omega=1.7)):
        theta = axis_theta(cfg)
        axis = np.array([np.cos(theta), np.sin(theta), 0.0])
        for s0 in (np.array([0.0, 0.0, 1.0]), np.array([0.48, -0.6, 0.64])):
            traj = integrate_bloch(cfg, NoiseConfig(gamma=0.0), 40.0, s0=s0)
            for t in (0.0, 0.37, 3.1, 9.9, 26.0, 40.0):
                f = f_of_t(cfg, t)
                expect = (np.cos(f) * s0 + np.sin(f) * np.cross(axis, s0)
                          + (1.0 - np.cos(f)) * np.dot(axis, s0) * axis)
                assert np.abs(traj(t) - expect).max() < 1e-12


def test_bloch_kernel_matches_dop853_on_corner_matrix():
    # s(t) and K3 against a DOP853 integration at rtol = atol = 1e-13, t <= 8
    ts = np.linspace(0.05, 8.0, 24)
    for phi_deg in (30.0, 90.0, 140.0, 175.0):
        for alpha in (np.pi / 8, np.pi / 4):
            for gamma in (1e-3, GAMMA_REF, 1.0, 10.0, 100.0):
                cfg = planar(alpha, np.deg2rad(phi_deg))
                noise = NoiseConfig(gamma=gamma)
                ref = _bloch_oracle(cfg, noise, 8.0)
                traj = integrate_bloch(cfg, noise, 8.0)
                for t in ts:
                    assert np.abs(traj(t) - ref(t)).max() < 1e-10, (phi_deg, alpha, gamma, t)
                for t in ts[ts <= 4.0]:
                    k3 = 2.0 * ref(t)[2] - ref(2.0 * t)[2]
                    assert abs(2.0 * traj(t)[2] - traj(2.0 * t)[2] - k3) < 1e-10
                t = ts[7]
                k3 = 2.0 * ref(t)[2] - ref(2.0 * t)[2]
                assert abs(k3_bloch(cfg, noise, t) - k3) < 1e-10, (phi_deg, alpha, gamma)


def test_bloch_floquet_form_across_periods():
    # t = 5T + 0.3 goes through M^5; the oracle integrates straight through
    cfg = planar(np.pi / 4, np.deg2rad(140.0), omega=1.3)
    noise = NoiseConfig(gamma=0.05)
    t = 5.0 * 2.0 * np.pi / cfg.omega + 0.3
    ref = _bloch_oracle(cfg, noise, t)
    traj = integrate_bloch(cfg, noise, t)
    assert np.abs(traj(t) - ref(t)).max() < 1e-10
    assert np.abs(traj(t - 0.3) - ref(t - 0.3)).max() < 1e-10
    assert abs(k3_bloch(cfg, noise, 0.5 * t) - (2.0 * ref(0.5 * t)[2] - ref(t)[2])) < 1e-10


def test_bloch_non_polar_start():
    cfg = planar(np.pi / 8, np.deg2rad(115.0))
    noise = NoiseConfig(gamma=0.3)
    s0 = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    ref = _bloch_oracle(cfg, noise, 8.0, s0=s0)
    traj = integrate_bloch(cfg, noise, 8.0, s0=s0)
    for t in (0.0, 0.7, 3.1, 7.9):
        assert np.abs(traj(t) - ref(t)).max() < 1e-10


def test_stiff_bloch_stays_finite_and_bounded():
    # gamma h >> 1 in every step: the closed-form exponential must not overflow
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for gamma in (1e3, 1e6, 1e12):
            traj = integrate_bloch(planar(np.pi / 4, np.deg2rad(175.0)), NoiseConfig(gamma), 7.0)
            for t in (0.001, 0.5, 7.0):
                s = traj(t)
                assert np.all(np.isfinite(s)) and np.linalg.norm(s) <= 1.0 + 1e-9


def test_bloch_norm_behavior():
    cfg = planar(np.pi / 8, 1.0)
    quiet = integrate_bloch(cfg, NoiseConfig(gamma=0.0), 10.0)
    ts = np.linspace(0.0, 10.0, 60)
    norms = np.array([np.linalg.norm(quiet(t)) for t in ts])
    assert np.allclose(norms, 1.0, atol=1e-8)
    damped = integrate_bloch(cfg, NoiseConfig(gamma=0.3), 10.0)
    norms = np.array([np.linalg.norm(damped(t)) for t in ts])
    assert np.all(np.diff(norms) < 1e-8)


def test_bloch_solvers_agree():
    # the production Floquet-Magnus trajectory against an independent DOP853 one
    cfg = planar(np.pi / 4, 2.4)
    noise = NoiseConfig(gamma=0.2)
    traj = integrate_bloch(cfg, noise, 6.0)
    ts = (0.5, 2.2, 4.8, 6.0)
    ref = solve_ivp(lambda t, s: _bloch_rhs(s, t, cfg, noise), (0.0, 6.0), [0.0, 0.0, 1.0],
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=ts)
    for k, t in enumerate(ts):
        assert np.allclose(traj(t), ref.y[:, k], atol=1e-8)


def test_trajectory_domain_guard():
    traj = integrate_bloch(planar(0.2, 1.0), NoiseConfig(gamma=0.1), 2.0)
    with pytest.raises(ValueError):
        traj(2.5)
    with pytest.raises(ValueError):
        integrate_bloch(planar(0.2, 1.0), NoiseConfig(gamma=0.1), 0.0)


def test_k3_bloch_limits():
    cfg = planar(np.pi / 4, 2.0)
    assert k3_bloch(cfg, NoiseConfig(gamma=0.5), 0.0) == 1.0
    with pytest.raises(ValueError):
        k3_bloch(cfg, NoiseConfig(gamma=0.5), -1.0)
    # gamma = 0 reduces to the algebraic K3
    for t in (0.4, 1.1, 2.7):
        assert np.isclose(k3_bloch(cfg, NoiseConfig(gamma=0.0), t),
                          k3_at(cfg, t).k3, atol=1e-6)


def test_joint_hamiltonian_generates_the_controlled_gates():
    # exp(-i H t) against the product of the two controlled evolutions
    cfg = planar(0.6, 2.1, omega=1.3)
    h = hamiltonian_as(cfg)
    assert np.allclose(h, dagger(h))
    for delta in (0.0, 0.8, 2.9):
        direct = expm(-1j * h * delta)
        gates = controlled_u_t1(cfg, 0.0, delta) @ controlled_u_t0(cfg, 0.0, delta)
        assert np.allclose(direct, gates, atol=1e-10)


def test_lindblad_rhs_structure():
    rng = np.random.default_rng(12)
    cfg = planar(np.pi / 4, 1.9)
    lv = liouvillian(cfg, NoiseConfig(gamma=0.4))
    rho = _random_joint_density(rng)
    out = (lv @ rho.ravel()).reshape(4, 4)
    assert np.isclose(np.trace(out), 0.0, atol=1e-12)      # trace preserving
    assert np.allclose(out, dagger(out), atol=1e-12)       # hermiticity preserving
    # the maximally mixed state is stationary
    assert np.allclose(lv @ (np.eye(4) / 4.0).ravel(), 0.0, atol=1e-14)


def test_liouvillian_matches_rhs():
    rng = np.random.default_rng(44)
    cfg = planar(0.5, 2.2)
    noise = NoiseConfig(gamma=0.3)
    lv = liouvillian(cfg, noise)
    for _ in range(5):
        rho = _random_joint_density(rng)
        assert np.allclose(lv @ rho.ravel(), _lindblad_rhs(rho, cfg, noise).ravel(),
                           atol=1e-12)


def test_lindblad_against_exact_exponential():
    # eigendecomposition propagator against the superoperator-exponential
    # oracle. gamma = 2 omega is an exceptional point: the single-qubit block
    # of L is defective, cond(V) ~ 1e8, and every entry carries ~1e-8 error.
    rng = np.random.default_rng(77)
    for gamma in (0.0, 1e-3, 0.25, 2.0, 30.0):
        ep = gamma == 2.0
        noise = NoiseConfig(gamma=gamma)
        for alpha in (0.0, np.pi / 4):
            cfg = planar(alpha, 2.0)
            for _ in range(5):
                rho0 = _random_joint_density(rng)
                t = rng.uniform(0.3, 3.0)
                rho = evolve_lindblad(rho0, cfg, noise, t)
                assert np.allclose(rho, _evolve_exact(rho0, cfg, noise, t),
                                   atol=1e-7 if ep else 1e-8, rtol=0.0)
                assert is_density_matrix(rho, tol=1e-7 if ep else 1e-9)
                assert np.isclose(np.trace(rho).real, 1.0, atol=1e-7 if ep else 1e-10)


def test_lindblad_solvers_agree():
    # the propagator against an adaptive integration of the matrix-form equation
    rng = np.random.default_rng(13)
    cfg = planar(0.7, 1.1)
    noise = NoiseConfig(gamma=0.2)
    rho0 = _random_joint_density(rng)
    sol = solve_ivp(lambda t, y: _lindblad_rhs(y.reshape(4, 4), cfg, noise).ravel(),
                    (0.0, 2.0), rho0.ravel(), method="RK45", rtol=1e-10, atol=1e-10)
    assert np.allclose(evolve_lindblad(rho0, cfg, noise, 2.0), sol.y[:, -1].reshape(4, 4),
                       atol=1e-7)


def test_lindblad_input_validation():
    cfg = planar(0.3, 1.0)
    noise = NoiseConfig(gamma=0.1)
    rho = kron(PROJ0, PROJ0)
    assert np.allclose(evolve_lindblad(rho, cfg, noise, 0.0), rho)
    with pytest.raises(ValueError):
        evolve_lindblad(rho, cfg, noise, -0.5)
    with pytest.raises(ValueError):
        evolve_lindblad(np.eye(4), cfg, noise, 1.0)  # trace 4


def test_dephasing_degrades_purity():
    cfg = planar(np.pi / 4, np.pi / 2)
    noise = NoiseConfig(gamma=0.5)
    anc = ancilla_state(cfg.alpha)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho0 = kron(np.outer(anc, anc.conj()), np.outer(plus, plus.conj()))
    purities = [np.trace(np.linalg.matrix_power(
        evolve_lindblad(rho0, cfg, noise, t), 2)).real for t in (0.0, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(purities) < 0)


def test_noisy_correlator_reduces_to_unitary_one():
    cfg = planar(np.pi / 4, 3 * np.pi / 4)
    quiet = NoiseConfig(gamma=0.0)
    for t in (0.4, 1.2, 2.8):
        assert np.isclose(noisy_correlator(cfg, quiet, 0.0, t), correlator(cfg, 0.0, t),
                          atol=1e-8)


def test_noisy_correlator_validation_and_bounds():
    cfg = planar(np.pi / 8, 1.0)
    noise = NoiseConfig(gamma=0.3)
    with pytest.raises(ValueError):
        noisy_correlator(cfg, noise, 1.0, 0.5)
    for t in (0.3, 1.5, 3.0):
        c = noisy_correlator(cfg, noise, 0.0, t)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


def test_lindblad_k3_reduces_to_algebraic_at_zero_noise():
    cfg = planar(np.pi / 4, 2.0)
    quiet = NoiseConfig(gamma=0.0)
    for t in (0.4, 1.1, 2.7):
        k3 = 2.0 * noisy_correlator(cfg, quiet, 0.0, t) \
            - noisy_correlator(cfg, quiet, 0.0, 2.0 * t)
        assert np.isclose(k3, k3_at(cfg, t).k3, atol=1e-6)


def test_lifetime_requires_noise():
    with pytest.raises(ValueError):
        lifetime(planar(0.3, 1.0), NoiseConfig(gamma=0.0))


def test_lifetime_without_superposition_has_unit_gain():
    res = lifetime(planar(0.0, 2.0), NoiseConfig(gamma=GAMMA_REF))
    assert res.gain == 1.0
    assert res.tau_alpha == res.tau_0
    lo, hi = res.crossing_bracket
    assert lo <= res.tau_alpha <= hi


def test_lifetime_bloch_anchor():
    res = lifetime(planar(np.pi / 4, np.deg2rad(115.0)), NoiseConfig(gamma=GAMMA_REF))
    assert np.isclose(res.tau_alpha, BLOCH_TAU, atol=1e-8)
    assert np.isclose(res.tau_0, BLOCH_TAU0, atol=1e-8)
    assert np.isclose(res.gain, BLOCH_GAIN, atol=1e-8)


def test_lifetime_lindblad_anchor():
    res = lifetime(planar(np.pi / 4, np.deg2rad(115.0)), NoiseConfig(gamma=GAMMA_REF),
                   model="lindblad")
    assert np.isclose(res.tau_alpha, LINDBLAD_TAU, atol=1e-8)
    assert np.isclose(res.gain, LINDBLAD_GAIN, atol=1e-8)


def test_lifetime_reference_shortcut():
    cfg = planar(np.pi / 4, np.deg2rad(115.0))
    noise = NoiseConfig(gamma=GAMMA_REF)
    res = lifetime(cfg, noise, tau_ref=BLOCH_TAU0)
    assert np.isclose(res.gain, BLOCH_TAU / BLOCH_TAU0, atol=1e-6)
    assert res.tau_0 == BLOCH_TAU0


def test_lifetime_rejects_unknown_model():
    with pytest.raises(ValueError):
        lifetime(planar(0.3, 1.0), NoiseConfig(gamma=0.1), model="exact")


def test_no_crossing_when_horizon_precedes_first_scan_point():
    # damping so fast that the 50/gamma horizon is shorter than one scan step
    with pytest.raises(NoCrossing):
        lifetime(planar(0.0, 1.0), NoiseConfig(gamma=1e4), model="lindblad")


def test_gain_curve_shape_and_determinism():
    noise = NoiseConfig(gamma=GAMMA_REF)
    alphas = (0.0, np.pi / 4)
    pts = gain_curve(np.deg2rad(115.0), noise, alpha_grid=alphas)
    assert [p.status for p in pts] == ["ok", "ok"]
    assert pts[0].gain == 1.0
    assert np.isclose(pts[1].gain, BLOCH_GAIN, atol=1e-8)


def test_gain_curve_default_grid():
    assert len(DEFAULT_ALPHA_GRID) == 5
    assert DEFAULT_ALPHA_GRID[0] == 0.0
    assert np.isclose(DEFAULT_ALPHA_GRID[-1], np.pi / 4)


def test_gain_curve_flags_no_crossing_rows(monkeypatch):
    import lgsim.noise as noise_mod

    def fake(cfg, noise, model="bloch", tau_ref=None):
        if cfg.alpha > 0.2:
            raise noise_mod.NoCrossing("synthetic")
        return noise_mod.LifetimeResult(tau_alpha=1.0, tau_0=1.0, gain=1.0,
                                        crossing_bracket=(0.9, 1.1))

    monkeypatch.setattr(noise_mod, "lifetime", fake)
    pts = noise_mod.gain_curve(np.pi / 2, NoiseConfig(gamma=0.1),
                               alpha_grid=(0.0, 0.4))
    assert [p.status for p in pts] == ["ok", "no-crossing"]
    assert pts[1].tau_alpha is None
    assert pts[1].gain is None
