"""Dephasing models: damped Bloch dynamics, the joint master equation, and
the lifetime of the K3 > 1 violation."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

import lgsim.noise as noise_mod
from lgsim.ancilla import (KET_PLUS, POSTSELECT_FLOOR, PROJ0, PROJ1, PostSelectionStarved,
                           ancilla_state, controlled_u_t0, controlled_u_t1, project_ancilla)
from lgsim.lgi import correlator, k3_at
from lgsim.linalg import ID2, SIGMA_Z, dagger, is_density_matrix, kron
from lgsim.noise import (
    DEFAULT_ALPHA_GRID,
    LIFETIME_HORIZON_OVER_MIN_RATE,
    PEAK_RESOLUTION,
    SCAN_OMEGA_STEP,
    NoiseConfig,
    evolve_lindblad,
    gain_curve,
    hamiltonian_as,
    integrate_bloch,
    k3_bloch,
    lindblad_gain_excess,
    liouvillian,
    noisy_correlator,
)
from lgsim.superpose import (SuperpositionConfig, UnsupportedGeometry, axis_theta, f_of_t,
                             norm_factor_sq, planar, planar_angle)

GAMMA_REF = 1.0 / (4.0 * np.pi)
EPS = np.finfo(float).eps

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


def _branch_correlator(cfg, propagate):
    """(C, smallest branch probability) of the branch states propagated by
    propagate(vec rho0) -> vec rho(t), post-selected by project_ancilla."""
    anc = ancilla_state(cfg.alpha)
    rho_a = np.outer(anc, anc.conj())
    c, probs = 0.0, []
    for q, proj in ((+1, PROJ0), (-1, PROJ1)):
        block = project_ancilla(propagate(kron(rho_a, proj).ravel()).reshape(4, 4), KET_PLUS)
        probs.append(float(np.trace(block).real))
        if probs[-1] < POSTSELECT_FLOOR:
            raise PostSelectionStarved(f"branch q = {q} probability {probs[-1]!r} below floor")
        c += q * 0.5 * float(np.trace(SIGMA_Z @ block).real) / probs[-1]
    return c, min(probs)


def _expm_correlator(cfg, noise, t):
    """(C, smallest branch probability) at t from expm(L t)."""
    return _branch_correlator(cfg, lambda vec: expm(liouvillian(cfg, noise) * t) @ vec)


def _batch(cfgs, noise):
    """(alphas, phis, kappa) of planar configs sharing one omega: the K3 models' arguments."""
    return ([cfg.alpha for cfg in cfgs], [planar_angle(cfg) for cfg in cfgs],
            noise.gamma / cfgs[0].omega)


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
        for gamma in (1e3, 1e6, 1e12, 1e300):
            traj = integrate_bloch(planar(np.pi / 4, np.deg2rad(175.0)), NoiseConfig(gamma), 7.0)
            for t in (0.001, 0.5, 7.0):
                s = traj(t)
                assert np.all(np.isfinite(s)) and np.linalg.norm(s) <= 1.0 + 1e-9


def test_stiff_bloch_matches_radau_past_the_magnus_convergence_bound():
    # at gamma = 1e3-1e4 and phi >= 175 deg the capped tables still have steps with
    # kappa h > pi, outside the Magnus series' convergence bound; uncapped, the 6th-order
    # terms there grow as (kappa h)^3 and the trajectory was off by up to 8e-6
    ts = np.linspace(0.1, 4.0, 14)
    for phi_deg in (175.0, 178.0):
        for gamma in (1e3, 1e4):
            cfg, noise = planar(np.pi / 4, np.deg2rad(phi_deg)), NoiseConfig(gamma)
            ref = solve_ivp(_bloch_rhs_fn(cfg, noise), (0.0, 4.0), [0.0, 0.0, 1.0],
                            method="Radau", rtol=1e-12, atol=1e-13, t_eval=ts)
            traj = integrate_bloch(cfg, noise, 4.0)
            err = max(np.abs(traj(t) - ref.y[:, k]).max() for k, t in enumerate(ts))
            assert err < 1e-7, (phi_deg, gamma, err)


def test_bloch_flow_finds_the_step_a_node_search_finds():
    # flow takes each point's step from the inverse of the uniform-in-f node map; against
    # a per-row search of the nodes, with the rest of flow's arithmetic as it is, it must
    # give the same bytes on the nodes, one ulp either side of them, both ends of the
    # first period and points in between
    model = noise_mod._BlochK3([0.0, 0.3, np.pi / 4, 1.2], np.deg2rad(170.0), 3.0)
    rng = np.random.default_rng(7)
    sbz = np.array([[0.6, 0.8]])
    for row in range(4):
        first, last = model._first[row], model._first[row + 1] - 1
        nodes, phi = model._nodes[first:last + 1], model._phi[first:last + 1]
        p = np.concatenate([nodes, np.nextafter(nodes, -1.0), np.nextafter(nodes, 7.0),
                            rng.uniform(0.0, 2.0 * np.pi, 100)])
        p = np.clip(p, 0.0, np.nextafter(2.0 * np.pi, 0.0))[None]  # u = 2 pi is M^1 at p = 0
        j = np.minimum(nodes.searchsorted(p, side="right"), len(nodes) - 1) - 1
        ab = model._a[[row], None], model._b[[row], None]
        half = noise_mod._half_angle(*ab, nodes[j]), noise_mod._half_angle(*ab, p)
        steps = noise_mod._magnus_steps(*ab, 3.0, nodes[j], p, *half)
        v = noise_mod._powers(model._phi[[last]], np.zeros(p.shape)) @ sbz[:, None, :, None]
        ref = (steps @ phi[j] @ v)[..., 0]
        assert np.array_equal(model.flow(np.array([row]), p, sbz), ref), row


def test_bloch_tables_converge_at_sixth_order():
    # a wrong Magnus coefficient still converges, only more slowly: on a smooth row the
    # move of Phi between successive doublings falls ~64x per level at 6th order (16x at 4th)
    model = noise_mod._BlochK3([np.pi / 4], np.deg2rad(115.0), 1.0)
    tables = [model._tables(np.array([0]), n)[0] for n in (32, 64, 128, 256)]
    moves = [np.abs(fine[::2] - coarse).max() for coarse, fine in zip(tables, tables[1:])]
    assert all(a / b >= 40.0 for a, b in zip(moves, moves[1:])), moves


def test_no_bloch_row_stops_at_the_step_cap_short_of_the_tolerance():
    # a row stops doubling once Phi moves by at most MAGNUS_TOL, or at MAGNUS_MAX_STEPS;
    # up to kappa = 100 and phi = 175 deg every row meets the tolerance first
    for phi_deg in (150.0, 160.0, 170.0, 175.0):
        for kappa in (10.0, 30.0, 100.0):
            model = noise_mod._BlochK3(DEFAULT_ALPHA_GRID, np.deg2rad(phi_deg), kappa)
            assert model.steps.shape == model.residuals.shape == (len(DEFAULT_ALPHA_GRID),)
            assert np.all(model.steps <= noise_mod.MAGNUS_MAX_STEPS)
            assert np.all(model.residuals <= noise_mod.MAGNUS_TOL), (phi_deg, kappa, model.steps)
    assert model.steps[0] == 1 and model.residuals[0] == 0.0  # alpha = 0: one exact step


def _bloch_row_tables(model, row):
    """(nodes, Phi) of one row of a _BlochK3."""
    first, end = model._first[row], model._first[row + 1]
    return model._nodes[first:end], model._phi[first:end]


@pytest.mark.parametrize("budget", [noise_mod._MAGNUS_BUDGET, 200, 64, 1])
def test_stacked_bloch_levels_equal_one_row_builds_bitwise(monkeypatch, budget):
    # every doubling level is one stacked build for a group of rows; a row's nodes, Phi,
    # step count and residual must be the bytes it gets built alone, however the budget
    # splits the groups: rows that stop at 1 step (alpha = 0), at several levels and at
    # MAGNUS_MAX_STEPS short of the tolerance (kappa = 1e3, phi = 179.9 deg)
    monkeypatch.setattr(noise_mod, "_MAGNUS_BUDGET", budget)
    cases = [(np.linspace(0.0, np.pi / 4, 7), np.deg2rad(115.0), 0.3),
             (np.array([0.1, 0.5, 0.7, 1.0, 1.4]), np.deg2rad([30.0, 170.0, 90.0, 175.0, 60.0]),
              30.0),
             (np.array([np.pi / 4, 0.0, 0.2]), np.deg2rad(179.9), 1e3)]
    for alphas, phi, kappa in cases:
        model = noise_mod._BlochK3(alphas, phi, kappa)
        phis = np.broadcast_to(phi, alphas.shape)
        for row in range(len(alphas)):
            alone = noise_mod._BlochK3(alphas[[row]], phis[[row]], kappa)
            for got, ref in zip(_bloch_row_tables(model, row), _bloch_row_tables(alone, 0)):
                assert got.tobytes() == ref.tobytes(), (kappa, row)
            assert model.steps[row] == alone.steps[0], (kappa, row)
            assert model.residuals[row].tobytes() == alone.residuals[0].tobytes(), (kappa, row)
    assert model.steps[0] == noise_mod.MAGNUS_MAX_STEPS  # the last case, kappa = 1e3
    assert model.residuals[0] > noise_mod.MAGNUS_TOL
    assert model.steps[1] == 1 and model.residuals[1] == 0.0


_MODERATE = st.floats(-6.0, 6.0)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(mu=st.floats(-20.0, 0.0), z=_MODERATE, c=_MODERATE, df=_MODERATE)
def test_damped_rotation_matches_expm(mu, z, c, df):
    # exp(mu I + z Z + c X + df J) on both sides of r^2 = z^2 + c^2 - df^2 = 0, where
    # the flow does not lengthen a vector (mu + Re r <= 0; past it the lead is capped);
    # e^mu is factored out of expm, whose scaling and squaring would lose ~e^(2 |mu|) eps
    assume(mu + math.sqrt(max(z * z + c * c - df * df, 0.0)) <= 0.0)
    out = noise_mod._damped_rotation(np.float64(mu), z, c, df)
    ref = math.exp(mu) * expm(np.array([[z, c - df], [c + df, -z]]))
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max(), (out, ref)


_HUGE = st.just(0.0) | st.tuples(st.floats(-300.0, 300.0), st.sampled_from((-1.0, 1.0))).map(
    lambda es: es[1] * 10.0 ** es[0])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(mu=_HUGE, z=_HUGE, c=_HUGE, df=_HUGE)
def test_damped_rotation_stays_finite_at_any_magnitude(mu, z, c, df):
    # every argument from 1e-300 to 1e300 in size: no overflow, no NaN, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = noise_mod._damped_rotation(np.float64(-abs(mu)), z, c, df)
    assert out.shape == (2, 2) and np.all(np.isfinite(out))


@pytest.mark.parametrize("u", [2.2e-309, 5e-324])
def test_damped_rotation_at_a_subnormal_u_runs_cleanly(u):
    # a subnormal step, on the rotating side and the real side of r^2 = 0 and through a
    # Magnus step of the Bloch tables: no warning, and the identity to within kappa u
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kappa in (0.0, 1.0, 3.0, 1e300):
            mu = np.array([-0.5 * kappa * u])
            out = noise_mod._damped_rotation(mu, mu, np.zeros(1), np.array([u]))
            assert np.all(np.isfinite(out)), kappa
            assert np.abs(out - np.eye(2)).max() <= max(1e-300, kappa * u), kappa
        a, b = np.array([[1.2]]), np.array([[0.7]])
        zero, end = np.zeros((1, 1)), np.full((1, 1), u)
        step = noise_mod._magnus_steps(a, b, 3.0, zero, end, noise_mod._half_angle(a, b, zero),
                                       noise_mod._half_angle(a, b, end))
    assert np.all(np.isfinite(step)) and np.abs(step - np.eye(2)).max() <= 1e-300


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


def test_bloch_trajectory_takes_arrays_of_t():
    cfg = planar(np.pi / 8, 2.0, omega=1.7)
    for gamma in (0.0, 0.05, 30.0):
        traj = integrate_bloch(cfg, NoiseConfig(gamma), 6.0, s0=[0.6, -0.48, 0.64])
        ts = np.concatenate([[0.0, 6.0], np.linspace(0.0, 6.0, 31), [-1e-13, 6.0 + 1e-10]])
        stacked = np.stack([traj(float(t)) for t in ts])
        assert traj(ts).tobytes() == stacked.tobytes()
        assert traj(ts.reshape(5, 7)).shape == (5, 7, 3) and traj(2.0).shape == (3,)
    with pytest.raises(ValueError):
        traj(np.array([1.0, 6.5]))


def test_bloch_trajectory_rejects_times_outside_a_short_range():
    # the slack at either end scales with t_end: at t_end = 1e-10, t = 1e-9 is 10 t_end
    # past the end and t = -1e-12 is 1 % of the range before the start
    traj = integrate_bloch(planar(np.pi / 8, 2.0, omega=1e9), NoiseConfig(5e7), 1e-10)
    for t in (1e-9, -1e-12, np.array([0.0, 1e-9])):
        with pytest.raises(ValueError):
            traj(t)
    assert traj(np.array([0.0, 1e-10])).shape == (2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bloch_at_infinite_kappa_is_the_zeno_limit():
    # gamma / omega past the float range: s_z frozen, the rest gone at once, K3 = 1
    cfg, noise = planar(0.3, 1.0, omega=1e-10), NoiseConfig(1e300)
    assert noise_mod._kappa(noise, cfg.omega) == np.inf
    assert k3_bloch(cfg, noise, 1e10) == 1.0
    traj = integrate_bloch(cfg, noise, 1e10, s0=[0.6, 0.0, -0.8])
    assert traj(0.0).tolist() == [0.6, 0.0, -0.8]
    assert traj(np.array([1e-3, 5e9, 1e10])).tolist() == [[0.0, 0.0, -0.8]] * 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bloch_trajectory_at_kappa_near_the_float_range():
    # kappa = 1e308 is finite but kappa u is not: the s_a term takes its limit 0, no warning
    cfg, noise, u = planar(np.pi / 4, 2.0), NoiseConfig(1e308), np.array([0.5, 2.0, 5.0])
    assert integrate_bloch(cfg, noise, 5.0)(u)[:, 2].tolist() == [1.0] * 3
    s = integrate_bloch(cfg, noise, 5.0, s0=[0.6, 0.0, 0.8])(u)
    theta = axis_theta(cfg)
    assert np.abs(s @ [np.cos(theta), np.sin(theta), 0.0]).max() <= 1e-300  # the s_a term
    assert np.abs(s - [0.0, 0.0, 0.8]).max() <= 1e-300  # s_z frozen, as at kappa = inf


def test_k3_bloch_limits():
    cfg = planar(np.pi / 4, 2.0)
    assert k3_bloch(cfg, NoiseConfig(gamma=0.5), 0.0) == 1.0
    with pytest.raises(ValueError):
        k3_bloch(cfg, NoiseConfig(gamma=0.5), -1.0)
    # gamma = 0 reduces to the algebraic K3
    for t in (0.4, 1.1, 2.7):
        assert np.isclose(k3_bloch(cfg, NoiseConfig(gamma=0.0), t),
                          k3_at(cfg, t)[2], atol=1e-6)


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
    # the scaling-and-squaring propagator against scipy's Pade exponential
    rng = np.random.default_rng(77)
    for gamma in (0.0, 1e-3, 0.25, 2.0, 30.0):
        noise = NoiseConfig(gamma=gamma)
        for alpha in (0.0, np.pi / 4):
            cfg = planar(alpha, 2.0)
            for _ in range(5):
                rho0 = _random_joint_density(rng)
                t = rng.uniform(0.3, 3.0)
                rho = evolve_lindblad(rho0, cfg, noise, t)
                assert np.allclose(rho, _evolve_exact(rho0, cfg, noise, t),
                                   atol=1e-12, rtol=0.0)
                assert is_density_matrix(rho, tol=1e-12)
                assert np.isclose(np.trace(rho).real, 1.0, atol=1e-12)


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
    tilted = SuperpositionConfig(alpha=np.pi / 8, n_axis=np.array([0.0, 0.6, 0.8]),
                                 m_axis=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(UnsupportedGeometry):
        noisy_correlator(tilted, noise, 0.0, 0.5)
    for t in (0.3, 1.5, 3.0):
        c = noisy_correlator(cfg, noise, 0.0, t)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


def test_lindblad_k3_reduces_to_algebraic_at_zero_noise():
    cfg = planar(np.pi / 4, 2.0)
    quiet = NoiseConfig(gamma=0.0)
    for t in (0.4, 1.1, 2.7):
        k3 = 2.0 * noisy_correlator(cfg, quiet, 0.0, t) \
            - noisy_correlator(cfg, quiet, 0.0, 2.0 * t)
        assert np.isclose(k3, k3_at(cfg, t)[2], atol=1e-6)


def test_lifetime_requires_noise():
    with pytest.raises(ValueError):
        gain_curve(1.0, NoiseConfig(gamma=0.0), alpha_grid=(0.3,))


def test_lifetime_without_superposition_has_unit_gain():
    noise = NoiseConfig(gamma=GAMMA_REF)
    (tau,), (gain,), (status,) = gain_curve(2.0, noise, alpha_grid=(0.0,))
    assert status == "ok" and gain == 1.0
    lo, hi, _ = noise_mod._brackets(*_batch([planar(0.0, 2.0)], noise), "bloch")
    assert lo[0] <= tau <= hi[0]


def test_lifetime_bloch_anchor():
    tau, gain, _ = gain_curve(np.deg2rad(115.0), NoiseConfig(gamma=GAMMA_REF),
                              alpha_grid=(0.0, np.pi / 4))
    assert np.isclose(tau[1], BLOCH_TAU, atol=1e-8)
    assert np.isclose(tau[0], BLOCH_TAU0, atol=1e-8)
    assert np.isclose(gain[1], BLOCH_GAIN, atol=1e-8)


def test_lifetime_lindblad_anchor():
    (tau,), (gain,), _ = gain_curve(np.deg2rad(115.0), NoiseConfig(gamma=GAMMA_REF),
                                    alpha_grid=(np.pi / 4,), model="lindblad")
    assert np.isclose(tau, LINDBLAD_TAU, atol=1e-8)
    assert np.isclose(gain, LINDBLAD_GAIN, atol=1e-8)


def test_lifetime_rejects_unknown_model():
    with pytest.raises(ValueError):
        gain_curve(1.0, NoiseConfig(gamma=0.1), alpha_grid=(0.3,), model="exact")


@pytest.mark.parametrize("model", ["bloch", "lindblad"])
@pytest.mark.parametrize("gamma, alphas",
                         [(5e-324, None), (1e-310, np.linspace(0.0, np.pi / 4, 3))])
def test_subnormal_gamma_scans_to_an_unbounded_horizon(model, gamma, alphas):
    # 50 / kappa overflows below kappa ~ 2.8e-307: the horizon is inf, without an overflow
    # warning, and every row still crosses within the first period
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for phi in (90.0, 115.0, 140.0):
            tau, _, status = gain_curve(np.deg2rad(phi), NoiseConfig(gamma), alphas, model=model)
            assert status == ["ok"] * len(status), (phi, status)
            assert np.all((0.0 < tau) & (tau < 2.0 * np.pi)), (phi, tau)


def test_no_crossing_when_horizon_precedes_first_scan_point():
    # gain_curve's horizon omega t = 50 / min(kappa, 1) always passes the first scan
    # point 0.01, so the case is set up on the engine: the short row evaluates no
    # point, gets NaN brackets and no peak, and leaves its neighbour's result alone
    seen = []

    def k3(rows, t):
        seen.extend(rows.tolist())
        return np.where(t < 0.055, 2.0, 0.0), np.zeros_like(t), None

    lo, hi, peak = noise_mod._first_crossings(k3, np.array([0.005, 10.0]))
    assert np.isnan(lo[0]) and np.isnan(hi[0]) and peak[0] == -np.inf
    assert lo[1] < 0.055 <= hi[1] and peak[1] == 1.0
    assert 0 not in seen


def test_gain_curve_shape_and_determinism():
    noise = NoiseConfig(gamma=GAMMA_REF)
    alphas = (0.0, np.pi / 4)
    tau, gain, status = gain_curve(np.deg2rad(115.0), noise, alpha_grid=alphas)
    assert tau.shape == gain.shape == (2,) and tau.dtype == gain.dtype == float
    assert status == ["ok", "ok"]
    assert gain[0] == 1.0
    assert np.isclose(gain[1], BLOCH_GAIN, atol=1e-8)
    again = gain_curve(np.deg2rad(115.0), noise, alpha_grid=alphas)
    assert np.array_equal(again[0], tau) and np.array_equal(again[1], gain)


def test_gain_curve_default_grid():
    assert len(DEFAULT_ALPHA_GRID) == 5
    assert DEFAULT_ALPHA_GRID[0] == 0.0
    assert np.isclose(DEFAULT_ALPHA_GRID[-1], np.pi / 4)


def _patched_brackets(monkeypatch, alpha, *, crossing=True, peak=None):
    """Make _brackets drop the crossing of the row at alpha, or set its peak."""
    real = noise_mod._brackets

    def patched(alphas, phi, kappa, model):
        lo, hi, peaks = real(alphas, phi, kappa, model)
        row = list(alphas).index(alpha)
        if not crossing:
            lo[row] = hi[row] = np.nan
        if peak is not None:
            peaks[row] = peak
        return lo, hi, peaks

    monkeypatch.setattr(noise_mod, "_brackets", patched)


def test_gain_curve_flags_no_crossing_rows(monkeypatch):
    # both models cross on every default-range row, so an alpha > 0 row's scan is
    # made to fail; it is flagged and its neighbours keep their tau and gain
    alphas = (0.0, np.pi / 8, np.pi / 4)
    for model in ("bloch", "lindblad"):
        with monkeypatch.context() as m:
            _patched_brackets(m, np.pi / 8, crossing=False)
            tau, gain, status = gain_curve(np.deg2rad(115.0), NoiseConfig(gamma=GAMMA_REF),
                                           alphas, model=model)
        assert status == ["ok", "no-crossing", "ok"]
        assert np.isnan(tau[1]) and np.isnan(gain[1])
        full = gain_curve(np.deg2rad(115.0), NoiseConfig(gamma=GAMMA_REF), alphas, model=model)
        assert np.array_equal(tau[::2], full[0][::2]) and np.array_equal(gain[::2], full[1][::2])


def test_gain_curve_flags_unresolved_rows(monkeypatch):
    noise, alphas = NoiseConfig(gamma=GAMMA_REF), (0.0, np.pi / 4)

    def statuses(alpha, peak):
        with monkeypatch.context() as m:
            _patched_brackets(m, alpha, peak=peak)
            return gain_curve(np.deg2rad(115.0), noise, alphas)

    # an alpha > 0 row whose violation is below resolution gives no tau
    tau, gain, status = statuses(np.pi / 4, 0.5 * PEAK_RESOLUTION)
    assert status == ["ok", "unresolved"]
    assert np.isnan(tau[1]) and np.isnan(gain[1])
    # an unresolved reference leaves the other rows without a gain; the bound
    # itself counts as resolved
    tau, gain, status = statuses(0.0, np.nextafter(PEAK_RESOLUTION, 0.0))
    assert status == ["unresolved", "no-reference"]
    assert np.isnan(gain[1]) and np.isclose(tau[1], BLOCH_TAU, atol=1e-8)
    assert statuses(0.0, PEAK_RESOLUTION)[2] == ["ok", "ok"]


def _lindblad_expm_k3(cfg, noise):
    def corr(t):
        return _expm_correlator(cfg, noise, t)[0]

    return lambda t: 2.0 * corr(t) - corr(2.0 * t)


def _bloch_dop853_k3(cfg, noise, t_end):
    ref = _bloch_oracle(cfg, noise, t_end)
    return lambda t: 2.0 * ref(t)[2] - ref(2.0 * t)[2]


def test_zeno_regime_rows_cross_where_the_oracles_do():
    # gamma = 100 omega: the slowest decay rate is ~omega^2 / gamma, and every row
    # crosses by omega t ~ pi, long after 50 / gamma; each tau brackets K3 = 1
    # under the DOP853 and expm oracles, and K3 >= 1 at every scan point before it
    noise = NoiseConfig(gamma=100.0)
    for model in ("bloch", "lindblad"):
        for phi_deg in (90.0, 115.0, 175.0):
            alphas = (0.0, 0.4, np.pi / 4)
            taus, _, status = gain_curve(np.deg2rad(phi_deg), noise, alphas, model=model)
            assert status == ["ok"] * 3, (model, phi_deg)
            for alpha, tau in zip(alphas, taus.tolist()):
                cfg = planar(alpha, np.deg2rad(phi_deg))
                assert 0.5 < tau < 3.2, (model, phi_deg, alpha)
                k3 = (_lindblad_expm_k3(cfg, noise) if model == "lindblad"
                      else _bloch_dop853_k3(cfg, noise, 2.0 * tau + 0.1))
                assert k3(tau * (1.0 - 1e-5)) >= 1.0 > k3(tau * (1.0 + 1e-5)), (model, alpha)
                scan = SCAN_OMEGA_STEP * np.arange(1, int(tau / SCAN_OMEGA_STEP) + 1)
                assert min(k3(t) for t in scan[scan < tau * (1.0 - 1e-5)]) >= 1.0


def test_gain_curve_flags_rows_without_a_reference(monkeypatch):
    # the gain models never give an alpha > 0 row a crossing its reference lacks,
    # so the reference row's scan is made to fail
    _patched_brackets(monkeypatch, 0.0, crossing=False)
    tau, gain, status = gain_curve(np.deg2rad(115.0), NoiseConfig(gamma=GAMMA_REF),
                                   alpha_grid=(0.0, np.pi / 4))
    assert status == ["no-crossing", "no-reference"]
    assert np.isnan(gain[1]) and np.isclose(tau[1], BLOCH_TAU, atol=1e-8)


def test_gain_curve_is_one_batch_with_one_reference(monkeypatch):
    calls = []
    real = noise_mod._brackets

    def record(alphas, phi, kappa, model):
        calls.append(list(alphas))
        return real(alphas, phi, kappa, model)

    monkeypatch.setattr(noise_mod, "_brackets", record)
    noise = NoiseConfig(gamma=GAMMA_REF)
    tau, gain, _ = gain_curve(np.deg2rad(115.0), noise, alpha_grid=(0.0, np.pi / 8, np.pi / 4))
    assert calls == [[0.0, np.pi / 8, np.pi / 4]]
    without = gain_curve(np.deg2rad(115.0), noise, alpha_grid=(np.pi / 8, np.pi / 4))
    assert calls[1] == [np.pi / 8, np.pi / 4, 0.0]
    assert np.array_equal(without[0], tau[1:]) and np.array_equal(without[1], gain[1:])


# --- the batched lifetime engine against the one-row scan it replaced -------

def _scalar_first_crossing(k3, step, t_max):
    """(bracket, peak K3 - 1 before it) of the first downward crossing of K3 = 1.

    Forward scan, one point at a time; the bracket is None when K3 stays above 1
    on every scan point up to t_max.
    """
    t_prev, v_prev, peak = 0.0, 1.0, -np.inf
    for k in itertools.count(1):
        t = k * step
        if t > t_max:
            return None, peak - 1.0
        v = k3(t)
        if v_prev >= 1.0 > v:
            return (t_prev, t), peak - 1.0
        t_prev, v_prev, peak = t, v, max(peak, v)


def _scalar_root_step(k3, lo, f_lo, d_lo, hi, f_hi, d_hi):
    """The safeguarded Newton step one row at a time, as _root_step takes it for each row.

    k3(u) gives (K3, K3') at one point; f = K3 - 1 with f_lo >= 0 > f_hi and lo < hi, and
    d_lo, d_hi are K3' there. Returns (lo, hi).
    """
    a, b, fa, da, fb, db = (np.float64(v) for v in (lo, hi, f_lo, d_lo, f_hi, d_hi))
    if not b - a > 4.0 * EPS * b:
        return a, b
    n = noise_mod._ROOT_POINTS // 2 - 1
    window = [k / n for k in range(1 - n, n)]
    h = b - a
    c0, c1 = 2.0 * (fa - fb) + h * (da + db), 3.0 * (fb - fa) - h * (2.0 * da + db)
    t = fa / (fa - fb)
    with np.errstate(all="ignore"):
        for _ in range(2):
            t = t - (((c0 * t + c1) * t + h * da) * t + fa) / ((3.0 * c0 * t + 2.0 * c1) * t + h * da)
    x, step, grid = a + t * h, h, True
    for _ in range(noise_mod._ROOT_MAX_STEPS):
        width = b - a
        if not a < x < b:
            x, grid = 0.5 * (a + b), True
        centre, radius = (0.5 * (a + b), 0.5 * width) if grid else (x, step)
        d = 2.0 * EPS * x
        points = [x - d, x, x + d] + [centre + radius * w for w in window]
        points = [(p if a < p < b else x) for p in points]
        evaluated = [(p, *map(np.float64, k3(p))) for p in points]  # f / 0 is inf, as in numpy
        seen = [(a, fa, da)] + [(p, v - 1.0, dv) for p, v, dv in evaluated] + [(b, fb, db)]
        b, fb, db = min((e for e in seen if e[1] < 0.0), key=lambda e: e[0])
        below = [k for k, e in enumerate(seen) if e[1] >= 0.0 and e[0] < b]
        first = max(below, key=lambda k: seen[k][0])
        a, fa, da = seen[first]
        if fa == 0.0 and first > 0:
            b = a
        base, f, df = (a, fa, da) if fa <= -fb else (b, fb, db)
        with np.errstate(all="ignore"):
            x = base - f / df
        step, grid = abs(x - base), b - a > 0.25 * width
        if not b - a > 4.0 * EPS * b:
            break
    return a, b


def _eigensystem(cfg, noise):
    """(lam, V, V^-1) with L = V diag(lam) V^-1, found in the eigenbasis of H.

    There the unitary part is diagonal; eig in the computational basis returns
    cond(V) ~ 1e8 at gamma = 0, where the spectrum is degenerate.
    """
    _, w = np.linalg.eigh(hamiltonian_as(cfg))
    basis = np.kron(w, w.conj())
    lam, v = np.linalg.eig(basis.conj().T @ liouvillian(cfg, noise) @ basis)
    v = basis @ v
    return lam, v, np.linalg.inv(v)


def _branch_loop_k3(cfg, noise):
    """Lindblad K3(t) from the branch states propagated through the eigendecomposition."""
    lam, v, v_inv = _eigensystem(cfg, noise)

    def corr(delta):
        return _branch_correlator(cfg, lambda vec: v @ (np.exp(lam * delta) * (v_inv @ vec)))[0]

    return lambda t: 2.0 * corr(t) - corr(2.0 * t)


def _single_point_k3(cfg, noise, model="bloch"):
    """K3(t) from the production evaluator, one row and one point per call."""
    k3 = noise_mod._K3_MODELS[model](*_batch([cfg], noise))
    return lambda t: float(k3(np.array([0]), np.array([[cfg.omega * t]]))[0][0, 0])


def _single_point_k3_and_slope(cfg, noise, model="bloch"):
    """(K3, K3')(u) from the production evaluator, one row and one point per call."""
    k3 = noise_mod._K3_MODELS[model](*_batch([cfg], noise))
    return lambda u: tuple(float(v[0, 0]) for v in k3(np.array([0]), np.array([[u]]))[:2])


def test_engine_matches_the_scalar_scan_and_root_step_bitwise():
    # the Lindblad scan oracle is the eigendecomposition route, so its peaks agree
    # to rounding; it must find the same scan bracket, from which the scalar root
    # step on the one-point production evaluator (K3 and K3' at each point, one at a
    # time) gives bitwise the engine's bracket,
    # for both models. Every row crosses, gamma = 100 (past the horizon 50 / gamma)
    # included
    for model, oracle in (("bloch", _single_point_k3), ("lindblad", _branch_loop_k3)):
        for gamma in (1e-3, GAMMA_REF, 1.0, 10.0, 100.0):
            noise = NoiseConfig(gamma=gamma)
            cfgs = [planar(alpha, np.deg2rad(phi)) for phi in (30.0, 90.0, 140.0, 175.0)
                    for alpha in (0.0, np.pi / 8, np.pi / 4)]
            lo, hi, peak = noise_mod._brackets(*_batch(cfgs, noise), model)
            for row, cfg in enumerate(cfgs):
                scan, scan_peak = _scalar_first_crossing(
                    oracle(cfg, noise), SCAN_OMEGA_STEP,
                    LIFETIME_HORIZON_OVER_MIN_RATE / min(gamma, 1.0))
                assert scan is not None, (model, gamma, row)
                k3 = _single_point_k3_and_slope(cfg, noise, model)
                (f_lo, d_lo), (f_hi, d_hi) = [(k3(t)[0] - 1.0, k3(t)[1]) if t > 0.0 else (0.0, 0.0)
                                              for t in scan]
                step = _scalar_root_step(k3, scan[0], f_lo, d_lo, scan[1], f_hi, d_hi)
                assert (lo[row], hi[row]) == step, (model, gamma, row)
                if model == "bloch":
                    assert peak[row] == scan_peak, (gamma, row)
                else:
                    assert abs(peak[row] - scan_peak) < 1e-12, (gamma, row)
                assert peak[row] >= PEAK_RESOLUTION


def _hard_k3(rows, u):
    """(K3, K3', None) of five rows that take the root step off its two-call path.

    Row 0 is linear; row 1 crosses in the first scan cell, whose lo = 0 carries K3 = 1
    and K3' = 0; row 2 has a rounding band 1e-12 wide about its root (a sawtooth in the
    bits of u); row 3 crosses with K3' = 0 (a triple root); row 4 is a step (K3' = 0).
    """
    r, w = np.broadcast_arrays(rows[:, None], u)
    bits = (w.view(np.int64) % 7 - 3) * 1e-15
    k3 = np.select([r == 0, r == 1, r == 2, r == 3],
                   [1.0 + 2.0 * (0.0325 - w), 1.0 - w * (1.0 + w), 1.0 + 1e-3 * (0.55 - w) + bits,
                    1.0 - 4.0 * ((w - 0.3) * (w - 0.3) * (w - 0.3))], np.where(w < 0.055, 2.0, 0.0))
    slope = np.select([r == 0, r == 1, r == 2, r == 3],
                      [np.full(w.shape, -2.0), -1.0 - 2.0 * w, np.full(w.shape, -1e-3),
                       -12.0 * ((w - 0.3) * (w - 0.3))], np.zeros(w.shape))
    return k3, slope, None


def test_engine_matches_the_scalar_root_step_where_newton_stalls():
    # exact roots, a crossing next to u = 0, a rounding band, K3' = 0 at the root and
    # everywhere: each row's bracket is bitwise the scalar step's, and certified
    lo, hi, _ = noise_mod._first_crossings(_hard_k3, np.full(5, 10.0))
    for row in range(5):
        def k3(u):
            return tuple(float(v[0, 0]) for v in _hard_k3(np.array([row]), np.array([[u]]))[:2])

        scan, _ = _scalar_first_crossing(lambda u: k3(u)[0], SCAN_OMEGA_STEP, 10.0)
        (f_lo, d_lo), (f_hi, d_hi) = [(k3(t)[0] - 1.0, k3(t)[1]) if t > 0.0 else (0.0, 0.0)
                                      for t in scan]
        assert (lo[row], hi[row]) == _scalar_root_step(k3, scan[0], f_lo, d_lo, scan[1], f_hi,
                                                       d_hi), row
        assert 0.0 < lo[row] <= hi[row] <= lo[row] + 4.0 * EPS * hi[row], row
        assert k3(lo[row])[0] >= 1.0 > k3(hi[row])[0] or lo[row] == hi[row], row


def test_root_step_matches_brentq():
    # each row's tau against scipy's Brent solver on the same evaluator, from the
    # same scan bracket, where the violation is well above rounding (gamma <= 10)
    for model in ("bloch", "lindblad"):
        for gamma in (1e-3, GAMMA_REF, 1.0, 10.0):
            noise = NoiseConfig(gamma=gamma)
            cfgs = [planar(alpha, np.deg2rad(phi)) for phi in (30.0, 90.0, 140.0, 175.0)
                    for alpha in (0.0, np.pi / 8, np.pi / 4)]
            lo, hi, _ = noise_mod._brackets(*_batch(cfgs, noise), model)
            for row, cfg in enumerate(cfgs):
                k3 = _single_point_k3(cfg, noise, model)
                scan = SCAN_OMEGA_STEP * np.ceil(hi[row] / SCAN_OMEGA_STEP - 1e-9)  # cell of hi
                ref = brentq(lambda t: k3(t) - 1.0, scan - SCAN_OMEGA_STEP, scan,
                             xtol=1e-300, rtol=4.0 * EPS)
                tau = 0.5 * (lo[row] + hi[row])
                assert abs(tau - ref) <= 1e-13 * ref, (model, gamma, row, tau, ref)


def test_neighbouring_alphas_keep_distinct_gains():
    # alpha = pi/4 - pi/8000 moves tau by ~3e-8 relative, below the 1e-6 width
    # of the bisection the root step replaced, which gave both rows one gain
    alphas = (0.0, np.pi / 4 - np.pi / 8000, np.pi / 4)
    for model in ("bloch", "lindblad"):
        gains = gain_curve(np.deg2rad(115.0), NoiseConfig(gamma=GAMMA_REF), alphas,
                           model=model)[1].tolist()
        assert gains[0] == 1.0 < gains[1] < gains[2], (model, gains)


_SLOPE_KAPPAS = (0.0, 1e-3, np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 10.0, 1e3)
_SLOPE_ROWS = [(np.pi / 8, 50.0), (np.pi / 4, 140.0), (0.0, 115.0)]


def _mp_lindblad_k3(alpha, phi_deg, kappa):
    """K3(u) of the Lindblad closed form in mpmath, E_zz from the 2x2 exponential itself."""
    s, half = mpmath.sin(2 * mpmath.mpf(alpha)), mpmath.radians(phi_deg) / 2
    c2, d2, kappa = mpmath.cos(half) ** 2, mpmath.sin(half) ** 2, mpmath.mpf(kappa)

    def c(v):
        e_zz = mpmath.expm(mpmath.matrix([[-kappa, -1], [1, 0]]) * v)[1, 1]
        x = s * mpmath.exp(-kappa * v)
        return (e_zz + x * (c2 * e_zz + d2)) / (1 + x * (c2 + d2 * e_zz))

    return lambda v: 2 * c(v) - c(2 * v)


def test_k3_slopes_match_central_differences_and_mpmath():
    # K3' of both models against central differences of their own K3, on both sides of
    # critical damping and one ulp from it; the Lindblad K3' against mpmath's derivative
    # of the closed form, and the Bloch rate g = df/du inside K3' = 2 g(u) s_b(u) -
    # 2 g(2u) s_b(2u) against mpmath's derivative of f. At kappa = inf K3' is 0 (to 1e-300)
    u = np.array([[0.004, 0.3, 1.1, 2.7]])
    for kappa in _SLOPE_KAPPAS:
        for model in ("bloch", "lindblad"):
            for alpha, phi in _SLOPE_ROWS:
                k3 = noise_mod._K3_MODELS[model](np.array([alpha]), np.deg2rad(phi), kappa)
                value, slope, _ = k3(np.array([0]), u)
                h = 1e-5 * u
                central = (k3(np.array([0]), u + h)[0] - k3(np.array([0]), u - h)[0]) / (2.0 * h)
                assert np.allclose(slope, central, rtol=1e-6, atol=1e-6), (model, kappa, alpha)
        with mpmath.workdps(30):
            for alpha, phi in _SLOPE_ROWS:
                ref = _mp_lindblad_k3(alpha, phi, kappa)
                slope = noise_mod._LindbladK3(np.array([alpha]), np.deg2rad(phi), kappa)(
                    np.array([0]), u)[1][0]
                for v, got in zip(u[0], slope):
                    want = float(mpmath.diff(ref, mpmath.mpf(v)))
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (kappa, alpha, v)
                bloch = noise_mod._BlochK3(np.array([alpha]), np.deg2rad(phi), kappa)
                a, b = float(bloch._a[0]), float(bloch._b[0])
                both = np.concatenate([u, 2.0 * u], axis=1)
                s_b = bloch.flow(np.array([0]), both, np.array([[0.0, 1.0]]))[0, :, 0]
                g = [float(mpmath.diff(lambda w: 2 * mpmath.atan2(b * mpmath.sin(w / 2),
                                                                  a * mpmath.cos(w / 2)), v))
                     for v in both[0]]
                want = 2.0 * (g * s_b)[:4] - 2.0 * (g * s_b)[4:]
                got = bloch(np.array([0]), u)[1][0]
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14), (kappa, alpha)
    for model in ("bloch", "lindblad"):
        k3 = noise_mod._K3_MODELS[model](np.array([np.pi / 4]), np.deg2rad(115.0), np.inf)
        value, slope, _ = k3(np.array([0]), u)  # the Bloch s_b is gone to below 1e-300
        assert np.all(value == 1.0) and np.all(np.abs(slope) <= 1e-300), model


def _counted_root_steps(monkeypatch):
    """Patch _root_step to record each batch's model calls; returns the list it fills."""
    calls, real = [], noise_mod._root_step

    def counting(k3, *args):
        n = [0]

        def k3_counted(rows, u):
            n[0] += 1
            return k3(rows, u)

        out = real(k3_counted, *args)
        calls.append(n[0])
        return out

    monkeypatch.setattr(noise_mod, "_root_step", counting)
    return calls


@pytest.mark.parametrize("model", ["bloch", "lindblad"])
def test_root_step_takes_about_two_model_calls_per_batch(monkeypatch, model):
    # the Hermite start lands within ~1e-9 of the root, one Newton step within rounding,
    # and the Newton point's neighbours certify the 4 eps bracket: on these 24 batches
    # a median of 2 calls, mean 2.5 (bloch) and 2.0 (lindblad), max 4, against a median
    # of 5, mean 5.5 and 5.3, max 10 and 7 for the Chandrupatla step it replaced
    calls = _counted_root_steps(monkeypatch)
    for phi in (30.0, 75.0, 115.0, 160.0):
        for gamma in (0.003, 0.05, 0.5, 3.0, 20.0, 60.0):
            gain_curve(np.deg2rad(phi), NoiseConfig(gamma), model=model)
    assert len(calls) == 24
    assert np.median(calls) <= 2 and np.mean(calls) <= 3.0 and max(calls) <= 6, calls


# lindblad items of the benchmark whose 'full superposition still gains' check failed on
# rounding when it read tau(pi/4) / tau(0) > 1: (phi in degrees, gamma), omega = 1
_GAIN_BY_ROUNDING = [
    (32.813068399518556, 74.34574229019033), (63.54943444217816, 40.68007114499883),
    (54.38106180119409, 58.29325364769402), (89.34358872360862, 76.81838283721972),
    (126.03672962195584, 81.70861202003121), (173.94168004518406, 86.0351103357909),
    (143.02172785649762, 86.93842383725506), (156.60606907029245, 72.69909028173291),
    (74.30964637423968, 67.82434651145303), (116.33245792665211, 34.96345822161689),
    (160.93276563392527, 39.33673725031552), (102.70215672435715, 60.28394501993513),
    (48.57847484887657, 57.304648352354754), (138.64887911849843, 41.38187344036309),
    (31.14175942004062, 41.80541426889999), (108.46808137136003, 56.72408101038183),
    (34.49560376021333, 53.57924427238664), (142.63656985746758, 44.25918539660702),
    (39.659979074072766, 79.09815029798983), (66.90638485026663, 80.84155487655347),
    (124.67348618621118, 49.91208567230703), (154.8794569693442, 47.51101208694584),
    (113.91267262340803, 34.007500282991394), (125.40880910835104, 69.73090306339512),
    (76.97496627175661, 57.25408472630535), (142.71786197144888, 41.41841961141559),
    (164.2162120951869, 94.12140464196925), (92.95913327407573, 52.26174174841203),
    (113.093222549124, 45.374945922725765), (133.16663550699369, 40.83565827241385),
    (139.97439805614644, 58.07115168420377), (137.19182508112073, 80.44778112535292),
    (53.16862068957329, 89.5955599245502), (138.15574313694236, 56.109386710600404),
    (33.718807878603684, 42.26340447976499), (90.9007739713011, 54.74237264843522),
    (68.41484844864158, 43.31879659091539), (107.57420989871646, 65.43275437198004),
    (117.22521992362779, 89.1447306619053), (52.60099922283055, 34.95459183121915),
    (129.54543424132052, 67.84155046387066), (48.783339321043854, 33.47503162080098),
    (65.71498813149526, 70.84007365621464), (45.75131239751036, 40.22813835140707),
    (34.644833880215, 58.94813438660433), (135.13333799211182, 45.486947614966155),
    (102.87742648520631, 52.133058602539066),
]


def _mp_root(alpha, phi_deg, kappa, u0):
    """The root near u0 of the Lindblad K3 = 1, in mpmath from the closed form of E_zz."""
    s, half = mpmath.sin(2 * mpmath.mpf(alpha)), mpmath.radians(phi_deg) / 2
    c2, d2, kappa = mpmath.cos(half) ** 2, mpmath.sin(half) ** 2, mpmath.mpf(kappa)
    r = mpmath.sqrt(kappa ** 2 / 4 - 1)

    def c(v):
        e_zz = mpmath.exp(-kappa * v / 2) * (mpmath.cosh(r * v) + kappa / 2 * mpmath.sinh(r * v) / r)
        x = s * mpmath.exp(-kappa * v)
        return (e_zz + x * (c2 * e_zz + d2)) / (1 + x * (c2 + d2 * e_zz))

    return mpmath.findroot(lambda v: 2 * c(v) - c(2 * v) - 1, mpmath.mpf(u0))


def test_lindblad_gain_excess_matches_the_mpmath_root_difference():
    # on every benchmark item where tau(pi/4) / tau(0) rounded to 1 or below, the first-
    # order excess from the float tau(0) has the sign and, to 1e-10, the value of the
    # difference of the two roots at 80 digits (the excess is down to 1e-44 of tau)
    for phi, gamma in _GAIN_BY_ROUNDING:
        tau, _, status = gain_curve(np.deg2rad(phi), NoiseConfig(gamma), (0.0, np.pi / 4),
                                    model="lindblad")
        assert status == ["ok", "ok"], (phi, gamma)
        excess = lindblad_gain_excess(np.deg2rad(phi), NoiseConfig(gamma), tau[0], np.pi / 4)
        with mpmath.workdps(80):
            ref = float(_mp_root(np.pi / 4, phi, gamma, tau[0]) - _mp_root(0.0, phi, gamma, tau[0]))
        assert 0.0 < excess and abs(excess - ref) <= 1e-10 * ref, (phi, gamma, excess, ref)
    # past kappa tau_0 ~ 745 e^(-kappa tau_0) underflows: the sign cannot be told
    tau = gain_curve(np.deg2rad(115.0), NoiseConfig(1e3), (0.0,), model="lindblad")[0]
    assert math.isnan(lindblad_gain_excess(np.deg2rad(115.0), NoiseConfig(1e3), tau[0], np.pi / 4))


def test_lindblad_closed_form_matches_the_eigensystem_and_expm():
    # against the per-row eigendecomposition away from its weak spots, and against
    # expm(L t) everywhere, the exceptional point gamma = 2 omega included
    rng = np.random.default_rng(5)
    for gamma in (0.0, 1e-3, GAMMA_REF, 1.0, 2.0, 7.0, 100.0):
        for _ in range(4):
            cfg = planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.05, np.pi - 0.05),
                         rng.uniform(0.5, 2.0))
            noise = NoiseConfig(gamma=gamma * cfg.omega)
            t = rng.uniform(0.05, 6.0, size=6) / cfg.omega
            lindblad = noise_mod._LindbladK3(*_batch([cfg], noise))
            c, _, prob = lindblad.correlator(np.array([0]), cfg.omega * t[None])
            for j, tj in enumerate(t):
                c_ref, p_ref = _expm_correlator(cfg, noise, tj)
                assert abs(c[0, j] - c_ref) < 1e-12 and abs(prob[0, j] - p_ref) < 1e-12, gamma
            if gamma != 2.0:
                k3 = lindblad(np.array([0]), cfg.omega * t[None])[0][0]
                ref = _branch_loop_k3(cfg, noise)
                assert np.abs(k3 - [ref(tj) for tj in t]).max() < 1e-12, gamma


def _fake_k3(starved):
    """K3 = 2 before t = 0.055 and 0 from there on (K3' = 0); probability 0 on starved."""
    def k3(rows, t):
        return (np.where(t < 0.055, 2.0, 0.0), np.zeros_like(t),
                np.where((starved[0] <= t) & (t < starved[1]), 0.0, 0.5))
    return k3


def test_postselection_floor_is_checked_only_where_a_row_scan_looks():
    horizon = np.array([10.0])
    # starved past the crossing at 0.06, inside the same scan chunk: never visited
    lo, hi, peak = noise_mod._first_crossings(_fake_k3((0.07, np.inf)), horizon)
    assert lo[0] < 0.055 <= hi[0] and hi[0] - lo[0] <= 4.0 * EPS * hi[0]
    assert peak[0] == 1.0
    # starved at a scan point before the crossing, or at a root-step point (0.054375:
    # K3 - 1 is +-1 on this step function, so the step bisects the scan bracket)
    for starved in ((0.03, 0.031), (0.054, 0.0545)):
        with pytest.raises(PostSelectionStarved):
            noise_mod._first_crossings(_fake_k3(starved), horizon)


# --- properties of the engine and of both K3 evaluators ---------------------

_PROPERTY = settings(derandomize=True, max_examples=12, deadline=None, database=None)
_ROWS = st.lists(st.tuples(st.floats(0.0, np.pi / 4), st.floats(10.0, 175.0)),
                 min_size=2, max_size=4)
_MODELS = st.sampled_from(("bloch", "lindblad"))


def _configs(rows):
    return [planar(alpha, np.deg2rad(phi)) for alpha, phi in rows]


@_PROPERTY
@given(rows=_ROWS, extra=_ROWS, gamma=st.floats(0.02, 3.0), model=_MODELS,
       horizon=st.lists(st.floats(0.5, 4.0), min_size=8, max_size=8), order=st.randoms())
def test_engine_rows_do_not_depend_on_their_batch(rows, extra, gamma, model, horizon, order):
    cfgs = _configs(rows + extra)
    k3 = noise_mod._K3_MODELS[model](*_batch(cfgs, NoiseConfig(gamma=gamma)))
    horizon = np.array(horizon[:len(cfgs)])  # some rows reach their horizon first

    def run(sel):
        sel = np.array(sel)
        return np.stack(noise_mod._first_crossings(lambda r, u: k3(sel[r], u),
                                                   horizon[sel]))  # (lo, hi, peak) x rows

    n = len(rows)
    alone = run(range(n))
    for i in range(n):
        assert np.array_equal(run([i]), alone[:, [i]], equal_nan=True)
    shuffled = list(range(n))
    order.shuffle(shuffled)
    assert np.array_equal(run(shuffled), alone[:, shuffled], equal_nan=True)
    assert np.array_equal(run(range(len(cfgs)))[:, :n], alone, equal_nan=True)


@pytest.mark.parametrize("model", ["bloch", "lindblad"])
def test_first_crossings_do_not_depend_on_the_chunk_policy(monkeypatch, model):
    # a row leaves the scan at its first point with K3 < 1 whatever chunk holds it: from
    # one point per row and 16 per chunk up to 4096 points per row, (lo, hi, peak) are
    # the same bytes, rows that reach their horizon first included
    cfgs = _configs([(0.0, 115.0), (np.pi / 16, 30.0), (np.pi / 8, 170.0), (np.pi / 4, 90.0),
                     (0.6, 140.0)])
    args = _batch(cfgs, NoiseConfig(gamma=0.7))
    horizon = np.array([50.0, 50.0, 0.3, 50.0, 2.5])
    results = []
    for first, cap in ((1, 16), (16, 1024), (4096, 65536)):
        monkeypatch.setattr(noise_mod, "_SCAN_FIRST_CHUNK", first)
        monkeypatch.setattr(noise_mod, "_SCAN_CHUNK_CAP", cap)
        k3 = noise_mod._K3_MODELS[model](*args)
        results.append(np.stack(noise_mod._first_crossings(k3, horizon)).tobytes())
    assert results[0] == results[1] == results[2]


_LOG_UNIFORM_GAMMAS = st.floats(-300.0, 6.0).map(lambda e: 10.0 ** e)


@_PROPERTY
@given(alpha=st.floats(0.0, np.pi / 2), phi=st.floats(1.0, 179.0),
       gamma=st.just(0.0) | st.floats(1e-6, 10.0),
       lindblad_gamma=st.just(0.0) | _LOG_UNIFORM_GAMMAS,
       t=st.lists(st.floats(1e-3, 30.0), min_size=1, max_size=16))
def test_k3_never_exceeds_three(alpha, phi, gamma, lindblad_gamma, t):
    cfgs, t = _configs([(alpha, phi)]), np.array([t])
    for model, g in (("bloch", gamma), ("lindblad", lindblad_gamma)):
        values = noise_mod._K3_MODELS[model](*_batch(cfgs, NoiseConfig(gamma=g)))(np.array([0]),
                                                                                t)[0]
        assert np.all(np.abs(values) <= 3.0 + 1e-9), (model, g)


@_PROPERTY
@given(alpha=st.floats(0.0, np.pi / 2), phi=st.floats(1.0, 179.0), omega=st.floats(0.2, 5.0),
       t=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=16))
def test_noiseless_branch_postselection_probability_is_half_the_norm(alpha, phi, omega, t):
    cfg = planar(alpha, np.deg2rad(phi), omega)
    lindblad = noise_mod._LindbladK3(*_batch([cfg], NoiseConfig(gamma=0.0)))
    _, _, prob = lindblad.correlator(np.array([0]), omega * np.array([t]))
    assert np.allclose(prob[0], 0.5 * norm_factor_sq(cfg, np.array(t)), rtol=0.0, atol=1e-12)


@_PROPERTY
@given(rows=_ROWS, gamma=st.floats(0.02, 20.0), model=_MODELS)
def test_every_lifetime_brackets_the_first_crossing(rows, gamma, model):
    cfgs, noise = _configs(rows), NoiseConfig(gamma=gamma)
    lo, hi, _ = noise_mod._brackets(*_batch(cfgs, noise), model)
    k3 = noise_mod._K3_MODELS[model](*_batch(cfgs, noise))
    for row in np.flatnonzero(~np.isnan(lo)):
        scan = SCAN_OMEGA_STEP * np.arange(1, int(lo[row] / SCAN_OMEGA_STEP) + 2)
        scan = scan[scan <= lo[row]]
        values = k3(np.array([row]), np.concatenate([scan, [lo[row], hi[row]]])[None])[0][0]
        assert np.all(values[:-1] >= 1.0) or (lo[row] == 0.0 and np.all(values[:-2] >= 1.0))
        # K3 < 1 at hi, unless the root step closed the bracket on a point with K3 = 1
        assert values[-1] < 1.0 or (lo[row] == hi[row] and values[-1] == 1.0)
        assert hi[row] - lo[row] <= 4.0 * EPS * hi[row]


@_PROPERTY
@given(alphas=st.lists(st.floats(0.0, np.pi / 4), min_size=1, max_size=4),
       phi=st.floats(10.0, 175.0), kappa=st.floats(0.02, 30.0),
       log_omega=st.floats(-200.0, 200.0), model=_MODELS)
@example(alphas=[0.0, np.pi / 4], phi=115.0, kappa=0.5, log_omega=-200.0, model="bloch")
@example(alphas=[0.0, np.pi / 4], phi=115.0, kappa=0.5, log_omega=200.0, model="lindblad")
def test_lifetimes_depend_only_on_gamma_over_omega(alphas, phi, kappa, log_omega, model):
    # omega only sets the units: tau(gamma, omega) omega = tau(gamma / omega, 1), from
    # omega = 1e-200 to 1e200 (gamma / omega is kappa to rounding)
    omega = 10.0 ** log_omega
    ref = gain_curve(np.deg2rad(phi), NoiseConfig(gamma=kappa), alphas, model=model)
    scaled = gain_curve(np.deg2rad(phi), NoiseConfig(gamma=kappa * omega), alphas, model=model,
                        omega=omega)
    assert scaled[2] == ref[2]
    for p, q in zip(ref[:2], scaled[:2]):  # tau, then gain: NaN on the same rows
        assert np.array_equal(np.isnan(p), np.isnan(q))
    tau, gain = ref[0], ref[1]
    assert np.all(np.abs(omega * scaled[0] - tau) <= 1e-9 * tau, where=~np.isnan(tau))
    assert np.all(np.abs(scaled[1] - gain) <= 1e-9 * gain, where=~np.isnan(gain))


def test_lindblad_k3_holds_down_to_tiny_gamma():
    # the closed form needs no eigenbasis, so it reaches the unitary K3 smoothly
    cfg = planar(np.pi / 4, np.deg2rad(90.0))
    exact = [k3_at(cfg, 1.0)[2], k3_at(cfg, 3.0)[2]]
    for gamma in (1e-20, 1e-44, 1e-50, 1e-62, 1e-100, 1e-300):
        model = noise_mod._LindbladK3(*_batch([cfg], NoiseConfig(gamma)))
        values = model(np.array([0]), np.array([[1.0, 3.0]]))[0]
        assert np.all(np.abs(values - exact) < 1e-12), gamma


def test_evolve_lindblad_holds_down_to_tiny_gamma():
    # one exponential of L t, no eigenbasis to lose as the dephasing vanishes
    rng = np.random.default_rng(3)
    cfg = planar(np.pi / 4, np.deg2rad(90.0))
    for gamma in (1e-44, 1e-50, 1e-62, 1e-300):
        noise = NoiseConfig(gamma)
        rho0 = _random_joint_density(rng)
        for t in (1.0, 3.0):
            assert np.allclose(evolve_lindblad(rho0, cfg, noise, t),
                               _evolve_exact(rho0, cfg, noise, t), rtol=0.0, atol=1e-12)


_KAPPAS = (st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
           | st.tuples(st.integers(1, 60), st.sampled_from((-1.0, 1.0))).map(
               lambda ks: 2.0 * (1.0 + ks[1] * 2.0 ** -ks[0])))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(kappa=_KAPPAS, u=st.lists(st.just(0.0) | st.floats(1e-300, 60.0), min_size=1, max_size=8))
def test_e_zz_matches_the_damped_rotation(kappa, u):
    # the real-arithmetic E_zz against the 2x2 exponential it replaced, on both sides
    # of critical damping kappa = 2, up to kappa = 1e300 and down to u = 1e-300,
    # without a warning
    u = np.array(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        e_zz, slope = noise_mod._e_zz(np.array(kappa), u)
        mu = -0.5 * kappa * u
        ref = noise_mod._damped_rotation(mu, mu, 0.0, u)
    assert np.abs(e_zz - ref[..., 1, 1]).max() <= 1e-14, kappa
    assert np.abs(slope - ref[..., 0, 1]).max() <= 1e-14, kappa  # E_zz' is the bz entry


def _broadcast_e_zz(kappa, u) -> np.ndarray:
    """E_zz with kappa broadcast against u and each side of critical damping (and of
    s = 1/2) picked per element by boolean masks: the bytes the one-kappa _e_zz keeps."""
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


def test_e_zz_equals_the_broadcast_form_bitwise():
    # _e_zz picks its branch once from the batch's one kappa; on each side of s = 1/2 and
    # of critical damping, one ulp either side of both, it gives the masked form's bytes
    rng = np.random.default_rng(11)
    u = np.concatenate([[0.0, 5e-324, 1e-300, 1e-8, 0.01, 1.0, 60.0, 1e4],
                        rng.uniform(0.0, 60.0, 40)]).reshape(6, 8)
    for kappa in (0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                  np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 2.0 ** 27, np.inf):
        got, ref = noise_mod._e_zz(np.float64(kappa), u)[0], _broadcast_e_zz(np.float64(kappa), u)
        assert got.shape == u.shape and got.tobytes() == ref.tobytes(), kappa


def test_e_zz_limits():
    # kappa = inf freezes s_z; u -> 0 leaves it at 1 for any kappa; kappa = 0 is the
    # bare rotation and kappa = 2 critical damping
    u = np.array([0.0, 5e-324, 1e-300, 1e-160, 0.7, 60.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.array_equal(noise_mod._e_zz(np.array(np.inf), u), [np.ones(6), np.zeros(6)])
        for kappa in (0.0, 1e-66, 1.0, 2.0, 3.0, 1e300):
            assert np.array_equal(noise_mod._e_zz(np.array(kappa), u[:4])[0], np.ones(4)), kappa
        assert np.allclose(noise_mod._e_zz(np.array(0.0), u)[0], np.cos(u), rtol=0.0, atol=1e-15)
        assert np.allclose(noise_mod._e_zz(np.array(2.0), u)[0], np.exp(-u) * (1.0 + u),
                           rtol=0.0, atol=1e-15)


def test_lindblad_correlator_at_kappa_inf_and_t_zero_is_the_t_zero_limit():
    # gamma / omega overflows to kappa = inf; at t = 0 kappa u is 0, not inf * 0
    cfg = planar(0.3, 1.0, omega=1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert noisy_correlator(cfg, NoiseConfig(1e300), 0.0, 0.0) == 1.0
        assert noisy_correlator(cfg, NoiseConfig(1e300), 0.0, 1.0) == 1.0  # frozen


_UNIT_AXES = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi)).map(
    lambda zp: np.array([math.sqrt(1.0 - zp[0] ** 2) * math.cos(zp[1]),
                         math.sqrt(1.0 - zp[0] ** 2) * math.sin(zp[1]), zp[0]]))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(n_axis=_UNIT_AXES, m_axis=_UNIT_AXES, seed=st.integers(0, 2 ** 32 - 1),
       omega_t=st.floats(0.0, 20.0), gamma=st.just(0.0) | _LOG_UNIFORM_GAMMAS)
def test_evolve_lindblad_is_a_quantum_channel(n_axis, m_axis, seed, omega_t, gamma):
    # trace, Hermiticity and positivity, each to rounding of the exponential's norm
    assume(float(n_axis @ m_axis) > -1.0)
    cfg = SuperpositionConfig(alpha=0.3, n_axis=n_axis, m_axis=m_axis)
    noise = NoiseConfig(gamma)
    rho = evolve_lindblad(_random_joint_density(np.random.default_rng(seed)), cfg, noise,
                          omega_t)
    norm = np.abs(liouvillian(cfg, noise) * omega_t).sum(axis=0).max()  # ||L t||_1
    tol = 64.0 * np.finfo(float).eps * max(1.0, norm)
    assert abs(np.trace(rho) - 1.0) <= tol
    assert np.abs(rho - rho.conj().T).max() <= tol
    assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -tol


# --- the replaced forms, kept as oracles ------------------------------------

def _liouvillian_oracle(cfg, noise):
    """The superoperator as first written, every term by np.kron."""
    h = hamiltonian_as(cfg)
    eye = np.eye(4, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in (kron(ID2, SIGMA_Z), kron(SIGMA_Z, ID2)):
        lv += (0.5 * noise.gamma) * (np.kron(op, op.T) - np.eye(16, dtype=complex))
    return lv


def _expm_oracle(a):
    """noise._expm with its Horner step written a @ out / k."""
    s = max(math.frexp(float(np.abs(a).sum(axis=0).max()))[1] + 1, 0)
    a = a * math.ldexp(1.0, -s)
    eye = out = np.eye(len(a), dtype=a.dtype)
    for k in range(18, 0, -1):
        out = eye + a @ out / k
    for _ in range(s):
        out = out @ out
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


def test_liouvillian_and_propagator_are_bitwise_their_first_forms():
    rng = np.random.default_rng(53)
    cfgs = [planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, np.pi - 0.05),
                   omega=rng.uniform(0.1, 3.0)) for _ in range(40)]
    cfgs.append(SuperpositionConfig(alpha=0.3, n_axis=np.array([-0.0, 0.6, -0.8]),
                                    m_axis=np.array([1.0, -0.0, 0.0])))
    for cfg in cfgs:
        for gamma in (0.0, GAMMA_REF, 7.5):
            noise = NoiseConfig(gamma=gamma)
            lv = liouvillian(cfg, noise)
            assert _same_bits(lv, _liouvillian_oracle(cfg, noise))
            for t in (0.0, 0.37, 3.3, 40.0):
                assert _same_bits(noise_mod._expm(lv * t), _expm_oracle(lv * t))
    for _ in range(20):  # dense inputs with exact zeros
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a[rng.random((16, 16)) < 0.3] = 0.0
        assert _same_bits(noise_mod._expm(a), _expm_oracle(a))


# --- stacks of states and arrays of times against one-state, one-time calls ---

def test_evolve_lindblad_on_stacks_is_bitwise_each_state_and_time_alone():
    rng = np.random.default_rng(61)
    states = np.array([_random_joint_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
    ts = np.array([0.0, 0.37, 1.9, 3.3, 40.0])
    for cfg in (planar(0.7, 2.0, omega=1.3), planar(np.pi / 4, np.deg2rad(115.0))):
        for gamma in (0.0, GAMMA_REF, 7.5):
            noise = NoiseConfig(gamma=gamma)
            lv = liouvillian(cfg, noise)
            out = evolve_lindblad(states, cfg, noise, ts)
            assert out.shape == (5, 2, 3, 4, 4)
            for k, t in enumerate(ts):
                one_t = evolve_lindblad(states, cfg, noise, t)
                assert _same_bits(out[k], one_t)
                for i, j in itertools.product(range(2), range(3)):
                    alone = evolve_lindblad(states[i, j], cfg, noise, t)
                    assert _same_bits(one_t[i, j], alone)
                    # the first form: the propagator on the flattened state
                    first = (_expm_oracle(lv * t) @ states[i, j].ravel()).reshape(4, 4)
                    assert np.array_equal(alone, first)  # a t = 0 zero may change sign
                    assert t == 0.0 or _same_bits(alone, first)


def test_expm_on_a_stack_squares_each_matrix_its_own_times():
    rng = np.random.default_rng(67)
    a = rng.normal(size=(7, 16, 16)) + 1j * rng.normal(size=(7, 16, 16))
    a *= np.array([0.0, 1e-3, 0.02, 0.3, 1.0, 7.0, 60.0])[:, None, None]  # 0 to 9 squarings
    stacked = noise_mod._expm(a.reshape(7, 1, 16, 16))
    for k in range(7):
        assert _same_bits(stacked[k, 0], noise_mod._expm(a[k]))
        assert _same_bits(stacked[k, 0], _expm_oracle(a[k]))


def test_noisy_correlator_and_k3_bloch_at_an_array_of_times_are_each_time_alone():
    cfg = planar(np.pi / 8, np.deg2rad(135.0), omega=1.7)
    ts = np.array([[0.0, 0.4, 1.1], [2.2, 3.5, 7.0]])
    for gamma in (0.0, GAMMA_REF, 3.0, 1e300):
        noise = NoiseConfig(gamma=gamma)
        for func, ti in ((noisy_correlator, 0.3), (k3_bloch, None)):
            args = (ti,) if ti is not None else ()
            out = func(cfg, noise, *args, ts + (ti or 0.0))
            assert out.shape == ts.shape
            for t, value in zip((ts + (ti or 0.0)).ravel(), out.ravel()):
                one = func(cfg, noise, *args, float(t))
                assert type(one) is float and one == value
    with pytest.raises(ValueError):
        k3_bloch(cfg, NoiseConfig(0.1), np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        noisy_correlator(cfg, NoiseConfig(0.1), 1.0, np.array([2.0, 0.5]))
    with pytest.raises(ValueError):
        evolve_lindblad(np.eye(4) / 4, cfg, NoiseConfig(0.1), np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        evolve_lindblad(np.eye(2) / 2, cfg, NoiseConfig(0.1), 0.5)


def test_a_time_that_is_not_finite_and_nonnegative_raises_value_error():
    cfg, noise = planar(np.pi / 4, np.deg2rad(135.0)), NoiseConfig(0.1)
    traj = integrate_bloch(cfg, noise, 5.0)
    calls = {"k3_bloch": lambda t: k3_bloch(cfg, noise, t),
             "noisy_correlator": lambda t: noisy_correlator(cfg, noise, 0.0, t),
             "evolve_lindblad": lambda t: evolve_lindblad(np.eye(4) / 4, cfg, noise, t),
             "integrate_bloch": lambda t: integrate_bloch(cfg, noise, t),
             "trajectory": traj}
    for name, call in calls.items():
        for bad in (np.nan, np.inf, -np.inf, -1.0):
            for t in (bad, np.array([0.5, bad])):
                if name == "integrate_bloch" and np.ndim(t):
                    continue  # t_end is one time
                with pytest.raises(ValueError):
                    call(t)
    for ti in (np.nan, np.inf, -np.inf):  # the elapsed time tj - ti is not finite
        with pytest.raises(ValueError):
            noisy_correlator(cfg, noise, ti, 0.5)
