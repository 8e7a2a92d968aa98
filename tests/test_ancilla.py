"""Ancilla-mediated channel, interferometric readout, and pulse programs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lgsim.ancilla import (
    KET_PLUS,
    PROJ0,
    PROJ1,
    AncillaCircuit,
    PostSelectionStarved,
    Rotation,
    ancilla_state,
    build_pulse_library,
    controlled_u_t0,
    controlled_u_t1,
    interferometer_signal,
    normalization_signal,
    postselect_map,
    project_ancilla,
    u_tilde_pm,
    verify_pulse_sequences,
)
from lgsim.lgi import correlator
from lgsim.linalg import (
    ID2,
    SIGMA_X,
    SIGMA_Z,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    dagger,
    is_density_matrix,
    is_unitary,
    kron,
    rot,
)
from lgsim.superpose import norm_factor_sq, planar, superposed_unitary, unnormalized_superposed


def _random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_planar(rng):
    return planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, np.pi - 0.05),
                  omega=rng.uniform(0.5, 2.0))


def _trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()


def test_ancilla_state():
    for alpha in (0.0, 0.3, np.pi / 4, np.pi / 2):
        ket = ancilla_state(alpha)
        assert np.isclose(np.vdot(ket, ket).real, 1.0)
        assert np.isclose(ket[0], np.sin(alpha))
        assert np.isclose(ket[1], np.cos(alpha))


def test_controlled_gates_at_zero_delay():
    cfg = planar(0.3, 1.2)
    assert np.allclose(controlled_u_t0(cfg, 0.7, 0.7), np.eye(4))
    assert np.allclose(controlled_u_t1(cfg, 0.7, 0.7), np.eye(4))


def test_controlled_gates_branch_structure():
    cfg = planar(0.3, 1.2, omega=1.4)
    delta = 0.9
    g0 = controlled_u_t0(cfg, 0.0, delta)
    g1 = controlled_u_t1(cfg, 0.0, delta)
    assert is_unitary(g0) and is_unitary(g1)
    # ancilla |1> rides through the first gate untouched
    psi = np.kron(np.array([0.0, 1.0]), np.array([0.6, 0.8j]))
    assert np.allclose(g0 @ psi, psi)
    # the product is block-diagonal with one rotation per ancilla branch
    product = g1 @ g0
    expect = (kron(np.diag([1.0 + 0j, 0.0]), rot(cfg.n_axis, 1.4 * delta))
              + kron(np.diag([0.0, 1.0 + 0j]), rot(cfg.m_axis, 1.4 * delta)))
    assert np.allclose(product, expect, atol=1e-12)


def test_branch_combinations():
    rng = np.random.default_rng(23)
    for _ in range(20):
        cfg = _random_planar(rng)
        delta = rng.uniform(0.0, 6.0)
        plus, minus = u_tilde_pm(cfg, delta)
        assert np.allclose(plus, unnormalized_superposed(cfg, delta), atol=1e-12)
        # the two branch norms always add up to 2
        n_plus = 0.5 * np.trace(plus @ dagger(plus)).real
        n_minus = 0.5 * np.trace(minus @ dagger(minus)).real
        assert np.isclose(n_plus + n_minus, 2.0, atol=1e-12)
        assert np.isclose(n_plus, norm_factor_sq(cfg, delta), atol=1e-12)


def test_project_ancilla_on_product_state():
    rng = np.random.default_rng(8)
    rho_s = _random_density(rng)
    anc = ancilla_state(0.7)
    rho_as = kron(np.outer(anc, anc.conj()), rho_s)
    block = project_ancilla(rho_as, KET_PLUS)
    weight = abs(np.vdot(KET_PLUS, anc)) ** 2
    assert np.allclose(block, weight * rho_s, atol=1e-12)


def test_postselection_equals_direct_conjugation():
    # the channel route and the normalized-superposition route must agree
    rng = np.random.default_rng(101)
    for _ in range(100):
        cfg = _random_planar(rng)
        rho = _random_density(rng)
        delta = rng.uniform(0.0, 6.0)
        out, prob = postselect_map(cfg, rho, 0.0, delta)
        u = superposed_unitary(cfg, delta)
        assert _trace_distance(out, u @ rho @ dagger(u)) < 1e-10
        assert is_density_matrix(out)


def test_postselection_probability_is_state_independent():
    rng = np.random.default_rng(55)
    cfg = planar(np.pi / 4, 2.0)
    delta = 1.3
    expected = 0.5 * norm_factor_sq(cfg, delta)
    for _ in range(10):
        _, prob = postselect_map(cfg, _random_density(rng), 0.0, delta)
        assert np.isclose(prob, expected, atol=1e-12)


def test_postselection_input_validation():
    cfg = planar(0.3, 1.0)
    with pytest.raises(ValueError):
        postselect_map(cfg, np.eye(2), 0.0, 1.0)  # trace 2
    with pytest.raises(ValueError):
        postselect_map(cfg, np.array([[0.5, 0.4], [0.1, 0.5]]), 0.0, 1.0)


def test_postselection_starves_at_norm_collapse():
    cfg = planar(np.pi / 4, np.pi - 1e-7)
    with pytest.raises(PostSelectionStarved):
        postselect_map(cfg, np.diag([1.0, 0.0]).astype(complex), 0.0, np.pi)


def test_channel_without_superposition_is_plain_rotation():
    # alpha = 0 leaves only the second branch
    rng = np.random.default_rng(4)
    cfg = planar(0.0, 1.0, omega=1.2)
    rho = _random_density(rng)
    out, prob = postselect_map(cfg, rho, 0.0, 2.0)
    u1 = rot(cfg.m_axis, 1.2 * 2.0)
    assert np.allclose(out, u1 @ rho @ dagger(u1), atol=1e-12)
    assert np.isclose(prob, 0.5, atol=1e-12)


def test_interferometer_identities():
    # coherences against the branch traces they are meant to encode
    rng = np.random.default_rng(33)
    for _ in range(50):
        cfg = _random_planar(rng)
        ti, tj = 0.0, rng.uniform(0.05, 6.0)
        sig = interferometer_signal(AncillaCircuit(cfg, ti, tj))
        norm = normalization_signal(AncillaCircuit(cfg, ti, tj, include_q_controls=False))

        plus, minus = u_tilde_pm(cfg, tj - ti)
        t_plus_direct = np.trace(SIGMA_Z @ plus @ SIGMA_Z @ (0.5 * dagger(plus))).real
        t_minus_direct = np.trace(SIGMA_Z @ minus @ SIGMA_Z @ (0.5 * dagger(minus))).real
        assert np.isclose(sig.t_plus, t_plus_direct, atol=1e-10)
        assert np.isclose(sig.t_minus, t_minus_direct, atol=1e-10)
        assert np.isclose(sig.re_cm, 0.25 * (sig.t_plus + sig.t_minus), atol=1e-12)
        assert np.isclose(norm.n_plus, norm_factor_sq(cfg, tj - ti), atol=1e-10)
        # the ratio of tagged to untagged runs is the two-time correlator
        assert np.isclose(sig.t_plus / norm.n_plus, correlator(cfg, ti, tj), atol=1e-10)


def test_normalization_run_at_right_angles():
    # axes at 90 degrees, half cycle: the branch norms coincide
    cfg = planar(np.pi / 4, np.pi / 2)
    norm = normalization_signal(AncillaCircuit(cfg, 0.0, np.pi, include_q_controls=False))
    assert np.isclose(norm.n_plus, 1.0, atol=1e-12)
    assert np.isclose(norm.n_minus, 1.0, atol=1e-12)


def test_signal_mode_guards():
    cfg = planar(0.4, 1.0)
    with pytest.raises(ValueError):
        interferometer_signal(AncillaCircuit(cfg, 0.0, 1.0, include_q_controls=False))
    with pytest.raises(ValueError):
        normalization_signal(AncillaCircuit(cfg, 0.0, 1.0))


def test_interferometer_without_superposition():
    cfg = planar(0.0, 1.0, omega=1.3)
    for t in (0.4, 1.1, 2.2):
        sig = interferometer_signal(AncillaCircuit(cfg, 0.0, t))
        norm = normalization_signal(AncillaCircuit(cfg, 0.0, t, include_q_controls=False))
        assert np.isclose(sig.t_plus / norm.n_plus, np.cos(1.3 * t), atol=1e-10)


def test_pulse_sequences_hit_their_targets():
    report = verify_pulse_sequences(np.linspace(0.2, np.pi - 0.2, 7),
                                    np.linspace(0.0, 2 * np.pi, 9))
    assert report.passed
    dists = report.max_distance()
    assert set(dists) == {"controlled_sz", "controlled_evolution_0",
                          "controlled_evolution_1"}
    assert max(dists.values()) < 1e-12
    assert [d.shape for d in report.distances.values()] == [(7, 9)] * 3


def test_pulse_sequence_matrices_are_unitary():
    for entry in build_pulse_library(2.2, 1.7):
        assert is_unitary(entry.sequence.matrix())
        assert is_unitary(entry.target)
        assert entry.sequence.matrix().shape == (4, 4)


def _per_point_matrix(sequence):
    """Oracle: the program at one grid point, one np.kron-embedded pulse at a time."""
    axes = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}
    u = np.eye(4, dtype=complex)
    for gate in sequence.gates:
        angle = float(gate.angle)
        if isinstance(gate, Rotation):
            single = rot(axes[gate.axis], angle)
            full = np.kron(single, ID2) if gate.qubit == 0 else np.kron(ID2, single)
        else:
            zz = np.kron(SIGMA_Z, SIGMA_Z)
            full = np.cos(angle / 2) * np.eye(4) - 1j * np.sin(angle / 2) * zz
        u = full @ u
    return u


def _per_point_targets(phi, omega_t):
    phi_axis = np.array([np.cos(phi), np.sin(phi), 0.0])
    return [np.kron(PROJ0, ID2) + np.kron(PROJ1, SIGMA_Z),
            np.kron(PROJ0, rot(X_AXIS, omega_t)) + np.kron(PROJ1, ID2),
            np.kron(PROJ0, ID2) + np.kron(PROJ1, rot(phi_axis, omega_t))]


_PHIS = st.lists(st.floats(0.0, np.pi), min_size=1, max_size=4)
_OMEGA_TS = st.lists(st.floats(-4 * np.pi, 4 * np.pi), min_size=1, max_size=4)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(phis=_PHIS, omega_ts=_OMEGA_TS)
@example(phis=[0.0, np.pi], omega_ts=[0.0, 2 * np.pi])
def test_batched_pulse_programs_match_per_point_oracle(phis, omega_ts):
    phi, omega_t = np.meshgrid(phis, omega_ts, indexing="ij")
    library = build_pulse_library(phi, omega_t)
    stacks = [np.broadcast_to(e.sequence.matrix(), phi.shape + (4, 4)) for e in library]
    targets = [np.broadcast_to(e.target, phi.shape + (4, 4)) for e in library]
    for i, j in np.ndindex(phi.shape):
        point = build_pulse_library(phis[i], omega_ts[j])
        expected_targets = _per_point_targets(phis[i], omega_ts[j])
        for k, entry in enumerate(point):
            assert entry.name == library[k].name
            assert np.abs(stacks[k][i, j] - _per_point_matrix(entry.sequence)).max() < 1e-14
            assert np.abs(targets[k][i, j] - expected_targets[k]).max() < 1e-14

    report = verify_pulse_sequences(phis, omega_ts)
    assert list(report.distances) == [e.name for e in library]
    assert all(d.shape == phi.shape and np.all(np.isfinite(d))
               for d in report.distances.values())


def test_pulse_targets_match_evolution_gates():
    # swapping the ancilla branches maps the hardware axis assignment onto
    # the controlled evolution gates used by the channel simulation
    phi, omega_t = 1.9, 2.3
    entries = {e.name: e.target for e in build_pulse_library(phi, omega_t)}
    product = entries["controlled_evolution_1"] @ entries["controlled_evolution_0"]
    flip = kron(SIGMA_X, ID2)
    cfg = planar(0.5, phi)  # the targets do not depend on the mixing angle
    direct = controlled_u_t1(cfg, 0.0, omega_t) @ controlled_u_t0(cfg, 0.0, omega_t)
    assert np.allclose(flip @ product @ flip, direct, atol=1e-12)


def test_verification_report_shape():
    report = verify_pulse_sequences([1.0], [0.5])
    assert report.tolerance == 1e-9
    assert report.passed is True
    assert set(report.max_distance()) == {"controlled_sz", "controlled_evolution_0",
                                          "controlled_evolution_1"}
    assert list(report.distances) == ["controlled_sz", "controlled_evolution_0",
                                      "controlled_evolution_1"]
    assert [d.shape for d in report.distances.values()] == [(1, 1)] * 3
    assert "controlled_sz" in report.summary()

    empty = verify_pulse_sequences([], [])
    assert [d.shape for d in empty.distances.values()] == [(0, 0)] * 3
    assert empty.max_distance() == {}
    assert empty.passed  # vacuous
    assert "nothing to verify" in empty.summary()
