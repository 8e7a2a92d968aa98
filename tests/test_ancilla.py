"""Ancilla-mediated channel, interferometric readout, and pulse programs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lgsim import ancilla
from lgsim.ancilla import (
    HADAMARD,
    KET_PLUS,
    PROJ0,
    PROJ1,
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
from lgsim.superpose import (SuperpositionConfig, norm_factor_sq, planar, superposed_unitary,
                             unnormalized_superposed)


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
        sig = interferometer_signal(cfg, ti, tj)
        norm = normalization_signal(cfg, ti, tj)

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
    norm = normalization_signal(cfg, 0.0, np.pi)
    assert np.isclose(norm.n_plus, 1.0, atol=1e-12)
    assert np.isclose(norm.n_minus, 1.0, atol=1e-12)


def test_interferometer_without_superposition():
    cfg = planar(0.0, 1.0, omega=1.3)
    for t in (0.4, 1.1, 2.2):
        sig = interferometer_signal(cfg, 0.0, t)
        norm = normalization_signal(cfg, 0.0, t)
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
    for seq, target in build_pulse_library(2.2, 1.7):
        assert is_unitary(seq.matrix())
        assert is_unitary(target)
        assert seq.matrix().shape == (4, 4)


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
    stacks = [np.broadcast_to(seq.matrix(), phi.shape + (4, 4)) for seq, _ in library]
    targets = [np.broadcast_to(target, phi.shape + (4, 4)) for _, target in library]
    for i, j in np.ndindex(phi.shape):
        point = build_pulse_library(phis[i], omega_ts[j])
        expected_targets = _per_point_targets(phis[i], omega_ts[j])
        for k, (seq, _) in enumerate(point):
            assert seq.name == library[k][0].name
            assert np.abs(stacks[k][i, j] - _per_point_matrix(seq)).max() < 1e-14
            assert np.abs(targets[k][i, j] - expected_targets[k]).max() < 1e-14

    report = verify_pulse_sequences(phis, omega_ts)
    assert list(report.distances) == [seq.name for seq, _ in library]
    assert all(d.shape == phi.shape and np.all(np.isfinite(d))
               for d in report.distances.values())


def test_pulse_targets_match_evolution_gates():
    # swapping the ancilla branches maps the hardware axis assignment onto
    # the controlled evolution gates used by the channel simulation
    phi, omega_t = 1.9, 2.3
    entries = {seq.name: target for seq, target in build_pulse_library(phi, omega_t)}
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


# --- the replaced forms, kept as oracles ------------------------------------

def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(_bits(a), _bits(b)), (a, b)


def _signed_zero_cfgs():
    """Configurations whose axes have signed-zero components, and random ones."""
    axes = [np.array(v) for v in ([0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [-1.0, 0.0, -0.0],
                                  [0.6, -0.0, 0.8], [-0.0, -0.8, 0.6], [0.0, 1.0, -0.0])]
    cfgs = [SuperpositionConfig(alpha=0.4, n_axis=n, m_axis=m, omega=1.3)
            for n in axes for m in axes if float(n @ m) > -1.0]
    rng = np.random.default_rng(41)
    return cfgs + [_random_planar(rng) for _ in range(20)]


_DELAYS = [(0.0, 0.0), (0.7, 0.7), (-0.0, 0.0), (0.0, 0.9), (0.0, 4.5), (2.0, 0.3), (0.0, 1e-320)]


def test_controlled_gates_are_bitwise_their_kron_sums():
    for cfg in _signed_zero_cfgs():
        for ti, tj in _DELAYS:
            angle = cfg.omega * (tj - ti)
            _assert_bitwise(controlled_u_t0(cfg, ti, tj),
                            kron(PROJ0, rot(cfg.n_axis, angle)) + kron(PROJ1, ID2))
            _assert_bitwise(controlled_u_t1(cfg, ti, tj),
                            kron(PROJ0, ID2) + kron(PROJ1, rot(cfg.m_axis, angle)))


def test_register_constants_are_bitwise_their_kron_forms():
    _assert_bitwise(ancilla._HADAMARD_M, kron(HADAMARD, kron(ID2, ID2)))
    _assert_bitwise(ancilla._HADAMARD_A, kron(ID2, kron(HADAMARD, ID2)))
    _assert_bitwise(ancilla._CONTROLLED_SZ_MS,
                    kron(PROJ0, kron(ID2, ID2)) + kron(PROJ1, kron(ID2, SIGMA_Z)))
    h_m = kron(HADAMARD, kron(ID2, ID2))
    _assert_bitwise(ancilla._RHO_M_PLUS,
                    h_m @ kron(PROJ0, kron(PROJ0, 0.5 * ID2)) @ dagger(h_m))
    _assert_bitwise(Y_AXIS, np.array([0.0, 1.0, 0.0]))


def _project_oracle(rho_as, ket):
    return np.einsum("a,aibj,b->ij", ket.conj(), rho_as.reshape(2, 2, 2, 2), ket)


def _register_oracle(cfg, ti, tj, tagged):
    """The register as first written: every gate built by kron, traces by einsum."""
    csz = kron(PROJ0, kron(ID2, ID2)) + kron(PROJ1, kron(ID2, SIGMA_Z))
    rho = kron(PROJ0, kron(PROJ0, 0.5 * ID2))
    gates = [kron(HADAMARD, kron(ID2, ID2)),
             kron(ID2, kron(rot(np.array([0.0, 1.0, 0.0]), np.pi - 2.0 * cfg.alpha), ID2))]
    if tagged:
        gates.append(csz)
    gates.append(kron(ID2, controlled_u_t1(cfg, ti, tj) @ controlled_u_t0(cfg, ti, tj)))
    if tagged:
        gates.append(csz)
    gates.append(kron(ID2, kron(HADAMARD, ID2)))
    for g in gates:
        rho = g @ rho @ dagger(g)
    r6 = rho.reshape(2, 2, 2, 2, 2, 2)
    return (np.einsum("msns->mn", r6[:, 0, :, :, 0, :]),
            np.einsum("msns->mn", r6[:, 1, :, :, 1, :]))


def test_projection_and_partial_traces_match_their_einsum_forms():
    rng = np.random.default_rng(43)
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho_as = a @ a.conj().T
        rho_as /= np.trace(rho_as).real
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        for k in (KET_PLUS, ket / np.linalg.norm(ket)):
            assert np.abs(project_ancilla(rho_as, k) - _project_oracle(rho_as, k)).max() < 1e-15
    for cfg in _signed_zero_cfgs():
        for ti, tj in _DELAYS:
            for tags in (True, False):
                for block, expect in zip(ancilla._run_register(cfg, ti, tj, tags),
                                         _register_oracle(cfg, ti, tj, tags)):
                    assert np.abs(block - expect).max() < 1e-15


def test_postselect_map_matches_its_kron_route():
    rng = np.random.default_rng(47)
    for cfg in _signed_zero_cfgs()[-10:]:
        rho = _random_density(rng)
        delta = rng.uniform(0.1, 5.0)
        anc = ancilla_state(cfg.alpha)
        gate = controlled_u_t1(cfg, 0.0, delta) @ controlled_u_t0(cfg, 0.0, delta)
        rho_as = gate @ kron(np.outer(anc, anc.conj()), rho) @ dagger(gate)
        block = _project_oracle(rho_as, KET_PLUS)
        out, prob = postselect_map(cfg, rho, 0.0, delta)
        assert abs(prob - np.trace(block).real) < 1e-15
        assert np.abs(out - block / np.trace(block).real).max() < 1e-15


def test_shared_constants_are_read_only():
    from lgsim import linalg, noise
    constants = [linalg.ID2, linalg.SIGMA_X, linalg.SIGMA_Y, linalg.SIGMA_Z, linalg.X_AXIS,
                 linalg.Y_AXIS, linalg.Z_AXIS, PROJ0, PROJ1, HADAMARD, KET_PLUS,
                 ancilla._HADAMARD_M, ancilla._HADAMARD_A, ancilla._CONTROLLED_SZ_MS,
                 ancilla._RHO_M_PLUS, *noise._DEPHASERS]
    for c in constants:
        with pytest.raises(ValueError, match="read-only"):
            c[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            c += 1.0
    # the axis check hands an axis constant back as itself, still read-only
    assert linalg.as_unit_vector(linalg.Y_AXIS) is linalg.Y_AXIS


# --- stacks against one-config calls ----------------------------------------

def _general_cfgs(rng, k):
    cfgs = []
    while len(cfgs) < k:
        n, m = rng.normal(size=3), rng.normal(size=3)
        n, m = n / np.linalg.norm(n), m / np.linalg.norm(m)
        if float(n @ m) > -0.99:
            cfgs.append(SuperpositionConfig(alpha=rng.uniform(0.0, np.pi / 2), n_axis=n,
                                            m_axis=m, omega=rng.uniform(0.2, 3.0)))
    return cfgs


def _within(a, b, tol=1e-15):
    return np.shape(a) == np.shape(b) and np.abs(np.asarray(a) - np.asarray(b)).max() <= tol


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6), general=st.booleans())
def test_postselect_map_on_stacked_pairs_is_each_pair_alone(seed, k, general):
    rng = np.random.default_rng(seed)
    cfgs = _general_cfgs(rng, k) if general else [_random_planar(rng) for _ in range(k)]
    rhos = np.array([_random_density(rng) for _ in range(k)])
    ti, tj = rng.uniform(0.0, 1.0, size=k), rng.uniform(1.0, 6.0, size=k)
    out, prob = postselect_map(cfgs, rhos, ti, tj)
    assert out.shape == (k, 2, 2) and prob.shape == (k,)
    for i in range(k):
        one_out, one_prob = postselect_map(cfgs[i], rhos[i], ti[i], tj[i])
        assert type(one_prob) is float
        assert _within(out[i], one_out) and _within(prob[i], one_prob)
    # every config against three states, as selftest draws them
    states = np.array([[_random_density(rng) for _ in range(3)] for _ in range(k)])
    out, prob = postselect_map(np.array(cfgs, dtype=object)[:, None], states, 0.0, tj[:, None])
    assert out.shape == (k, 3, 2, 2) and prob.shape == (k, 3)
    for i in range(k):
        for j in range(3):
            one_out, one_prob = postselect_map(cfgs[i], states[i, j], 0.0, tj[i])
            assert _within(out[i, j], one_out) and _within(prob[i, j], one_prob)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6))
def test_register_runs_on_a_stack_are_each_circuit_alone(seed, k):
    rng = np.random.default_rng(seed)
    cfgs = [_random_planar(rng) for _ in range(k)]
    deltas = rng.uniform(0.1, 5.0, size=k)
    sig = interferometer_signal(cfgs, 0.0, deltas)
    norm = normalization_signal(cfgs, 0.0, deltas)
    for i in range(k):
        one = interferometer_signal(cfgs[i], 0.0, deltas[i])
        one_norm = normalization_signal(cfgs[i], 0.0, deltas[i])
        assert all(type(v) is float for v in one + one_norm)
        assert all(_within(a[i], b) for a, b in zip(sig + norm, one + one_norm))


def test_gates_and_projections_on_stacks_are_bitwise_each_alone():
    rng = np.random.default_rng(59)
    cfgs = _signed_zero_cfgs()
    ti, tj = rng.uniform(-1.0, 1.0, size=len(cfgs)), rng.uniform(0.0, 5.0, size=len(cfgs))
    for func in (controlled_u_t0, controlled_u_t1, ancilla._evolution):
        _assert_bitwise(func(cfgs, ti, tj),
                        np.array([func(c, a, b) for c, a, b in zip(cfgs, ti, tj)]))
    plus, minus = u_tilde_pm(cfgs, tj)
    for c, t, p, m in zip(cfgs, tj, plus, minus):
        one_p, one_m = u_tilde_pm(c, t)
        _assert_bitwise(p, one_p)
        _assert_bitwise(m, one_m)
        _assert_bitwise(p, unnormalized_superposed(c, t))
    alphas = rng.uniform(0.0, np.pi / 2, size=(2, 3))
    _assert_bitwise(ancilla_state(alphas),
                    np.array([[ancilla_state(a) for a in row] for row in alphas]))
    a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    _assert_bitwise(project_ancilla(a, KET_PLUS),
                    np.array([project_ancilla(r, KET_PLUS) for r in a]))
