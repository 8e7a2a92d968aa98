"""Acceptance suite: the headline results of the library, one test per
criterion, each at its stated tolerance and printing one PASS/FAIL line.

Criterion 3 carries a frozen anchor (2.49 +/- 0.01 for the equal-weight
135-degree maximum) that two independent dense-grid scans place at 2.503004;
the assertion keeps the anchor verbatim and is therefore expected to fail.
"""

import time

import numpy as np
from scipy.linalg import expm

from lgsim.ancilla import (
    ancilla_state,
    interferometer_signal,
    normalization_signal,
    postselect_map,
    verify_pulse_sequences,
)
from lgsim.lgi import correlator, k3_at, k3_max, ttb_map
from lgsim.linalg import dagger, dist_upto_phase, kron
from lgsim.noise import (
    DEFAULT_ALPHA_GRID,
    NoiseConfig,
    evolve_lindblad,
    gain_curve,
    k3_bloch,
    liouvillian,
    noisy_correlator,
)
from lgsim.superpose import f_of_t, planar, soe, soe_span, superposed_unitary


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_criterion_01_temporal_bound():
    start = time.perf_counter()
    etas = np.linspace(0.0, np.pi, 51)
    xis = np.linspace(0.0, 2 * np.pi, 50, endpoint=False)
    k3m, _ = ttb_map(etas, xis)
    elapsed = time.perf_counter() - start
    peak = float(k3m.max())
    i, _ = np.unravel_index(int(np.argmax(k3m)), k3m.shape)
    ok = (abs(peak - 1.5) < 1e-4
          and np.isclose(etas[i], np.pi / 2)
          and peak <= 1.5 + 1e-9
          and elapsed < 60.0)
    _report("criterion 1 (single-rotation temporal bound)", ok,
            f"max K3 = {peak!r} at eta = {float(etas[i])!r}, {elapsed:.1f} s")
    assert ok


def test_criterion_02_maximum_grows_with_mixing_weight():
    start = time.perf_counter()
    alphas = (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4)
    min_step = np.inf
    top = {}
    for deg in (90.0, 135.0, 165.0):
        vals = [k3_max(planar(a, np.deg2rad(deg)))[0] for a in alphas]
        min_step = min(min_step, float(np.diff(vals).min()))
        top[deg] = vals[-1]
    elapsed = time.perf_counter() - start
    ok = (min_step >= -1e-9
          and all(v > 1.5 for v in top.values())
          and elapsed < 30.0)
    _report("criterion 2 (maximum grows with the mixing weight)", ok,
            f"min increment = {min_step:.3e}, "
            f"equal-weight maxima = {[round(v, 4) for v in top.values()]}, "
            f"{elapsed:.1f} s")
    assert ok


def test_criterion_03_approach_to_algebraic_maximum():
    degs = (90.0, 135.0, 160.0, 175.0)
    vals = {d: k3_max(planar(np.pi / 4, np.deg2rad(d)))[0] for d in degs}
    monotone = bool(np.all(np.diff([vals[d] for d in degs]) >= -1e-9))
    near_three = vals[175.0] >= 2.9
    anchors = {90.0: 1.84, 135.0: 2.49, 160.0: 2.88}
    hits = {d: abs(vals[d] - ref) <= 0.01 for d, ref in anchors.items()}
    ok = monotone and near_three and all(hits.values())
    detail = (f"k3max(175 deg) = {vals[175.0]:.6f}, " +
              ", ".join(f"{d:g} deg: {vals[d]:.6f} vs {anchors[d]} +/- 0.01"
                        f" [{'ok' if hits[d] else 'MISS'}]" for d in anchors))
    _report("criterion 3 (approach to the algebraic maximum)", ok, detail)
    # the 135-degree anchor sits 0.013 from the dense-scan value 2.503004,
    # outside its own window; kept verbatim, so this assertion fails
    assert ok, detail


def test_criterion_04_postselection_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        cfg = planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, np.pi - 0.05),
                     omega=rng.uniform(0.5, 2.0))
        rho = _random_density(rng)
        delta = rng.uniform(0.0, 6.0)
        out, _ = postselect_map(cfg, rho, 0.0, delta)
        u = superposed_unitary(cfg, delta)
        diff = out - u @ rho @ dagger(u)
        worst = max(worst, 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
    ok = worst < 1e-10
    _report("criterion 4 (post-selected channel equals direct conjugation)", ok,
            f"max trace distance = {worst:.3e} over 100 samples")
    assert ok


def test_criterion_05_interferometer_identity():
    rng = np.random.default_rng(404)
    worst_sum = 0.0
    worst_corr = 0.0
    for _ in range(50):
        cfg = planar(rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, np.pi - 0.05),
                     omega=rng.uniform(0.5, 2.0))
        tj = rng.uniform(0.05, 6.0)
        sig = interferometer_signal(cfg, 0.0, tj)
        norm = normalization_signal(cfg, 0.0, tj)
        worst_sum = max(worst_sum, abs(sig.re_cm - 0.25 * (sig.t_plus + sig.t_minus)))
        worst_corr = max(worst_corr, abs(sig.t_plus / norm.n_plus - correlator(cfg, 0.0, tj)))
    ok = worst_sum < 1e-10 and worst_corr < 1e-10
    _report("criterion 5 (interferometric coherence readout)", ok,
            f"max |Re C_M - (T+ + T-)/4| = {worst_sum:.3e}, "
            f"max correlator mismatch = {worst_corr:.3e} over 50 samples")
    assert ok


def test_criterion_06_pulse_sequence_verification():
    start = time.perf_counter()
    report = verify_pulse_sequences(np.linspace(0.0, np.pi, 21),
                                    np.linspace(0.0, 2 * np.pi, 21))
    elapsed = time.perf_counter() - start
    dists = report.max_distance()
    ok = report.passed and max(dists.values()) < 1e-9 and elapsed < 10.0
    _report("criterion 6 (pulse programs match their gates)", ok,
            f"max distances = { {k: f'{v:.1e}' for k, v in dists.items()} }, "
            f"{elapsed:.1f} s")
    assert ok


def test_criterion_07_speed_of_evolution():
    rng = np.random.default_rng(7)
    h = 1e-5
    worst_rel = 0.0
    for _ in range(100):
        cfg = planar(rng.uniform(0.0, np.pi / 4), rng.uniform(0.0, np.pi - 0.1))
        t = rng.uniform(0.05, 10.0)
        fd = (f_of_t(cfg, t + h) - f_of_t(cfg, t - h)) / (2 * h)
        worst_rel = max(worst_rel, abs(fd - soe(cfg, t)) / abs(soe(cfg, t)))
    exact_at_zero = all(soe(planar(0.0, phi), t) == 1.0
                        for phi in (0.5, 1.5, 2.5) for t in (0.0, 1.0, 4.0))
    spans_ok = True
    for deg in (90.0, 135.0, 165.0):
        spans = [soe_span(planar(a, np.deg2rad(deg)))
                 for a in np.linspace(0.0, np.pi / 4, 9)]
        spans_ok = spans_ok and bool(np.all(np.diff(spans) >= 0.0))
    ok = worst_rel < 1e-5 and exact_at_zero and spans_ok
    _report("criterion 7 (speed of evolution)", ok,
            f"max relative derivative error = {worst_rel:.3e}, "
            f"exact rate at zero weight = {exact_at_zero}, "
            f"span monotone in weight = {spans_ok}")
    assert ok


def test_criterion_08_noise_model_consistency():
    cfg = planar(np.pi / 4, 2.0)
    quiet = NoiseConfig(gamma=0.0)
    worst_quiet = 0.0
    for t in (0.4, 0.9, 1.7, 2.6):
        reference = k3_at(cfg, t)[2]
        worst_quiet = max(worst_quiet, abs(k3_bloch(cfg, quiet, t) - reference))
        joint = 2.0 * noisy_correlator(cfg, quiet, 0.0, t) \
            - noisy_correlator(cfg, quiet, 0.0, 2.0 * t)
        worst_quiet = max(worst_quiet, abs(joint - reference))

    rng = np.random.default_rng(88)
    noise = NoiseConfig(gamma=0.25)
    worst_exp = 0.0
    worst_trace = 0.0
    worst_neg = 0.0
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0 = a @ a.conj().T
        rho0 /= np.trace(rho0).real
        t = rng.uniform(0.3, 3.0)
        propagated = evolve_lindblad(rho0, cfg, noise, t)
        exact = (expm(liouvillian(cfg, noise) * t) @ rho0.ravel()).reshape(4, 4)
        worst_exp = max(worst_exp, float(np.abs(propagated - exact).max()))
        worst_trace = max(worst_trace, abs(np.trace(propagated).real - 1.0))
        worst_neg = max(worst_neg, max(0.0, -float(np.linalg.eigvalsh(propagated).min())))
    ok = (worst_quiet < 1e-6 and worst_exp < 1e-8
          and worst_trace < 1e-10 and worst_neg < 1e-10)
    _report("criterion 8 (noise models agree)", ok,
            f"noiseless route spread = {worst_quiet:.3e}, "
            f"propagator vs exact = {worst_exp:.3e}, "
            f"trace drift = {worst_trace:.3e}, negativity = {worst_neg:.3e}")
    assert ok


def test_criterion_09_robustness_gain():
    start = time.perf_counter()
    noise = NoiseConfig(gamma=1.0 / (4.0 * np.pi))
    ok = True
    details = []
    gain_at_115 = None
    for deg in (90.0, 115.0, 140.0):
        _, bloch, status = gain_curve(np.deg2rad(deg), noise, DEFAULT_ALPHA_GRID, model="bloch")
        gains = bloch.tolist()
        ok = ok and all(s == "ok" for s in status)
        ok = ok and all(g >= 1.0 - 1e-6 for g in gains)
        ok = ok and bool(np.all(np.diff(gains) >= -1e-6))
        if deg == 115.0:
            gain_at_115 = gains[-1]
            ok = ok and gains[-1] > 1.1
        _, lind, status = gain_curve(np.deg2rad(deg), noise, DEFAULT_ALPHA_GRID, model="lindblad")
        ok = ok and all(s == "ok" and g >= 1.0 - 1e-6 for s, g in zip(status, lind))
        details.append(f"{deg:g} deg: bloch {gains[-1]:.4f}, lindblad {lind[-1]:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report("criterion 9 (lifetime gain under dephasing)", ok,
            f"equal-weight gains [{'; '.join(details)}], "
            f"gain(pi/4, 115 deg) = {gain_at_115:.4f}, {elapsed:.1f} s")
    assert ok


def test_criterion_10_composition_law_violation():
    cfg = planar(np.pi / 8, np.pi / 2)
    whole = superposed_unitary(cfg, 2.0)
    split = superposed_unitary(cfg, 1.0) @ superposed_unitary(cfg, 1.0)
    broken = dist_upto_phase(whole, split)

    base = planar(0.0, np.pi / 2)
    whole0 = superposed_unitary(base, 2.0)
    split0 = superposed_unitary(base, 1.0) @ superposed_unitary(base, 1.0)
    intact = dist_upto_phase(whole0, split0)

    ok = broken > 1e-3 and intact < 1e-12
    _report("criterion 10 (composition law broken by superposition)", ok,
            f"superposed distance = {broken:.3e}, single-rotation distance = {intact:.3e}")
    assert ok
