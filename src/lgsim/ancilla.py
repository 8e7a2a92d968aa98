"""Circuit realization of the superposed rotation on an ancilla register.

The superposed rotation is produced physically by two controlled gates acting
on system S with ancilla A prepared in sin(alpha)|0> + cos(alpha)|1>:

    U_T0 = |0><0|_A (x) rot(n)  +  |1><1|_A (x) 1      (n branch on |0>)
    U_T1 = |0><0|_A (x) 1       +  |1><1|_A (x) rot(m)  (m branch on |1>)

Post-selecting A on |+> after U_T1 U_T0 maps rho to U rho U^dag with U the
normalized superposed rotation. A third qubit M turns the correlator into an
interferometric signal: M is prepared in |+>, controlled-sigma_z gates (M
controls S) tag the observable at the two times, and the real part of M's
coherence then reads (T+ + T-)/4 where

    T(+/-) = tr[sz W(+/-) sz (1/2) W(+/-)^dag],  W(+/-) = sin(a) U0 +/- cos(a) U1.

Register order is always M (x) A (x) S; two-qubit helpers are control (x)
target with the same relative order (A (x) S, M (x) S).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, X_AXIS, Y_AXIS, Z_AXIS, dagger,
                     dist_upto_phase, is_density_matrix, kron, rot)
from .superpose import SuperpositionConfig

POSTSELECT_FLOOR = 1e-12
VERIFY_TOL = 1e-9  # largest pulse-program distance from its target that passes

PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


class PostSelectionStarved(RuntimeError):
    """Post-selection probability fell below the numerical floor."""


def ancilla_state(alpha: float) -> np.ndarray:
    """Ancilla preparation sin(alpha)|0> + cos(alpha)|1>.

    The |0> branch drives the n-axis rotation, so its amplitude must be the
    sin(alpha) weight of that branch in the superposition. Produced in circuit
    form by a y rotation of angle pi - 2*alpha acting on |0>.
    """
    return np.array([np.sin(alpha), np.cos(alpha)], dtype=complex)


def controlled_u_t0(cfg: SuperpositionConfig, ti: float, tj: float) -> np.ndarray:
    """A (x) S gate applying the n-axis rotation over [ti, tj] on the A=|0> branch."""
    return kron(PROJ0, rot(cfg.n_axis, cfg.omega * (tj - ti))) + kron(PROJ1, ID2)


def controlled_u_t1(cfg: SuperpositionConfig, ti: float, tj: float) -> np.ndarray:
    """A (x) S gate applying the m-axis rotation over [ti, tj] on the A=|1> branch."""
    return kron(PROJ0, ID2) + kron(PROJ1, rot(cfg.m_axis, cfg.omega * (tj - ti)))


def u_tilde_pm(cfg: SuperpositionConfig, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized branch combinations sin(a) U0 +/- cos(a) U1.

    The + combination is exactly the unnormalized superposed rotation; the -
    one is what the orthogonal ancilla outcome prepares.
    """
    u0 = rot(cfg.n_axis, cfg.omega * delta)
    u1 = rot(cfg.m_axis, cfg.omega * delta)
    return (np.sin(cfg.alpha) * u0 + np.cos(cfg.alpha) * u1,
            np.sin(cfg.alpha) * u0 - np.cos(cfg.alpha) * u1)


def project_ancilla(rho_as: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<ket|_A rho_AS |ket>_A as an (unnormalized) system matrix."""
    r4 = rho_as.reshape(2, 2, 2, 2)
    return np.einsum("a,aibj,b->ij", ket.conj(), r4, ket)


def postselect_map(cfg: SuperpositionConfig, rho_s: np.ndarray,
                   ti: float, tj: float) -> tuple[np.ndarray, float]:
    """Ancilla-mediated channel: prepare, entangle, post-select A on |+>.

    Returns (rho_out, probability). rho_out equals the direct conjugation
    U rho U^dag by the normalized superposed rotation; the probability is
    state-independent, N^2 / 2.
    """
    rho_s = np.asarray(rho_s, dtype=complex)
    if not is_density_matrix(rho_s):
        raise ValueError("rho_s must be a 2x2 density matrix")
    anc = ancilla_state(cfg.alpha)
    rho_as = kron(np.outer(anc, anc.conj()), rho_s)
    gate = controlled_u_t1(cfg, ti, tj) @ controlled_u_t0(cfg, ti, tj)
    rho_as = gate @ rho_as @ dagger(gate)
    block = project_ancilla(rho_as, KET_PLUS)
    prob = float(np.trace(block).real)
    if prob < POSTSELECT_FLOOR:
        raise PostSelectionStarved(f"post-selection probability {prob!r} below floor")
    return block / prob, prob


@dataclass(frozen=True)
class AncillaCircuit:
    """One run of the three-qubit interferometric correlator circuit.

    include_q_controls=False drops both controlled-sigma_z gates, which turns
    the run into the normalization measurement of the same coherences.
    """

    cfg: SuperpositionConfig
    ti: float
    tj: float
    include_q_controls: bool = True


class InterferometerSignal(NamedTuple):
    t_plus: float
    t_minus: float
    re_cm: float


class NormalizationSignal(NamedTuple):
    n_plus: float
    n_minus: float


def _embed_m(op: np.ndarray) -> np.ndarray:
    return kron(op, kron(ID2, ID2))


def _embed_a(op: np.ndarray) -> np.ndarray:
    return kron(ID2, kron(op, ID2))


def _controlled_sz_ms() -> np.ndarray:
    """sigma_z on S when M = |1>, on the full M (x) A (x) S register."""
    return kron(PROJ0, kron(ID2, ID2)) + kron(PROJ1, kron(ID2, SIGMA_Z))


def _run_register(circuit: AncillaCircuit) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the 8-dim register; return M blocks for ancilla outcomes 0/1.

    Gate order: Hadamard on M and the preparation rotation on A, the first
    observable tag (controlled-sigma_z, M controls S), the two controlled
    evolution gates, the second tag, and a final Hadamard on A so that the
    |+>/|-> ancilla outcomes land on |0>/|1>. M's coherence is read directly.
    """
    cfg = circuit.cfg
    rho = kron(PROJ0, kron(PROJ0, 0.5 * ID2))
    gates = [_embed_m(HADAMARD), _embed_a(rot(np.array([0.0, 1.0, 0.0]), np.pi - 2.0 * cfg.alpha))]
    if circuit.include_q_controls:
        gates.append(_controlled_sz_ms())
    evolution = controlled_u_t1(cfg, circuit.ti, circuit.tj) @ controlled_u_t0(cfg, circuit.ti, circuit.tj)
    gates.append(kron(ID2, evolution))
    if circuit.include_q_controls:
        gates.append(_controlled_sz_ms())
    gates.append(_embed_a(HADAMARD))
    for g in gates:
        rho = g @ rho @ dagger(g)
    r6 = rho.reshape(2, 2, 2, 2, 2, 2)
    block0 = np.einsum("msns->mn", r6[:, 0, :, :, 0, :])
    block1 = np.einsum("msns->mn", r6[:, 1, :, :, 1, :])
    return block0, block1


def _coherence(block: np.ndarray) -> float:
    return float(np.trace(SIGMA_X @ block).real)


def interferometer_signal(circuit: AncillaCircuit) -> InterferometerSignal:
    """Coherence readout of the tagged circuit.

    t_plus and t_minus are the per-ancilla-outcome coherences scaled to match
    tr[sz W(+/-) sz (1/2) W(+/-)^dag]; re_cm = (coherence of the full M state)/2
    equals (t_plus + t_minus)/4. Dividing t_plus by the normalization run's
    n_plus reproduces the two-time correlator.
    """
    if not circuit.include_q_controls:
        raise ValueError("interferometer_signal needs the observable tags enabled")
    block0, block1 = _run_register(circuit)
    t_plus = 2.0 * _coherence(block0)
    t_minus = 2.0 * _coherence(block1)
    re_cm = 0.5 * _coherence(block0 + block1)
    return InterferometerSignal(t_plus=t_plus, t_minus=t_minus, re_cm=re_cm)


def normalization_signal(circuit: AncillaCircuit) -> NormalizationSignal:
    """Same circuit with the observable tags off; yields the branch norms.

    n_plus equals the squared norm factor N^2 of the superposed rotation.
    """
    if circuit.include_q_controls:
        raise ValueError("normalization_signal needs include_q_controls=False")
    block0, block1 = _run_register(circuit)
    return NormalizationSignal(n_plus=2.0 * _coherence(block0),
                               n_minus=2.0 * _coherence(block1))


# --- pulse-level decompositions -------------------------------------------

@dataclass(frozen=True)
class Rotation:
    """Single-qubit pulse exp(-i sigma_axis angle / 2) on one register qubit."""

    qubit: int
    axis: str
    angle: float


@dataclass(frozen=True)
class Coupling:
    """Two-qubit zz evolution exp(-i sigma_z (x) sigma_z angle / 2)."""

    angle: float


_AXIS_VECTORS = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered pulse program on a control (x) target two-qubit register."""

    name: str
    gates: tuple

    def matrix(self) -> np.ndarray:
        """The program's unitary, of shape ``G + (4, 4)`` for gate angles of shape ``G``."""
        u = np.eye(4, dtype=complex)
        for gate in self.gates:
            if isinstance(gate, Rotation):
                single = rot(_AXIS_VECTORS[gate.axis], gate.angle)
                full = kron(single, ID2) if gate.qubit == 0 else kron(ID2, single)
            else:
                half = 0.5 * np.asarray(gate.angle, dtype=float)[..., None, None]
                full = np.cos(half) * np.eye(4) - 1j * np.sin(half) * kron(SIGMA_Z, SIGMA_Z)
            u = full @ u
        return u


@dataclass(frozen=True)
class LibraryEntry:
    """A pulse sequence paired with the controlled gate it must realize."""

    name: str
    sequence: PulseSequence
    target: np.ndarray


def build_pulse_library(phi, omega_t) -> list[LibraryEntry]:
    """Pulse programs for the three controlled gates of the interferometer.

    Register is control (x) S (control = M for the observable tag, A for the
    evolution gates). The zz-coupling realization of controlled-sigma_z picks
    up a control-local z phase, cancelled here by an explicit final z rotation
    on the control (hardware absorbs it into the rotating-frame bookkeeping).
    The hardware-native axis assignment routes the x-axis rotation through the
    A=|0> branch and the phi-axis one through A=|1>.

    phi and omega_t may be arrays of one shape G (a grid); matrices and
    targets are then stacks of shape G + (4, 4), controlled-sigma_z's (4, 4).
    """
    qc, qs = 0, 1  # control and system positions in the sequence register
    phi = np.asarray(phi, dtype=float)
    omega_t = np.asarray(omega_t, dtype=float)

    cz_seq = PulseSequence("controlled_sz", (
        Rotation(qc, "z", -np.pi / 2),
        Coupling(np.pi / 2),
        Rotation(qs, "y", -np.pi / 2),
        Rotation(qs, "x", np.pi / 2),
        Rotation(qs, "y", np.pi / 2),
    ))
    cz_target = kron(PROJ0, ID2) + kron(PROJ1, SIGMA_Z)

    t0_seq = PulseSequence("controlled_evolution_0", (
        Rotation(qs, "y", -np.pi / 2),
        Coupling(omega_t / 2),
        Rotation(qs, "y", np.pi / 2),
        Rotation(qs, "x", omega_t / 2),
    ))
    t1_seq = PulseSequence("controlled_evolution_1", (
        Rotation(qs, "y", -np.pi / 2),
        Rotation(qs, "x", phi - np.pi),
        Coupling(omega_t / 2),
        Rotation(qs, "y", np.pi / 2),
        Rotation(qs, "x", (np.pi - omega_t) / 2),
        Rotation(qs, "y", np.pi - phi),
        Rotation(qs, "x", -np.pi / 2),
    ))
    # Targets depend only on the branch axes, never on the mixing angle.
    # rot about the phi axis, written out because that axis varies over the grid
    half = 0.5 * omega_t[..., None, None]
    phi_spin = np.cos(phi)[..., None, None] * SIGMA_X + np.sin(phi)[..., None, None] * SIGMA_Y
    t0_target = kron(PROJ0, rot(X_AXIS, omega_t)) + kron(PROJ1, ID2)
    t1_target = kron(PROJ0, ID2) + kron(PROJ1, np.cos(half) * ID2 - 1j * np.sin(half) * phi_spin)

    return [LibraryEntry("controlled_sz", cz_seq, cz_target),
            LibraryEntry("controlled_evolution_0", t0_seq, t0_target),
            LibraryEntry("controlled_evolution_1", t1_seq, t1_target)]


@dataclass(frozen=True)
class VerificationReport:
    """Sequence-vs-target distances: program name -> (len(phi), len(omega_t)) array."""

    distances: dict
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(np.all(d < self.tolerance) for d in self.distances.values())

    def max_distance(self) -> dict[str, float]:
        return {name: float(d.max()) for name, d in self.distances.items() if d.size}

    def summary(self) -> str:
        lines = [f"{'sequence':<24} {'max distance':>14} {'tolerance':>11} {'status':>8}"]
        dists = self.max_distance()
        for name, dist in dists.items():
            status = "ok" if dist < self.tolerance else "FAIL"
            lines.append(f"{name:<24} {dist:>14.3e} {self.tolerance:>11.0e} {status:>8}")
        if not dists:
            lines.append("(empty grid: nothing to verify)")
        return "\n".join(lines)


def verify_pulse_sequences(phi_values, omega_t_values) -> VerificationReport:
    """Check every pulse program against its target over a parameter grid, as one batch."""
    phi, omega_t = np.meshgrid(np.asarray(phi_values, dtype=float),
                               np.asarray(omega_t_values, dtype=float), indexing="ij")
    library = build_pulse_library(phi, omega_t)
    return VerificationReport(
        distances={e.name: np.broadcast_to(dist_upto_phase(e.sequence.matrix(), e.target),
                                           phi.shape) for e in library},
        tolerance=VERIFY_TOL)
