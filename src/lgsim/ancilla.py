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

interferometer_signal(cfg, ti, tj) reads the tagged run and
normalization_signal(cfg, ti, tj) the same run without the tags.
build_pulse_library gives (PulseSequence, target) pairs, and
verify_pulse_sequences maps each PulseSequence.name to its distances from the
target over a grid. One builder, _block_diagonal, fills every gate that is
block-diagonal in its control: U_T0, U_T1, the pulse targets, controlled-sigma_z.
A program is multiplied out pulse by pulse with kron, independently of its target.

Register order is always M (x) A (x) S; two-qubit helpers are control (x)
target with the same relative order (A (x) S, M (x) S). A config is a batch, as
in superpose, and wherever a function takes an alpha, a time or a state, it takes
a stack of them; batch and stacks broadcast against each other in front of the
matrix axes. The module constants, PROJ0, PROJ1, HADAMARD, KET_PLUS and the register's
fixed gates and initial state, are shared read-only arrays, built once at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, X_AXIS, Y_AXIS, Z_AXIS, _frozen, dagger,
                     dist_upto_phase, is_density_matrix, kron, rot)
from .superpose import SuperpositionConfig, _branches

POSTSELECT_FLOOR = 1e-12
VERIFY_TOL = 1e-9  # largest pulse-program distance from its target that passes

PROJ0 = _frozen(np.array([[1, 0], [0, 0]], dtype=complex))
PROJ1 = _frozen(np.array([[0, 0], [0, 1]], dtype=complex))
HADAMARD = _frozen(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
KET_PLUS = _frozen(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))


class PostSelectionStarved(RuntimeError):
    """Post-selection probability fell below the numerical floor."""


def ancilla_state(alpha: float) -> np.ndarray:
    """Ancilla preparation sin(alpha)|0> + cos(alpha)|1>.

    The |0> branch drives the n-axis rotation, so its amplitude must be the
    sin(alpha) weight of that branch in the superposition. Produced in circuit
    form by a y rotation of angle pi - 2*alpha acting on |0>.
    """
    return np.stack((np.sin(alpha), np.cos(alpha)), axis=-1).astype(complex)


def _block_diagonal(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """kron(PROJ0, u0) + kron(PROJ1, u1) for square blocks (or stacks), filled block by block."""
    n = u0.shape[-1]
    out = np.zeros(np.broadcast_shapes(u0.shape, u1.shape)[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = u0
    out[..., n:, n:] = u1
    out += 0.0  # a -0.0 entry becomes 0.0, as in the sum of the two krons
    return out


def controlled_u_t0(cfg: SuperpositionConfig, ti: float, tj: float) -> np.ndarray:
    """A (x) S gate applying the n-axis rotation over [ti, tj] on the A=|0> branch."""
    return _block_diagonal(_branches(cfg, np.asarray(tj, dtype=float) - ti)[2], ID2)


def controlled_u_t1(cfg: SuperpositionConfig, ti: float, tj: float) -> np.ndarray:
    """A (x) S gate applying the m-axis rotation over [ti, tj] on the A=|1> branch."""
    return _block_diagonal(ID2, _branches(cfg, np.asarray(tj, dtype=float) - ti)[3])


def _evolution(cfg: SuperpositionConfig, ti: float, tj: float) -> np.ndarray:
    """U_T1 U_T0, filled as its two blocks: the n rotation on A=|0>, the m one on A=|1>."""
    return _block_diagonal(*_branches(cfg, np.asarray(tj, dtype=float) - ti)[2:])


def project_ancilla(rho_as: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """<ket|_A rho_AS |ket>_A as an (unnormalized) system matrix."""
    # rho[a, i, b, j] as [i, j, a, b]: contract b with ket, then a with conj(ket)
    r = rho_as.reshape(rho_as.shape[:-2] + (2, 2, 2, 2))
    return np.moveaxis(r, (-3, -1), (-4, -3)) @ ket @ ket.conj()


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
    rho_as = kron(anc[..., :, None] * anc.conj()[..., None, :], rho_s)
    gate = _evolution(cfg, ti, tj)
    rho_as = gate @ rho_as @ dagger(gate)
    block = project_ancilla(rho_as, KET_PLUS)
    prob = (block[..., 0, 0] + block[..., 1, 1]).real  # the trace
    if np.count_nonzero(prob < POSTSELECT_FLOOR):
        raise PostSelectionStarved(f"post-selection probability {float(prob.min())!r} below floor")
    return block / prob[..., None, None], (prob if prob.shape else float(prob))


class InterferometerSignal(NamedTuple):
    t_plus: float
    t_minus: float
    re_cm: float


class NormalizationSignal(NamedTuple):
    n_plus: float
    n_minus: float


# the register's fixed gates, on M (x) A (x) S: Hadamard on M, Hadamard on A, and
# sigma_z on S when M = |1>; and its state after the first gate, the Hadamard on M
# applied to |0><0|_M (x) |0><0|_A (x) 1/2
_HADAMARD_M = _frozen(kron(HADAMARD, kron(ID2, ID2)))
_HADAMARD_A = _frozen(kron(ID2, kron(HADAMARD, ID2)))
_CONTROLLED_SZ_MS = _frozen(_block_diagonal(np.eye(4), kron(ID2, SIGMA_Z)))
_RHO_M_PLUS = _frozen(_HADAMARD_M @ kron(PROJ0, kron(PROJ0, 0.5 * ID2)) @ dagger(_HADAMARD_M))


def _run_register(cfg: SuperpositionConfig, ti: float, tj: float,
                  tagged: bool) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the 8-dim register over [ti, tj]; return M blocks for ancilla outcomes 0/1.

    Gate order: Hadamard on M and the preparation rotation on A, the first
    observable tag (controlled-sigma_z, M controls S), the two controlled
    evolution gates, the second tag, and a final Hadamard on A so that the
    |+>/|-> ancilla outcomes land on |0>/|1>. M's coherence is read directly.
    Untagged, both controlled-sigma_z gates are dropped: the normalization run.
    The Hadamard on M meets the same initial state in every run, so it is
    applied once, at import (_RHO_M_PLUS).
    """
    rho = _RHO_M_PLUS
    tags = [_CONTROLLED_SZ_MS] if tagged else []
    gates = [kron(ID2, kron(rot(Y_AXIS, np.pi - 2.0 * cfg.alpha), ID2)), *tags,
             kron(ID2, _evolution(cfg, ti, tj)), *tags, _HADAMARD_A]
    for g in gates:
        rho = g @ rho @ dagger(g)
    # trace out S, then keep the M blocks diagonal in the ancilla outcome
    r = rho.reshape(rho.shape[:-2] + (4, 2, 4, 2))
    ma = (r[..., :, 0, :, 0] + r[..., :, 1, :, 1]).reshape(r.shape[:-4] + (2, 2, 2, 2))
    return ma[..., :, 0, :, 0], ma[..., :, 1, :, 1]


def _coherence(block: np.ndarray) -> float:
    """tr(sigma_x block): the sum of the two off-diagonal entries' real parts."""
    c = (block[..., 1, 0] + block[..., 0, 1]).real
    return c if c.shape else float(c)


def interferometer_signal(cfg: SuperpositionConfig, ti: float, tj: float) -> InterferometerSignal:
    """Coherence readout of the tagged circuit over [ti, tj].

    t_plus and t_minus are the per-ancilla-outcome coherences scaled to match
    tr[sz W(+/-) sz (1/2) W(+/-)^dag]; re_cm = (coherence of the full M state)/2
    equals (t_plus + t_minus)/4. Dividing t_plus by the normalization run's
    n_plus reproduces the two-time correlator.
    """
    block0, block1 = _run_register(cfg, ti, tj, tagged=True)
    t_plus = 2.0 * _coherence(block0)
    t_minus = 2.0 * _coherence(block1)
    re_cm = 0.5 * _coherence(block0 + block1)
    return InterferometerSignal(t_plus=t_plus, t_minus=t_minus, re_cm=re_cm)


def normalization_signal(cfg: SuperpositionConfig, ti: float, tj: float) -> NormalizationSignal:
    """Same circuit with the observable tags off; yields the branch norms.

    n_plus equals the squared norm factor N^2 of the superposed rotation.
    """
    block0, block1 = _run_register(cfg, ti, tj, tagged=False)
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
                u = (kron(single, ID2) if gate.qubit == 0 else kron(ID2, single)) @ u
            else:
                half = 0.5 * np.asarray(gate.angle, dtype=float)[..., None, None]
                u = (np.cos(half) * np.eye(4) - 1j * np.sin(half) * kron(SIGMA_Z, SIGMA_Z)) @ u
        return u


def build_pulse_library(phi, omega_t) -> list[tuple[PulseSequence, np.ndarray]]:
    """(program, target) pairs for the three controlled gates of the interferometer.

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
    cz_target = _block_diagonal(ID2, SIGMA_Z)

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
    t0_target = _block_diagonal(rot(X_AXIS, omega_t), ID2)
    t1_target = _block_diagonal(ID2, np.cos(half) * ID2 - 1j * np.sin(half) * phi_spin)

    return [(cz_seq, cz_target), (t0_seq, t0_target), (t1_seq, t1_target)]


def verify_pulse_sequences(phi_values, omega_t_values) -> dict[str, np.ndarray]:
    """Every program's distance from its target over a (phi, omega_t) grid, as one batch:
    name -> (len(phi_values), len(omega_t_values)) array, in the library's order."""
    phi, omega_t = np.meshgrid(np.asarray(phi_values, dtype=float),
                               np.asarray(omega_t_values, dtype=float), indexing="ij")
    return {seq.name: np.broadcast_to(dist_upto_phase(seq.matrix(), target), phi.shape)
            for seq, target in build_pulse_library(phi, omega_t)}
