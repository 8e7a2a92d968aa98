"""Simulation of qubit rotations driven by a superposition of SU(2) unitaries.

The package builds normalized superpositions of two rotations, evaluates
two-time correlators and the three-time K3 quantity they violate classical
bounds with, models the ancilla-based circuit that realizes the superposition
(including a three-qubit interferometric readout and its pulse-level
decompositions), and quantifies how long the violation survives dephasing,
both phenomenologically (damped Bloch equation) and microscopically (joint
ancilla-system master equation).
"""

from .linalg import (DEFAULT_TOL, ID2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                     X_AXIS, Y_AXIS, Z_AXIS, DimError, InvalidAxis, as_unit_vector,
                     dagger, dist_upto_phase, is_density_matrix, is_hermitian, is_unitary,
                     kron, pauli, rot)
from .superpose import (NORM_FLOOR, DegenerateSuperposition, SuperpositionConfig,
                        UnsupportedGeometry, axis_theta, f_of_t, norm_factor_sq, planar,
                        planar_angle, soe, soe_span, superposed_unitary,
                        unnormalized_superposed)
from .lgi import correlator, k3_at, k3_curve, k3_max, k3max_surface, ttb_map
from .ancilla import (Coupling, InterferometerSignal, NormalizationSignal,
                      PostSelectionStarved, PulseSequence, Rotation, ancilla_state,
                      build_pulse_library, controlled_u_t0, controlled_u_t1,
                      interferometer_signal, normalization_signal, postselect_map,
                      project_ancilla, verify_pulse_sequences)
from .noise import (DEFAULT_ALPHA_GRID, NoiseConfig, evolve_lindblad, gain_curve,
                    hamiltonian_as, integrate_bloch, k3_bloch, liouvillian, noisy_correlator)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "ID2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z",
    "X_AXIS", "Y_AXIS", "Z_AXIS", "DimError", "InvalidAxis", "as_unit_vector",
    "dagger", "dist_upto_phase", "is_density_matrix", "is_hermitian", "is_unitary",
    "kron", "pauli", "rot",
    "NORM_FLOOR", "DegenerateSuperposition", "SuperpositionConfig",
    "UnsupportedGeometry", "axis_theta", "f_of_t", "norm_factor_sq", "planar",
    "planar_angle", "soe", "soe_span", "superposed_unitary",
    "unnormalized_superposed",
    "correlator", "k3_at", "k3_curve", "k3_max", "k3max_surface", "ttb_map",
    "Coupling", "InterferometerSignal", "NormalizationSignal", "PostSelectionStarved",
    "PulseSequence", "Rotation", "ancilla_state", "build_pulse_library",
    "controlled_u_t0", "controlled_u_t1", "interferometer_signal", "normalization_signal",
    "postselect_map", "project_ancilla", "verify_pulse_sequences",
    "DEFAULT_ALPHA_GRID", "NoiseConfig", "evolve_lindblad", "gain_curve", "hamiltonian_as",
    "integrate_bloch", "k3_bloch", "liouvillian", "noisy_correlator",
    "__version__",
]
