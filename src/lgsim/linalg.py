"""Dense complex linear algebra for small multi-qubit registers.

Matrices are plain complex numpy arrays of dimension 2, 4 or 8 and are treated
as immutable values: no function mutates its arguments, and ``rot``, ``pauli``,
``kron`` and ``dagger`` return fresh arrays (``dagger`` a transposed view of a
fresh conjugate). The module constants ``ID2``, ``SIGMA_X``, ``SIGMA_Y``,
``SIGMA_Z``, ``X_AXIS``, ``Y_AXIS`` and ``Z_AXIS`` are shared read-only arrays,
and ``as_unit_vector`` hands back its argument itself when that is already a
float array, so for an axis constant it returns that shared read-only array.
An axis may be a stack of axes, shape (..., 3), wherever ``rot`` or ``pauli``
takes one; it broadcasts against the angles like one more stack axis.
Composition, addition and scaling use the native operators (``a @ b``,
``a + b``, ``z * a``); :func:`dagger` covers the remaining everyday plumbing.

Register convention used package-wide: multi-qubit operators are ordered
measurement (x) ancilla (x) system, so ``kron(m_op, kron(a_op, s_op))``.
Two-qubit helpers keep the same relative order (control first).
"""

from __future__ import annotations

import itertools

import numpy as np

DEFAULT_TOL = 1e-10
_RTOL = np.float64(1e-5)  # np.allclose's rtol, as the float64 it becomes there


class InvalidAxis(ValueError):
    """Rotation axis is not a unit 3-vector."""


class DimError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


ID2 = _frozen(np.eye(2, dtype=complex))
SIGMA_X = _frozen(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1, 0], [0, -1]], dtype=complex))

X_AXIS = _frozen(np.array([1.0, 0.0, 0.0]))
Y_AXIS = _frozen(np.array([0.0, 1.0, 0.0]))
Z_AXIS = _frozen(np.array([0.0, 0.0, 1.0]))


def as_unit_vector(axis, tol: float = 1e-12) -> np.ndarray:
    """Validate a unit 3-vector, or each of a stack of them (shape (..., 3)), as a float ndarray."""
    v = np.asarray(axis, dtype=float)
    if v.shape[-1:] != (3,):
        raise InvalidAxis(f"axis must be a 3-vector, got shape {v.shape}")
    off = abs(np.vecdot(v, v) - 1.0)
    if any((off > tol).flat):
        raise InvalidAxis(f"axis must have unit norm, got |v|^2 - 1 = {np.max(off)!r}")
    return v


def pauli(axis) -> np.ndarray:
    """Pauli matrix along a unit axis: ax*sigma_x + ay*sigma_y + az*sigma_z."""
    v = as_unit_vector(axis)[..., None, None]
    return v[..., 0, :, :] * SIGMA_X + v[..., 1, :, :] * SIGMA_Y + v[..., 2, :, :] * SIGMA_Z


# rot's eight real slots per angle, real and imaginary parts interleaved:
# re00 im00 re01 im01 re10 im10 re11 im11. cos(angle/2) fills the real diagonal;
# the off-diagonal real slots start from cos * 0 and the imaginary ones from +0.0
_ROT_COS = _frozen(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
_ROT_ZERO = _frozen(np.array([0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0]))


def rot(axis, angle) -> np.ndarray:
    """SU(2) rotation exp(-i * pauli(axis) * angle / 2).

    Closed form cos(angle/2) * 1 - i sin(angle/2) * pauli(axis); the tests check
    it against a Pade matrix exponential. Broadcasts over an array of angles and a
    stack of axes, shape (..., 3), to broadcast(angle.shape, axis.shape[:-1]) + (2, 2).
    The entries are written straight into one array, bitwise equal to that complex
    expression, signed zeros included: with c, s = cos, sin(angle/2), each real slot
    is c k - (s u - s w), k from _ROT_COS, and each imaginary one 0.0 - (s u - s * 0.0),
    the values the complex products and sums round to.
    """
    a = np.asarray(angle, dtype=float)
    if not all(np.isfinite(a).flat):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    v = as_unit_vector(axis)
    half = 0.5 * a[..., None]
    # u (first eight): pauli's real part in the imaginary slots, signed zeros (pauli's
    # real part times 0) in the real ones; w (last eight): pauli's imaginary part in
    # the real slots; one row of sixteen per axis of the stack
    uw = np.fromiter(itertools.chain.from_iterable(
        (0.0, z, 0.0 * (x + 0.0), x, 0.0 * (x + 0.0 * y + 0.0 * z), x, 0.0, -z,
         0.0, 0.0, 0.0 - y, 0.0, y + 0.0, 0.0, 0.0, 0.0) for x, y, z in v.reshape(-1, 3).tolist()),
        float, v.size // 3 * 16).reshape(v.shape[:-1] + (16,))
    sw = np.sin(half) * uw
    start = np.add(np.cos(half) * _ROT_COS, _ROT_ZERO, out=np.empty(sw.shape[:-1] + (8,)))
    slots = np.subtract(start, np.subtract(sw[..., :8], sw[..., 8:], out=sw[..., :8]),
                        out=start)
    return slots.view(complex).reshape(sw.shape[:-1] + (2, 2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron with the register-dimension guard (4 or 8), broadcast over stack axes."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != a.shape[-2] or b.shape[-1] != b.shape[-2]:
        raise DimError(f"kron needs square matrices, got {a.shape} and {b.shape}")
    n = a.shape[-1] * b.shape[-1]
    if n not in (4, 8):
        raise DimError(f"kron result dimension {n} outside supported register sizes")
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n, n))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (last two axes)."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def dist_upto_phase(a: np.ndarray, b: np.ndarray):
    """Distance 1 - |tr(a^dag b)| / dim between same-dimension unitaries.

    Zero iff a and b agree up to a global phase; insensitive to that phase.
    Reduces over the last two axes; a rounding dip below 0 is clamped to 0.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-2:] != b.shape[-2:]:
        raise DimError(f"dimension mismatch: {a.shape} vs {b.shape}")
    overlap = np.trace(np.swapaxes(a.conj(), -1, -2) @ b, axis1=-2, axis2=-1)
    return np.maximum(1.0 - abs(overlap) / a.shape[-1], 0.0)


def is_unitary(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """a^dag a = 1 to np.allclose with atol=tol, for a matrix or every matrix of a stack."""
    a = np.asarray(a)
    return bool(np.allclose(dagger(a) @ a, np.eye(a.shape[-1]), atol=tol))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """a equals dagger(a) entrywise, judged as np.allclose(a, dagger(a), atol=tol) judges it.

    An entry passes if |a - a^dag| <= tol + 1e-5 |a^dag| with a^dag finite, or if the two
    are equal; so an infinite entry passes only against an equal one, and a NaN never.
    """
    a = np.asarray(a)
    ah = dagger(a)
    if ah.dtype.kind not in "fc":  # np.isclose compares against an inexact copy
        ah = ah.astype(np.result_type(ah, 1.0))
    with np.errstate(invalid="ignore"):  # inf - inf, which the equality test decides
        close = (abs(a - ah) <= tol + _RTOL * abs(ah)) & np.isfinite(ah) | (a == ah)
    return bool(close.all())


def is_density_matrix(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian, unit trace, eigenvalues >= -tol: for a matrix or every matrix of a stack."""
    a = np.asarray(a)
    if not is_hermitian(a, tol):
        return False
    if np.any(abs(np.trace(a, axis1=-2, axis2=-1).real - 1.0) > tol):
        return False
    return bool(np.linalg.eigvalsh(a).min() >= -tol)
