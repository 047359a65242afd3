"""Density-matrix primitives for one- and two-qubit probe states.

Basis conventions used throughout the package:

* one qubit: (|e>, |g>), excited state first;
* two qubits: (|e_A e_B>, |e_A g_B>, |g_A e_B>, |g_A g_B>), qubit A major;
* Bloch components: az = rho_ee - rho_gg, ax = 2 Re(rho_eg),
  ay = -2 Im(rho_eg).

All operations are pure functions and accept a single matrix or a stack of
matrices along leading axes. Validated states are immutable, so they are
safe to share between concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class StateValidationError(ValueError):
    """A candidate density matrix violates one of the state invariants."""


class NotHermitian(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


class NegativeEigenvalue(StateValidationError):
    pass


class ConvergenceFailure(RuntimeError):
    """The eigensolver exceeded its accuracy budget."""


def _as_matrix(state) -> np.ndarray:
    """Accept either a DensityMatrix or a plain complex array."""
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """One validated probe state, or a stack of them along leading axes.

    Attributes:
        matrix: read-only complex array of shape (..., d, d), d = 2 or 4.
        eigenvalues: spectrum of each matrix in descending order, shape
            (..., d), as computed (entries down to -psd_tol are kept).
        eigenvectors: matching orthonormal eigenvectors as matrix columns,
            shape (..., d, d).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


class BlochVector(NamedTuple):
    """Real Bloch components of a qubit state (or arrays of them), |a| <= 1."""

    ax: float
    ay: float
    az: float

    def dot(self, other: "BlochVector") -> float:
        return self.ax * other.ax + self.ay * other.ay + self.az * other.az

    def norm_sq(self) -> float:
        return self.dot(self)


def _adjoint(mat: np.ndarray) -> np.ndarray:
    return np.conj(mat).swapaxes(-1, -2)


def validate_density(matrix, psd_tol: float = PSD_TOL) -> DensityMatrix:
    """Check the three state invariants of a matrix or a stack of matrices
    and wrap it together with its eigen-decomposition.

    A non-finite entry is rejected before any check runs, and every
    comparison is written so that a NaN fails it.

    Args:
        matrix: complex array of shape (..., d, d) with d = 2 or 4.
        psd_tol: eigenvalues are accepted down to ``-psd_tol``; the
            integrator oracle relaxes this to 1e-8 to absorb integration
            dust.

    Returns:
        The validated DensityMatrix (a read-only copy of the input).

    Raises:
        StateValidationError: for a NaN or infinite entry.
        NotHermitian, TraceNotOne, NegativeEigenvalue: naming the bound
            and the worst offending magnitude over the stack.
        ConvergenceFailure: see eig_hermitian.
        ValueError: for a non-square input or an unsupported dimension.
    """
    mat = np.array(getattr(matrix, "matrix", matrix), dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.shape[-1] not in (2, 4):
        raise ValueError(f"unsupported dimension {mat.shape[-1]}, expected 2 or 4")
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has a NaN or infinite entry")
    herm_dev = float(np.abs(mat - _adjoint(mat)).max(initial=0.0))
    if not herm_dev <= HERMITICITY_TOL:
        raise NotHermitian(
            f"max |rho_ij - conj(rho_ji)| = {herm_dev:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    trace_dev = float(np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if not trace_dev <= TRACE_TOL:
        raise TraceNotOne(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    values, vectors = eig_hermitian(mat)
    smallest = float(values[..., -1].min(initial=np.inf))
    if not smallest >= -psd_tol:
        raise NegativeEigenvalue(
            f"smallest eigenvalue {smallest:.3e} below -{psd_tol:.0e}"
        )
    for arr in (mat, values, vectors):
        arr.flags.writeable = False
    return DensityMatrix(matrix=mat, eigenvalues=values, eigenvectors=vectors)


def eig_hermitian(state) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a density matrix or a stack of them.

    Returns:
        (eigenvalues, eigenvectors): eigenvalues in descending order along
        the last axis and the matching orthonormal eigenvectors as matrix
        columns, with ``rho = sum_i p_i |psi_i><psi_i|`` reconstructed to
        1e-10 for every matrix.

    Raises:
        ConvergenceFailure: if the solver fails or a reconstruction error
            exceeds 1e-10.
    """
    mat = _as_matrix(state)
    try:
        values, vectors = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    values = values[..., ::-1].copy()
    vectors = vectors[..., ::-1].copy()
    reconstruction = (vectors * values[..., None, :]) @ _adjoint(vectors)
    err = float(np.abs(reconstruction - mat).max(initial=0.0))
    if not err <= 1e-10:
        raise ConvergenceFailure(f"reconstruction error {err:.3e} exceeds 1e-10")
    return values, vectors


def trace_out_B(state) -> np.ndarray:
    """Raw reduced matrices of qubit A, shape (..., 2, 2), for two-qubit
    input of shape (..., 4, 4).

    With the A-major basis order, rho^A_ee = rho_11 + rho_22,
    rho^A_gg = rho_33 + rho_44 and rho^A_eg = rho_13 + rho_24.
    """
    mat = _as_matrix(state)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"partial trace expects a 4x4 matrix, got shape {mat.shape}")
    return np.trace(mat.reshape(mat.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def bloch_vector(state) -> BlochVector:
    """Bloch components of a qubit state (or a stack) under the package
    convention; components are arrays for stacked input."""
    mat = _as_matrix(state)
    if mat.shape[-2:] != (2, 2):
        raise ValueError(f"Bloch vector expects a 2x2 matrix, got shape {mat.shape}")
    vec = BlochVector(
        ax=2.0 * mat[..., 0, 1].real,
        ay=-2.0 * mat[..., 0, 1].imag,
        az=(mat[..., 0, 0] - mat[..., 1, 1]).real,
    )
    norm_sq = vec.norm_sq()
    if not np.all(norm_sq <= 1.0 + 1e-10):
        raise ValueError(f"Bloch vector norm^2 = {np.max(norm_sq):.12f} exceeds 1")
    return vec


def fidelity_bloch(state0, state1) -> np.ndarray:
    """Fidelity of two qubit states (or broadcastable stacks) from their
    Bloch vectors.

    f = (1 + a0.a1 + sqrt((1 - a0.a0)(1 - a1.a1))) / 2, one value per
    pair. The radicand is clamped at zero when floating-point dust pushes
    it within -1e-12.
    """
    a0 = bloch_vector(state0)
    a1 = bloch_vector(state1)
    radicand = (1.0 - a0.norm_sq()) * (1.0 - a1.norm_sq())
    if not np.all(radicand >= -1e-12):
        raise ValueError(f"radicand {np.min(radicand):.3e} below -1e-12; inputs invalid")
    value = 0.5 * (1.0 + a0.dot(a1) + np.sqrt(np.maximum(radicand, 0.0)))
    return np.clip(value, 0.0, 1.0)
