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


def _as_matrix(state) -> np.ndarray:
    """Accept either a DensityMatrix or a plain complex array."""
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


# Block supports: one qubit is a single block; every two-qubit state the
# models produce is an X-state on {|eg>, |ge>} + {|ee>, |gg>}.
QUBIT_BLOCKS = ((0, 1),)
X_BLOCKS = ((1, 2), (0, 3))


@dataclass(frozen=True)
class DensityMatrix:
    """One validated probe state, or a stack of them along leading axes.

    Attributes:
        matrix: read-only complex array of shape (..., d, d), d = 2 or 4.
        blocks: the index sets of size 1 or 2 that partition the basis and
            carry the state; every entry outside them is exactly zero.
    """

    matrix: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

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


def off_block(matrix: np.ndarray, blocks) -> float:
    """Largest magnitude of the entries outside the blocks, over a matrix
    or a stack of them; 0.0 when every such entry is exactly zero."""
    outside = np.ones(matrix.shape[-2:], dtype=bool)
    for block in blocks:
        for i in block:
            outside[i, block] = False
    entries = matrix[..., outside]
    return float(np.abs(entries).max()) if np.count_nonzero(entries) else 0.0


def pair_block(matrix: np.ndarray, block: tuple[int, int]):
    """(w, r, |r|, upper, lower) of the 2x2 block B = (w + r.sigma) / 2 of
    each matrix on an index pair: its trace, Bloch vector (three arrays,
    r_y with its sign flipped), length and eigenvalues (w +- |r|) / 2. The
    lower eigenvalue is det B / upper, which stays accurate where it is
    tiny and (w - |r|) / 2 cancels; only where upper <= 0 is it w - upper."""
    i, j = block
    a, b, c = matrix[..., i, i].real, matrix[..., j, j].real, matrix[..., i, j]
    weight = a + b
    bloch = (a - b, 2.0 * c.real, 2.0 * c.imag)
    norm = np.sqrt(sum(r**2 for r in bloch))
    upper = 0.5 * (weight + norm)
    det = a * b - (c.real**2 + c.imag**2)
    positive = upper > 0.0
    lower = np.where(positive, det / np.where(positive, upper, 1.0), weight - upper)
    return weight, bloch, norm, upper, lower


def validate_density(matrix, blocks=None, psd_tol: float = PSD_TOL) -> DensityMatrix:
    """Check the state invariants of a matrix or a stack of matrices that
    is a direct sum of blocks of size 2 or less, without an eigensolver.

    A non-finite entry is rejected before any check runs, and every
    comparison is written so that a NaN fails it. Positivity is checked
    per block: the entry of a 1-block, the lower eigenvalue of a 2-block.

    Args:
        matrix: complex array of shape (..., d, d) with d = 2 or 4.
        blocks: index sets of size 1 or 2 partitioning range(d); every
            entry outside them must be exactly zero. The default is the
            whole qubit for d = 2 and the X-state blocks for d = 4.
        psd_tol: eigenvalues are accepted down to ``-psd_tol``; the
            integrator oracle relaxes this to 1e-8 to absorb integration
            dust.

    Returns:
        The validated DensityMatrix (a read-only copy of the input).

    Raises:
        StateValidationError: for a NaN or infinite entry, or a nonzero
            entry outside the blocks.
        NotHermitian, TraceNotOne, NegativeEigenvalue: naming the bound
            and the worst offending magnitude over the stack.
        ValueError: for a non-square input, an unsupported dimension, or
            blocks that do not partition the basis.
    """
    mat = np.array(getattr(matrix, "matrix", matrix), dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[-1]
    if dim not in (2, 4):
        raise ValueError(f"unsupported dimension {dim}, expected 2 or 4")
    blocks = (QUBIT_BLOCKS if dim == 2 else X_BLOCKS) if blocks is None else blocks
    if sorted(sum(blocks, ())) != list(range(dim)) or not all(len(b) in (1, 2) for b in blocks):
        raise ValueError(f"blocks {blocks} do not partition range({dim}) into sizes 1 and 2")
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has a NaN or infinite entry")
    outside = off_block(mat, blocks)
    if outside != 0.0:
        raise StateValidationError(f"entry of magnitude {outside:.3e} outside the blocks {blocks}")
    herm_dev = float(np.abs(mat - _adjoint(mat)).max(initial=0.0))
    if not herm_dev <= HERMITICITY_TOL:
        raise NotHermitian(
            f"max |rho_ij - conj(rho_ji)| = {herm_dev:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    trace_dev = float(np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if not trace_dev <= TRACE_TOL:
        raise TraceNotOne(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    lowest = [mat[..., b[0], b[0]].real if len(b) == 1 else pair_block(mat, b)[4] for b in blocks]
    smallest = min(float(low.min(initial=np.inf)) for low in lowest)
    if not smallest >= -psd_tol:
        raise NegativeEigenvalue(f"smallest eigenvalue {smallest:.3e} below -{psd_tol:.0e}")
    mat.flags.writeable = False
    return DensityMatrix(matrix=mat, blocks=blocks)


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
