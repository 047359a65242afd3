"""Block-diagonal probe states: the record the models emit, its invariants,
and the Bloch-vector fidelity.

Basis conventions used throughout the package:

* one qubit: (|e>, |g>), excited state first;
* two qubits: (|e_A e_B>, |e_A g_B>, |g_A e_B>, |g_A g_B>), qubit A major;
* Bloch components: az = rho_ee - rho_gg, ax = 2 Re(rho_eg),
  ay = -2 Im(rho_eg).

Every state the models produce, and every parameter derivative of one, is
a direct sum of 2-blocks on fixed basis indices: the qubit itself, or the
two X-state blocks of two qubits. A BlockState holds N of them as real rows
per block, so Hermiticity and the zeros outside the blocks hold by
construction; a validated record is read-only. All operations are pure
functions over the N states at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


class StateValidationError(ValueError):
    """A candidate state violates one of the state invariants."""


class TraceNotOne(StateValidationError):
    pass


class NegativeEigenvalue(StateValidationError):
    pass


# Block supports: one qubit is a single block; the two-qubit states are
# X-states on {|eg>, |ge>} + {|ee>, |gg>}.
QUBIT_BLOCKS = ((0, 1),)
X_BLOCKS = ((1, 2), (0, 3))
# the row of each diagonal entry rho_ii, in basis order, of each support
_DIAGONAL_ROWS = {QUBIT_BLOCKS: (0, 1), X_BLOCKS: (1, 0, 2, 3)}


def _diagonal_rows(support) -> tuple[int, ...]:
    try:
        return _DIAGONAL_ROWS[support]
    except (KeyError, TypeError):
        raise ValueError(f"blocks {support} partition neither range(2) nor range(4) into"
                         " the qubit or X-state 2-blocks") from None


@dataclass(frozen=True)
class BlockState:
    """N states (or parameter derivatives of states) that are direct sums
    of 2-blocks on fixed basis indices, as real rows.

    Attributes:
        support: the basis indices of each block, QUBIT_BLOCKS or X_BLOCKS.
        values: real array of shape (4 P, N) for P blocks: the rows a, b,
            Re c and Im c of the blocks [[a, c], [conj(c), b]] (P rows
            each, in block order).
        spectra: None, or the (weight, det) rows of the blocks, their
            traces a + b and determinants a b - |c|^2, shape (P, N) each,
            as validate_blocks computed them.
    """

    support: tuple[tuple[int, int], ...]
    values: np.ndarray
    spectra: tuple | None = None

    @property
    def dim(self) -> int:
        return len(_diagonal_rows(self.support))

    def pairs(self) -> np.ndarray:
        """(a, b, Re c, Im c) of the blocks, shape (4, P, N)."""
        return self.values.reshape(4, len(self.support), -1)

    def trace(self) -> np.ndarray:
        """The trace of each state (or stacked record), summed in basis order."""
        values, rows = self.values, _diagonal_rows(self.support)
        total = values[..., rows[0], :] + values[..., rows[1], :]
        for row in rows[2:]:
            total += values[..., row, :]
        return total


def validate_blocks(state: BlockState) -> BlockState:
    """Check the invariants of N block states and return them, read-only,
    with the weight and determinant of their blocks, without an eigensolver.

    In order: every value is finite; the lower eigenvalue of every block
    is at least -PSD_TOL; the trace is 1 to within TRACE_TOL. A 2-block is
    PSD exactly when its weight w and det are >= 0; only the others get a
    lower eigenvalue, det / upper with upper = (w + |r|) / 2 (w - upper
    where upper <= 0). Every comparison is written so that a NaN fails it,
    and an infinity fails one; finiteness is tested first when one fails.
    The values array is made read-only in place: the spectra cannot go stale.

    Raises:
        StateValidationError: for a NaN or infinite value.
        NegativeEigenvalue, TraceNotOne: naming the bound and the worst
            offending value over the N states.
        ValueError: for a support other than QUBIT_BLOCKS and X_BLOCKS, or
            values of the wrong shape.
    """
    values = state.values
    if values.ndim != 2 or values.shape[0] != 2 * len(_diagonal_rows(state.support)):
        raise ValueError(f"values of shape {values.shape} do not fit the blocks {state.support}")
    a, b, re, im = state.pairs()
    with np.errstate(invalid="ignore"):  # inf * 0, inf - inf: a NaN, which min and max pass on
        weight = a + b
        det = a * b - (re * re + im * im)
        trace = state.trace()  # max |tr - 1| from its extremes, below
    psd = weight.min(initial=0.0) >= 0.0 and det.min(initial=0.0) >= 0.0
    trace_dev = float(max(trace.max(initial=1.0) - 1.0, 1.0 - trace.min(initial=1.0)))
    if not (psd and trace_dev <= TRACE_TOL) and not np.isfinite(values).all():
        raise StateValidationError("a block entry is NaN or infinite")
    if not psd:
        ok = np.minimum(weight, det) >= 0.0
        a, b, re, im, w, d = (row[~ok] for row in (a, b, re, im, weight, det))
        upper = 0.5 * (w + np.sqrt((a - b) ** 2 + (2.0 * re) ** 2 + (2.0 * im) ** 2))
        lower = np.divide(d, upper, out=w - upper, where=upper > 0.0)
        smallest = float(lower.min())
        if not smallest >= -PSD_TOL:
            raise NegativeEigenvalue(f"smallest eigenvalue {smallest:.3e} below -{PSD_TOL:.0e}")
    if not trace_dev <= TRACE_TOL:
        raise TraceNotOne(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    values.flags.writeable = False
    return BlockState(state.support, values, (weight, det))


class BlochVector(NamedTuple):
    """Real Bloch components of a qubit state (or arrays of them), |a| <= 1."""

    ax: float
    ay: float
    az: float

    def dot(self, other: "BlochVector") -> float:
        return self.ax * other.ax + self.ay * other.ay + self.az * other.az


def reduced_bloch(state: BlockState) -> BlochVector:
    """Bloch vector of qubit A: of the state itself for one qubit.

    For two qubits rho^A_ee = rho_00 + rho_11 and rho^A_gg = rho_22 + rho_33;
    rho^A_eg = rho_02 + rho_13 lies outside the X-state blocks and vanishes.
    """
    if state.dim == 2:
        a, b, re, im = state.pairs()[:, 0]
        return BlochVector(2.0 * re, -2.0 * im, a - b)
    d00, d11, d22, d33 = (state.values[row] for row in _diagonal_rows(state.support))
    return BlochVector(0.0, 0.0, (d00 + d11) - (d22 + d33))


def fidelity_bloch(a0: BlochVector, a1: BlochVector) -> np.ndarray:
    """Fidelity of two qubit states (or broadcastable arrays of them) from
    their Bloch vectors.

    f = (1 + a0.a1 + sqrt((1 - a0.a0)(1 - a1.a1))) / 2, one value per
    pair. The radicand is clamped at zero when floating-point dust pushes
    it within -1e-12.
    """
    norms = a0.dot(a0), a1.dot(a1)
    m0, m1 = (np.maximum.reduce(norm_sq, axis=None) for norm_sq in norms)  # a NaN passes on
    if not (m0 <= 1.0 + 1e-10 and m1 <= 1.0 + 1e-10):  # both maxima at once; a0's named first
        raise ValueError(f"Bloch vector norm^2 = {m1 if m0 <= 1.0 + 1e-10 else m0:.12f} exceeds 1")
    radicand = np.asarray((1.0 - norms[0]) * (1.0 - norms[1]))  # fresh: worked in place
    if not np.minimum.reduce(radicand, axis=None) >= -1e-12:
        raise ValueError(f"radicand {np.min(radicand):.3e} below -1e-12; inputs invalid")
    value = np.sqrt(np.maximum(radicand, 0.0, out=radicand), out=radicand)
    value += 1.0 + a0.dot(a1)
    value *= 0.5
    return np.minimum(np.maximum(value, 0.0, out=value), 1.0, out=value)[()]
