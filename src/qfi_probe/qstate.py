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

from typing import NamedTuple

import numpy as np

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# 0-d arrays, not Python floats, which numpy converts on every call; then the check bounds
_ZERO, _HALF, _ONE, _TWO, _MINUS_TWO, _SLACK, _TRACE_TOL, _NORM_BOUND, _RADICAND_FLOOR = map(
    np.array, (0.0, 0.5, 1.0, 2.0, -2.0, 0.25 * PSD_TOL, TRACE_TOL, 1.0 + 1e-10, -1e-12))


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

    __slots__ = ("support", "values", "spectra")

    def __init__(self, support, values, spectra=None):
        self.support, self.values, self.spectra = support, values, spectra

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
            total = total + values[..., row, :]
        return total


@np.errstate(invalid="ignore")  # inf * 0, inf - inf: a NaN, which the counting pass fails
def validate_blocks(state: BlockState) -> BlockState:
    """Check the invariants of N block states and return them, read-only,
    with the weight and determinant of their blocks, without an eigensolver.

    In order: every value is finite; the lower eigenvalue of every block
    is at least -PSD_TOL; the trace is 1 to within TRACE_TOL. A 2-block is
    PSD exactly when its weight w and det are >= 0; the others get a lower eigenvalue,
    det / upper with upper = (w + |r|) / 2 (w - upper where upper <= 0). One pass
    counts the blocks with w >= 0 and det >= -PSD_TOL w / 4 (as upper >= w / 2, det /
    upper >= -PSD_TOL / 2) and the states within TRACE_TOL; a NaN fails both counts,
    an infinity one. The checks run in order only on a shortfall. The values
    array is made read-only in place: the spectra cannot go stale.

    Raises:
        StateValidationError: for a NaN or infinite value.
        NegativeEigenvalue, TraceNotOne: naming the bound and the worst
            offending value over the N states.
        ValueError: for a support other than QUBIT_BLOCKS and X_BLOCKS, or
            values of the wrong shape.
    """
    support, values = state.support, state.values
    if values.ndim != 2 or values.shape[0] != 2 * len(_diagonal_rows(support)):
        raise ValueError(f"values of shape {values.shape} do not fit the blocks {support}")
    a, b, re, im = (pairs := state.pairs())[0], pairs[1], pairs[2], pairs[3]
    weight, det = a + b, a * b - (re * re + im * im)
    trace = weight if len(support) == 1 else state.trace()  # a qubit's trace is its weight
    if (np.count_nonzero(np.minimum(weight, det + _SLACK * weight) >= _ZERO) != weight.size
            or np.count_nonzero(np.abs(trace - _ONE) <= _TRACE_TOL) != trace.size):
        if not np.isfinite(values).all():
            raise StateValidationError("a block entry is NaN or infinite")
        bad = ~(np.minimum(weight, det) >= 0.0)  # the blocks that need their lower eigenvalue
        (a, b, re, im), w, d = pairs[:, bad], weight[bad], det[bad]
        upper = 0.5 * (w + np.sqrt((a - b) ** 2 + (2.0 * re) ** 2 + (2.0 * im) ** 2))
        lower = np.divide(d, upper, out=w - upper, where=upper > 0.0)
        smallest = float(np.minimum.reduce(lower, initial=0.0))
        if not smallest >= -PSD_TOL:
            raise NegativeEigenvalue(f"smallest eigenvalue {smallest:.3e} below -{PSD_TOL:.0e}")
        trace_dev = float(np.maximum.reduce(np.abs(trace - 1.0), axis=None, initial=0.0))
        if not trace_dev <= TRACE_TOL:
            raise TraceNotOne(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    values.setflags(write=False)
    return BlockState(support, values, (weight, det))


class BlochVector(NamedTuple):
    """Real Bloch components of a qubit state (or arrays of them), |a| <= 1."""

    ax: float
    ay: float
    az: float

    def dot(self, other: "BlochVector") -> float:  # float 0.0 ax, ay terms add nothing
        xy, z = self.ax * other.ax + self.ay * other.ay, self.az * other.az
        return z if xy.__class__ is float and xy == 0.0 else xy + z


def reduced_bloch(state: BlockState) -> BlochVector:
    """Bloch vector of qubit A: of the state itself for one qubit.

    For two qubits rho^A_ee = rho_00 + rho_11 and rho^A_gg = rho_22 + rho_33;
    rho^A_eg = rho_02 + rho_13 lies outside the X-state blocks and vanishes.
    """
    values, rows = state.values, _diagonal_rows(state.support)
    if len(rows) == 2:
        return BlochVector(_TWO * values[2], _MINUS_TWO * values[3], values[0] - values[1])
    return BlochVector(0.0, 0.0, (values[rows[0]] + values[rows[1]])
                       - (values[rows[2]] + values[rows[3]]))


def fidelity_bloch(a0: BlochVector, a1: BlochVector) -> np.ndarray:
    """Fidelity of two qubit states (or broadcastable arrays of them) from
    their Bloch vectors.

    f = (1 + a0.a1 + sqrt((1 - a0.a0)(1 - a1.a1))) / 2, one value per
    pair. The radicand is clamped at zero when floating-point dust pushes
    it within -1e-12.
    """
    norms = a0.dot(a0), a1.dot(a1)
    within = np.maximum(*norms) <= _NORM_BOUND  # a NaN fails
    if np.count_nonzero(within) != within.size:
        m0, m1 = (np.maximum.reduce(norm_sq, axis=None) for norm_sq in norms)  # a0 named first
        raise ValueError(f"Bloch vector norm^2 = {m1 if m0 <= 1.0 + 1e-10 else m0:.12f} exceeds 1")
    radicand = (_ONE - norms[0]) * (_ONE - norms[1])
    if np.count_nonzero(radicand >= _RADICAND_FLOOR) != radicand.size:
        raise ValueError(f"radicand {np.min(radicand):.3e} below -1e-12; inputs invalid")
    value = (np.sqrt(np.maximum(radicand, _ZERO)) + (_ONE + a0.dot(a1))) * _HALF
    return np.minimum(np.maximum(value, _ZERO), _ONE)[()]
