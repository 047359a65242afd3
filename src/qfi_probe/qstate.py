"""Block-diagonal probe states: the record the models emit, its invariants,
and the Bloch-vector fidelity.

Basis conventions used throughout the package:

* one qubit: (|e>, |g>), excited state first;
* two qubits: (|e_A e_B>, |e_A g_B>, |g_A e_B>, |g_A g_B>), qubit A major;
* Bloch components: az = rho_ee - rho_gg, ax = 2 Re(rho_eg),
  ay = -2 Im(rho_eg).

Every state the models produce, and every parameter derivative of one, is
a direct sum of blocks of size 2 or 1 on fixed basis indices. A BlockState
holds N of them as real rows per block, so Hermiticity and the zeros
outside the blocks hold by construction; a validated record is
read-only. All operations are pure functions over the N states at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


# Block supports: one qubit is a single block; the two-qubit reservoir
# states are X-states on {|eg>, |ge>} + {|ee>, |gg>}.
QUBIT_BLOCKS = ((0, 1),)
X_BLOCKS = ((1, 2), (0, 3))


@lru_cache(maxsize=64)
def _layout(support) -> tuple[int, tuple[int, ...]]:
    """(number of 2-blocks P, the row of each diagonal entry in basis
    order) of a support, which must list its 2-blocks first and partition
    range(d), d = 2 or 4."""
    sizes = [len(block) for block in support]
    dim = sum(sizes)
    if (dim not in (2, 4) or sorted(sum(support, ())) != list(range(dim))
            or sizes != sorted(sizes, reverse=True) or not set(sizes) <= {1, 2}):
        raise ValueError(f"blocks {support} do not partition range(2) or range(4) into"
                         " 2-blocks followed by 1-blocks")
    npairs = sizes.count(2)
    row = {}
    for k, block in enumerate(support):
        if len(block) == 2:
            row[block[0]], row[block[1]] = k, npairs + k
        else:
            row[block[0]] = 3 * npairs + k
    return npairs, tuple(row[i] for i in range(dim))


@dataclass(frozen=True)
class BlockState:
    """N states (or parameter derivatives of states) that are direct sums
    of 2-blocks and 1-blocks on fixed basis indices, as real rows.

    Attributes:
        support: the basis indices of each block, 2-blocks first.
        values: real array of shape (4 P + S, N) for P 2-blocks and S
            1-blocks: the rows a, b, Re c and Im c of the 2-blocks
            [[a, c], [conj(c), b]] (P rows each, in block order), then the
            entry w of each 1-block.
        spectra: None, or pair_block of the 2-blocks, as validate_blocks
            computed it.
    """

    support: tuple[tuple[int, ...], ...]
    values: np.ndarray
    spectra: tuple | None = None

    @property
    def dim(self) -> int:
        return len(_layout(self.support)[1])

    def pairs(self) -> np.ndarray:
        """(a, b, Re c, Im c) of the 2-blocks, shape (4, P, N)."""
        npairs = _layout(self.support)[0]
        return self.values[:4 * npairs].reshape(4, npairs, -1)

    def singles(self) -> np.ndarray:
        """The 1-block entries, shape (S, N)."""
        return self.values[4 * _layout(self.support)[0]:]

    def diagonal(self) -> list[np.ndarray]:
        """The diagonal entries rho_ii in basis order."""
        return [self.values[row] for row in _layout(self.support)[1]]

    def trace(self) -> np.ndarray:
        """The trace of each state, summed in basis order."""
        diagonal = self.diagonal()
        total = diagonal[0]
        for entry in diagonal[1:]:
            total = total + entry
        return total


def block_state(support, times: np.ndarray, blocks) -> BlockState:
    """Record of N = len(times) states from per-block entries in support
    order: (a, b, Re c, Im c) for a 2-block, (w,) for a 1-block; each entry
    an array of length N or a scalar.

    Raises:
        ValueError: for a support that is no partition into blocks, or
            entries that do not give one tuple of the right length per
            block.
    """
    npairs, _ = _layout(support)
    values = np.empty((3 * npairs + len(support), len(times)))
    for k, (block, entries) in enumerate(zip(support, blocks, strict=True)):
        rows = range(k, 4 * npairs, npairs) if len(block) == 2 else (3 * npairs + k,)
        if len(entries) != len(rows):
            raise ValueError(f"block {block} takes {len(rows)} entries, got {len(entries)}")
        for row, entry in zip(rows, entries):
            values[row] = entry
    return BlockState(support, values)


def pair_block(a, b, re, im):
    """(w, r, |r|, upper, lower) of 2-blocks [[a, re + i im], [re - i im, b]]
    = (w + r.sigma) / 2: the trace, the Bloch vector (three arrays, r_y with
    its sign flipped), its length and the eigenvalues (w +- |r|) / 2. The
    lower eigenvalue is det / upper, which stays accurate where it is tiny
    and (w - |r|) / 2 cancels; only where upper <= 0 is it w - upper."""
    weight = a + b
    bloch = (a - b, 2.0 * re, 2.0 * im)
    norm = np.sqrt(sum(r**2 for r in bloch))
    upper = 0.5 * (weight + norm)
    det = a * b - (re**2 + im**2)
    positive = upper > 0.0
    lower = np.where(positive, det / np.where(positive, upper, 1.0), weight - upper)
    return weight, bloch, norm, upper, lower


def validate_blocks(state: BlockState) -> BlockState:
    """Check the invariants of N block states and return them, read-only,
    with the spectra of their 2-blocks, without an eigensolver.

    In order: every value is finite; every 1-block entry and the lower
    eigenvalue of every 2-block is at least -PSD_TOL; the trace is 1 to
    within TRACE_TOL. Every comparison is written so that a NaN fails it.
    The values array is made read-only in place, so the spectra cannot go
    stale.

    Raises:
        StateValidationError: for a NaN or infinite value.
        NegativeEigenvalue, TraceNotOne: naming the bound and the worst
            offending value over the N states.
        ValueError: for a support that is no partition into blocks, or
            values of the wrong shape.
    """
    npairs, _ = _layout(state.support)
    values = state.values
    if values.ndim != 2 or values.shape[0] != 3 * npairs + len(state.support):
        raise ValueError(f"values of shape {values.shape} do not fit the blocks {state.support}")
    if not np.isfinite(values).all():
        raise StateValidationError("a block entry is NaN or infinite")
    spectra = pair_block(*state.pairs())
    smallest = min(float(state.singles().min(initial=np.inf)),
                   float(spectra[4].min(initial=np.inf)))
    if not smallest >= -PSD_TOL:
        raise NegativeEigenvalue(f"smallest eigenvalue {smallest:.3e} below -{PSD_TOL:.0e}")
    trace_dev = float(np.abs(state.trace() - 1.0).max(initial=0.0))
    if not trace_dev <= TRACE_TOL:
        raise TraceNotOne(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    values.flags.writeable = False
    return BlockState(state.support, values, spectra)


class BlochVector(NamedTuple):
    """Real Bloch components of a qubit state (or arrays of them), |a| <= 1."""

    ax: float
    ay: float
    az: float

    def dot(self, other: "BlochVector") -> float:
        return self.ax * other.ax + self.ay * other.ay + self.az * other.az

    def norm_sq(self) -> float:
        return self.dot(self)


def reduced_bloch(state: BlockState) -> BlochVector:
    """Bloch vector of qubit A: of the state itself for one qubit.

    For two qubits rho^A_ee = rho_00 + rho_11, rho^A_gg = rho_22 + rho_33
    and rho^A_eg = rho_02 + rho_13, which vanishes unless a block pairs
    |ee> with |ge> or |eg> with |gg>; such supports are rejected.
    """
    if state.dim == 2:
        a, b, re, im = state.pairs()[:, 0]
        return BlochVector(2.0 * re, -2.0 * im, a - b)
    if {(0, 2), (2, 0), (1, 3), (3, 1)} & set(state.support):
        raise ValueError(f"qubit A of the blocks {state.support} carries a coherence")
    d00, d11, d22, d33 = state.diagonal()
    return BlochVector(0.0, 0.0, (d00 + d11) - (d22 + d33))


def fidelity_bloch(a0: BlochVector, a1: BlochVector) -> np.ndarray:
    """Fidelity of two qubit states (or broadcastable arrays of them) from
    their Bloch vectors.

    f = (1 + a0.a1 + sqrt((1 - a0.a0)(1 - a1.a1))) / 2, one value per
    pair. The radicand is clamped at zero when floating-point dust pushes
    it within -1e-12.
    """
    norms = [vec.norm_sq() for vec in (a0, a1)]
    for norm_sq in norms:
        if not np.all(norm_sq <= 1.0 + 1e-10):
            raise ValueError(f"Bloch vector norm^2 = {np.max(norm_sq):.12f} exceeds 1")
    radicand = (1.0 - norms[0]) * (1.0 - norms[1])
    if not np.all(radicand >= -1e-12):
        raise ValueError(f"radicand {np.min(radicand):.3e} below -1e-12; inputs invalid")
    value = 0.5 * (1.0 + a0.dot(a1) + np.sqrt(np.maximum(radicand, 0.0)))
    return np.clip(value, 0.0, 1.0)
