"""Quantum Fisher information: the states and their parameter derivative
by a stencil, and the closed-form QFI over the 2-blocks of a state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qstate import BlockState, validate_blocks

EIGENSUM_FLOOR = 1e-12
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))
RECORD_POINTS = 4  # the most kernel points of stencil_points: the state and 3 taps


@dataclass(frozen=True)
class QfiResult:
    """QFI value with diagnostics.

    Attributes:
        value: the Fisher information, >= 0, in 1/estimand^2 units; an
            array with one value per state.
        floored: the block rows, over all blocks and states, whose
            determinant term was left out: the block's lower eigenvalue
            is at or below half the 1e-12 floor, as for a pure or empty
            block.
    """

    value: float | np.ndarray
    floored: int


def stencil_points(value: float, floor: float | None) -> tuple[tuple, tuple, float]:
    """The kernel points (value, then value + offset h for each tap), the
    tap weights and 1 / (2 h) of the second-order derivative stencil at
    value, with step h = cbrt(machine epsilon) * max(1, |value|): the
    derivative is sum(weight * rho(value + offset h)) / (2 h). Central, or
    one-sided forward when value - h would cross the domain floor."""
    h = _FD_SCALE * max(1.0, abs(value))
    if floor is not None and value - h < floor:
        offsets, weights = (0.0, 1.0, 2.0), (-3.0, 4.0, -1.0)
    else:
        offsets, weights = (1.0, -1.0), (1.0, -1.0)
    return (value, *[value + offset * h for offset in offsets]), weights, 1.0 / (2.0 * h)


def stencil_kernel(build, config, support, value: float, floor: float | None):
    """A function of (times[N], derive=True) making one call of the model's
    kernel build(points, config) at the stencil_points of value and floor:
    a view of its record, the states in row 0 and, if derive, their
    estimand derivative on the same blocks in row 1. The taps are divided
    by their traces, summed in basis order, which keeps the derivative
    traceless, then weighted and combined left to right in place, with
    1.0 x as x and x + (-1) y as x - y. The divisions by the trace and by
    2 h are multiplications by the reciprocal."""
    points, weights, scale = stencil_points(value, floor)
    kernel = build(points, config)

    def tangent(times, derive=True):
        record = kernel(times)
        if not derive:
            return record[:1]
        taps = record[1:]
        taps *= (1.0 / BlockState(support, taps).trace())[:, None]
        diff = taps[0] if weights[0] == 1.0 else np.multiply(taps[0], weights[0], out=taps[0])
        for tap, weight in zip(taps[1:], weights[1:]):
            if weight == -1.0:
                diff -= tap
            else:
                diff += np.multiply(tap, weight, out=tap)
        diff *= scale
        return record[:2]

    return tangent


def qfi_blocks(rho: BlockState, drho: BlockState) -> QfiResult:
    """QFI of each of N states, summed over its blocks.

    F = sum_{i,j} 2 |<psi_i| drho |psi_j>|^2 / (p_i + p_j) splits into one
    closed form per block, since rho and drho share the blocks. A block
    [[a, c], [conj(c), b]] = (w + r.sigma) / 2 gives
    F = (|dr|^2 + ddet^2 / det) / w, with |dr|^2 = (da - db)^2 + 4 |dc|^2,
    det = a b - |c|^2 and ddet = a db + b da - 2 Re(conj(c) dc): the qubit
    determinant form (Zhong et al., PRA 87, 022337 (2013)) for a block of
    trace w. As the eigenvalue pairs' floor p_i + p_j > 1e-12 did, the
    first term needs w > 5e-13 and the second det > 5e-13 w (a lower
    eigenvalue det / p_+ above 5e-13, as p_+ ~ w), which keeps the pure
    limit finite. The terms are summed block by block. The weights and
    determinants of a validated rho are reused; any other rho is validated
    first. Raises ValueError if drho is not on the blocks and grid of rho.
    """
    state = rho if rho.spectra is not None else validate_blocks(rho)
    if drho.support != state.support or drho.values.shape != state.values.shape:
        raise ValueError(f"drho on blocks {drho.support} with shape {drho.values.shape}"
                         f" does not match the state on {state.support}"
                         f" with shape {state.values.shape}")
    weight, det = state.spectra
    a, b, re, im = state.pairs()
    da, db, dre, dim = drho.pairs()  # the forms above, in place
    ddet, overlap, dr2, coherent = a * db, re * dre, da - db, dre * dre
    ddet += b * da
    overlap += im * dim
    ddet -= np.multiply(overlap, 2.0, out=overlap)
    dr2 *= dr2
    coherent += dim * dim
    dr2 += np.multiply(coherent, 4.0, out=coherent)
    floor = 0.5 * EIGENSUM_FLOOR
    heavy = weight > floor
    kept = np.logical_and(heavy, det > floor * weight)
    terms = np.divide(dr2, weight, out=np.zeros(weight.shape), where=heavy)
    terms += np.divide(np.square(ddet, out=ddet), np.multiply(weight, det, out=dr2),
                       out=np.zeros(weight.shape), where=kept)
    return QfiResult(terms.sum(axis=0), kept.size - int(np.count_nonzero(kept)))
