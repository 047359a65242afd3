"""Quantum Fisher information: the states and their parameter derivative
by a stencil, and the closed-form QFI over the 2-blocks of a state."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .qstate import BlockState, validate_blocks

EIGENSUM_FLOOR = 1e-12
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))
RECORD_POINTS = 4  # the most kernel points of stencil_points: the state and 3 taps
_ONE, _TWO, _FOUR, _HALF_FLOOR = map(np.array, (1.0, 2.0, 4.0, 0.5 * EIGENSUM_FLOOR))  # cf. qstate


class QfiResult(NamedTuple):
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
    traceless, then weighted and combined left to right in place: x - y
    for the central taps, -3 x + 4 y - z for the one-sided ones. The
    divisions by the trace and by 2 h are multiplications by the reciprocal."""
    points, weights, scale = stencil_points(value, floor)
    kernel, scale, central = build(points, config), np.array(scale), len(weights) == 2

    def tangent(times, derive=True):
        record = kernel(times)
        if not derive:
            return record[:1]
        taps = record[1:]
        taps *= (_ONE / BlockState(support, taps).trace())[:, None]
        diff = taps[0] if central else np.multiply(taps[0], weights[0], out=taps[0])
        if not central:  # -3 x + 4 y - z
            diff += np.multiply(taps[1], weights[1], out=taps[1])
        diff -= taps[-1]
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
    support, values, (weight, det) = state.support, state.values, state.spectra
    if drho.support != support or drho.values.shape != values.shape:
        raise ValueError(f"drho on blocks {drho.support} with shape {drho.values.shape}"
                         f" does not match the state on {support} with shape {values.shape}")
    x, d = state.pairs(), drho.pairs()
    a, b, re, im, da, db, dre, dim = x[0], x[1], x[2], x[3], d[0], d[1], d[2], d[3]
    ddet = (a * db + b * da) - _TWO * (re * dre + im * dim)
    dr2 = da - db
    dr2 = dr2 * dr2 + _FOUR * (dre * dre + dim * dim)
    heavy = weight > _HALF_FLOOR
    kept = heavy & (det > _HALF_FLOOR * weight)
    floored = kept.size - int(np.count_nonzero(kept))
    if floored:  # a quotient left out is 0
        terms = np.divide(dr2, weight, out=np.zeros(weight.shape), where=heavy)
        terms += np.divide(ddet * ddet, weight * det, out=np.zeros(weight.shape), where=kept)
    else:  # every block heavy and kept: the same quotients, unmasked
        terms = dr2 / weight + ddet * ddet / (weight * det)
    return QfiResult(terms[0] if len(terms) == 1 else terms[0] + terms[1], floored)
