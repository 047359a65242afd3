"""Quantum Fisher information: the parameter-derivative stencil and the
closed-form QFI over the 2-blocks of a state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .probe_models import ChannelModel
from .qstate import BlockState, validate_blocks

EIGENSUM_FLOOR = 1e-12
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class QfiResult:
    """QFI value with diagnostics.

    Attributes:
        value: the Fisher information, >= 0, in 1/estimand^2 units; an
            array with one value per state.
        discarded_pairs: ordered eigenvalue pairs (i, j) within a block
            that were excluded because p_i + p_j fell at or below the
            1e-12 floor, counted over all states. Pairs across blocks
            carry no derivative and are not counted.
    """

    value: float | np.ndarray
    discarded_pairs: int


def fd_step(value: float) -> float:
    """Central-difference step cbrt(machine epsilon) * max(1, |value|)."""
    return _FD_SCALE * max(1.0, abs(value))


def stencil(value: float, floor: float | None) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Step h and (offset in steps, weight) taps of the second-order
    derivative stencil at value; the derivative is sum(weight * rho(value +
    offset h)) / (2 h).

    Central, or one-sided forward when value - h would cross the domain
    floor.
    """
    h = fd_step(value)
    if floor is not None and value - h < floor:
        return h, ((0.0, -3.0), (1.0, 4.0), (2.0, -1.0))
    return h, ((1.0, 1.0), (-1.0, -1.0))


def derivative_taps(channel: ChannelModel, value: float) -> tuple[tuple, float]:
    """The stencil derivative at value, built once: the (state Kernel,
    weight) of each tap, and the factor 1 / (2 h)."""
    h, taps = stencil(value, channel.floor)
    kernels = tuple((channel.kernel(value + offset * h), weight) for offset, weight in taps)
    return kernels, 1.0 / (2.0 * h)


def derivative(taps, scale: float, times: np.ndarray) -> BlockState:
    """Derivative of the model states with respect to the estimand over a
    time grid, from the taps and scale of derivative_taps, as a record on
    the model's blocks.

    Each tap record is divided by its trace, summed in basis order, which
    keeps the result traceless. The divisions by the trace and by 2 h are
    multiplications by the reciprocal. Only the running sum and one tap
    record are held at a time.
    """
    diff = None
    for kernel, weight in taps:
        term = kernel(times)
        values = term.values
        values *= 1.0 / term.trace()
        if weight != 1.0:
            values *= weight
        if diff is None:
            diff = values
        else:
            diff += values
    diff *= scale
    return BlockState(term.support, diff)


def qfi_blocks(rho: BlockState, drho: BlockState) -> QfiResult:
    """QFI of each of N states, summed over its blocks.

    F = sum_{i,j} 2 |<psi_i| drho |psi_j>|^2 / (p_i + p_j) splits into one
    closed form per block, since rho and drho share the blocks. A block
    (w + r.sigma) / 2 with eigenvalues p_+, p_- and axis n = r / |r| gives,
    with d_pm = (dw +- dr.n) / 2,
    d_+^2 / p_+ + d_-^2 / p_- + (|dr|^2 - (dr.n)^2) / w: the eigenvalue-pair
    form of the Bloch QFI (Zhong et al., PRA 87, 022337 (2013)). Pairs with
    p_i + p_j <= 1e-12 are left out, which keeps the pure limit finite.
    The terms are summed block by block. The spectra of a validated rho are
    reused; any other rho is validated first. Raises ValueError if drho is
    not on the blocks and grid of rho.
    """
    state = rho if rho.spectra is not None else validate_blocks(rho)
    if drho.support != state.support or drho.values.shape != state.values.shape:
        raise ValueError(f"drho on blocks {drho.support} with shape {drho.values.shape}"
                         f" does not match the state on {state.support}"
                         f" with shape {state.values.shape}")
    weight, bloch, norm, upper, lower = state.spectra
    da, db, dre, dimag = drho.pairs()
    dbloch = (da - db, 2.0 * dre, 2.0 * dimag)
    dot = bloch[0] * dbloch[0] + bloch[1] * dbloch[1] + bloch[2] * dbloch[2]
    along = np.divide(dot, norm, out=np.zeros(dot.shape), where=norm > 0.0)
    across = dbloch[0] ** 2 + dbloch[1] ** 2 + dbloch[2] ** 2 - along**2
    dw = da + db
    # per eigenvalue pair (p_i, p_j) of the blocks, (+, +), (-, -), (+, -):
    # 2 |drho_ij|^2 (twice that for i != j, covering both orders),
    # p_i + p_j, and the number of ordered pairs
    terms, discarded = [], 0
    for numerator, pair_sum, count in ((0.5 * (dw + along) ** 2, 2.0 * upper, 1),
                                       (0.5 * (dw - along) ** 2, 2.0 * lower, 1),
                                       (across, weight, 2)):
        kept = pair_sum > EIGENSUM_FLOOR
        terms.append(np.divide(numerator, pair_sum, out=np.zeros(kept.shape), where=kept))
        discarded += count * (kept.size - np.count_nonzero(kept))
    rows = [term[k] for k in range(len(weight)) for term in terms]
    total = rows[0] + rows[1]
    for row in rows[2:]:
        total += row
    return QfiResult(np.maximum(total, 0.0, out=total), discarded)

