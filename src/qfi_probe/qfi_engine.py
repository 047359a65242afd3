"""Quantum Fisher information: the parameter-derivative stencil, the
closed-form QFI over the blocks of a state, the occupation-temperature
relations, and the Cramer-Rao bound."""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p

import numpy as np

from .probe_models import ChannelModel
from .qstate import DensityMatrix, off_block, pair_block, validate_density

EIGENSUM_FLOOR = 1e-12
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class QfiResult:
    """QFI value with diagnostics.

    Attributes:
        value: the Fisher information, >= 0, in 1/estimand^2 units; one
            value per state, so an array for a stack of states.
        discarded_pairs: ordered eigenvalue pairs (i, j) within a block
            that were excluded because p_i + p_j fell at or below the
            1e-12 floor, counted over the whole stack. Pairs across blocks
            carry no derivative and are not counted.
    """

    value: float | np.ndarray
    discarded_pairs: int


@dataclass(frozen=True)
class CramerRaoInput:
    """QFI plus the number of repeated experiments."""

    qfi: float
    experiments: int = 1

    def __post_init__(self):
        if self.qfi <= 0.0:
            raise ValueError("qfi must be positive")
        if self.experiments < 1:
            raise ValueError("experiment count must be at least 1")


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


def d_rho_grid(model: ChannelModel, value: float, times) -> np.ndarray:
    """Derivative of the model states with respect to the estimand over a
    time grid, shape (N, d, d).

    Each stencil state is divided by its trace, which keeps the result
    traceless; the result is symmetrized. Only the running sum and one
    stencil stack are held at a time.
    """
    times = np.asarray(times, dtype=float)
    h, taps = stencil(value, model.floor)
    diff = None
    for offset, weight in taps:
        term = model.states(value + offset * h, times)
        term /= np.einsum("kii->k", term).real[:, None, None]
        term *= weight
        if diff is None:
            diff = term
        else:
            diff += term
        del term
    diff /= 2.0 * h
    diff += np.conj(diff).swapaxes(-1, -2)
    diff *= 0.5
    return diff


def qfi_blocks(rho, drho: np.ndarray) -> QfiResult:
    """QFI of a state, or of every state in a stack, summed over its blocks.

    F = sum_{i,j} 2 |<psi_i| drho |psi_j>|^2 / (p_i + p_j) splits into one
    closed form per block, since rho and drho share the blocks. A 1-block
    w gives (dw)^2 / w. A 2-block (w + r.sigma) / 2 with eigenvalues p_+,
    p_- and axis n = r / |r| gives, with d_pm = (dw +- dr.n) / 2,
    d_+^2 / p_+ + d_-^2 / p_- + (|dr|^2 - (dr.n)^2) / w: the eigenvalue-pair
    form of the Bloch QFI (Zhong et al., PRA 87, 022337 (2013)). Pairs with
    p_i + p_j <= 1e-12 are left out, which keeps the pure limit finite. A
    DensityMatrix is used as validated, anything else is validated first;
    the value has the leading shape of rho. Raises ValueError if drho does
    not match the state's shape or has a nonzero entry outside its blocks.
    """
    state = rho if isinstance(rho, DensityMatrix) else validate_density(rho)
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != state.matrix.shape:
        raise ValueError(f"drho shape {drho.shape} does not match state dimension {state.dim}")
    if off_block(drho, state.blocks) != 0.0:
        raise ValueError(f"drho has a nonzero entry outside the blocks {state.blocks}")
    mat = state.matrix
    # per eigenvalue pair (p_i, p_j): 2 |drho_ij|^2 (twice that for i != j,
    # covering both orders), p_i + p_j, and the number of ordered pairs
    rows = []
    for block in state.blocks:
        i, j = block[0], block[-1]
        if len(block) == 1:
            rows.append((2.0 * drho[..., i, i].real ** 2, 2.0 * mat[..., i, i].real, 1))
            continue
        w, bloch, norm, upper, lower = pair_block(mat, block)
        da, db, dc = drho[..., i, i].real, drho[..., j, j].real, drho[..., i, j]
        dbloch = (da - db, 2.0 * dc.real, 2.0 * dc.imag)
        dot = sum(r * dr for r, dr in zip(bloch, dbloch))
        along = np.where(norm > 0.0, dot / np.where(norm > 0.0, norm, 1.0), 0.0)
        across = sum(dr**2 for dr in dbloch) - along**2
        rows += [(0.5 * (da + db + along) ** 2, 2.0 * upper, 1),
                 (0.5 * (da + db - along) ** 2, 2.0 * lower, 1), (across, w, 2)]
    numerators, pair_sums, pairs = zip(*rows)
    pair_sums = np.array(pair_sums)
    kept = pair_sums > EIGENSUM_FLOOR
    terms = np.where(kept, np.array(numerators) / np.where(kept, pair_sums, 1.0), 0.0)
    dropped = (~kept).reshape(len(pairs), -1).sum(axis=1)
    return QfiResult(np.maximum(terms.sum(axis=0), 0.0), int(np.dot(pairs, dropped)))


def occupation_from_temperature(temperature: float, freq_scale: float = 1.0) -> float:
    """Bose occupation 1 / (exp(freq_scale / temperature) - 1)."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return 1.0 / np.expm1(freq_scale / temperature)


def temperature_from_occupation(occupation: float, freq_scale: float = 1.0) -> float:
    """Inverse map T = freq_scale / ln(1 + 1/occupation)."""
    if occupation <= 0.0:
        raise ValueError("occupation must be positive to invert")
    return freq_scale / log1p(1.0 / occupation)


def occupation_slope(temperature: float, freq_scale: float = 1.0) -> float:
    """d(occupation)/d(temperature) at the given temperature.

    Evaluated as (freq_scale / T^2) m (m + 1), the overflow-safe form of
    (freq_scale / T^2) exp(s/T) / (exp(s/T) - 1)^2.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    m = occupation_from_temperature(temperature, freq_scale)
    return (freq_scale / temperature**2) * m * (m + 1.0)


def cramer_rao(bound_input: CramerRaoInput) -> float:
    """Best attainable uncertainty 1 / sqrt(experiments * qfi)."""
    return 1.0 / np.sqrt(bound_input.experiments * bound_input.qfi)
