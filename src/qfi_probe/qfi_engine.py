"""Quantum Fisher information: the parameter-derivative stencil, the
spectral formula, the occupation-temperature relations, and the Cramer-Rao
bound."""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p

import numpy as np

from .probe_models import ChannelModel
from .qstate import DensityMatrix, validate_density

EIGENSUM_FLOOR = 1e-12
_FD_SCALE = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class QfiResult:
    """QFI value with diagnostics.

    Attributes:
        value: the Fisher information, >= 0, in 1/estimand^2 units; one
            value per state, so an array for a stack of states.
        discarded_pairs: eigenvalue pairs excluded because p_i + p_j fell
            at or below the 1e-12 floor.
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


def qfi_spectral(rho, drho: np.ndarray) -> QfiResult:
    """QFI of a state, or of every state in a stack, from its spectral
    decomposition.

    Computed in the matrix-element form
    F = sum_{i,j} 2 |<psi_i| drho |psi_j>|^2 / (p_i + p_j)
    over pairs with p_i + p_j > 1e-12; diagonal terms reproduce the
    classical sum (dp_i)^2 / p_i and off-diagonal terms the eigenvector
    contribution, without differentiating eigenvectors. A DensityMatrix
    is used as validated, with its eigen-decomposition; anything else is
    validated first. The value has the leading shape of rho; discarded
    pairs are counted over the whole stack.
    """
    state = rho if isinstance(rho, DensityMatrix) else validate_density(rho)
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != state.matrix.shape:
        raise ValueError(
            f"drho shape {drho.shape} does not match state shape {state.matrix.shape}"
            f" (dimension {state.dim})"
        )
    values, vectors = state.eigenvalues, state.eigenvectors
    elements = np.conj(vectors).swapaxes(-1, -2) @ drho @ vectors
    pair_sums = values[..., :, None] + values[..., None, :]
    supported = pair_sums > EIGENSUM_FLOOR
    weights = 2.0 * np.abs(elements) ** 2 / np.where(supported, pair_sums, 1.0)
    value = np.where(supported, weights, 0.0).sum(axis=(-2, -1))
    return QfiResult(
        value=np.maximum(value, 0.0),
        discarded_pairs=int(np.count_nonzero(~supported)),
    )


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
