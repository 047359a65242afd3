"""Quantum Fisher information: parameter derivatives, the spectral formula,
independent oracles, the temperature chain rule, and the Cramer-Rao bound."""

from __future__ import annotations

from dataclasses import dataclass
from math import log1p

import numpy as np

from .probe_models import ChannelModel
from .qstate import DensityMatrix, eig_hermitian, validate_density

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
        derivative_step: finite-difference step used to build the
            derivative, NaN when not applicable.
    """

    value: float
    discarded_pairs: int
    derivative_step: float = float("nan")


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


def qfi_spectral(rho, drho: np.ndarray, derivative_step: float = float("nan")) -> QfiResult:
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
        derivative_step=derivative_step,
    )


def qfi_sld_oracle(rho, drho: np.ndarray) -> float:
    """QFI via the symmetric logarithmic derivative.

    Solves drho = (L rho + rho L) / 2 in the eigenbasis of rho
    (L_ij = 2 drho_ij / (p_i + p_j) on the supported subspace), rebuilds L
    in the original basis and returns tr(rho L^2). Independent code path
    from qfi_spectral; the two agree to 1e-8 whenever nothing is discarded.
    """
    mat = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    values, vectors = eig_hermitian(mat)
    drho = np.asarray(drho, dtype=complex)
    elements = vectors.conj().T @ drho @ vectors
    pair_sums = values[:, None] + values[None, :]
    supported = pair_sums > EIGENSUM_FLOOR
    sld_eigen = np.where(supported, 2.0 * elements / np.where(supported, pair_sums, 1.0), 0.0)
    sld = vectors @ sld_eigen @ vectors.conj().T
    return float(np.trace(mat @ sld @ sld).real)


def qfi_pure_oracle(psi: np.ndarray, dpsi: np.ndarray) -> float:
    """Pure-state QFI, F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    For a normalized family Re<psi|dpsi> = 0, and the value agrees with
    qfi_spectral applied to the rank-1 density matrix.
    """
    psi = np.asarray(psi, dtype=complex)
    dpsi = np.asarray(dpsi, dtype=complex)
    overlap = np.vdot(psi, dpsi)
    value = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)
    return float(max(value, 0.0))


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


def qfi_temperature(
    fq_occupation: float, occupation: float, temperature: float, freq_scale: float = 1.0
) -> float:
    """Chain rule F(T) = F(m) (dm/dT)^2.

    Args:
        fq_occupation: QFI with respect to the mean occupation.
        occupation: mean occupation consistent with the temperature.
        temperature: reservoir temperature, > 0.
        freq_scale: transition-frequency scale in temperature units.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    slope = (freq_scale / temperature**2) * occupation * (occupation + 1.0)
    return fq_occupation * slope**2


def cramer_rao(bound_input: CramerRaoInput) -> float:
    """Best attainable uncertainty 1 / sqrt(experiments * qfi)."""
    return 1.0 / np.sqrt(bound_input.experiments * bound_input.qfi)
