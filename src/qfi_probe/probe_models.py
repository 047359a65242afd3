"""Closed-form evolved probe states for the cavity-field and reservoir models.

Every model maps (parameters, times[N]) to a raw stack of density matrices
of shape (N, d, d); validation happens once per stack, where the stack is
used. Time is dimensionless: coupling units for the cavity models
(coupling defaults to 1), decay-rate units for the reservoir models.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

_HALF_PI = 0.5 * np.pi


def require_finite(params) -> None:
    """Reject a dataclass instance carrying a NaN or infinite number."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} = {value} is not finite")


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= _HALF_PI:
        raise ValueError(f"alpha = {alpha} outside [0, pi/2]")


def _grid(times) -> np.ndarray:
    return np.atleast_1d(np.asarray(times, dtype=float))


@dataclass(frozen=True)
class FockParams:
    """One qubit exchanging a single excitation with a photon-number cavity mode.

    Attributes:
        detuning: qubit-cavity frequency difference.
        coupling: exchange rate, > 0 (sets the time unit).
        photons: cavity photon number, >= 0.
        alpha: initial-state mixing angle in radians, [0, pi/2].
    """

    detuning: float
    coupling: float = 1.0
    photons: int = 0
    alpha: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.coupling <= 0.0:
            raise ValueError("coupling must be positive")
        if self.photons < 0:
            raise ValueError("photon number must be nonnegative")
        _check_alpha(self.alpha)

    @property
    def exchange_rate(self) -> float:
        """Resonant oscillation frequency 2 * coupling * sqrt(photons + 1)."""
        return 2.0 * self.coupling * np.sqrt(self.photons + 1.0)

    @property
    def dressed_rate(self) -> float:
        """Off-resonant oscillation frequency sqrt(exchange_rate^2 + detuning^2)."""
        return float(np.hypot(self.exchange_rate, self.detuning))


@dataclass(frozen=True)
class ThermalParams:
    """One qubit immersed in a thermal reservoir.

    Attributes:
        mean_occupation: mean boson number of the reservoir, >= 0.
        gamma: qubit decay rate, > 0.
        alpha: initial-state mixing angle in radians.
        freq_scale: transition-frequency scale in temperature units; the
            occupation at temperature T is 1 / (exp(freq_scale / T) - 1).
    """

    mean_occupation: float
    gamma: float = 1.0
    alpha: float = 0.0
    freq_scale: float = 1.0

    def __post_init__(self):
        require_finite(self)
        if self.mean_occupation < 0.0:
            raise ValueError("mean occupation must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.freq_scale <= 0.0:
            raise ValueError("freq_scale must be positive")
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class SqueezedParams:
    """One qubit immersed in a squeezed vacuum reservoir (reference phase 0).

    Attributes:
        squeezing: squeezing strength r, >= 0.
        gamma: qubit decay rate, > 0.
        alpha: initial-state mixing angle in radians.
    """

    squeezing: float
    gamma: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.squeezing < 0.0:
            raise ValueError("squeezing strength must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        _check_alpha(self.alpha)

    @property
    def occupation(self) -> float:
        """Effective reservoir occupation sinh^2(r)."""
        return float(np.sinh(self.squeezing) ** 2)

    @property
    def pair_correlation(self) -> float:
        """Two-photon correlation cosh(r) sinh(r)."""
        return float(np.cosh(self.squeezing) * np.sinh(self.squeezing))


@dataclass(frozen=True)
class TwoQubitFockParams:
    """Two qubits sharing one excitation with an empty cavity mode.

    The closed form holds for zero cavity photons and no direct
    qubit-qubit coupling; the initial qubit state is
    cos(alpha)|eg> + sin(alpha)|ge>, a Bell state at alpha = pi/4.
    """

    detuning: float
    coupling: float = 1.0
    alpha: float = _HALF_PI / 2.0
    photons: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.coupling <= 0.0:
            raise ValueError("coupling must be positive")
        if self.photons != 0:
            raise ValueError("the two-qubit closed form requires zero cavity photons")
        _check_alpha(self.alpha)

    @property
    def dressed_rate(self) -> float:
        """Collective oscillation frequency sqrt(8 coupling^2 + detuning^2)."""
        return float(np.sqrt(8.0 * self.coupling**2 + self.detuning**2))


@dataclass(frozen=True)
class TwoQubitReservoirParams:
    """Two identical, uncoupled qubits, each coupled to its own reservoir
    (squeezing at reference phase 0), starting in the Bell state
    (|eg> + |ge>) / sqrt(2).

    Attributes:
        kind: "thermal" or "squeezed".
        strength: mean occupation (thermal) or squeezing strength (squeezed),
            shared by both reservoirs.
        gamma: common decay rate of both qubits.
    """

    kind: str
    strength: float
    gamma: float

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("thermal", "squeezed"):
            raise ValueError(f"unsupported reservoir kind {self.kind!r}")
        if self.strength < 0.0:
            raise ValueError("reservoir strength must be nonnegative")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")


def _qubit_stack(r11, r12, r22) -> np.ndarray:
    """(N, 2, 2) stack [[r11, r12], [conj(r12), r22]]."""
    out = np.empty(np.shape(r11) + (2, 2), dtype=complex)
    out[..., 0, 0] = r11
    out[..., 0, 1] = r12
    out[..., 1, 0] = np.conj(r12)
    out[..., 1, 1] = r22
    return out


def fock1_amplitudes(p: FockParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Excited/ground amplitudes of the single-excitation sector at the
    given time(s)."""
    t = np.asarray(times, dtype=float)
    wd = p.dressed_rate
    half = 0.5 * wd * t
    c, s = np.cos(half), np.sin(half)
    ca, sa = np.cos(p.alpha), np.sin(p.alpha)
    ratio_d = p.detuning / wd
    ratio_x = p.exchange_rate / wd
    phase = np.exp(0.5j * p.detuning * t)
    b1 = phase * (ca * (c - 1j * ratio_d * s) - 1j * sa * ratio_x * s)
    b2 = np.conj(phase) * (sa * (c + 1j * ratio_d * s) - 1j * ca * ratio_x * s)
    return b1, b2


def fock1_states(p: FockParams, times) -> np.ndarray:
    """Reduced qubit states diag(|b1|^2, |b2|^2) after tracing the cavity."""
    b1, b2 = fock1_amplitudes(p, _grid(times))
    return _qubit_stack(np.abs(b1) ** 2, 0.0, np.abs(b2) ** 2)


def _reservoir_elements(
    occupation: float, gamma: float, coherence_rate: float, alpha: float, times
) -> np.ndarray:
    """Shared reservoir solution: populations relax toward
    occupation/(2 occupation + 1) at rate gamma (2 occupation + 1) while
    coherences decay at coherence_rate."""
    t = _grid(times)
    steady = occupation / (2.0 * occupation + 1.0)
    pop_env = np.exp(-gamma * (2.0 * occupation + 1.0) * t)
    r11 = steady + (np.cos(alpha) ** 2 - steady) * pop_env
    r12 = np.cos(alpha) * np.sin(alpha) * np.exp(-coherence_rate * t)
    return _qubit_stack(r11, r12, 1.0 - r11)


def thermal1_states(p: ThermalParams, times) -> np.ndarray:
    """Qubit states in a thermal reservoir; coherences decay at gamma (m + 1/2)."""
    m = p.mean_occupation
    rate = p.gamma * (m + 0.5)
    return _reservoir_elements(m, p.gamma, rate, p.alpha, times)


def squeezed1_states(p: SqueezedParams, times) -> np.ndarray:
    """Qubit states in a squeezed reservoir; coherences decay at
    gamma (occupation + pair_correlation + 1/2)."""
    occ = p.occupation
    rate = p.gamma * (occ + p.pair_correlation + 0.5)
    return _reservoir_elements(occ, p.gamma, rate, p.alpha, times)


def fock2_amplitudes(p: TwoQubitFockParams, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes (C_eg, C_ge, C_gg) of the two-qubit single-excitation
    sector at the given time(s)."""
    t = np.asarray(times, dtype=float)
    wd = p.dressed_rate
    half = 0.5 * wd * t
    c, s = np.cos(half), np.sin(half)
    ca, sa = np.cos(p.alpha), np.sin(p.alpha)
    symmetric = 0.5 * (ca + sa) * (c - 1j * (p.detuning / wd) * s) * np.exp(
        0.5j * p.detuning * t
    )
    antisymmetric = 0.5 * (ca - sa)
    c_eg = symmetric + antisymmetric
    c_ge = symmetric - antisymmetric
    c_gg = (
        -(ca + sa)
        * (2.0j * p.coupling / wd)
        * s
        * np.exp(-0.5j * p.detuning * t)
    )
    return c_eg, c_ge, c_gg


def fock2_states(p: TwoQubitFockParams, times) -> np.ndarray:
    """Two-qubit states after tracing the cavity: support on |eg>, |ge>, |gg>."""
    c_eg, c_ge, c_gg = fock2_amplitudes(p, _grid(times))
    out = np.zeros(c_eg.shape + (4, 4), dtype=complex)
    out[:, 1, 1] = np.abs(c_eg) ** 2
    out[:, 1, 2] = c_eg * np.conj(c_ge)
    out[:, 2, 1] = np.conj(out[:, 1, 2])
    out[:, 2, 2] = np.abs(c_ge) ** 2
    out[:, 3, 3] = np.abs(c_gg) ** 2
    return out


def reservoir_pair_states(p: TwoQubitReservoirParams, times) -> np.ndarray:
    """Exact two-qubit states (Lambda_t x Lambda_t)(Bell) for independent,
    identical reservoirs, with Lambda_t the one-qubit closed form.

    Each Lambda_t relaxes the excited population toward
    occupation/(2 occupation + 1) and damps the sigma_x and sigma_y Bloch
    components at gamma (occupation +- pair + 1/2), pair = cosh(r) sinh(r)
    for squeezing and 0 for a thermal reservoir. The Bell state's
    sigma_x sigma_x and sigma_y sigma_y parts therefore decay at twice
    those rates; they set the |eg><ge| and |ee><gg| coherences.
    """
    t = _grid(times)
    if p.kind == "thermal":
        occupation, pair = p.strength, 0.0
    else:
        occupation = float(np.sinh(p.strength) ** 2)
        pair = float(np.cosh(p.strength) * np.sinh(p.strength))
    steady = occupation / (2.0 * occupation + 1.0)
    pop_env = np.exp(-p.gamma * (2.0 * occupation + 1.0) * t)
    up_from_e = steady + (1.0 - steady) * pop_env
    up_from_g = steady * (1.0 - pop_env)
    x_decay = np.exp(-2.0 * p.gamma * (occupation + pair + 0.5) * t)
    y_decay = np.exp(-2.0 * p.gamma * (occupation - pair + 0.5) * t)
    out = np.zeros(t.shape + (4, 4), dtype=complex)
    out[:, 0, 0] = up_from_e * up_from_g
    out[:, 1, 1] = 0.5 * (up_from_e * (1.0 - up_from_g) + up_from_g * (1.0 - up_from_e))
    out[:, 2, 2] = out[:, 1, 1]
    out[:, 3, 3] = (1.0 - up_from_e) * (1.0 - up_from_g)
    out[:, 1, 2] = out[:, 2, 1] = 0.25 * (x_decay + y_decay)
    out[:, 0, 3] = out[:, 3, 0] = 0.25 * (x_decay - y_decay)
    return out


@dataclass(frozen=True)
class ChannelModel:
    """A map from (estimand value, times[N]) to a stack of raw states of
    shape (N, d, d).

    Attributes:
        value: nominal parameter value.
        floor: lower domain edge for finite differences (None if unbounded).
        dim: state dimension, 2 or 4.
        states_fn: (value, times[N]) -> states[N, d, d], a fresh array on
            every call (the derivative stencil scales it in place).
    """

    value: float
    floor: float | None
    dim: int
    states_fn: Callable[[float, np.ndarray], np.ndarray]

    def states(self, value: float, times) -> np.ndarray:
        return self.states_fn(value, _grid(times))


def _channel(params, states_fn, *, parameter, floor, dim):
    """Channel over `parameter` of `params`, evaluated through states_fn."""

    def at(value, times):
        return states_fn(replace(params, **{parameter: value}), times)

    return ChannelModel(getattr(params, parameter), floor, dim, at)


def fock1_channel(p: FockParams) -> ChannelModel:
    """Detuning-parameterized channel for the one-qubit cavity model."""
    return _channel(p, fock1_states, parameter="detuning", floor=None, dim=2)


def thermal1_channel(p: ThermalParams) -> ChannelModel:
    """Occupation-parameterized channel for the thermal reservoir model."""
    return _channel(p, thermal1_states, parameter="mean_occupation", floor=0.0, dim=2)


def squeezed1_channel(p: SqueezedParams) -> ChannelModel:
    """Squeezing-parameterized channel for the squeezed reservoir model."""
    return _channel(p, squeezed1_states, parameter="squeezing", floor=0.0, dim=2)


def fock2_channel(p: TwoQubitFockParams) -> ChannelModel:
    """Detuning-parameterized channel for the two-qubit cavity model."""
    return _channel(p, fock2_states, parameter="detuning", floor=None, dim=4)


def reservoir_pair_channel(p: TwoQubitReservoirParams) -> ChannelModel:
    """Strength-parameterized channel for the two-qubit reservoir models."""
    return _channel(p, reservoir_pair_states, parameter="strength", floor=0.0, dim=4)
