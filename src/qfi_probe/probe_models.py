"""Closed-form evolved probe states for the cavity-field and reservoir models.

Each model is a channel: its parameter dataclass is validated once, and
the channel maps (estimand value, times[N]) to a BlockState, the real rows
of the 2-blocks and 1-blocks that carry every state of the model (one
2-block for a qubit, the X-state or cavity blocks for two qubits). The
closed forms take raw floats, so the derivative stencil evaluates them
without rebuilding the dataclass. Validation happens once per record,
where it is used. Time is dimensionless: coupling units for the cavity models
(coupling defaults to 1), decay-rate units for the reservoir models.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .qstate import QUBIT_BLOCKS, X_BLOCKS, BlockState, block_state

_HALF_PI = 0.5 * np.pi
# the two-qubit cavity states: {|eg>, |ge>} + {|gg>} + an empty {|ee>}
FOCK2_BLOCKS = ((1, 2), (3,), (0,))


def require_finite(params) -> None:
    """Reject a dataclass instance carrying a NaN or infinite number."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            raise ValueError(f"{f.name} = {value} is not finite")


def require_count(name: str, value) -> None:
    """Reject anything but a nonnegative integer (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} = {value!r} is not an integer")
    if value < 0:
        raise ValueError(f"{name} = {value} is negative")


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
        require_count("photons", self.photons)
        _check_alpha(self.alpha)


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
        require_count("photons", self.photons)
        if self.photons != 0:
            raise ValueError("the two-qubit closed form requires zero cavity photons")
        _check_alpha(self.alpha)


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


def _squeezed_rates(squeezing: float) -> tuple[float, float]:
    """Effective occupation sinh^2(r) and pair correlation cosh(r) sinh(r)
    of a squeezed vacuum reservoir."""
    return float(np.sinh(squeezing) ** 2), float(np.cosh(squeezing) * np.sinh(squeezing))


def _fock1_amplitudes(times, detuning, coupling, photons, alpha):
    """Excited/ground amplitudes of the single-excitation sector at the
    given time(s). They oscillate at the dressed rate
    sqrt((2 coupling sqrt(photons + 1))^2 + detuning^2)."""
    t = np.asarray(times, dtype=float)
    exchange = 2.0 * coupling * np.sqrt(photons + 1.0)
    wd = float(np.hypot(exchange, detuning))
    half = 0.5 * wd * t
    c, s = np.cos(half), np.sin(half)
    ca, sa = np.cos(alpha), np.sin(alpha)
    ratio_d = detuning / wd
    ratio_x = exchange / wd
    phase = np.exp(0.5j * detuning * t)
    b1 = phase * (ca * (c - 1j * ratio_d * s) - 1j * sa * ratio_x * s)
    b2 = np.conj(phase) * (sa * (c + 1j * ratio_d * s) - 1j * ca * ratio_x * s)
    return b1, b2


def _fock1(times, detuning, coupling, photons, alpha) -> BlockState:
    """Reduced qubit states diag(|b1|^2, |b2|^2) after tracing the cavity."""
    b1, b2 = _fock1_amplitudes(times, detuning, coupling, photons, alpha)
    return block_state(QUBIT_BLOCKS, times, [(np.abs(b1) ** 2, np.abs(b2) ** 2, 0.0, 0.0)])


def _reservoir_qubit(times, occupation, gamma, coherence_rate, alpha) -> BlockState:
    """Shared reservoir solution: populations relax toward
    occupation/(2 occupation + 1) at rate gamma (2 occupation + 1) while
    coherences decay at coherence_rate."""
    steady = occupation / (2.0 * occupation + 1.0)
    pop_env = np.exp(-gamma * (2.0 * occupation + 1.0) * times)
    r11 = steady + (np.cos(alpha) ** 2 - steady) * pop_env
    r12 = np.cos(alpha) * np.sin(alpha) * np.exp(-coherence_rate * times)
    return block_state(QUBIT_BLOCKS, times, [(r11, 1.0 - r11, r12, 0.0)])


def _squeezed1(times, squeezing, gamma, alpha) -> BlockState:
    """Qubit states in a squeezed reservoir; coherences decay at
    gamma (occupation + pair_correlation + 1/2)."""
    occupation, pair = _squeezed_rates(squeezing)
    return _reservoir_qubit(times, occupation, gamma, gamma * (occupation + pair + 0.5), alpha)


def _fock2_amplitudes(times, detuning, coupling, alpha):
    """Amplitudes (C_eg, C_ge, C_gg) of the two-qubit single-excitation
    sector at the given time(s). They oscillate at the collective rate
    sqrt(8 coupling^2 + detuning^2)."""
    t = np.asarray(times, dtype=float)
    wd = float(np.sqrt(8.0 * coupling**2 + detuning**2))
    half = 0.5 * wd * t
    c, s = np.cos(half), np.sin(half)
    ca, sa = np.cos(alpha), np.sin(alpha)
    symmetric = 0.5 * (ca + sa) * (c - 1j * (detuning / wd) * s) * np.exp(
        0.5j * detuning * t
    )
    antisymmetric = 0.5 * (ca - sa)
    c_eg = symmetric + antisymmetric
    c_ge = symmetric - antisymmetric
    c_gg = (
        -(ca + sa)
        * (2.0j * coupling / wd)
        * s
        * np.exp(-0.5j * detuning * t)
    )
    return c_eg, c_ge, c_gg


def _fock2(times, detuning, coupling, alpha) -> BlockState:
    """Two-qubit states after tracing the cavity: {|eg>, |ge>} + {|gg>},
    and an empty {|ee>}."""
    c_eg, c_ge, c_gg = _fock2_amplitudes(times, detuning, coupling, alpha)
    coherence = c_eg * np.conj(c_ge)
    return block_state(FOCK2_BLOCKS, times, [
        (np.abs(c_eg) ** 2, np.abs(c_ge) ** 2, coherence.real, coherence.imag),
        (np.abs(c_gg) ** 2,), (0.0,)])


def _reservoir_pair(times, kind, strength, gamma) -> BlockState:
    """Exact two-qubit states (Lambda_t x Lambda_t)(Bell) for independent,
    identical reservoirs, with Lambda_t the one-qubit closed form.

    Each Lambda_t relaxes the excited population toward
    occupation/(2 occupation + 1) and damps the sigma_x and sigma_y Bloch
    components at gamma (occupation +- pair + 1/2), pair = cosh(r) sinh(r)
    for squeezing and 0 for a thermal reservoir. The Bell state's
    sigma_x sigma_x and sigma_y sigma_y parts therefore decay at twice
    those rates; they set the |eg><ge| and |ee><gg| coherences.
    """
    occupation, pair = (strength, 0.0) if kind == "thermal" else _squeezed_rates(strength)
    steady = occupation / (2.0 * occupation + 1.0)
    pop_env = np.exp(-gamma * (2.0 * occupation + 1.0) * times)
    up_from_e = steady + (1.0 - steady) * pop_env
    up_from_g = steady * (1.0 - pop_env)
    x_decay = np.exp(-2.0 * gamma * (occupation + pair + 0.5) * times)
    y_decay = np.exp(-2.0 * gamma * (occupation - pair + 0.5) * times)
    one_up = 0.5 * (up_from_e * (1.0 - up_from_g) + up_from_g * (1.0 - up_from_e))
    return block_state(X_BLOCKS, times, [
        (one_up, one_up, 0.25 * (x_decay + y_decay), 0.0),
        (up_from_e * up_from_g, (1.0 - up_from_e) * (1.0 - up_from_g),
         0.25 * (x_decay - y_decay), 0.0)])


@dataclass(frozen=True)
class ChannelModel:
    """A map from (estimand value, times[N]) to a BlockState of N raw
    states on fixed blocks.

    Attributes:
        value: nominal parameter value.
        floor: lower domain edge for finite differences (None if unbounded).
        support: the blocks that carry every state and derivative of the
            model (see qstate.BlockState).
        states_fn: (value, times[N]) -> BlockState from raw floats, with a
            fresh values array on every call (the derivative stencil scales
            it in place). The parameters were validated once, when the
            channel was built.
    """

    value: float
    floor: float | None
    support: tuple[tuple[int, ...], ...]
    states_fn: Callable[[float, np.ndarray], BlockState]

    def states(self, value: float, times) -> BlockState:
        return self.states_fn(value, _grid(times))


def fock1_channel(p: FockParams) -> ChannelModel:
    """Detuning-parameterized channel for the one-qubit cavity model."""
    return ChannelModel(p.detuning, None, QUBIT_BLOCKS,
                        lambda v, t: _fock1(t, v, p.coupling, p.photons, p.alpha))


def thermal1_channel(p: ThermalParams) -> ChannelModel:
    """Occupation-parameterized channel for the thermal reservoir model;
    coherences decay at gamma (m + 1/2)."""
    return ChannelModel(p.mean_occupation, 0.0, QUBIT_BLOCKS,
                        lambda v, t: _reservoir_qubit(t, v, p.gamma, p.gamma * (v + 0.5), p.alpha))


def squeezed1_channel(p: SqueezedParams) -> ChannelModel:
    """Squeezing-parameterized channel for the squeezed reservoir model."""
    return ChannelModel(p.squeezing, 0.0, QUBIT_BLOCKS,
                        lambda v, t: _squeezed1(t, v, p.gamma, p.alpha))


def fock2_channel(p: TwoQubitFockParams) -> ChannelModel:
    """Detuning-parameterized channel for the two-qubit cavity model,
    carried by {|eg>, |ge>} + {|gg>} + {|ee>}."""
    return ChannelModel(p.detuning, None, FOCK2_BLOCKS,
                        lambda v, t: _fock2(t, v, p.coupling, p.alpha))


def reservoir_pair_channel(p: TwoQubitReservoirParams) -> ChannelModel:
    """Strength-parameterized channel for the two-qubit reservoir models,
    X-states on {|eg>, |ge>} + {|ee>, |gg>}."""
    return ChannelModel(p.strength, 0.0, X_BLOCKS,
                        lambda v, t: _reservoir_pair(t, p.kind, v, p.gamma))
