"""Closed-form evolved probe states for the cavity-field and reservoir models.

Each model is a channel: its parameter dataclass is validated once, and
the channel maps an estimand value to a kernel, which gives the BlockState
of the model at times[N] (the qubit block, or the X-state blocks of two
qubits). A kernel does the work that depends only on the parameters when
it is built, from raw floats, so the derivative stencil builds its kernels
without rebuilding the dataclass. Validation happens once per record,
where it is used. Time is dimensionless: coupling units for the cavity
models (coupling defaults to 1), decay-rate units for the reservoir models.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .qstate import QUBIT_BLOCKS, X_BLOCKS, BlockState

_HALF_PI = 0.5 * np.pi
# a model's states over a time grid: times[N] -> BlockState
Kernel = Callable[[np.ndarray], BlockState]
# the domain of each model parameter as (comparison, bound) pairs, checked
# by the parameter classes and by scan_repro.ScanConfig; detuning takes any
# finite value
FIELD_DOMAINS = {
    "alpha": ((">=", 0.0), ("<=", _HALF_PI)),
    "coupling": ((">", 0.0),),
    "photons": ((">=", 0),),
    "mean_occupation": ((">=", 0.0),),
    "gamma": ((">", 0.0),),
    "squeezing": ((">=", 0.0),),
    "freq_scale": ((">", 0.0),),
}
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def require_finite(params) -> None:
    """Reject a dataclass instance carrying a NaN, an infinity or an int past the doubles."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, numbers.Real) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} = {value} is not finite")


def require_domains(params) -> None:
    """Reject a dataclass instance with a field outside its FIELD_DOMAINS
    entry."""
    for f in fields(params):
        for comparison, bound in FIELD_DOMAINS.get(f.name, ()):
            value = getattr(params, f.name)
            if not _COMPARISONS[comparison](value, bound):
                raise ValueError(f"{f.name} = {value!r} is not {comparison} {bound!r}")


def require_count(name: str, value) -> None:
    """Reject anything but a nonnegative integer (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} = {value!r} is not an integer")
    if value < 0:
        raise ValueError(f"{name} = {value} is negative")


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
        require_count("photons", self.photons)
        require_domains(self)


@dataclass(frozen=True)
class ThermalParams:
    """One qubit immersed in a thermal reservoir.

    Attributes:
        mean_occupation: mean boson number of the reservoir, >= 0.
        gamma: qubit decay rate, > 0.
        alpha: initial-state mixing angle in radians.
    """

    mean_occupation: float
    gamma: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        require_finite(self)
        require_domains(self)


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
        require_domains(self)


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

    def __post_init__(self):
        require_finite(self)
        require_domains(self)


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
        require_domains(self)


def _reservoir_rates(kind, strength, gamma) -> tuple[float, float, float, float]:
    """(steady, pop_rate, x_rate, y_rate) of one qubit in a reservoir of
    occupation N: the excited population relaxes toward steady =
    N/(2N + 1) at pop_rate = gamma (2N + 1), and x_rate and y_rate are
    twice the sigma_x and sigma_y Bloch decay rates, 2 gamma (N +- M + 1/2).
    A thermal reservoir has N = m and M = 0. A squeezed vacuum has
    N = sinh^2(r), M = cosh(r) sinh(r) and the exact rates gamma exp(+-2r);
    N - M + 1/2 itself loses every digit to cancellation at large r.
    ValueError where a rate overflows."""
    strength, gamma = float(strength), float(gamma)  # Python floats overflow silently
    if kind == "thermal":
        occupation, name = strength, "mean_occupation"
        x_rate = y_rate = 2.0 * gamma * (strength + 0.5)
    else:
        with np.errstate(over="ignore"):
            occupation = float(np.sinh(strength) ** 2)
            x_rate = gamma * float(np.exp(2.0 * strength))
        name, y_rate = "squeezing", gamma * float(np.exp(-2.0 * strength))
    pop_rate = gamma * (2.0 * occupation + 1.0)
    if not (math.isfinite(pop_rate) and math.isfinite(x_rate) and math.isfinite(y_rate)):
        raise ValueError(f"{name} = {strength!r} at gamma = {gamma!r} overflows the decay rate")
    return occupation / (2.0 * occupation + 1.0), pop_rate, x_rate, y_rate


def _dressed_rate(rate, detuning, coupling) -> float:
    """rate(), the dressed rate of a cavity kernel, or ValueError where it overflows."""
    with contextlib.suppress(OverflowError):  # from a Python float's **; x * x moves last bits
        if math.isfinite(value := float(rate())):
            return value
    raise ValueError(f"detuning = {detuning!r} at coupling = {coupling!r} overflows the rate")


def _fock1_amplitudes(detuning, coupling, photons, alpha):
    """times -> the excited/ground amplitudes (b1, b2) of the
    single-excitation sector. They oscillate at the dressed rate
    sqrt((2 coupling sqrt(photons + 1))^2 + detuning^2)."""
    exchange = 2.0 * coupling * math.sqrt(photons + 1.0)  # Python floats overflow silently
    wd = _dressed_rate(lambda: np.hypot(exchange, detuning), detuning, coupling)
    ca, sa = np.cos(alpha), np.sin(alpha)
    i_ratio_d, half_detuning = 1j * (detuning / wd), 0.5j * detuning
    i_sa_ratio_x, i_ca_ratio_x = 1j * sa * (exchange / wd), 1j * ca * (exchange / wd)

    def amplitudes(t):
        with np.errstate(over="ignore", invalid="ignore"):  # a phase past the double range: NaN
            half = 0.5 * wd * t
            c, s = np.cos(half), np.sin(half)
            phase = np.exp(half_detuning * t)
        b1 = phase * (ca * (c - i_ratio_d * s) - i_sa_ratio_x * s)
        b2 = np.conj(phase) * (sa * (c + i_ratio_d * s) - i_ca_ratio_x * s)
        return b1, b2

    return amplitudes


def _fock1_kernel(detuning, coupling, photons, alpha) -> Kernel:
    """Reduced qubit states diag(|b1|^2, |b2|^2) after tracing the cavity."""
    amplitudes = _fock1_amplitudes(detuning, coupling, photons, alpha)

    def states(times):
        values = np.zeros((4, len(times)))
        values[0], values[1] = (np.abs(b) ** 2 for b in amplitudes(times))
        return BlockState(QUBIT_BLOCKS, values)

    return states


def _reservoir_qubit_kernel(kind, strength, gamma, alpha) -> Kernel:
    """Qubit states in a reservoir (see _reservoir_rates): populations
    relax toward the steady state, and the real coherences of the initial
    state decay at the sigma_x rate, half of x_rate."""
    steady, pop_rate, x_rate, _ = _reservoir_rates(kind, strength, gamma)
    pop_decay, coherence_decay = -pop_rate, -0.5 * x_rate
    excess, coherence = np.cos(alpha) ** 2 - steady, np.cos(alpha) * np.sin(alpha)

    def states(times):
        values = np.zeros((4, len(times)))
        with np.errstate(over="ignore"):  # rate * t past the double range: exp(-inf) = 0
            values[0] = steady + excess * np.exp(pop_decay * times)
            values[2] = coherence * np.exp(coherence_decay * times)
        values[1] = 1.0 - values[0]
        return BlockState(QUBIT_BLOCKS, values)

    return states


def _fock2_amplitudes(detuning, coupling, alpha):
    """times -> the amplitudes (C_eg, C_ge, C_gg) of the two-qubit
    single-excitation sector. They oscillate at the collective rate
    sqrt(8 coupling^2 + detuning^2)."""
    wd = _dressed_rate(lambda: np.sqrt(8.0 * coupling**2 + detuning**2), detuning, coupling)
    ca, sa = np.cos(alpha), np.sin(alpha)
    symmetric_weight, antisymmetric = 0.5 * (ca + sa), 0.5 * (ca - sa)
    i_ratio_d, half_detuning = 1j * (detuning / wd), 0.5j * detuning
    gg_weight, gg_detuning = -(ca + sa) * (2.0j * coupling / wd), -0.5j * detuning

    def amplitudes(t):
        with np.errstate(over="ignore", invalid="ignore"):  # a phase past the double range: NaN
            half = 0.5 * wd * t
            c, s = np.cos(half), np.sin(half)
            symmetric = symmetric_weight * (c - i_ratio_d * s) * np.exp(half_detuning * t)
            c_gg = gg_weight * s * np.exp(gg_detuning * t)
        return symmetric + antisymmetric, symmetric - antisymmetric, c_gg

    return amplitudes


def _fock2_kernel(detuning, coupling, alpha) -> Kernel:
    """Two-qubit states after tracing the cavity: {|eg>, |ge>} carries the
    excitation, {|ee>, |gg>} holds |gg> and an empty |ee>."""
    amplitudes = _fock2_amplitudes(detuning, coupling, alpha)

    def states(times):
        c_eg, c_ge, c_gg = amplitudes(times)
        coherence = c_eg * np.conj(c_ge)
        values = np.zeros((8, len(times)))
        values[0], values[2], values[3] = np.abs(c_eg) ** 2, np.abs(c_ge) ** 2, np.abs(c_gg) ** 2
        values[4], values[6] = coherence.real, coherence.imag
        return BlockState(X_BLOCKS, values)

    return states


def _reservoir_pair_kernel(kind, strength, gamma) -> Kernel:
    """Exact two-qubit states (Lambda_t x Lambda_t)(Bell) for independent,
    identical reservoirs, with Lambda_t the one-qubit closed form.

    Each Lambda_t relaxes the excited population toward the steady state
    and damps the sigma_x and sigma_y Bloch components at half of x_rate
    and y_rate (see _reservoir_rates). The Bell state's sigma_x sigma_x and
    sigma_y sigma_y parts therefore decay at x_rate and y_rate; they set
    the |eg><ge| and |ee><gg| coherences.
    """
    steady, pop_rate, x_rate, y_rate = _reservoir_rates(kind, strength, gamma)
    pop_decay, excited = -pop_rate, 1.0 - steady

    def states(times):
        with np.errstate(over="ignore"):  # rate * t past the double range: exp(-inf) = 0
            pop_env = np.exp(pop_decay * times)
            x_decay, y_decay = np.exp(-x_rate * times), np.exp(-y_rate * times)
        up_from_e, up_from_g = steady + excited * pop_env, steady * (1.0 - pop_env)
        down_from_e, down_from_g = 1.0 - up_from_e, 1.0 - up_from_g
        values = np.zeros((8, len(times)))
        values[0] = values[2] = 0.5 * (up_from_e * down_from_g + up_from_g * down_from_e)
        values[1], values[3] = up_from_e * up_from_g, down_from_e * down_from_g
        values[4], values[5] = 0.25 * (x_decay + y_decay), 0.25 * (x_decay - y_decay)
        return BlockState(X_BLOCKS, values)

    return states


@dataclass(frozen=True)
class ChannelModel:
    """A map from an estimand value to the Kernel of its raw states.

    Attributes:
        value: nominal parameter value.
        floor: lower domain edge for finite differences (None if unbounded).
        support: QUBIT_BLOCKS or X_BLOCKS, the blocks that carry every
            state and derivative of the model (see qstate.BlockState).
        kernel: value -> Kernel. Every kernel call returns a fresh values
            array, which the derivative stencil scales in place.
    """

    value: float
    floor: float | None
    support: tuple[tuple[int, int], ...]
    kernel: Callable[[float], Kernel]

    def states(self, value: float, times) -> BlockState:
        return self.kernel(value)(np.atleast_1d(np.asarray(times, dtype=float)))


def fock1_channel(p: FockParams) -> ChannelModel:
    """Detuning-parameterized channel for the one-qubit cavity model."""
    return ChannelModel(p.detuning, None, QUBIT_BLOCKS,
                        lambda v: _fock1_kernel(v, p.coupling, p.photons, p.alpha))


def thermal1_channel(p: ThermalParams) -> ChannelModel:
    """Occupation-parameterized channel for the thermal reservoir model."""
    return ChannelModel(p.mean_occupation, 0.0, QUBIT_BLOCKS,
                        lambda v: _reservoir_qubit_kernel("thermal", v, p.gamma, p.alpha))


def squeezed1_channel(p: SqueezedParams) -> ChannelModel:
    """Squeezing-parameterized channel for the squeezed reservoir model."""
    return ChannelModel(p.squeezing, 0.0, QUBIT_BLOCKS,
                        lambda v: _reservoir_qubit_kernel("squeezed", v, p.gamma, p.alpha))


def fock2_channel(p: TwoQubitFockParams) -> ChannelModel:
    """Detuning-parameterized channel for the two-qubit cavity model, on
    the X-state blocks."""
    return ChannelModel(p.detuning, None, X_BLOCKS,
                        lambda v: _fock2_kernel(v, p.coupling, p.alpha))


def reservoir_pair_channel(p: TwoQubitReservoirParams) -> ChannelModel:
    """Strength-parameterized channel for the two-qubit reservoir models,
    X-states on {|eg>, |ge>} + {|ee>, |gg>}."""
    return ChannelModel(p.strength, 0.0, X_BLOCKS,
                        lambda v: _reservoir_pair_kernel(p.kind, v, p.gamma))
