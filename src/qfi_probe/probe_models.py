"""Closed-form evolved probe states for the cavity-field and reservoir models.

Each *_kernel function works out the parameter-only constants once and
returns a function of times[N]: the records of K estimand points (a Kernel),
or for the two-qubit reservoirs the states at one value and their exact
derivative. scan_repro.MODELS maps each model to its kernel; the five
*Params builders make ScanConfigs for the benchmark tests (ROADMAP item 8).
Time is in coupling units (cavity models) or decay-rate units (reservoirs)."""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .qfi_engine import stencil_points

# times[N] -> a fresh (K, 4 P, N) array: the BlockState values at K points
Kernel = Callable[[np.ndarray], np.ndarray]
_LOWEST, _HALF, _ONE, _QUARTER, _HALVES, _EXPONENTS = map(  # as in qstate, and exp(+-2r)
    np.array, (-np.finfo(float).max, 0.5, 1.0, 0.25, [[0.5], [-0.5]], [2.0, -2.0]))


def _config(model_id, **fields):
    from .scan_repro import ScanConfig  # at call time: scan_repro imports this module
    return ScanConfig(model_id, **fields)


def FockParams(detuning, coupling=1.0, photons=0, alpha=0.0):
    """The fock1 ScanConfig, with the benchmark tests' argument order and defaults."""
    return _config("fock1", detuning=detuning, coupling=coupling, photons=photons, alpha=alpha)


def ThermalParams(mean_occupation, gamma=1.0, alpha=0.0):
    """The thermal1 ScanConfig, with the benchmark tests' argument order and defaults."""
    return _config("thermal1", mean_occupation=mean_occupation, gamma=gamma, alpha=alpha)


def SqueezedParams(squeezing, gamma=1.0, alpha=0.0):
    """The squeezed1 ScanConfig, with the benchmark tests' argument order and defaults."""
    return _config("squeezed1", squeezing=squeezing, gamma=gamma, alpha=alpha)


def TwoQubitFockParams(detuning, coupling=1.0, alpha=math.pi / 4.0):
    """The fock2 ScanConfig, with the benchmark tests' argument order and defaults."""
    return _config("fock2", detuning=detuning, coupling=coupling, alpha=alpha)


def TwoQubitReservoirParams(kind, strength, gamma):
    """The thermal2 or squeezed2 ScanConfig of kind "thermal" or "squeezed"."""
    if kind not in ("thermal", "squeezed"):
        raise ValueError(f"unsupported reservoir kind {kind!r}")
    field = "mean_occupation" if kind == "thermal" else "squeezing"
    return _config(kind + "2", **{field: strength}, gamma=gamma)


@np.errstate(over="ignore")  # a rate past the double range: inf, named below
def _reservoir_rates(kind, points, gamma) -> list[tuple[float, float, float, float]]:
    """(steady, pop_rate, x_rate, y_rate) floats of one qubit in a reservoir of
    occupation N at each point: the excited population relaxes toward
    steady = N/(2N + 1) at pop_rate = gamma (2N + 1), and x_rate and y_rate
    are twice the sigma_x and sigma_y Bloch decay rates, 2 gamma (N +- M + 1/2).
    A thermal reservoir has N = m and M = 0, so its three rates are one float.
    A squeezed vacuum has N = sinh^2(r), M = cosh(r) sinh(r) and the exact rates
    gamma exp(+-2r); N - M + 1/2 itself loses every digit to cancellation at
    large r. ValueError naming the first point where a rate overflows."""
    gamma, strength = float(gamma), np.array(points, dtype=float)
    if kind == "thermal":  # 2 gamma (m + 1/2) rounds as gamma (2m + 1): doubling is exact
        name, rows = "mean_occupation", [
            (m / (2.0 * m + 1.0), rate, rate, rate)
            for m in strength.tolist() for rate in (gamma * (2.0 * m + 1.0),)]
    else:  # float_power squares by libm's pow, as Python floats do; x * x moves last bits
        name, rows = "squeezing", [
            (n / (2.0 * n + 1.0), gamma * (2.0 * n + 1.0), gamma * x, gamma * y) for n, (x, y)
            in zip(np.float_power(np.sinh(strength), 2).tolist(),
                   np.exp(strength[:, None] * _EXPONENTS).tolist())]
    for point, (_, *rates) in zip(strength.tolist(), rows):
        if not max(rates) < math.inf:
            raise ValueError(f"{name} = {point!r} at gamma = {gamma!r} overflows the decay rate")
    return rows


def _require_rate(wd, detuning, coupling) -> None:
    """ValueError naming the first point where the dressed rate of a cavity
    kernel overflows, or underflows to 0 (fock2's 8 coupling^2 at detuning 0)."""
    for rate, value in zip(wd, detuning):
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"detuning = {value!r} at coupling = {coupling!r}"
                             f" {'overflows' if rate else 'underflows'} the rate")


@np.errstate(over="ignore")  # a rate past the double range: inf, named by _require_rate
def _fock1_amplitudes(points, coupling, photons, alpha):
    """times -> the excited/ground amplitudes (b1, b2), one (2, K, N) array,
    of the single-excitation sector, from constants formed point by point. They
    oscillate at the dressed rate sqrt((2 coupling sqrt(photons + 1))^2 + detuning^2)."""
    exchange = 2.0 * coupling * math.sqrt(photons + 1.0)  # Python floats overflow silently
    ca, sa = np.cos(alpha), np.sin(alpha)
    detunings = [float(d) for d in points]
    rates = np.hypot(exchange, detunings).tolist()
    _require_rate(rates, detunings, coupling)
    half_wd, weights = _HALF * np.array(rates)[:, None], np.array([ca, sa])[:, None, None]
    columns = np.array([(1j * (d / w), 0.5j * d, 1j * sa * (x := exchange / w), 1j * ca * x)
                        for d, w in zip(detunings, rates)]).T[..., None]  # (4, K, 1)
    i_ratio_d, half_detuning, i_ratio_x = columns[0], columns[1], columns[2:]

    def amplitudes(t):
        half = half_wd * t
        c, s = np.cos(half), np.sin(half)
        b, phases = np.empty((2, *half.shape), complex), np.empty((2, *half.shape), complex)
        np.subtract(c, i_d_s := i_ratio_d * s, out=b[0])
        np.add(c, i_d_s, out=b[1])
        np.multiply(weights, b, out=b)  # ca (c - i d s), sa (c + i d s)
        b -= i_ratio_x * s
        np.exp(half_detuning * t, out=phases[0])
        np.conjugate(phases[0], out=phases[1])
        return np.multiply(phases, b, out=b)

    return amplitudes


@np.errstate(over="ignore", invalid="ignore")  # a phase past the double range: NaN
def _fock1_states(amplitudes, times):
    b = amplitudes(times)
    values = np.empty((b.shape[1], 4, len(times)))
    np.square(np.abs(b), out=values[:, :2].transpose(1, 0, 2))
    values[:, 2:] = 0.0
    return values


def fock1_kernel(points, coupling, photons, alpha) -> Kernel:
    """Reduced qubit states diag(|b1|^2, |b2|^2) after tracing the cavity."""
    return functools.partial(_fock1_states, _fock1_amplitudes(points, coupling, photons, alpha))


@np.errstate(over="ignore")  # rate * t past the double range: exp(-inf) = 0
def _qubit_states(decays, offsets, scales, times):
    values = np.empty((len(decays), 4, len(times)))
    np.add(offsets, np.multiply(scales, np.exp(decays * times)), out=values[:, ::2])
    np.subtract(_ONE, values[:, 0], out=values[:, 1])
    values[:, 3] = 0.0
    return values


def reservoir_qubit_kernel(kind, points, gamma, alpha) -> Kernel:
    """Qubit states in a reservoir (see _reservoir_rates): populations
    relax toward the steady state, and the real coherences of the initial
    state decay at the sigma_x rate, half of x_rate."""
    excited, coherence = float(np.cos(alpha) ** 2), float(np.cos(alpha) * np.sin(alpha))
    table = np.array([(-pop_rate, -0.5 * x_rate, steady, -0.0, excited - steady, coherence)
                      for steady, pop_rate, x_rate, _ in _reservoir_rates(kind, points, gamma)])
    table = table.reshape(-1, 3, 2, 1)  # decays, offsets (-0.0 adds nothing), scales
    return functools.partial(_qubit_states, table[:, 0], table[:, 1], table[:, 2])


@np.errstate(over="ignore")  # a rate past the double range: inf, named by _require_rate
def _fock2_amplitudes(points, coupling, alpha):
    """times -> the amplitudes (C_eg, C_ge, C_gg), rows 0, 2 and 3 of one (4, K, N) array
    with row 1, the empty |ee>, at 0, of the two-qubit single-excitation sector, from
    constants formed point by point. They oscillate at sqrt(8 coupling^2 + detuning^2)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    sym, antisym = np.array(0.5 * (ca + sa)), np.array(0.5 * (ca - sa))  # |eg> +- |ge>
    detunings = [float(d) for d in points]
    squares = np.float_power([coupling, *detunings], 2)  # libm's pow, as in _reservoir_rates
    rates = np.sqrt(8.0 * squares[0] + squares[1:]).tolist()
    _require_rate(rates, detunings, coupling)
    half_wd, gg = _HALF * np.array(rates)[:, None], -float(ca + sa)
    columns = np.array([(1j * (d / w), gg * (2.0j * (coupling / w)), 0.5j * d, -0.5j * d)
                        for d, w in zip(detunings, rates)]).T[..., None]  # (4, K, 1)
    i_ratio_d, gg_weight, phase_rates = columns[0], columns[1], columns[2:]  # C_eg + C_ge, C_gg

    def amplitudes(t):
        half = half_wd * t
        c, s, amps = np.cos(half), np.sin(half), np.empty((4, *half.shape), complex)
        np.multiply(sym, c - i_ratio_d * s, out=amps[0])
        np.multiply(gg_weight, s, out=amps[3])
        np.multiply(amps[::3], np.exp(phase_rates * t), out=amps[::3])
        np.subtract(amps[0], antisym, out=amps[2])
        np.add(amps[0], antisym, out=amps[0])
        amps[1] = 0.0
        return amps[0], amps[2], amps[3]

    return amplitudes


@np.errstate(over="ignore", invalid="ignore")  # a phase past the double range: NaN
def _fock2_states(amplitudes, times):
    c_eg, c_ge, _ = amplitudes(times)
    values = np.empty((len(c_eg), 8, len(times)))  # rows 0 to 3: |C_eg, 0, C_ge, C_gg|^2
    np.square(np.abs(c_eg.base), out=values[:, :4].transpose(1, 0, 2))
    values[:, 4], values[:, 6] = (eg_ge := np.multiply(c_eg, np.conj(c_ge))).real, eg_ge.imag
    values[:, 5::2] = 0.0  # the empty |ee>'s coherence
    return values


def fock2_kernel(points, coupling, alpha) -> Kernel:
    """Two-qubit states after tracing the cavity: {|eg>, |ge>} carries the
    excitation, {|ee>, |gg>} holds |gg> and an empty |ee>."""
    return functools.partial(_fock2_states, _fock2_amplitudes(points, coupling, alpha))


def reservoir_pair_kernel(kind, value, gamma):
    """(times[N], derive=True) -> a fresh (2, 8, N) record: the states
    (Lambda_t x Lambda_t)(Bell) for independent, identical reservoirs and, if
    derive, their exact derivative in the strength at value. Lambda_t relaxes
    the populations and damps the Bloch sigma_x and sigma_y at half of x_rate
    and y_rate: the |eg><ge| and |ee><gg| coherences decay at x_rate, y_rate.
    d exp(-rate t) = slope (-rate t) exp(-rate t), slope = d ln(rate)/d
    strength, -rate t clipped to the doubles: 0 where the exponential is. The
    rates must also fit at the stencil points of value, as the stencil's do."""
    thermal, points = kind == "thermal", stencil_points(value, 0.0)[0]
    steady, pop_rate, x_rate, y_rate = _reservoir_rates(kind, points, gamma)[0]
    spread = pop_rate / gamma  # 2N + 1: d steady = tilt / spread, d ln(pop_rate) = 2 tilt
    tilt = 1.0 / spread if thermal else math.tanh(2.0 * value)
    rates = -pop_rate if thermal else [[-pop_rate], [-x_rate], [-y_rate]]
    slopes = 2.0 * tilt if thermal else [[2.0 * tilt], [2.0], [-2.0]]
    return functools.partial(_pair_states, thermal, *map(np.array, (
        rates, slopes, steady, 1.0 - steady, tilt / spread)))


@np.errstate(over="ignore")  # rate * t past the double range: exp(-inf) = 0
def _pair_states(thermal, rates, slopes, steady, excited, d_steady, times, derive=True):
    exponent = rates * times
    values = np.empty((1 + derive, 8, len(times)))
    decays = np.empty((1 + derive, *exponent.shape))  # exp(-rate t) and its derivative
    pop_env = np.exp(exponent, out=decays[0])[() if thermal else 0]
    up_from_e, up_from_g = steady + excited * pop_env, steady * (rest := _ONE - pop_env)
    down_from_e, down_from_g = _ONE - up_from_e, _ONE - up_from_g
    np.multiply(up_from_e, up_from_g, out=values[0, 1])
    np.multiply(down_from_e, down_from_g, out=values[0, 3])
    np.add(up_from_e * down_from_g, up_from_g * down_from_e, out=values[0, 0])
    if derive:  # the product rule, and the trace for row 0: 2 d0 + d1 + d3 = 0
        exponent = np.maximum(exponent, _LOWEST)  # fresh: numpy is slow in place on one element
        d_pop = np.multiply(exponent * decays[0], slopes, out=decays[1])[() if thermal else 0]
        d_up_e, d_up_g = excited * d_pop + (base := d_steady * rest), base - steady * d_pop
        d_ee = np.add(d_up_e * up_from_g, up_from_e * d_up_g, out=values[1, 1])
        np.add(d_ee, np.subtract(d_ee, d_up_e + d_up_g, out=values[1, 3]), out=values[1, 0])
    values[:, 0] *= _HALVES[:len(values)]
    values[:, 2] = values[:, 0]
    if thermal:  # x = y: 0.25 (x + y) = 0.5 x, and 0.25 (x - y) = 0
        np.multiply(decays, _HALF, out=values[:, 4])
    else:
        np.add(decays[:, 1], decays[:, 2], out=values[:, 4])
        np.subtract(decays[:, 1], decays[:, 2], out=values[:, 5])
        values[:, 4:6] *= _QUARTER
    values[:, 5 if thermal else 6:] = 0.0  # the imaginary parts, and row 5 at x = y
    return values
