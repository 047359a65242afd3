"""Closed-form evolved probe states for the cavity-field and reservoir models.

Each *_kernel function works out the parameter-only constants once and
returns a function of times[N]: the records of K estimand points (a Kernel),
or for the two-qubit reservoirs the states at one value and their exact
derivative. scan_repro.MODELS maps each model to its kernel; the five
*Params builders make ScanConfigs for the benchmark tests (ROADMAP item 8).
Time is in coupling units (cavity models) or decay-rate units (reservoirs)."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .qfi_engine import stencil_points

# times[N] -> a fresh (K, 4 P, N) array: the BlockState values at K points
Kernel = Callable[[np.ndarray], np.ndarray]
_LOWEST, _HALVES = -np.finfo(float).max, np.array([[0.5], [-0.5]])  # for reservoir_pair_kernel


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


def _reservoir_rates(kind, points, gamma) -> tuple[np.ndarray, ...]:
    """(steady, pop_rate, x_rate, y_rate) of one qubit in a reservoir of
    occupation N, as (K, 1) columns over the K points: the excited
    population relaxes toward steady = N/(2N + 1) at pop_rate =
    gamma (2N + 1), and x_rate and y_rate are twice the sigma_x and sigma_y
    Bloch decay rates, 2 gamma (N +- M + 1/2). A thermal reservoir has
    N = m and M = 0, so its three rates are one array. A squeezed vacuum
    has N = sinh^2(r), M = cosh(r) sinh(r) and the exact rates
    gamma exp(+-2r); N - M + 1/2 itself loses every digit to cancellation
    at large r. ValueError naming the first point where a rate overflows."""
    strength, gamma = np.array(points, dtype=float)[:, None], float(gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "thermal":  # 2 gamma (m + 1/2) rounds as gamma (2m + 1): doubling is exact
            occupation, name = strength, "mean_occupation"
            pop_rate = x_rate = y_rate = gamma * (2.0 * strength + 1.0)
            finite = np.isfinite(pop_rate)
        else:  # float_power squares by libm's pow, as Python floats do; x * x moves last bits
            occupation, name = np.float_power(np.sinh(strength), 2), "squeezing"
            pop_rate = gamma * (2.0 * occupation + 1.0)
            x_rate, y_rate = gamma * np.exp(2.0 * strength), gamma * np.exp(-2.0 * strength)
            finite = np.isfinite(pop_rate) & np.isfinite(x_rate) & np.isfinite(y_rate)
        steady = occupation / (2.0 * occupation + 1.0)
    if not finite.all():
        raise ValueError(f"{name} = {float(strength[~finite][0])!r} at gamma = {gamma!r}"
                         " overflows the decay rate")
    return steady, pop_rate, x_rate, y_rate


def _require_rate(wd, detuning, coupling) -> None:
    """ValueError naming the first point where the dressed rate of a cavity
    kernel overflows, or underflows to 0 (fock2's 8 coupling^2 at detuning 0)."""
    if not (good := np.isfinite(wd) & (wd > 0.0)).all():
        raise ValueError(f"detuning = {float(detuning[~good][0])!r} at coupling = {coupling!r}"
                         f" {'overflows' if wd[~good][0] else 'underflows'} the rate")


def _fock1_amplitudes(points, coupling, photons, alpha):
    """times -> the excited/ground amplitudes (b1, b2)[K, N] of the
    single-excitation sector. They oscillate at the dressed rate
    sqrt((2 coupling sqrt(photons + 1))^2 + detuning^2)."""
    exchange = 2.0 * coupling * math.sqrt(photons + 1.0)  # Python floats overflow silently
    ca, sa = np.cos(alpha), np.sin(alpha)
    detuning = np.array(points, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        wd = np.hypot(exchange, detuning)
    _require_rate(wd, detuning, coupling)
    i_ratio_d, half_detuning = 1j * (detuning / wd), 0.5j * detuning
    i_sa_ratio_x, i_ca_ratio_x = 1j * sa * (exchange / wd), 1j * ca * (exchange / wd)

    def amplitudes(t):
        with np.errstate(over="ignore", invalid="ignore"):  # a phase past the double range: NaN
            half = 0.5 * wd * t
            c, s = np.cos(half), np.sin(half)
            phase = np.exp(half_detuning * t)
        b1 = np.multiply(phase, ca * (c - i_ratio_d * s) - i_sa_ratio_x * s)
        b2 = np.multiply(np.conj(phase), sa * (c + i_ratio_d * s) - i_ca_ratio_x * s)
        return b1, b2

    return amplitudes


def fock1_kernel(points, coupling, photons, alpha) -> Kernel:
    """Reduced qubit states diag(|b1|^2, |b2|^2) after tracing the cavity."""
    amplitudes = _fock1_amplitudes(points, coupling, photons, alpha)

    def states(times):
        values = np.empty((len(points), 4, len(times)))
        values[:, 0], values[:, 1] = (np.abs(b) ** 2 for b in amplitudes(times))
        values[:, 2:] = 0.0
        return values

    return states


def reservoir_qubit_kernel(kind, points, gamma, alpha) -> Kernel:
    """Qubit states in a reservoir (see _reservoir_rates): populations
    relax toward the steady state, and the real coherences of the initial
    state decay at the sigma_x rate, half of x_rate."""
    steady, pop_rate, x_rate, _ = _reservoir_rates(kind, points, gamma)
    pop_decay, coherence_decay = -pop_rate, -0.5 * x_rate
    excess, coherence = np.cos(alpha) ** 2 - steady, np.cos(alpha) * np.sin(alpha)

    def states(times):
        values = np.empty((len(points), 4, len(times)))
        with np.errstate(over="ignore"):  # rate * t past the double range: exp(-inf) = 0
            values[:, 0] = steady + excess * np.exp(pop_decay * times)
            values[:, 2] = coherence * np.exp(coherence_decay * times)
        values[:, 1], values[:, 3] = 1.0 - values[:, 0], 0.0
        return values

    return states


def _fock2_amplitudes(points, coupling, alpha):
    """times -> the amplitudes (C_eg, C_ge, C_gg)[K, N] of the two-qubit
    single-excitation sector. They oscillate at the collective rate
    sqrt(8 coupling^2 + detuning^2)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    sym, antisym = 0.5 * (ca + sa), 0.5 * (ca - sa)  # the |eg> +- |ge> weights
    detuning = np.array(points, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # float_power squares by libm's pow, as in _reservoir_rates
        wd = np.sqrt(8.0 * np.float_power(coupling, 2) + np.float_power(detuning, 2))
    _require_rate(wd, detuning, coupling)
    i_ratio_d, half_detuning = 1j * (detuning / wd), 0.5j * detuning
    gg_weight, gg_detuning = -(ca + sa) * (2.0j * (coupling / wd)), -0.5j * detuning

    def amplitudes(t):
        with np.errstate(over="ignore", invalid="ignore"):  # a phase past the double range: NaN
            half = 0.5 * wd * t
            c, s = np.cos(half), np.sin(half)
            symmetric = np.multiply(sym * (c - i_ratio_d * s), np.exp(half_detuning * t))
            c_gg = np.multiply(gg_weight * s, np.exp(gg_detuning * t))
        return symmetric + antisym, symmetric - antisym, c_gg

    return amplitudes


def fock2_kernel(points, coupling, alpha) -> Kernel:
    """Two-qubit states after tracing the cavity: {|eg>, |ge>} carries the
    excitation, {|ee>, |gg>} holds |gg> and an empty |ee>."""
    amplitudes = _fock2_amplitudes(points, coupling, alpha)

    def states(times):
        c_eg, c_ge, c_gg = amplitudes(times)
        coherence = np.multiply(c_eg, np.conj(c_ge))
        values = np.empty((len(points), 8, len(times)))
        values[:, 0], values[:, 2], values[:, 3] = (np.abs(c) ** 2 for c in (c_eg, c_ge, c_gg))
        values[:, 4], values[:, 6] = coherence.real, coherence.imag
        values[:, 1] = values[:, 5] = values[:, 7] = 0.0  # |ee> and its coherence are empty
        return values

    return states


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
    steady, pop_rate, x_rate, y_rate = (r.item(0) for r in _reservoir_rates(kind, points, gamma))
    spread = pop_rate / gamma  # 2N + 1: d steady = tilt / spread, d ln(pop_rate) = 2 tilt
    tilt = 1.0 / spread if thermal else math.tanh(2.0 * value)
    rates = -pop_rate if thermal else np.array([[-pop_rate], [-x_rate], [-y_rate]])
    slopes = 2.0 * tilt if thermal else np.array([[2.0 * tilt], [2.0], [-2.0]])
    excited, d_steady = 1.0 - steady, tilt / spread

    def tangent(times, derive=True):
        with np.errstate(over="ignore"):  # rate * t past the double range: exp(-inf) = 0
            exponent = rates * times
        values = np.empty((1 + derive, 8, len(times)))
        decays = np.empty((1 + derive, *exponent.shape))  # exp(-rate t) and its derivative
        pop_env = np.exp(exponent, out=decays[0])[() if thermal else 0]
        up_from_e, up_from_g = steady + excited * pop_env, steady * (rest := 1.0 - pop_env)
        down_from_e, down_from_g = 1.0 - up_from_e, 1.0 - up_from_g
        np.multiply(up_from_e, up_from_g, out=values[0, 1])
        np.multiply(down_from_e, down_from_g, out=values[0, 3])
        np.add(up_from_e * down_from_g, up_from_g * down_from_e, out=values[0, 0])
        if derive:  # the product rule, and the trace for row 0: 2 d0 + d1 + d3 = 0
            np.maximum(exponent, _LOWEST, out=exponent)
            d_pop = np.multiply(exponent * decays[0], slopes, out=decays[1])[() if thermal else 0]
            d_up_e, d_up_g = excited * d_pop + (base := d_steady * rest), base - steady * d_pop
            d_ee = np.add(d_up_e * up_from_g, up_from_e * d_up_g, out=values[1, 1])
            np.add(d_ee, np.subtract(d_ee, d_up_e + d_up_g, out=values[1, 3]), out=values[1, 0])
        values[:, 0] *= _HALVES[:len(values)]
        values[:, 2] = values[:, 0]
        if thermal:  # x = y: 0.25 (x + y) = 0.5 x, and 0.25 (x - y) = 0
            np.multiply(decays, 0.5, out=values[:, 4])
        else:
            np.add(decays[:, 1], decays[:, 2], out=values[:, 4])
            np.subtract(decays[:, 1], decays[:, 2], out=values[:, 5])
            values[:, 4:6] *= 0.25
        values[:, 5 if thermal else 6:] = 0.0  # the imaginary parts, and row 5 at x = y
        return values

    return tangent
