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


@np.errstate(over="ignore", invalid="ignore")  # a phase past the double range: NaN
def _fock1_states(half_wd, weights, times):
    half, values = half_wd * times, np.empty((len(half_wd), 4, len(times)))
    c, s = np.cos(half)[:, None], np.sin(half)[:, None]  # squared in place
    np.multiply(weights[0], np.multiply(c, c, out=c), out=values[:, :2])
    values[:, :2] += weights[1] * np.multiply(s, s, out=s)
    values[:, 2:] = 0.0
    return values


@np.errstate(over="ignore")  # a rate past the double range: inf, named by _require_rate
def fock1_kernel(points, coupling, photons, alpha) -> Kernel:
    """Reduced qubit states diag(p_e, p_g) after tracing the cavity, from
    cos(alpha)|e,n> + sin(alpha)|g,n+1>. With c, s = cos, sin(w t / 2) at the
    dressed rate w = sqrt(x^2 + detuning^2), x = 2 coupling sqrt(photons + 1):
    p_e = cos^2(alpha) c^2 + u^2 s^2 and p_g = sin^2(alpha) c^2 + v^2 s^2, with
    (u, v) = (detuning cos(alpha) + x sin(alpha), detuning sin(alpha) - x cos(alpha)) / w
    formed point by point."""
    exchange = 2.0 * coupling * math.sqrt(photons + 1.0)  # Python floats overflow silently
    ca, sa = float(np.cos(alpha)), float(np.sin(alpha))
    detunings = [float(d) for d in points]
    rates = np.hypot(exchange, detunings).tolist()
    _require_rate(rates, detunings, coupling)
    ratios = [(d / w, exchange / w) for d, w in zip(detunings, rates)]
    uv = [(ca * r + sa * x, sa * r - ca * x) for r, x in ratios]
    weights = np.array([((ca * ca, sa * sa), (u * u, v * v)) for u, v in uv])  # (K, 2, 2)
    return functools.partial(_fock1_states, _HALF * np.array(rates)[:, None],
                             weights.transpose(1, 0, 2)[..., None])


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


@np.errstate(over="ignore", invalid="ignore")  # a phase past the double range: NaN
def _fock2_states(halves, ratio_d, gg_weight, sigma2, delta2, two_delta_sigma, times):
    (c, c_phase), (s, s_phase) = np.cos(angles := halves * times), np.sin(angles)
    q, values = ratio_d * s, np.empty((len(ratio_d), 8, len(times)))  # A / sigma = c - i q
    modulus = np.multiply(sigma2, c * c + q * q, out=values[:, 4])  # |A|^2
    real = (c * c_phase + q * s_phase) * two_delta_sigma  # 2 delta Re A
    np.add(populations := modulus + delta2, real, out=values[:, 0])
    np.subtract(populations, real, out=values[:, 2])
    np.square(gg_weight * s, out=values[:, 3])
    modulus -= delta2  # Re(C_eg C_ge*) = |A|^2 - delta^2
    np.multiply(q * c_phase - c * s_phase, two_delta_sigma, out=values[:, 6])  # -2 delta Im A
    values[:, 1], values[:, 5::2] = 0.0, 0.0  # the empty |ee> and its coherence
    return values


@np.errstate(over="ignore")  # a rate past the double range: inf, named by _require_rate
def fock2_kernel(points, coupling, alpha) -> Kernel:
    """Two-qubit states after tracing the cavity, from cos(alpha)|eg> +
    sin(alpha)|ge>: {|eg>, |ge>} carries the excitation, {|ee>, |gg>} holds
    |gg> and an empty |ee>. The symmetric part exchanges with |gg,1> at the
    rate w = sqrt(8 coupling^2 + detuning^2): with c, s = cos, sin(w t / 2)
    and sigma, delta = (cos(alpha) +- sin(alpha)) / 2, C_eg, C_ge = A +- delta,
    A = sigma (c - i (detuning / w) s) exp(i detuning t / 2), and
    |C_gg|^2 = (4 sigma (coupling / w) s)^2."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    sigma, delta = float(0.5 * (ca + sa)), float(0.5 * (ca - sa))
    detunings = [float(d) for d in points]
    squares = np.float_power([coupling, *detunings], 2)  # libm's pow, as in _reservoir_rates
    rates = np.sqrt(8.0 * squares[0] + squares[1:]).tolist()
    _require_rate(rates, detunings, coupling)
    columns = np.array([(0.5 * w, 0.5 * d, d / w, 4.0 * sigma * (coupling / w))  # (4, K, 1),
                        for d, w in zip(detunings, rates)]).T.copy()[..., None]  # not strided
    return functools.partial(_fock2_states, columns[:2], columns[2], columns[3], *map(
        np.array, (sigma * sigma, delta * delta, 2.0 * delta * sigma)))


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
