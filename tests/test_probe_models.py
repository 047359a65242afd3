"""Tests for the closed-form probe models against trivial limits, known
values and each other; tests/test_symbolic.py proves the closed forms and
holds the kernels to them."""

import math

import numpy as np
import pytest

from dataclasses import replace

from helpers import (
    dense,
    fock1_amplitudes,
    nominal,
    trace_out_B,
    state_at,
    states,
)
from qfi_probe import probe_models
from qfi_probe.probe_models import (
    FockParams,
    SqueezedParams,
    ThermalParams,
    TwoQubitFockParams,
    TwoQubitReservoirParams,
    _fock1_amplitudes,
    _fock2_amplitudes,
    _reservoir_rates,
)
from qfi_probe.scan_repro import _ESTIMAND_FIELDS, FIELD_DOMAINS, MODEL_IDS, MODELS, ScanConfig
from qfi_probe.scan_repro import point_fidelity, point_qfi
from symbolic import exact


def test_fock1_purity_identity():
    config = ScanConfig("fock1", alpha=np.pi / 4)
    state = state_at(config, 1.3)
    b1, b2 = fock1_amplitudes(config, 1.3)
    purity = np.trace(state @ state).real
    assert purity == pytest.approx(abs(b1) ** 4 + abs(b2) ** 4, abs=1e-12)


@pytest.mark.parametrize("config, t", [
    (ScanConfig("fock1", alpha=0.0), 0.0),
    # resonant: full transfer at half the period, pi / 2 and pi / (2 sqrt(2))
    (ScanConfig("fock1", detuning=0.0, alpha=0.0), np.pi / 2),
    (ScanConfig("fock2"), 0.0),  # the Bell state
    (ScanConfig("fock2", detuning=0.0), np.pi / (2.0 * np.sqrt(2.0))),
    (ScanConfig("thermal1"), 0.0),  # the initial superposition
    (ScanConfig("thermal1"), 1.0),
    *((ScanConfig("thermal1", alpha=alpha), 50.0) for alpha in (0.0, np.pi / 4, np.pi / 2)),
    *((ScanConfig("squeezed1", squeezing=0.0, alpha=0.0), t) for t in (0.3, 1.0, 2.5)),
    (ScanConfig("squeezed1"), 50.0),
])
def test_states_equal_exact(config, t):
    # steady states at t = 50, and the squeezed vacuum's decay exp(-t)
    state = state_at(config, t)
    np.testing.assert_allclose(state, exact(config, t).rho, rtol=0, atol=1e-14)


class TestThermalOneQubit:
    def test_vacuum_limit_equals_squeezed_vacuum(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha = rng.uniform(0.0, np.pi / 2)
            t = rng.uniform(0.0, 5.0)
            thermal = state_at(ScanConfig("thermal1", mean_occupation=0.0, alpha=alpha), t)
            squeezed = state_at(ScanConfig("squeezed1", squeezing=0.0, alpha=alpha), t)
            assert np.abs(thermal - squeezed).max() <= 1e-12


class TestSqueezedOneQubit:
    def test_populations_match_thermal_coherences_do_not(self):
        # same populations under occupation matching; coherence decay rates
        # differ by the pair correlation
        squeezed_config = ScanConfig("squeezed1", squeezing=0.4, alpha=np.pi / 4)
        occ, pair = np.sinh(0.4) ** 2, np.cosh(0.4) * np.sinh(0.4)
        thermal_config = ScanConfig("thermal1", mean_occupation=occ, alpha=np.pi / 4)
        for t in (0.5, 1.0, 2.0):
            squeezed = state_at(squeezed_config, t)
            thermal = state_at(thermal_config, t)
            assert abs(squeezed[0, 0] - thermal[0, 0]) <= 1e-12
            assert abs(squeezed[1, 1] - thermal[1, 1]) <= 1e-12
            ratio = squeezed[0, 1].real / thermal[0, 1].real
            assert ratio == pytest.approx(np.exp(-pair * t), rel=1e-10)


class TestReservoirPair:
    def test_closed_form_is_product_channel(self):
        # marginals of the closed form follow the one-qubit solutions from
        # |e> and |g>, averaged by the Bell state
        t = 0.7
        pair = ScanConfig("squeezed2", squeezing=0.3, gamma=1.2)
        reduced = trace_out_B(dense(states(pair, 0.3, [t]))[0])
        one = lambda a: state_at(ScanConfig("squeezed1", squeezing=0.3, gamma=1.2, alpha=a), t)
        np.testing.assert_allclose(reduced, 0.5 * (one(0.0) + one(np.pi / 2)), atol=1e-14)

    def test_lindblad_module_reexports_params_only(self):
        from qfi_probe import lindblad

        assert lindblad.__all__ == ["TwoQubitReservoirParams"]
        assert lindblad.TwoQubitReservoirParams is TwoQubitReservoirParams


@pytest.mark.parametrize("builder, args, kwargs, model, fields", [
    (FockParams, (0.7, 1.2, 2, 0.3), {}, "fock1",
     dict(detuning=0.7, coupling=1.2, photons=2, alpha=0.3)),
    (FockParams, (0.7,), {}, "fock1", dict(detuning=0.7, alpha=0.0)),
    (ThermalParams, (0.3, 1.2, 0.4), {}, "thermal1",
     dict(mean_occupation=0.3, gamma=1.2, alpha=0.4)),
    (ThermalParams, (), dict(mean_occupation=0.3, gamma=1.2, alpha=0.4), "thermal1",
     dict(mean_occupation=0.3, gamma=1.2, alpha=0.4)),
    (ThermalParams, (0.3,), {}, "thermal1", dict(mean_occupation=0.3, alpha=0.0)),
    (SqueezedParams, (0.3, 1.2, 0.4), {}, "squeezed1", dict(squeezing=0.3, gamma=1.2, alpha=0.4)),
    (SqueezedParams, (0.3,), {}, "squeezed1", dict(squeezing=0.3, alpha=0.0)),
    (TwoQubitFockParams, (0.7, 1.2), {}, "fock2", dict(detuning=0.7, coupling=1.2)),
    (TwoQubitFockParams, (), dict(detuning=0.7, coupling=1.2), "fock2",
     dict(detuning=0.7, coupling=1.2)),
    (TwoQubitFockParams, (0.7, 1.2, 0.3), {}, "fock2", dict(detuning=0.7, coupling=1.2, alpha=0.3)),
    (TwoQubitReservoirParams, ("thermal", 0.3, 1.2), {}, "thermal2",
     dict(mean_occupation=0.3, gamma=1.2)),
    (TwoQubitReservoirParams, ("squeezed", 0.3, 1.2), {}, "squeezed2",
     dict(squeezing=0.3, gamma=1.2)),
])
def test_builders_return_the_scan_config(builder, args, kwargs, model, fields):
    # the benchmark tests call the builders positionally; the one-qubit
    # builders keep the old classes' alpha default of 0, where ScanConfig
    # defaults to pi / 4. ScanConfig checks every field (test_scan_repro)
    assert builder(*args, **kwargs) == ScanConfig(model, **fields)


@pytest.mark.parametrize("builder, args, kwargs, error, message", [
    # the states do not depend on the frequency scale, which only the
    # temperature chain factor of scan_repro reads
    (ThermalParams, (0.1, 1.0), dict(freq_scale=1.0), TypeError, "freq_scale"),
    # the two-qubit closed form holds for an empty cavity only
    (TwoQubitFockParams, (), dict(detuning=5.0, photons=0), TypeError, "photons"),
    (TwoQubitReservoirParams, ("depolarizing", 0.1, 1.0), {}, ValueError, "kind"),
])
def test_builders_take_no_other_field(builder, args, kwargs, error, message):
    with pytest.raises(error, match=message):
        builder(*args, **kwargs)


def scalar_rates(kind, strength, gamma):
    """(steady, pop_rate, x_rate, y_rate) of one point in Python floats: the
    reference that _reservoir_rates' columns must equal bit for bit."""
    if kind == "thermal":
        occupation = strength
        x_rate = y_rate = 2.0 * gamma * (strength + 0.5)
    else:
        occupation = float(np.sinh(strength)) ** 2
        x_rate = gamma * float(np.exp(2.0 * strength))
        y_rate = gamma * float(np.exp(-2.0 * strength))
    return occupation / (2.0 * occupation + 1.0), gamma * (2.0 * occupation + 1.0), x_rate, y_rate


@pytest.mark.parametrize("kind, top", [("thermal", 6), ("squeezed", 2)])
def test_reservoir_rates_equal_the_per_point_scalar_rates(kind, top):
    # a float's ** 2 is libm's pow, an array's is x * x: for r from 1e-8 to
    # 100 the two squares of sinh(r) differ in the last bit at about 1 in
    # 1000. A thermal reservoir's three rates are one array: gamma (2m + 1)
    # and 2 gamma (m + 1/2) round to one double, as doubling is exact and
    # commutes with rounding
    strengths, gamma = np.logspace(-8, top, 20_000).tolist(), float(np.pi / 3)
    rates = _reservoir_rates(kind, strengths, gamma)
    expected = np.array([scalar_rates(kind, s, gamma) for s in strengths])
    assert np.concatenate(rates, axis=1).tobytes() == expected.tobytes()
    assert (rates[1] is rates[2] is rates[3]) == (kind == "thermal")


def test_thermal_rate_overflow_verdicts():
    # 2m + 1 overflows, though 2 gamma (m + 1/2) fits
    named = float(np.finfo(float).max)
    with pytest.raises(ValueError) as raised:
        _reservoir_rates("thermal", (0.1, named), 0.5)
    assert str(raised.value) == (f"mean_occupation = {named!r} at gamma = 0.5"
                                 " overflows the decay rate")


@pytest.mark.parametrize("model", ["thermal1", "thermal2"])
def test_thermal_rate_past_half_the_double_range(model):
    # at gamma = 2^1023, 2 gamma overflows but every rate gamma (2m + 1)
    # fits; products with gamma and t = 1 / gamma are exact, so the numbers
    # at (gamma, t) are those at (1, 1) bit for bit
    config, unit, t = ScanConfig(model, gamma=2.0**1023), ScanConfig(model), 2.0**-1023
    assert point_qfi(config, t) == point_qfi(unit, 1.0)
    assert point_fidelity(config, t) == point_fidelity(unit, 1.0)


def scalar_cavity_constants(model, detuning, coupling, photons, alpha):
    """The constants of one point in Python scalars, in the order of
    CAVITY_CONSTANTS: the reference for the cavity kernels' columns."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    if model == "fock1":
        exchange = 2.0 * coupling * math.sqrt(photons + 1.0)
        wd = float(np.hypot(exchange, detuning))
        tail = 1j * sa * (exchange / wd), 1j * ca * (exchange / wd)
    else:
        wd = float(np.sqrt(8.0 * coupling**2 + detuning**2))
        tail = -(ca + sa) * (2.0j * coupling / wd), -0.5j * detuning
    return (wd, 1j * (detuning / wd), 0.5j * detuning, *tail)


CAVITY_CONSTANTS = {
    "fock1": (_fock1_amplitudes,
              ("wd", "i_ratio_d", "half_detuning", "i_sa_ratio_x", "i_ca_ratio_x")),
    "fock2": (lambda d, c, n, a: _fock2_amplitudes(d, c, a),
              ("wd", "i_ratio_d", "half_detuning", "gg_weight", "gg_detuning")),
}


@pytest.mark.parametrize("model", CAVITY_CONSTANTS)
def test_cavity_constants_equal_the_per_point_scalar_constants(model):
    # the columns the amplitudes closure holds equal, bit for bit, the
    # constants formed point by point; there a float's ** 2 is libm's pow,
    # and x * x differs from it at about 1 in 1000 x: the couplings drawn
    # are such x
    rng = np.random.default_rng(36)
    build, names = CAVITY_CONSTANTS[model]
    for coupling in [c for c in rng.uniform(0, 3, 20_000).tolist() if c**2 != c * c][:3]:
        detunings = (rng.uniform(-10, 10, 10_000) * np.logspace(-6, 6, 10_000)).tolist()
        photons, alpha = int(rng.integers(0, 5)), rng.uniform(0, 1)
        amplitudes = build(detunings, coupling, photons, alpha)
        cells = dict(zip(amplitudes.__code__.co_freevars, amplitudes.__closure__))
        got = np.concatenate([cells[name].cell_contents for name in names], axis=1)
        expected = np.array([scalar_cavity_constants(model, d, coupling, photons, alpha)
                             for d in detunings])
        assert got.astype(complex).tobytes() == expected.astype(complex).tobytes()


class _NanEmpty:
    """numpy, with np.empty filling its arrays with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape):
        return np.full(shape, np.nan)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_kernels_write_every_row(model, monkeypatch):
    # the kernels allocate with np.empty and zero only their empty rows, so
    # a NaN-filled allocation must give the same record, with and without
    # the derivative
    config, entry = ScanConfig(model), MODELS[model][3]
    times, value = np.linspace(0.0, 30.0, 11), nominal(config)
    name, domain_floor = _ESTIMAND_FIELDS[config.estimand]
    for floor in (domain_floor, value):  # the central and the one-sided stencil
        monkeypatch.setitem(_ESTIMAND_FIELDS, config.estimand, (name, floor))
        for derive in (True, False):
            expected = entry(value, config)(times, derive)
            with monkeypatch.context() as patch:
                patch.setattr(probe_models, "np", _NanEmpty())
                got = entry(value, config)(times, derive)
            assert got.tobytes() == expected.tobytes()


class TestChannels:
    def test_fock_channel_matches_state(self):
        # the stencil calls the kernel with a raw value; that equals the
        # kernel of the validated config at that value, bit for bit, for
        # every model
        times = np.linspace(0.0, 30.0, 11)
        for config, field in (
            (ScanConfig("fock1", coupling=1.3, photons=2, alpha=np.pi / 4), "detuning"),
            (ScanConfig("thermal1", gamma=1.2, alpha=np.pi / 5), "mean_occupation"),
            (ScanConfig("squeezed1", gamma=0.8, alpha=np.pi / 3), "squeezing"),
            (ScanConfig("fock2", coupling=0.7, alpha=0.4), "detuning"),
            (ScanConfig("thermal2", gamma=1.5), "mean_occupation"),
            (ScanConfig("squeezed2", squeezing=0.2, gamma=0.9), "squeezing"),
        ):
            for value in (getattr(config, field), 0.37):
                shifted = replace(config, **{field: value})
                np.testing.assert_array_equal(states(config, value, times).values,
                                              states(shifted, value, times).values)

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_floor_is_the_domain_bound(self, model):
        # the stencil perturbs the estimand's field and stops at that
        # field's ">=" bound; detuning is unbounded
        config = ScanConfig(model)
        name = {"detuning": "detuning", "temperature": "mean_occupation",
                "squeezing": "squeezing"}[config.estimand]
        bounds = [bound for comparison, bound in FIELD_DOMAINS.get(name, ()) if comparison == ">="]
        field, floor = _ESTIMAND_FIELDS[config.estimand]
        assert field == name
        assert floor == (bounds[0] if bounds else None)
        assert floor == (None if model.startswith("fock") else 0.0)
