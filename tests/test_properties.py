"""Property-based tests of the batched evaluation path over the valid
parameter domain of every probe model: state invariants, the ranges of
QFI and fidelity, agreement of the block QFI with the spectral and SLD
oracles on dense matrices built from the records, the stencil choice at
the domain floor, and the reservoirs' dependence on gamma t alone for
gamma from 1e-200 to 1e200."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    d_rho_grid,
    dense,
    qfi_sld_oracle,
    qfi_spectral,
)
from qfi_probe.qfi_engine import (
    fd_step,
    qfi_blocks,
    stencil,
)
from qfi_probe.qstate import validate_blocks
from qfi_probe.scan_repro import (
    MODEL_IDS,
    MODELS,
    ScanConfig,
    build_channel,
    point_fidelity,
    point_qfi,
    scan,
)
from symbolic import exact

# Derandomized so the suite gives the same verdict on every run; no example
# database is written.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ALPHA = st.floats(0.0, np.pi / 2)
GAMMA = st.floats(0.1, 3.0)
DETUNING = st.floats(-10.0, 10.0)
COUPLING = st.floats(0.2, 3.0)
OCCUPATION = st.floats(0.0, 2.0)
SQUEEZING = st.floats(0.0, 1.0)
TIMES = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12).map(np.array)


# the valid domain of every model field; freq_scale only rescales the
# temperature QFI and keeps its default
FIELDS = {"alpha": ALPHA, "detuning": DETUNING, "coupling": COUPLING,
          "mean_occupation": OCCUPATION, "gamma": GAMMA, "squeezing": SQUEEZING}


@st.composite
def configs(draw):
    """A ScanConfig anywhere in the valid domain of a drawn model, setting
    exactly the fields that the model reads."""
    model = draw(st.sampled_from(MODEL_IDS))
    domain = dict(FIELDS, photons=st.integers(0, 4))
    return ScanConfig(model, **{name: draw(domain[name])
                                for name in MODELS[model][1] if name in domain})


@PROPERTY
@given(configs(), TIMES)
def test_stacked_states_are_density_matrices(config, times):
    channel = build_channel(config)
    states = channel.states(channel.value, times)
    mats = dense(states)
    assert states.support == channel.support
    assert mats.shape == (times.size, states.dim, states.dim)
    assert np.abs(np.trace(mats, axis1=-2, axis2=-1) - 1.0).max() <= 1e-10
    assert np.linalg.eigvalsh(mats).min() >= -1e-10
    validate_blocks(states)


@PROPERTY
@given(configs(), st.floats(0.01, 20.0), st.floats(0.01, 80.0))
def test_qfi_nonnegative_and_fidelity_in_unit_interval(config, t_min, span):
    dataset = scan(replace(config, t_min=t_min, t_max=t_min + span, points=9))
    assert np.all(np.isfinite(dataset.qfi)) and np.all(dataset.qfi >= 0.0)
    assert np.all((dataset.fidelity >= 0.0) & (dataset.fidelity <= 1.0))


@PROPERTY
@given(configs(), TIMES)
def test_batched_spectral_qfi_matches_sld_oracle_per_row(config, times):
    # the closed-form block QFI against a full eigendecomposition and the
    # SLD solve, row by row; t = 0 and short times give near-pure states
    times = np.concatenate([times, [0.0, 1e-9, 1e-5]])
    channel = build_channel(config)
    states = validate_blocks(channel.states(channel.value, times))
    derivs = d_rho_grid(channel, channel.value, times)
    batched = qfi_blocks(states, derivs).value
    mats, dmats = dense(states), dense(derivs)
    spectral = qfi_spectral(mats, dmats).value
    assert batched.shape == times.shape
    for k in range(times.size):
        oracle = qfi_sld_oracle(mats[k], dmats[k])
        assert abs(batched[k] - spectral[k]) <= 1e-8 * max(1.0, abs(spectral[k]))
        assert abs(batched[k] - oracle) <= 1e-8 * max(1.0, abs(oracle))


@PROPERTY
@given(st.floats(0.0, 1e-4), st.one_of(st.none(), st.just(0.0)))
def test_one_sided_stencil_exactly_below_the_floor(value, floor):
    h, taps = stencil(value, floor)
    assert h == fd_step(value)
    one_sided = floor is not None and value - h < floor
    assert all(offset >= 0.0 for offset, _ in taps) == one_sided
    assert sum(weight for _, weight in taps) == 0.0
    assert sum(offset * weight for offset, weight in taps) == 2.0


@PROPERTY
@given(st.sampled_from(["thermal", "squeezed"]), st.floats(0.0, 2.0), ALPHA, GAMMA, TIMES)
def test_stencil_near_zero_stays_in_domain_and_matches_analytic(kind, steps, alpha, gamma,
                                                                times):
    # m and r near 0: value - h < 0, so a central stencil would ask the
    # parameter classes for a negative occupation or squeezing and raise
    value = steps * fd_step(0.0)
    if kind == "thermal":
        config = ScanConfig("thermal1", mean_occupation=value, gamma=gamma, alpha=alpha)
    else:
        config = ScanConfig("squeezed1", squeezing=value, gamma=gamma, alpha=alpha)
    stencil_deriv = dense(d_rho_grid(build_channel(config), value, times))
    analytic = np.array([exact(config, t).drho for t in times])
    assert np.abs(stencil_deriv - analytic).max() <= 1e-6


@pytest.mark.parametrize("model", ["thermal2", "squeezed2"])
@PROPERTY
@given(strength=st.floats(0.0, 1e-5), gamma=GAMMA)
@example(strength=2.2e-311, gamma=1.0)  # 1/m overflows: temperature underflows to 0
def test_two_qubit_reservoirs_differentiate_at_zero_strength(model, strength, gamma):
    key = "mean_occupation" if model == "thermal2" else "squeezing"
    dataset = scan(ScanConfig(model, points=5, gamma=gamma, **{key: strength}))
    assert np.all(np.isfinite(dataset.qfi)) and np.all(dataset.qfi >= 0.0)


# the worst relative QFI error over 20,000 draws per model of the test's
# distribution, rounded up by less than 2x; the fidelity's worst absolute
# error was 4.4e-16
SCALING_QFI_RTOL = {"thermal1": 5e-10, "squeezed1": 5e-10, "thermal2": 1.5e-10,
                    "squeezed2": 6e-9}


@pytest.mark.parametrize("model", list(SCALING_QFI_RTOL))
@PROPERTY
@given(exponent=st.floats(-200.0, 200.0), scaled_t=st.floats(0.01, 20.0))
def test_reservoir_numbers_depend_on_gamma_t_only(model, exponent, scaled_t):
    # every reservoir rate is gamma times a function of the strength, so
    # the QFI and the fidelity at (gamma, t) are those at (1, gamma t)
    gamma, unit = 10.0**exponent, ScanConfig(model)
    config, t = ScanConfig(model, gamma=gamma), scaled_t / gamma
    qfi, expected = point_qfi(config, t), point_qfi(unit, scaled_t)
    assert abs(qfi - expected) <= SCALING_QFI_RTOL[model] * expected
    assert abs(point_fidelity(config, t) - point_fidelity(unit, scaled_t)) <= 8e-16
