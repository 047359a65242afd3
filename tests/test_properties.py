"""Property-based tests of the batched evaluation path over the valid
parameter domain of every probe model: state invariants, the ranges of
QFI and fidelity, agreement with the SLD oracle, and the stencil choice
at the domain floor."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import qfi_sld_oracle, squeezed1_dsqueezing, thermal1_doccupation
from qfi_probe.probe_models import (
    SqueezedParams,
    ThermalParams,
    squeezed1_channel,
    thermal1_channel,
)
from qfi_probe.qfi_engine import (
    d_rho_grid,
    fd_step,
    qfi_spectral,
    stencil,
)
from qfi_probe.qstate import validate_density
from qfi_probe.scan_repro import ScanConfig, build_channel, scan

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


@st.composite
def configs(draw):
    """A ScanConfig anywhere in the valid domain of a drawn model."""
    model = draw(st.sampled_from(["fock1", "thermal1", "squeezed1", "fock2", "thermal2",
                                  "squeezed2"]))
    kwargs = {"alpha": draw(ALPHA)}
    if model.startswith("fock"):
        kwargs.update(detuning=draw(DETUNING), coupling=draw(COUPLING))
        if model == "fock1":
            kwargs["photons"] = draw(st.integers(0, 4))
    elif model.startswith("thermal"):
        kwargs.update(mean_occupation=draw(OCCUPATION), gamma=draw(GAMMA))
    else:
        kwargs.update(squeezing=draw(SQUEEZING), gamma=draw(GAMMA))
    return ScanConfig(model, **kwargs)


@PROPERTY
@given(configs(), TIMES)
def test_stacked_states_are_density_matrices(config, times):
    channel = build_channel(config)
    states = channel.states(channel.value, times)
    assert states.shape == (times.size, channel.dim, channel.dim)
    assert np.abs(states - np.conj(states).swapaxes(-1, -2)).max() <= 1e-10
    assert np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0).max() <= 1e-10
    assert np.linalg.eigvalsh(states).min() >= -1e-10
    validate_density(states)


@PROPERTY
@given(configs(), st.floats(0.01, 20.0), st.floats(0.01, 80.0))
def test_qfi_nonnegative_and_fidelity_in_unit_interval(config, t_min, span):
    dataset = scan(replace(config, t_min=t_min, t_max=t_min + span, points=9))
    assert np.all(np.isfinite(dataset.qfi)) and np.all(dataset.qfi >= 0.0)
    assert np.all((dataset.fidelity >= 0.0) & (dataset.fidelity <= 1.0))


@PROPERTY
@given(configs(), TIMES)
def test_batched_spectral_qfi_matches_sld_oracle_per_row(config, times):
    channel = build_channel(config)
    states = validate_density(channel.states(channel.value, times))
    derivs = d_rho_grid(channel, channel.value, times)
    batched = qfi_spectral(states, derivs).value
    assert batched.shape == times.shape
    for k in range(times.size):
        oracle = qfi_sld_oracle(states.matrix[k], derivs[k])
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
        params = ThermalParams(value, gamma, alpha)
        channel, analytic = thermal1_channel(params), thermal1_doccupation(params, times)
    else:
        params = SqueezedParams(value, gamma, alpha)
        channel, analytic = squeezed1_channel(params), squeezed1_dsqueezing(params, times)
    stencil_deriv = d_rho_grid(channel, value, times)
    assert np.abs(stencil_deriv - analytic).max() <= 1e-6


@pytest.mark.parametrize("model", ["thermal2", "squeezed2"])
@PROPERTY
@given(strength=st.floats(0.0, 1e-5), gamma=GAMMA)
@example(strength=2.2e-311, gamma=1.0)  # 1/m overflows: temperature underflows to 0
def test_two_qubit_reservoirs_differentiate_at_zero_strength(model, strength, gamma):
    key = "mean_occupation" if model == "thermal2" else "squeezing"
    dataset = scan(ScanConfig(model, points=5, gamma=gamma, **{key: strength}))
    assert np.all(np.isfinite(dataset.qfi)) and np.all(dataset.qfi >= 0.0)
