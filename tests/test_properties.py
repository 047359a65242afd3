"""Property-based tests of the batched evaluation path over the valid
parameter domain of every probe model: state invariants, the ranges of
QFI and fidelity, agreement of the block QFI with the spectral oracle on
dense matrices built from the records, the stencil choice at
the domain floor, the reservoirs' dependence on gamma t alone for gamma
from 1e-200 to 1e200, and the exact symmetries of the cavity models in
the detuning and the angle and of the temperature QFI in freq_scale."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    FD_SCALE,
    SCALING_QFI_RTOL,
    assert_block_qfi_matches_the_spectral_oracle,
    assert_numbers_depend_on_gamma_t_only,
    d_rho_grid,
    dense,
    nominal,
    states,
    stencil,
)
from qfi_probe.qfi_engine import stencil_points
from qfi_probe.qstate import validate_blocks
from qfi_probe.scan_repro import (
    MODEL_IDS,
    MODELS,
    ScanConfig,
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
    rows = states(config, nominal(config), times)
    mats = dense(rows)
    assert rows.support == MODELS[config.model_id][2]
    assert mats.shape == (times.size, rows.dim, rows.dim)
    assert np.abs(np.trace(mats, axis1=-2, axis2=-1) - 1.0).max() <= 1e-10
    assert np.linalg.eigvalsh(mats).min() >= -1e-10
    validate_blocks(rows)


@PROPERTY
@given(configs(), st.floats(0.01, 20.0), st.floats(0.01, 80.0))
def test_qfi_nonnegative_and_fidelity_in_unit_interval(config, t_min, span):
    dataset = scan(replace(config, t_min=t_min, t_max=t_min + span, points=9))
    assert np.all(np.isfinite(dataset.qfi)) and np.all(dataset.qfi >= 0.0)
    assert np.all((dataset.fidelity >= 0.0) & (dataset.fidelity <= 1.0))


@PROPERTY
@given(configs(), TIMES)
def test_batched_qfi_matches_the_spectral_oracle_per_row(config, times):
    # t = 0 and short times give near-pure states
    assert_block_qfi_matches_the_spectral_oracle(config,
                                                 np.concatenate([times, [0.0, 1e-9, 1e-5]]))


@PROPERTY
@given(st.floats(0.0, 1e-4), st.one_of(st.none(), st.just(0.0)))
def test_one_sided_stencil_exactly_below_the_floor(value, floor):
    # stencil_points bit for bit against the tests' own table
    h, taps = stencil(value, floor)
    points, weights, scale = stencil_points(value, floor)
    assert points == (value,) + tuple(value + offset * h for offset, _ in taps)
    assert weights == tuple(weight for _, weight in taps)
    assert scale == 1.0 / (2.0 * h)
    one_sided = floor is not None and value - h < floor
    assert all(offset >= 0.0 for offset, _ in taps) == one_sided
    assert floor is None or min(points) >= floor
    assert sum(weight for _, weight in taps) == 0.0
    assert sum(offset * weight for offset, weight in taps) == 2.0


@PROPERTY
@given(st.sampled_from(["thermal", "squeezed"]), st.floats(0.0, 2.0), ALPHA, GAMMA, TIMES)
def test_stencil_near_zero_stays_in_domain_and_matches_analytic(kind, steps, alpha, gamma,
                                                                times):
    # m and r near 0: value - h < 0, so a central stencil would ask the
    # parameter classes for a negative occupation or squeezing and raise
    value = steps * FD_SCALE
    if kind == "thermal":
        config = ScanConfig("thermal1", mean_occupation=value, gamma=gamma, alpha=alpha)
    else:
        config = ScanConfig("squeezed1", squeezing=value, gamma=gamma, alpha=alpha)
    stencil_deriv = dense(d_rho_grid(config, value, times))
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


@pytest.mark.parametrize("model", list(SCALING_QFI_RTOL))
@PROPERTY
@given(exponent=st.floats(-200.0, 200.0), scaled_t=st.floats(0.01, 20.0))
def test_reservoir_numbers_depend_on_gamma_t_only(model, exponent, scaled_t):
    assert_numbers_depend_on_gamma_t_only(model, exponent, scaled_t)


# cavity draws: a detuning of either sign and a coupling, both log-uniform
# in magnitude (1e-3 to 1e3 and 1e-2 to 1e2); times up to 100
SIGNED_DETUNING = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                            st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))
LOG_COUPLING = st.floats(-2.0, 2.0).map(lambda exponent: 10.0**exponent)
TIME = st.floats(0.01, 100.0)
# The stencil's rounding error in the derivative of the Bloch vector moves
# F = |dr|^2 / w by an amount proportional to sqrt(F), at every scale of F,
# so the cavity symmetries are held on |F - F'| / sqrt(F). The worst over
# 10,000 draws of each test was 1.45e-10 (fock1) and 1.2e-10 (fock2's
# swap), rounded up by less than 2x. fock1's fidelity moves by up to
# 1.02e-14 because pi/2 - alpha rounds.
SYMMETRY_SQRT_QFI_TOL = {"fock1": 2.5e-10, "fock2": 2e-10}
FOCK1_FIDELITY_TOL = 2e-14


@PROPERTY
@given(SIGNED_DETUNING, LOG_COUPLING, st.integers(0, 4), ALPHA, TIME)
def test_fock1_is_even_under_detuning_with_the_angle_mirrored(detuning, coupling, photons,
                                                              alpha, t):
    # (detuning, alpha) -> (-detuning, pi/2 - alpha) maps the closed form
    # onto its complex conjugate with |e> and |g> exchanged
    config = ScanConfig("fock1", detuning=detuning, coupling=coupling, photons=photons,
                        alpha=alpha)
    mirror = replace(config, detuning=-detuning, alpha=math.pi / 2 - alpha)
    qfi, mirrored = point_qfi(config, t), point_qfi(mirror, t)
    assert abs(qfi - mirrored) <= SYMMETRY_SQRT_QFI_TOL["fock1"] * math.sqrt(max(qfi, mirrored))
    assert abs(point_fidelity(config, t) - point_fidelity(mirror, t)) <= FOCK1_FIDELITY_TOL


@PROPERTY
@given(SIGNED_DETUNING, LOG_COUPLING, ALPHA, TIME)
def test_fock2_is_even_in_detuning_and_under_the_swap(detuning, coupling, alpha, t):
    # detuning -> -detuning conjugates every amplitude: bit for bit the
    # same numbers. alpha -> pi/2 - alpha exchanges the qubits, which
    # leaves the two-qubit QFI unchanged (qubit A's fidelity is not)
    config = ScanConfig("fock2", detuning=detuning, coupling=coupling, alpha=alpha)
    qfi = point_qfi(config, t)
    mirror = replace(config, detuning=-detuning)
    assert point_qfi(mirror, t) == qfi
    assert point_fidelity(mirror, t) == point_fidelity(config, t)
    swapped = point_qfi(replace(config, alpha=math.pi / 2 - alpha), t)
    assert abs(qfi - swapped) <= SYMMETRY_SQRT_QFI_TOL["fock2"] * math.sqrt(max(qfi, swapped))


@pytest.mark.parametrize("model", ["thermal1", "thermal2"])
@PROPERTY
@given(occupation=st.floats(0.01, 2.0), alpha=ALPHA, gamma=GAMMA,
       exponent=st.floats(-100.0, 100.0), t=TIME)
def test_temperature_qfi_scales_as_inverse_freq_scale_squared(model, occupation, alpha, gamma,
                                                              exponent, t):
    # dm/dT = g(m) / s at fixed m, so the QFI times s^2 does not depend on
    # s; the worst relative error over 10,000 draws was 6.1e-16. The
    # fidelity does not read s.
    angle = {"alpha": alpha} if model == "thermal1" else {}
    unit = ScanConfig(model, mean_occupation=occupation, gamma=gamma, **angle)
    scale = 10.0**exponent
    config = replace(unit, freq_scale=scale)
    expected = point_qfi(unit, t)
    assert abs(point_qfi(config, t) * scale * scale - expected) <= 1e-15 * expected
    assert point_fidelity(config, t) == point_fidelity(unit, t)
