"""Tests for the closed-form probe models against trivial limits, known
values and each other; tests/test_symbolic.py proves the closed forms and
holds the kernels to them."""

import numpy as np
import pytest

from dataclasses import replace

from helpers import (
    dense,
    fock1_amplitudes,
    fock2_amplitudes,
    ptrace_b_bruteforce,
    reduce_A,
    state_at,
)
from qfi_probe.probe_models import (
    FockParams,
    SqueezedParams,
    ThermalParams,
    TwoQubitFockParams,
    TwoQubitReservoirParams,
    fock1_channel,
    fock2_channel,
    reservoir_pair_channel,
    squeezed1_channel,
    thermal1_channel,
)
from qfi_probe.scan_repro import ScanConfig, build_channel
from symbolic import exact


class TestFockOneQubit:
    def test_normalization_random_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            p = FockParams(
                detuning=rng.uniform(-10.0, 10.0),
                coupling=rng.uniform(0.2, 3.0),
                photons=int(rng.integers(0, 4)),
                alpha=rng.uniform(0.0, np.pi / 2),
            )
            b1, b2 = fock1_amplitudes(p, rng.uniform(0.0, 20.0))
            assert abs(abs(b1) ** 2 + abs(b2) ** 2 - 1.0) <= 1e-12

    def test_purity_identity(self):
        p = FockParams(detuning=5.0, alpha=np.pi / 4)
        state = state_at(fock1_channel(p), 1.3)
        b1, b2 = fock1_amplitudes(p, 1.3)
        purity = np.trace(state.matrix @ state.matrix).real
        assert purity == pytest.approx(abs(b1) ** 4 + abs(b2) ** 4, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FockParams(detuning=0.0, coupling=0.0)
        with pytest.raises(ValueError):
            FockParams(detuning=0.0, photons=-1)
        with pytest.raises(ValueError):
            FockParams(detuning=0.0, alpha=2.0)


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
    state = state_at(build_channel(config), t).matrix
    np.testing.assert_allclose(state, exact(config, t).rho, rtol=0, atol=1e-14)


class TestThermalOneQubit:
    def test_no_freq_scale_field(self):
        # the states do not depend on the frequency scale, which only the
        # temperature chain factor of scan_repro reads; the benchmark builds
        # the class positionally
        assert ThermalParams(0.1, 1.0, 0.3) == ThermalParams(
            mean_occupation=0.1, gamma=1.0, alpha=0.3)
        with pytest.raises(TypeError, match="freq_scale"):
            ThermalParams(0.1, 1.0, freq_scale=1.0)

    def test_vacuum_limit_equals_squeezed_vacuum(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha = rng.uniform(0.0, np.pi / 2)
            t = rng.uniform(0.0, 5.0)
            thermal = state_at(thermal1_channel(ThermalParams(0.0, 1.0, alpha)), t)
            squeezed = state_at(squeezed1_channel(SqueezedParams(0.0, 1.0, alpha)), t)
            assert np.abs(thermal.matrix - squeezed.matrix).max() <= 1e-12


class TestSqueezedOneQubit:
    def test_populations_match_thermal_coherences_do_not(self):
        # same populations under occupation matching; coherence decay rates
        # differ by the pair correlation
        p = SqueezedParams(0.4, 1.0, np.pi / 4)
        occ, pair = np.sinh(0.4) ** 2, np.cosh(0.4) * np.sinh(0.4)
        for t in (0.5, 1.0, 2.0):
            squeezed = state_at(squeezed1_channel(p), t).matrix
            thermal = state_at(thermal1_channel(ThermalParams(occ, 1.0, np.pi / 4)), t).matrix
            assert abs(squeezed[0, 0] - thermal[0, 0]) <= 1e-12
            assert abs(squeezed[1, 1] - thermal[1, 1]) <= 1e-12
            ratio = squeezed[0, 1].real / thermal[0, 1].real
            assert ratio == pytest.approx(np.exp(-pair * t), rel=1e-10)


class TestFockTwoQubit:
    def test_trace_random_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            p = TwoQubitFockParams(
                detuning=rng.uniform(-10.0, 10.0), coupling=rng.uniform(0.2, 3.0)
            )
            c2, c3, c4 = fock2_amplitudes(p, rng.uniform(0.0, 20.0))
            assert abs(abs(c2) ** 2 + abs(c3) ** 2 + abs(c4) ** 2 - 1.0) <= 1e-12

    def test_no_photon_field(self):
        # the closed form holds for an empty cavity only, so the photon
        # number is no parameter; the benchmark builds it positionally
        assert TwoQubitFockParams(5.0, 1.0) == TwoQubitFockParams(detuning=5.0, coupling=1.0)
        with pytest.raises(TypeError, match="photons"):
            TwoQubitFockParams(detuning=5.0, photons=0)


class TestReservoirPair:
    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="kind"):
            TwoQubitReservoirParams("depolarizing", 0.1, 1.0)

    def test_closed_form_is_product_channel(self):
        # marginals of the closed form follow the one-qubit solutions from
        # |e> and |g>, averaged by the Bell state
        p = TwoQubitReservoirParams("squeezed", 0.3, 1.2)
        t = 0.7
        reduced = reduce_A(dense(reservoir_pair_channel(p).states(p.strength, [t]))[0]).matrix
        one = lambda a: state_at(squeezed1_channel(SqueezedParams(0.3, 1.2, a)), t).matrix
        np.testing.assert_allclose(reduced, 0.5 * (one(0.0) + one(np.pi / 2)), atol=1e-14)

    def test_lindblad_module_reexports_params_only(self):
        from qfi_probe import lindblad

        assert lindblad.__all__ == ["TwoQubitReservoirParams"]
        assert lindblad.TwoQubitReservoirParams is TwoQubitReservoirParams


@pytest.mark.parametrize("bad", [2.5, 0.5, True, 0.0])
def test_photons_must_be_an_integer(bad):
    # 2.5 photons used to be accepted and gave a plausible QFI
    with pytest.raises(ValueError, match="not an integer"):
        FockParams(detuning=5.0, photons=bad)


def test_numpy_integer_photons_accepted():
    assert FockParams(detuning=5.0, photons=np.int64(2)).photons == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: FockParams(detuning=bad),
        lambda bad: FockParams(detuning=5.0, coupling=bad),
        lambda bad: ThermalParams(bad, 1.0),
        lambda bad: ThermalParams(0.1, bad),
        lambda bad: SqueezedParams(bad, 1.0),
        lambda bad: SqueezedParams(0.1, 1.0, alpha=bad),
        lambda bad: TwoQubitFockParams(detuning=bad),
        lambda bad: TwoQubitReservoirParams("thermal", bad, 1.0),
        lambda bad: TwoQubitReservoirParams("squeezed", 0.1, bad),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameter_rejected(build, bad):
    with pytest.raises(ValueError, match="not finite"):
        build(bad)


class TestReduceA:
    def test_initial_bell_reduces_to_mixed(self):
        state = state_at(fock2_channel(TwoQubitFockParams(detuning=5.0)), 0.0)
        np.testing.assert_allclose(reduce_A(state).matrix, np.eye(2) / 2, atol=1e-14)

    def test_matches_bruteforce(self):
        state = state_at(fock2_channel(TwoQubitFockParams(detuning=5.0)), 0.5)
        np.testing.assert_allclose(
            reduce_A(state).matrix, ptrace_b_bruteforce(state.matrix), atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduce_A(np.eye(2, dtype=complex) / 2)


class TestChannels:
    def test_fock_channel_matches_state(self):
        # the stencil calls the closed form with a raw value; that equals
        # the channel of the validated parameters at that value, bit for
        # bit, for every model
        times = np.linspace(0.0, 30.0, 11)
        for params, build, field in (
            (FockParams(detuning=5.0, coupling=1.3, photons=2, alpha=np.pi / 4), fock1_channel,
             "detuning"),
            (ThermalParams(0.1, 1.2, np.pi / 5), thermal1_channel, "mean_occupation"),
            (SqueezedParams(0.1, 0.8, np.pi / 3), squeezed1_channel, "squeezing"),
            (TwoQubitFockParams(detuning=5.0, coupling=0.7, alpha=0.4), fock2_channel,
             "detuning"),
            (TwoQubitReservoirParams("thermal", 0.1, 1.5), reservoir_pair_channel, "strength"),
            (TwoQubitReservoirParams("squeezed", 0.2, 0.9), reservoir_pair_channel, "strength"),
        ):
            channel = build(params)
            for value in (getattr(params, field), 0.37):
                shifted = build(replace(params, **{field: value}))
                assert shifted.support == channel.support
                np.testing.assert_array_equal(channel.states(value, times).values,
                                              shifted.states(value, times).values)

    def test_grid_matches_length_one_grids(self):
        channel = thermal1_channel(ThermalParams(0.1, 1.0, np.pi / 4))
        times = np.linspace(0.1, 2.0, 7)
        stack = dense(channel.states(0.1, times))
        for k, t in enumerate(times):
            np.testing.assert_allclose(stack[k], dense(channel.states(0.1, [t]))[0], atol=1e-15)

    def test_squeezed_channel_floor(self):
        channel = squeezed1_channel(SqueezedParams(0.1, 1.0, 0.0))
        assert channel.floor == 0.0
