"""Tests for the closed-form probe models against trivial limits and
independent fixed-step integrations of the underlying amplitude equations."""

import numpy as np
import pytest

from helpers import (
    fock1_amplitudes_ode,
    fock2_amplitudes_ode,
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
    fock1_amplitudes,
    fock1_channel,
    fock1_states,
    fock2_amplitudes,
    fock2_states,
    squeezed1_channel,
    squeezed1_states,
    thermal1_channel,
    thermal1_states,
)


class TestFockOneQubit:
    def test_initial_state(self):
        state = state_at(fock1_states, FockParams(detuning=5.0, alpha=0.0), 0.0)
        np.testing.assert_allclose(state.matrix, np.diag([1.0, 0.0]), atol=1e-14)

    def test_half_oscillation_resonant(self):
        # detuning 0, coupling 1, zero photons: full population transfer at
        # half the oscillation period
        p = FockParams(detuning=0.0, coupling=1.0, alpha=0.0)
        state = state_at(fock1_states, p, np.pi / 2)
        np.testing.assert_allclose(state.matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_against_amplitude_ode(self):
        p = FockParams(detuning=5.0, coupling=1.0, photons=0, alpha=np.pi / 4)
        b1, b2 = fock1_amplitudes(p, 0.3)
        o1, o2 = fock1_amplitudes_ode(5.0, 1.0, 0, np.pi / 4, 0.3)
        assert abs(abs(b1) ** 2 - abs(o1) ** 2) <= 1e-8
        assert abs(abs(b2) ** 2 - abs(o2) ** 2) <= 1e-8

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
        state = state_at(fock1_states, p, 1.3)
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


class TestThermalOneQubit:
    def test_initial_superposition(self):
        state = state_at(thermal1_states, ThermalParams(0.1, 1.0, np.pi / 4), 0.0)
        np.testing.assert_allclose(state.matrix, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_reference_point(self):
        state = state_at(thermal1_states, ThermalParams(0.1, 1.0, np.pi / 4), 1.0)
        assert state.matrix[0, 0].real == pytest.approx(0.20883, abs=1e-5)
        assert state.matrix[0, 1].real == pytest.approx(0.27441, abs=1e-5)

    def test_steady_state(self):
        for alpha in (0.0, np.pi / 4, np.pi / 2):
            state = state_at(thermal1_states, ThermalParams(0.1, 1.0, alpha), 50.0)
            np.testing.assert_allclose(
                state.matrix, np.diag([1.0 / 12.0, 11.0 / 12.0]), atol=1e-10
            )

    def test_vacuum_limit_equals_squeezed_vacuum(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha = rng.uniform(0.0, np.pi / 2)
            t = rng.uniform(0.0, 5.0)
            thermal = state_at(thermal1_states, ThermalParams(0.0, 1.0, alpha), t)
            squeezed = state_at(squeezed1_states, SqueezedParams(0.0, 1.0, alpha), t)
            assert np.abs(thermal.matrix - squeezed.matrix).max() <= 1e-12


class TestSqueezedOneQubit:
    def test_vacuum_decay(self):
        for t in (0.3, 1.0, 2.5):
            state = state_at(squeezed1_states, SqueezedParams(0.0, 1.0, 0.0), t)
            assert state.matrix[0, 0].real == pytest.approx(np.exp(-t), abs=1e-12)
            assert abs(state.matrix[0, 1]) <= 1e-14

    def test_steady_state(self):
        occ = np.sinh(0.1) ** 2
        state = state_at(squeezed1_states, SqueezedParams(0.1, 1.0, np.pi / 4), 50.0)
        expected = np.diag([occ / (2 * occ + 1), (occ + 1) / (2 * occ + 1)])
        np.testing.assert_allclose(state.matrix, expected, atol=1e-10)

    def test_populations_match_thermal_coherences_do_not(self):
        # same populations under occupation matching; coherence decay rates
        # differ by the pair correlation
        p = SqueezedParams(0.4, 1.0, np.pi / 4)
        occ, pair = p.occupation, p.pair_correlation
        for t in (0.5, 1.0, 2.0):
            squeezed = state_at(squeezed1_states, p, t).matrix
            thermal = state_at(thermal1_states, ThermalParams(occ, 1.0, np.pi / 4), t).matrix
            assert abs(squeezed[0, 0] - thermal[0, 0]) <= 1e-12
            assert abs(squeezed[1, 1] - thermal[1, 1]) <= 1e-12
            ratio = squeezed[0, 1].real / thermal[0, 1].real
            assert ratio == pytest.approx(np.exp(-pair * t), rel=1e-10)


class TestFockTwoQubit:
    def test_initial_bell_state(self):
        state = state_at(fock2_states, TwoQubitFockParams(detuning=5.0), 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1:3, 1:3] = 0.5
        np.testing.assert_allclose(state.matrix, expected, atol=1e-14)

    def test_full_transfer_resonant(self):
        # detuning 0, coupling 1: the collective oscillation completes a half
        # period at t = pi / (2 sqrt(2)), moving all weight onto |gg>
        p = TwoQubitFockParams(detuning=0.0, coupling=1.0)
        state = state_at(fock2_states, p, np.pi / (2.0 * np.sqrt(2.0)))
        assert state.matrix[3, 3].real == pytest.approx(1.0, abs=1e-12)

    def test_against_amplitude_ode(self):
        p = TwoQubitFockParams(detuning=5.0, coupling=1.0)
        got = fock2_amplitudes(p, 0.5)
        want = fock2_amplitudes_ode(5.0, 1.0, np.pi / 4, 0.5)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8

    def test_trace_random_grid(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            p = TwoQubitFockParams(
                detuning=rng.uniform(-10.0, 10.0), coupling=rng.uniform(0.2, 3.0)
            )
            c2, c3, c4 = fock2_amplitudes(p, rng.uniform(0.0, 20.0))
            assert abs(abs(c2) ** 2 + abs(c3) ** 2 + abs(c4) ** 2 - 1.0) <= 1e-12

    def test_photons_fixed_at_zero(self):
        with pytest.raises(ValueError):
            TwoQubitFockParams(detuning=0.0, photons=1)


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: FockParams(detuning=bad),
        lambda bad: FockParams(detuning=5.0, coupling=bad),
        lambda bad: ThermalParams(bad, 1.0),
        lambda bad: ThermalParams(0.1, bad),
        lambda bad: ThermalParams(0.1, 1.0, freq_scale=bad),
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
        state = state_at(fock2_states, TwoQubitFockParams(detuning=5.0), 0.0)
        np.testing.assert_allclose(reduce_A(state).matrix, np.eye(2) / 2, atol=1e-14)

    def test_matches_bruteforce(self):
        state = state_at(fock2_states, TwoQubitFockParams(detuning=5.0), 0.5)
        np.testing.assert_allclose(
            reduce_A(state).matrix, ptrace_b_bruteforce(state.matrix), atol=1e-14
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reduce_A(np.eye(2, dtype=complex) / 2)


class TestChannels:
    def test_fock_channel_matches_state(self):
        p = FockParams(detuning=5.0, alpha=np.pi / 4)
        channel = fock1_channel(p)
        np.testing.assert_allclose(
            channel.states(5.0, [0.7])[0], state_at(fock1_states, p, 0.7).matrix, atol=1e-15
        )

    def test_grid_matches_length_one_grids(self):
        channel = thermal1_channel(ThermalParams(0.1, 1.0, np.pi / 4))
        times = np.linspace(0.1, 2.0, 7)
        stack = channel.states(0.1, times)
        for k, t in enumerate(times):
            np.testing.assert_allclose(stack[k], channel.states(0.1, [t])[0], atol=1e-15)

    def test_squeezed_channel_floor(self):
        channel = squeezed1_channel(SqueezedParams(0.1, 1.0, 0.0))
        assert channel.floor == 0.0
