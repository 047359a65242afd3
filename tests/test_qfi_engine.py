"""Tests for derivative stencils, the spectral QFI and its oracles, the
temperature chain rule, and the Cramer-Rao bound."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    qfi_pure_oracle,
    qfi_sld_oracle,
    random_density,
    random_hermitian_traceless,
    random_unitary,
    squeezed1_dsqueezing,
    thermal1_doccupation,
)
from qfi_probe.probe_models import (
    ChannelModel,
    FockParams,
    SqueezedParams,
    ThermalParams,
    TwoQubitFockParams,
    fock1_amplitudes,
    fock1_channel,
    fock2_channel,
    squeezed1_channel,
    thermal1_channel,
)
from qfi_probe.qfi_engine import (
    CramerRaoInput,
    cramer_rao,
    d_rho_grid,
    fd_step,
    occupation_from_temperature,
    occupation_slope,
    qfi_spectral,
    temperature_from_occupation,
)
from qfi_probe.qstate import validate_density

THERMAL = ThermalParams(0.1, 1.0, np.pi / 4)
SQUEEZED = SqueezedParams(0.1, 1.0, np.pi / 4)
THERMAL_CHANNEL = thermal1_channel(THERMAL)
SQUEEZED_CHANNEL = squeezed1_channel(SQUEEZED)


def constant_channel():
    state = 0.5 * np.ones((2, 2), dtype=complex)
    return ChannelModel(
        1.0, None, 2, lambda v, times: np.repeat(state[None], len(times), axis=0)
    )


class TestDerivativeStencil:
    def test_constant_model_gives_zero(self):
        deriv = d_rho_grid(constant_channel(), 1.0, [2.0])[0]
        assert np.abs(deriv).max() <= 1e-10

    def test_thermal_coherence_derivative(self):
        # d(rho_12)/dm = -gamma t cos(a) sin(a) exp(-gamma (m + 1/2) t)
        deriv = d_rho_grid(THERMAL_CHANNEL, 0.1, [1.0])[0]
        assert deriv[0, 1].real == pytest.approx(-0.27441, abs=1e-5)
        analytic = thermal1_doccupation(THERMAL, [1.0])[0]
        assert np.abs(deriv - analytic).max() <= 1e-6

    def test_squeezed_dual_path(self):
        for t in (0.3, 1.0, 2.5):
            stencil = d_rho_grid(SQUEEZED_CHANNEL, 0.1, [t])[0]
            analytic = squeezed1_dsqueezing(SQUEEZED, [t])[0]
            assert np.abs(stencil - analytic).max() <= 1e-6

    def test_one_sided_stencil_at_domain_edge(self):
        params = ThermalParams(0.0, 1.0, np.pi / 4)
        stencil = d_rho_grid(thermal1_channel(params), 0.0, [1.0])[0]
        analytic = thermal1_doccupation(params, [1.0])[0]
        assert np.abs(stencil - analytic).max() <= 1e-6

    def test_traceless_and_hermitian(self):
        for t in (0.5, 1.0, 3.0):
            deriv = d_rho_grid(THERMAL_CHANNEL, 0.1, [t])[0]
            assert abs(np.trace(deriv)) <= 1e-9
            assert np.abs(deriv - deriv.conj().T).max() == 0.0

    def test_grid_matches_pointwise(self):
        times = np.linspace(0.2, 2.0, 5)
        stack = d_rho_grid(THERMAL_CHANNEL, 0.1, times)
        for k, t in enumerate(times):
            pointwise = d_rho_grid(THERMAL_CHANNEL, 0.1, [t])[0]
            np.testing.assert_allclose(stack[k], pointwise, atol=1e-14)


class TestQfiSpectral:
    def test_zero_derivative(self):
        rho = validate_density(np.diag([0.3, 0.7]).astype(complex))
        result = qfi_spectral(rho, np.zeros((2, 2), dtype=complex))
        assert result.value == 0.0
        assert result.discarded_pairs == 0

    def test_classical_binomial_family(self):
        # rho = diag(phi, 1 - phi) at phi = 1/2 gives F = 1 / (phi (1 - phi))
        rho = validate_density(np.eye(2, dtype=complex) / 2)
        drho = np.diag([1.0, -1.0]).astype(complex)
        assert qfi_spectral(rho, drho).value == pytest.approx(4.0, abs=1e-12)

    def test_thermal_steady_state_benchmark(self):
        m = 0.1
        width = 2.0 * m + 1.0
        rho = validate_density(np.diag([m / width, (m + 1.0) / width]).astype(complex))
        drho = np.diag([1.0 / width**2, -1.0 / width**2]).astype(complex)
        expected = 1.0 / (width**2 * m * (m + 1.0))
        result = qfi_spectral(rho, drho)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.value == pytest.approx(6.3131, abs=1e-3)

    def test_discarded_pairs_counted_for_pure_state(self):
        rho = validate_density(np.diag([1.0, 0.0]).astype(complex))
        result = qfi_spectral(rho, np.zeros((2, 2), dtype=complex))
        assert result.discarded_pairs == 1

    def test_dimension_mismatch(self):
        rho = validate_density(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError, match="dimension"):
            qfi_spectral(rho, np.zeros((4, 4), dtype=complex))

    def test_unitary_invariance(self):
        rng = np.random.default_rng(61)
        for dim in (2, 4):
            for _ in range(20):
                rho = random_density(rng, dim)
                drho = random_hermitian_traceless(rng, dim)
                u = random_unitary(rng, dim)
                rotated = validate_density(u @ rho.matrix @ u.conj().T)
                direct = qfi_spectral(rho, drho).value
                conjugated = qfi_spectral(rotated, u @ drho @ u.conj().T).value
                assert direct == pytest.approx(conjugated, rel=1e-8, abs=1e-10)


class TestSldOracle:
    def test_zero_derivative(self):
        rho = validate_density(np.diag([0.3, 0.7]).astype(complex))
        assert qfi_sld_oracle(rho, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_agreement_on_full_rank_states(self):
        rng = np.random.default_rng(67)
        for dim in (2, 4):
            for _ in range(100):
                rho = random_density(rng, dim)
                drho = random_hermitian_traceless(rng, dim)
                spectral = qfi_spectral(rho, drho)
                assert spectral.discarded_pairs == 0
                assert abs(spectral.value - qfi_sld_oracle(rho, drho)) <= 1e-8


class TestPureOracle:
    def test_phase_rotation_family(self):
        # psi(phi) = (exp(-i phi)|e> + |g>) / sqrt(2)
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        dpsi = np.array([-1.0j, 0.0], dtype=complex) / np.sqrt(2.0)
        assert qfi_pure_oracle(psi, dpsi) == pytest.approx(1.0, abs=1e-12)

    def test_parameter_independent_state(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert qfi_pure_oracle(psi, np.zeros(2, dtype=complex)) == 0.0

    def test_cavity_amplitude_family_dual_path(self):
        # system-state amplitudes before tracing, differentiated in the detuning
        p = FockParams(detuning=5.0, coupling=1.0, alpha=np.pi / 4)
        t = 0.8
        h = fd_step(5.0)
        psi = np.array(fock1_amplitudes(p, t))
        up = np.array(fock1_amplitudes(replace(p, detuning=5.0 + h), t))
        down = np.array(fock1_amplitudes(replace(p, detuning=5.0 - h), t))
        dpsi = (up - down) / (2.0 * h)
        rho = validate_density(np.outer(psi, psi.conj()))
        drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        pure = qfi_pure_oracle(psi, dpsi)
        spectral = qfi_spectral(rho, drho).value
        assert abs(pure - spectral) <= 1e-8

    def test_agreement_on_random_rank_one_states(self):
        rng = np.random.default_rng(71)
        for dim in (2, 4):
            for _ in range(100):
                psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                psi /= np.linalg.norm(psi)
                dpsi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                dpsi -= psi * np.vdot(psi, dpsi).real  # normalized family
                rho = validate_density(np.outer(psi, psi.conj()))
                drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
                assert abs(qfi_pure_oracle(psi, dpsi) - qfi_spectral(rho, drho).value) <= 1e-8


class TestQfiVanishesAtTimeZero:
    @pytest.mark.parametrize(
        "channel",
        [
            fock1_channel(FockParams(detuning=5.0, alpha=np.pi / 4)),
            THERMAL_CHANNEL,
            SQUEEZED_CHANNEL,
            fock2_channel(TwoQubitFockParams(detuning=5.0)),
        ],
        ids=["fock1", "thermal1", "squeezed1", "fock2"],
    )
    def test_zero_at_t0(self, channel):
        rho = validate_density(channel.states(channel.value, [0.0])[0])
        drho = d_rho_grid(channel, channel.value, [0.0])[0]
        assert qfi_spectral(rho, drho).value <= 1e-9


class TestTemperatureChainRule:
    def test_inverse_bose_relation(self):
        assert temperature_from_occupation(0.1, 1.0) == pytest.approx(0.41703, abs=1e-5)
        t = temperature_from_occupation(0.1, 1.0)
        assert occupation_from_temperature(t, 1.0) == pytest.approx(0.1, rel=1e-12)

    def test_slope_value(self):
        t = temperature_from_occupation(0.1, 1.0)
        slope = occupation_slope(t, 1.0)
        assert slope == pytest.approx(np.log(11.0) ** 2 * 11.0 / 100.0, rel=1e-12)
        assert slope == pytest.approx(0.63252, abs=1e-4)

    def test_chain_rule_product(self):
        t = temperature_from_occupation(0.1, 1.0)
        value = 6.3131 * occupation_slope(t, 1.0) ** 2
        assert value == pytest.approx(2.5256, abs=1e-3)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            occupation_slope(0.0, 1.0)
        with pytest.raises(ValueError):
            occupation_from_temperature(-1.0, 1.0)


class TestCramerRao:
    def test_simple_value(self):
        assert cramer_rao(CramerRaoInput(100.0)) == pytest.approx(0.1, abs=1e-15)

    def test_best_one_qubit_detuning_precision(self):
        assert cramer_rao(CramerRaoInput(1.18e3)) == pytest.approx(0.02912, abs=1e-5)

    def test_experiment_scaling(self):
        assert cramer_rao(CramerRaoInput(4.0, experiments=4)) == pytest.approx(0.25)

    def test_rejects_nonpositive_qfi(self):
        with pytest.raises(ValueError):
            CramerRaoInput(0.0)
        with pytest.raises(ValueError):
            CramerRaoInput(-1.0)
