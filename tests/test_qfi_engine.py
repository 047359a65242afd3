"""Tests for the derivative stencil on the models' kernels, the block QFI
and its oracles."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    block_state,
    d_rho_dense,
    d_rho_grid,
    dense,
    fock1_amplitudes,
    nominal,
    qfi_pure_oracle,
    qfi_sld_oracle,
    qfi_spectral,
    random_density,
    random_hermitian_traceless,
    random_unitary,
    record,
    states,
    stencil,
)
from qfi_probe.qfi_engine import qfi_blocks
from qfi_probe.qstate import QUBIT_BLOCKS, X_BLOCKS, validate_blocks
from qfi_probe.scan_repro import _ESTIMAND_FIELDS, MODELS, ScanConfig, time_grid
from symbolic import exact

THERMAL = ScanConfig("thermal1", alpha=np.pi / 4)
SQUEEZED = ScanConfig("squeezed1", alpha=np.pi / 4)
FOCK2 = ScanConfig("fock2", alpha=np.pi / 4)


def derivative(config, value, times):
    """The stencil derivative as dense matrices."""
    return dense(d_rho_grid(config, value, times))


class TestDerivativeStencil:
    def test_constant_model_gives_zero(self, monkeypatch):
        state = lambda times: block_state(QUBIT_BLOCKS, times, [(0.5, 0.5, 0.5, 0.0)]).values
        constant = lambda points, _: lambda times: np.array([state(times) for _ in points])
        monkeypatch.setitem(MODELS, "fock1", MODELS["fock1"][:3] + (constant,))
        deriv = derivative(ScanConfig("fock1"), 1.0, [2.0])[0]
        assert np.abs(deriv).max() <= 1e-10

    def test_thermal_coherence_derivative(self):
        # d(rho_12)/dm = -gamma t cos(a) sin(a) exp(-gamma (m + 1/2) t)
        deriv = derivative(THERMAL, 0.1, [1.0])[0]
        assert deriv[0, 1].real == pytest.approx(-0.27441, abs=1e-5)
        assert np.abs(deriv - exact(ScanConfig("thermal1"), 1.0).drho).max() <= 1e-6

    def test_squeezed_dual_path(self):
        for t in (0.3, 1.0, 2.5):
            stencil = derivative(SQUEEZED, 0.1, [t])[0]
            assert np.abs(stencil - exact(ScanConfig("squeezed1"), t).drho).max() <= 1e-6

    def test_one_sided_stencil_at_domain_edge(self):
        config = ScanConfig("thermal1", mean_occupation=0.0, alpha=np.pi / 4)
        stencil = derivative(config, 0.0, [1.0])[0]
        analytic = exact(config, 1.0).drho
        assert np.abs(stencil - analytic).max() <= 1e-6

    def test_traceless_and_hermitian(self):
        for t in (0.5, 1.0, 3.0):
            deriv = derivative(THERMAL, 0.1, [t])[0]
            assert abs(np.trace(deriv)) <= 1e-9
            assert np.abs(deriv - deriv.conj().T).max() == 0.0

    @pytest.mark.parametrize("model", ["fock1", "thermal1", "squeezed1", "fock2", "thermal2",
                                       "squeezed2"])
    def test_bit_identical_to_dense_stencil(self, model, monkeypatch):
        # dividing by the trace and by 2 h as multiplications by the
        # reciprocal, with the trace summed in basis order, and combining
        # the weighted taps left to right is what the dense complex path
        # did; plain division moves reservoir rows by up to 1e-10 of the
        # peak. A floor at the value gives every model the one-sided stencil
        strengths = {"mean_occupation", "squeezing"}.intersection(MODELS[model][1])
        estimand, times = ScanConfig(model).estimand, np.linspace(0.0, 40.0, 101)
        name, domain_floor = _ESTIMAND_FIELDS[estimand]
        for value in (0.1, 0.0):
            config = ScanConfig(model, **dict.fromkeys(strengths, value))
            for floor in (domain_floor, nominal(config)):
                monkeypatch.setitem(_ESTIMAND_FIELDS, estimand, (name, floor))
                np.testing.assert_array_equal(dense(d_rho_grid(config, nominal(config), times)),
                                              d_rho_dense(config, nominal(config), times))

    def test_grid_matches_pointwise(self):
        times = np.linspace(0.2, 2.0, 5)
        stack = derivative(THERMAL, 0.1, times)
        for k, t in enumerate(times):
            pointwise = derivative(THERMAL, 0.1, [t])[0]
            np.testing.assert_allclose(stack[k], pointwise, atol=1e-14)


def block_form(rho, drho):
    """(value, floored rows) of the block QFI of dense matrices."""
    result = qfi_blocks(record(rho), record(drho))
    return result.value, result.floored


def spectral_form(rho, drho):
    """(value, discarded pairs) of the eigendecomposition oracle."""
    result = qfi_spectral(rho, drho)
    return result.value, result.discarded_pairs


@pytest.mark.parametrize("form", [block_form, spectral_form], ids=["blocks", "spectral"])
class TestQfiForms:
    """The block QFI and the eigendecomposition oracle in tests/helpers, on
    the same inputs."""

    def test_zero_derivative(self, form):
        value, left_out = form(np.diag([0.3, 0.7]), np.zeros((2, 2)))
        assert value == 0.0
        assert left_out == 0

    def test_classical_binomial_family(self, form):
        # rho = diag(phi, 1 - phi) at phi = 1/2 gives F = 1 / (phi (1 - phi))
        value, _ = form(np.eye(2) / 2, np.diag([1.0, -1.0]))
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_thermal_steady_state_benchmark(self, form):
        m = 0.1
        width = 2.0 * m + 1.0
        rho = np.diag([m / width, (m + 1.0) / width])
        drho = np.diag([1.0 / width**2, -1.0 / width**2])
        value, _ = form(rho, drho)
        assert value == pytest.approx(1.0 / (width**2 * m * (m + 1.0)), rel=1e-12)
        assert value == pytest.approx(6.3131, abs=1e-3)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2, 2)], ids=["two_qubit", "stack"])
    def test_dimension_mismatch(self, form, shape):
        with pytest.raises(ValueError, match="does not match"):
            form(np.eye(2) / 2, np.zeros(shape))


class TestQfiBlocks:
    def test_floored_counts_block_rows(self):
        # a block row is floored when its determinant term is left out:
        # |e> is one pure block; fock2 at t = 0 has a pure {|eg>, |ge>} block
        # and an empty {|ee>, |gg>} block, one row each
        rho = record(np.diag([1.0, 0.0]))
        assert qfi_blocks(rho, record(np.zeros((2, 2)))).floored == 1
        state = validate_blocks(states(FOCK2, 5.0, [0.0]))
        zero = record(np.zeros((1, 4, 4)), X_BLOCKS)
        assert qfi_blocks(state, zero).floored == 2
        # counted over the grid: the mixed qubit rows keep theirs
        rows = record(np.array([np.diag([1.0, 0.0]), np.eye(2) / 2, np.diag([0.0, 1.0])]))
        assert qfi_blocks(rows, record(np.zeros((3, 2, 2)))).floored == 2

    def test_block_of_negative_weight_adds_nothing(self):
        # an {|ee>, |gg>} block of weight -1e-11 and det 2.5e-23 > 0 passes
        # validation (its lower eigenvalue is -5e-12); its terms, which
        # would divide by w < 0, are left out, as the eigenvalue pairs'
        # floor left them out
        rho = block_state(X_BLOCKS, np.zeros(1), [(0.5, 0.5 + 1e-11, 0.2, 0.0),
                                                  (-0.5e-11, -0.5e-11, 0.0, 0.0)])
        drho = block_state(X_BLOCKS, np.zeros(1), [(0.1, -0.3, 0.05, 0.02), (0.1, 0.1, 0.0, 0.0)])
        rest = block_state(QUBIT_BLOCKS, np.zeros(1), [(0.5, 0.5 + 1e-11, 0.2, 0.0)])
        drest = block_state(QUBIT_BLOCKS, np.zeros(1), [(0.1, -0.3, 0.05, 0.02)])
        result = qfi_blocks(validate_blocks(rho), drho)
        assert result.value == qfi_blocks(rest, drest).value
        assert result.floored == 1

    def test_derivative_outside_blocks_rejected(self):
        # a derivative with an {|ee>, |eg>} coherence lies outside the
        # X-state blocks: it has no record on them, and a record of its
        # {|eg>, |ge>} block alone, on the qubit blocks, does not match the
        # state
        state = validate_blocks(states(FOCK2, 5.0, [1.0]))
        drho = derivative(FOCK2, 5.0, [1.0])
        drho[0, 0, 1] = drho[0, 1, 0] = 1e-3
        with pytest.raises(ValueError, match="outside the blocks"):
            record(drho, X_BLOCKS)
        with pytest.raises(ValueError, match="does not match"):
            qfi_blocks(state, record(drho[:, 1:3, 1:3], QUBIT_BLOCKS))

    def test_matches_spectral_oracle_at_fock1_tiny_population(self):
        # figure 1a, alpha = 0: a population dips to about 6e-9, where the
        # lower eigenvalue as (w - |r|) / 2 is off by 4.5e-9 of the peak
        config = ScanConfig("fock1", alpha=0.0, t_min=0.01, t_max=100.0, points=2000)
        times = time_grid(config)
        rows = states(config, nominal(config), times)
        mats = dense(rows)
        assert np.abs(mats[:, 1, 1]).min() < 1e-8
        derivs = d_rho_grid(config, nominal(config), times)
        block = qfi_blocks(validate_blocks(rows), derivs).value
        spectral = qfi_spectral(mats, dense(derivs)).value
        assert np.abs(block - spectral).max() <= 1e-12 * spectral.max()

    def test_matches_spectral_oracle_across_fock2_rank_drop(self):
        # the |gg> population of fock2 passes through zero at
        # t = 2 pi k / sqrt(8 + detuning^2); k = 45 sits near t = 49.22
        t_drop = 2.0 * np.pi * 45 / np.sqrt(33.0)
        times = t_drop + np.linspace(-1e-3, 1e-3, 20001)
        rows = states(FOCK2, 5.0, times)
        mats = dense(rows)
        assert mats[:, 3, 3].real.min() < 1e-20
        derivs = d_rho_grid(FOCK2, 5.0, times)
        block = qfi_blocks(validate_blocks(rows), derivs).value
        spectral = qfi_spectral(mats, dense(derivs)).value
        assert np.abs(block - spectral).max() <= 1e-12 * spectral.max()


class TestQfiSpectral:
    """The eigendecomposition oracle in tests/helpers."""

    def test_discarded_pairs_counted_for_pure_state(self):
        rho = np.diag([1.0, 0.0])
        result = qfi_spectral(rho, np.zeros((2, 2), dtype=complex))
        assert result.discarded_pairs == 1

    def test_unitary_invariance(self):
        rng = np.random.default_rng(61)
        for dim in (2, 4):
            for _ in range(20):
                rho = random_density(rng, dim)
                drho = random_hermitian_traceless(rng, dim)
                u = random_unitary(rng, dim)
                rotated = u @ rho @ u.conj().T
                direct = qfi_spectral(rho, drho).value
                conjugated = qfi_spectral(rotated, u @ drho @ u.conj().T).value
                assert direct == pytest.approx(conjugated, rel=1e-8, abs=1e-10)


class TestSldOracle:
    def test_zero_derivative(self):
        rho = np.diag([0.3, 0.7])
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
        config = ScanConfig("fock1", detuning=5.0, coupling=1.0, alpha=np.pi / 4)
        t = 0.8
        h = stencil(5.0, None)[0]
        psi = np.array(fock1_amplitudes(config, t))
        up = np.array(fock1_amplitudes(replace(config, detuning=5.0 + h), t))
        down = np.array(fock1_amplitudes(replace(config, detuning=5.0 - h), t))
        dpsi = (up - down) / (2.0 * h)
        rho = np.outer(psi, psi.conj())
        drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
        pure = qfi_pure_oracle(psi, dpsi)
        assert abs(pure - qfi_spectral(rho, drho).value) <= 1e-8
        assert abs(pure - qfi_blocks(record(rho), record(drho)).value) <= 1e-8

    def test_agreement_on_random_rank_one_states(self):
        rng = np.random.default_rng(71)
        for dim in (2, 4):
            for _ in range(100):
                psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                psi /= np.linalg.norm(psi)
                dpsi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                dpsi -= psi * np.vdot(psi, dpsi).real  # normalized family
                rho = np.outer(psi, psi.conj())
                drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
                pure = qfi_pure_oracle(psi, dpsi)
                assert abs(pure - qfi_spectral(rho, drho).value) <= 1e-8
                if dim == 2:
                    assert abs(pure - qfi_blocks(record(rho), record(drho)).value) <= 1e-8


class TestQfiVanishesAtTimeZero:
    @pytest.mark.parametrize(
        "config",
        [ScanConfig("fock1", alpha=np.pi / 4), THERMAL, SQUEEZED, FOCK2],
        ids=["fock1", "thermal1", "squeezed1", "fock2"],
    )
    def test_zero_at_t0(self, config):
        rho = validate_blocks(states(config, nominal(config), [0.0]))
        drho = d_rho_grid(config, nominal(config), [0.0])
        assert qfi_blocks(rho, drho).value[0] <= 1e-9

