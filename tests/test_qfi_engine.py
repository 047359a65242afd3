"""Tests for the derivative stencil on the models' kernels, the tangent
kernels' exact derivative, the block QFI and its oracles."""

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
    qfi_spectral,
    random_density,
    random_hermitian_traceless,
    random_unitary,
    record,
    states,
    stencil,
)
from qfi_probe import scan_repro
from qfi_probe.qfi_engine import qfi_blocks
from qfi_probe.qstate import QUBIT_BLOCKS, X_BLOCKS, validate_blocks
from qfi_probe.scan_repro import _ESTIMAND_FIELDS, MODELS, ScanConfig
from symbolic import exact

THERMAL = ScanConfig("thermal1", alpha=np.pi / 4)
SQUEEZED = ScanConfig("squeezed1", alpha=np.pi / 4)
FOCK2 = ScanConfig("fock2", alpha=np.pi / 4)
# the models whose MODELS entry is the stencil; thermal2 and squeezed2 have
# tangent kernels (ROADMAP item 29)
STENCIL_MODELS = ("fock1", "thermal1", "squeezed1", "fock2")


def derivative(config, value, times):
    """The stencil derivative as dense matrices."""
    return dense(d_rho_grid(config, value, times))


class TestDerivativeStencil:
    def test_constant_model_gives_zero(self, monkeypatch):
        state = lambda times: block_state(QUBIT_BLOCKS, times, [(0.5, 0.5, 0.5, 0.0)]).values
        constant = lambda points, _: lambda times: np.array([state(times) for _ in points])
        monkeypatch.setitem(MODELS, "fock1", MODELS["fock1"][:3] + (scan_repro._stencil(constant),))
        deriv = derivative(ScanConfig("fock1"), 1.0, [2.0])[0]
        assert np.abs(deriv).max() <= 1e-10

    @pytest.mark.parametrize("config, t", [
        *((THERMAL, t) for t in (0.5, 1.0, 3.0)),
        *((SQUEEZED, t) for t in (0.3, 1.0, 2.5)),
        # the one-sided stencil at the domain edge
        (ScanConfig("thermal1", mean_occupation=0.0), 1.0),
    ])
    def test_against_exact_traceless_and_hermitian(self, config, t):
        deriv = derivative(config, nominal(config), [t])[0]
        assert np.abs(deriv - exact(config, t).drho).max() <= 1e-6
        assert abs(np.trace(deriv)) <= 1e-9
        assert np.abs(deriv - deriv.conj().T).max() == 0.0

    @pytest.mark.parametrize("model", STENCIL_MODELS)
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


@pytest.mark.parametrize("config", [
    ScanConfig("thermal2"), ScanConfig("thermal2", mean_occupation=0.0, gamma=0.7),
    ScanConfig("thermal2", mean_occupation=30.0), ScanConfig("squeezed2"),
    ScanConfig("squeezed2", squeezing=0.0, gamma=1.3), ScanConfig("squeezed2", squeezing=2.0),
], ids=[f"{model}-{tag}" for model in ("thermal2", "squeezed2")
        for tag in ("default", "floor", "large")])
def test_tangent_derivative_equals_exact(config):
    # the tangent kernels' derivative row is the exact one to rounding, at
    # the domain floor and at large strength too; the worst measured was
    # 3.5e-16 of the largest entry
    times = np.linspace(0.0, 40.0, 41)
    got = dense(d_rho_grid(config, nominal(config), times))
    expected = np.array([exact(config, t).drho for t in times], dtype=complex)
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


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

    @pytest.mark.parametrize("rho, left_out", [(np.diag([0.3, 0.7]), 0), (np.diag([1.0, 0.0]), 1)],
                             ids=["mixed", "pure"])
    def test_zero_derivative(self, form, rho, left_out):
        # a pure state leaves one block row or one eigenvalue pair out
        assert form(rho, np.zeros((2, 2))) == (0.0, left_out)

    @pytest.mark.parametrize("rho, drho, expected", [
        # rho = diag(phi, 1 - phi) at phi = 1/2 gives F = 1 / (phi (1 - phi))
        (np.eye(2) / 2, np.diag([1.0, -1.0]), pytest.approx(4.0, abs=1e-12)),
        # the thermal steady state at m = 0.1, 1 / (w^2 m (m + 1)) with
        # w = 2m + 1: 6.3131
        (np.diag([0.1, 1.1]) / 1.2, np.diag([1.0, -1.0]) / 1.44,
         pytest.approx(1.0 / (1.44 * 0.1 * 1.1), rel=1e-12)),
    ], ids=["binomial", "thermal_steady_state"])
    def test_classical_families(self, form, rho, drho, expected):
        assert form(rho, drho)[0] == expected

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2, 2)], ids=["two_qubit", "stack"])
    def test_dimension_mismatch(self, form, shape):
        with pytest.raises(ValueError, match="does not match"):
            form(np.eye(2) / 2, np.zeros(shape))


class TestQfiBlocks:
    def test_floored_counts_block_rows(self):
        # a block row is floored when its determinant term is left out
        # (TestQfiForms holds the pure qubit): fock2 at t = 0 has a pure
        # {|eg>, |ge>} block and an empty {|ee>, |gg>} block, one row each
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

    @pytest.mark.parametrize("config, times, level, smallest", [
        # figure 1a, alpha = 0: a population dips to about 6e-9, where the
        # lower eigenvalue as (w - |r|) / 2 is off by 4.5e-9 of the peak
        (ScanConfig("fock1", alpha=0.0, t_max=100.0), np.linspace(0.01, 100.0, 2000), 1, 1e-8),
        # the |gg> population of fock2 passes through zero at
        # t = 2 pi k / sqrt(8 + detuning^2); k = 45 sits near t = 49.22
        (FOCK2, 2.0 * np.pi * 45 / np.sqrt(33.0) + np.linspace(-1e-3, 1e-3, 20001), 3, 1e-20),
    ], ids=["fock1_tiny_population", "fock2_rank_drop"])
    def test_matches_spectral_oracle_near_an_empty_level(self, config, times, level, smallest):
        rows = states(config, nominal(config), times)
        mats = dense(rows)
        assert mats[:, level, level].real.min() < smallest
        derivs = d_rho_grid(config, nominal(config), times)
        block = qfi_blocks(validate_blocks(rows), derivs).value
        spectral = qfi_spectral(mats, dense(derivs)).value
        assert np.abs(block - spectral).max() <= 1e-12 * spectral.max()


class TestQfiSpectral:
    """The eigendecomposition oracle in tests/helpers."""

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


class TestPureOracle:
    """The pure-state oracle in tests/helpers; acceptance criterion 1 holds
    it to the spectral oracle and the block QFI on random rank-1 states."""

    def test_known_values(self):
        # psi(phi) = (exp(-i phi)|e> + |g>) / sqrt(2), and a state that does
        # not depend on the parameter
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        dpsi = np.array([-1.0j, 0.0], dtype=complex) / np.sqrt(2.0)
        assert qfi_pure_oracle(psi, dpsi) == pytest.approx(1.0, abs=1e-12)
        assert qfi_pure_oracle(np.array([1.0, 0.0]), np.zeros(2, dtype=complex)) == 0.0

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

