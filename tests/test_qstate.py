"""Tests for the density-matrix primitives."""

import numpy as np
import pytest

from helpers import (
    density_from_bloch,
    eig2_closed_form,
    fidelity_uhlmann_oracle,
    ptrace_b_bruteforce,
    random_density,
    random_qubit_state,
    state_at,
)
from qfi_probe.probe_models import ThermalParams, TwoQubitFockParams, fock2_states, thermal1_states
from qfi_probe.qstate import (
    NegativeEigenvalue,
    NotHermitian,
    StateValidationError,
    TraceNotOne,
    bloch_vector,
    eig_hermitian,
    fidelity_bloch,
    trace_out_B,
    validate_density,
)

EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)


class TestValidateDensity:
    def test_maximally_mixed(self):
        state = validate_density(np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(state.eigenvalues, [0.5, 0.5], atol=1e-14)

    def test_pure_excited(self):
        state = validate_density(EXCITED)
        assert state.dim == 2
        np.testing.assert_allclose(state.eigenvalues, [1.0, 0.0], atol=1e-14)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_density(np.diag([1.1, -0.1]).astype(complex))

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            validate_density(mat)

    def test_bad_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.diag([0.7, 0.5]).astype(complex))

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            validate_density(np.eye(3, dtype=complex) / 3)

    def test_nan_matrix_rejected(self):
        with pytest.raises(StateValidationError):
            validate_density(np.full((2, 2), np.nan, dtype=complex))

    def test_infinite_entry_rejected(self):
        mat = np.diag([np.inf, 0.0]).astype(complex)
        with pytest.raises(StateValidationError):
            validate_density(mat)

    def test_stack_rejected_by_one_bad_matrix(self):
        stack = np.repeat((np.eye(2, dtype=complex) / 2)[None], 5, axis=0)
        stack[3] = np.nan
        with pytest.raises(StateValidationError):
            validate_density(stack)

    def test_stack_keeps_per_matrix_spectra(self):
        stack = np.array([EXCITED, np.eye(2, dtype=complex) / 2, GROUND])
        state = validate_density(stack)
        np.testing.assert_allclose(
            state.eigenvalues, [[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]], atol=1e-14
        )
        for k in range(3):
            vectors, values = state.eigenvectors[k], state.eigenvalues[k]
            reconstruction = (vectors * values) @ vectors.conj().T
            assert np.abs(reconstruction - stack[k]).max() <= 1e-10

    def test_matrix_immutable(self):
        state = validate_density(EXCITED)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0


class TestEigHermitian:
    def test_already_diagonal(self):
        values, vectors = eig_hermitian(validate_density(np.diag([0.3, 0.7]).astype(complex)))
        np.testing.assert_allclose(values, [0.7, 0.3], atol=1e-14)
        assert abs(abs(vectors[1, 0]) - 1.0) < 1e-12  # leading eigenvector is |g>

    def test_pure_superposition(self):
        state = validate_density(0.5 * np.ones((2, 2), dtype=complex))
        values, vectors = eig_hermitian(state)
        np.testing.assert_allclose(values, [1.0, 0.0], atol=1e-12)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(plus, vectors[:, 0])) - 1.0) < 1e-12

    def test_thermal_state_against_closed_form(self):
        # relaxed reservoir state at m=0.1, gamma t = 1, alpha = 45 degrees
        state = state_at(thermal1_states, ThermalParams(0.1, 1.0, np.pi / 4), 1.0)
        values, vectors = eig_hermitian(state)
        np.testing.assert_allclose(values, eig2_closed_form(state.matrix), atol=1e-12)
        reconstruction = (vectors * values) @ vectors.conj().T
        assert np.abs(reconstruction - state.matrix).max() <= 1e-10

    def test_orthonormality_random(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4):
            for _ in range(25):
                _, vectors = eig_hermitian(random_density(rng, dim))
                gram = vectors.conj().T @ vectors
                assert np.abs(gram - np.eye(dim)).max() <= 1e-10


class TestPartialTrace:
    def test_product_state(self):
        product = np.kron(EXCITED, GROUND)
        reduced = validate_density(trace_out_B(product))
        np.testing.assert_allclose(reduced.matrix, EXCITED, atol=1e-14)

    def test_bell_state(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[1:3, 1:3] = 0.5
        reduced = validate_density(trace_out_B(bell))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_two_qubit_cavity_state_vs_bruteforce(self):
        state = state_at(fock2_states, TwoQubitFockParams(detuning=5.0, coupling=1.0), 0.5)
        expected = ptrace_b_bruteforce(state.matrix)
        reduced = validate_density(trace_out_B(state))
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-14)
        assert abs(expected[0, 1]) < 1e-14  # block structure leaves A diagonal

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="4x4"):
            trace_out_B(EXCITED)

    def test_reduction_of_random_states_is_valid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            reduced = validate_density(trace_out_B(random_density(rng, 4)))
            assert reduced.dim == 2  # validate_density already ran


class TestBlochVector:
    def test_maximally_mixed(self):
        assert bloch_vector(np.eye(2, dtype=complex) / 2) == (0.0, 0.0, 0.0)

    def test_pure_excited(self):
        assert bloch_vector(EXCITED) == (0.0, 0.0, 1.0)

    def test_thermal_state_components(self):
        state = state_at(thermal1_states, ThermalParams(0.1, 1.0, np.pi / 4), 1.0)
        vec = bloch_vector(state)
        assert vec.ax == pytest.approx(0.54882, abs=1e-5)
        assert vec.ay == pytest.approx(0.0, abs=1e-12)
        assert vec.az == pytest.approx(-0.58234, abs=1e-5)

    def test_inverse_map(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = random_qubit_state(rng)
            rebuilt = density_from_bloch(bloch_vector(state))
            assert np.abs(rebuilt - state.matrix).max() <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            bloch_vector(np.eye(4, dtype=complex) / 4)


class TestFidelity:
    def test_identical_pure_states(self):
        assert fidelity_bloch(EXCITED, EXCITED) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        assert fidelity_bloch(EXCITED, GROUND) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_against_pure(self):
        assert fidelity_bloch(np.eye(2, dtype=complex) / 2, EXCITED) == pytest.approx(0.5)

    def test_uhlmann_trivial_cases(self):
        eye2 = np.eye(2, dtype=complex) / 2
        assert fidelity_uhlmann_oracle(eye2, eye2) == pytest.approx(1.0, abs=1e-14)
        assert fidelity_uhlmann_oracle(EXCITED, GROUND) == pytest.approx(0.0, abs=1e-14)

    def test_bloch_equals_uhlmann_on_random_pairs(self):
        # continuous ensemble over the Bloch ball; exactly-pure boundary
        # states are covered by the trivial cases above (the square root of
        # a radicand that is zero only up to round-off is ill-conditioned)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rho0 = random_qubit_state(rng)
            rho1 = random_qubit_state(rng)
            assert abs(
                fidelity_bloch(rho0, rho1) - fidelity_uhlmann_oracle(rho0, rho1)
            ) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho0 = random_qubit_state(rng)
            rho1 = random_qubit_state(rng)
            assert abs(fidelity_bloch(rho0, rho1) - fidelity_bloch(rho1, rho0)) <= 1e-12

    def test_rejects_two_qubit_input(self):
        eye4 = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            fidelity_bloch(eye4, eye4)
