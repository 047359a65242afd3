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
    X_BLOCKS,
    NegativeEigenvalue,
    NotHermitian,
    StateValidationError,
    TraceNotOne,
    bloch_vector,
    fidelity_bloch,
    pair_block,
    trace_out_B,
    validate_density,
)

EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)


def qubit_eigenvalues(mat):
    """(upper, lower) eigenvalues of a qubit state or stack."""
    return np.stack(pair_block(np.asarray(mat), (0, 1))[3:], axis=-1)


class TestValidateDensity:
    def test_maximally_mixed(self):
        state = validate_density(np.eye(2, dtype=complex) / 2)
        np.testing.assert_allclose(qubit_eigenvalues(state.matrix), [0.5, 0.5], atol=1e-14)

    def test_pure_excited(self):
        state = validate_density(EXCITED)
        assert state.dim == 2
        np.testing.assert_allclose(qubit_eigenvalues(state.matrix), [1.0, 0.0], atol=1e-14)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_density(np.diag([1.1, -0.1]).astype(complex))

    def test_negative_block_eigenvalue_rejected(self):
        # unit trace and nonnegative diagonal, but the coherence is too
        # large: eigenvalues 1.1 and -0.1, in a 2-block and in a 1-block
        qubit = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_density(qubit)
        pair = np.zeros((4, 4), dtype=complex)
        pair[1:3, 1:3] = qubit
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_density(pair)
        fock = np.diag([-0.1, 0.55, 0.55, 0.0]).astype(complex)
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_density(fock, ((1, 2), (3,), (0,)))

    def test_entry_outside_blocks_rejected(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[1:3, 1:3] = 0.5
        validate_density(bell, X_BLOCKS)
        stray = bell.copy()
        stray[0, 1] = stray[1, 0] = 1e-13
        with pytest.raises(StateValidationError, match="outside the blocks"):
            validate_density(stray, X_BLOCKS)
        # an {|ee>, |gg>} coherence is inside the X-state blocks but outside
        # the two-qubit cavity blocks
        coherent = bell * 0.5
        coherent[0, 0] = coherent[3, 3] = 0.25
        coherent[0, 3] = coherent[3, 0] = 0.1
        validate_density(coherent, X_BLOCKS)
        with pytest.raises(StateValidationError, match="outside the blocks"):
            validate_density(coherent, ((1, 2), (3,), (0,)))

    def test_blocks_must_partition_the_basis(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[1:3, 1:3] = 0.5
        for blocks in (((1, 2), (0,)), ((1, 2), (0, 3), (3,)), ((0, 1, 2), (3,))):
            with pytest.raises(ValueError, match="partition"):
                validate_density(bell, blocks)

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
            qubit_eigenvalues(state.matrix), [[1.0, 0.0], [0.5, 0.5], [1.0, 0.0]], atol=1e-14
        )
        # one bad matrix in a stack is named by its eigenvalue
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_density(np.array([EXCITED, np.diag([1.1, -0.1]), GROUND]))

    def test_matrix_immutable(self):
        state = validate_density(EXCITED)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0


class TestPairBlock:
    def test_already_diagonal(self):
        np.testing.assert_allclose(qubit_eigenvalues(np.diag([0.3, 0.7])), [0.7, 0.3],
                                   atol=1e-14)

    def test_pure_superposition(self):
        weight, bloch, norm, upper, lower = pair_block(0.5 * np.ones((2, 2), dtype=complex),
                                                       (0, 1))
        assert (upper, lower) == pytest.approx((1.0, 0.0), abs=1e-12)
        # the Bloch axis is the |+> direction
        assert (weight, norm) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert (bloch[0], bloch[1]) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_thermal_state_against_closed_form(self):
        # relaxed reservoir state at m=0.1, gamma t = 1, alpha = 45 degrees
        state = state_at(thermal1_states, ThermalParams(0.1, 1.0, np.pi / 4), 1.0)
        np.testing.assert_allclose(
            qubit_eigenvalues(state.matrix), eig2_closed_form(state.matrix), atol=1e-12
        )

    def test_tiny_eigenvalue_keeps_relative_accuracy(self):
        # a population of 6e-9, as fock1 reaches at alpha = 0: det / upper
        # keeps it to an ulp, where (w - |r|) / 2 loses half its digits
        small = 6.123456789e-9
        _, _, norm, upper, lower = pair_block(np.diag([1.0 - small, small]), (0, 1))
        assert lower == pytest.approx(small, rel=1e-15)
        assert abs(0.5 * ((1.0 - small + small) - norm) - small) > 1e-10 * small

    def test_random_pairs_against_eigvalsh(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mat = random_density(rng, 2)
            np.testing.assert_allclose(
                qubit_eigenvalues(mat), np.linalg.eigvalsh(mat)[::-1], atol=1e-14
            )


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
