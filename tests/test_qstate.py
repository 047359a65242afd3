"""Tests for the block-state record, its validation and the Bloch-vector
fidelity, and for the dense validator and partial trace that the oracles
use."""

import numpy as np
import pytest

from helpers import (
    NotHermitian,
    bloch_vector,
    block_state,
    d_rho_grid,
    dense,
    density_from_bloch,
    eig2_closed_form,
    fidelity_uhlmann_oracle,
    ptrace_b_bruteforce,
    random_density,
    random_qubit_state,
    record,
    state_at,
    trace_out_B,
    validate_density,
)
from qfi_probe import qfi_engine
from qfi_probe.qstate import (
    QUBIT_BLOCKS,
    X_BLOCKS,
    NegativeEigenvalue,
    StateValidationError,
    TraceNotOne,
    fidelity_bloch,
    pair_block,
    reduced_bloch,
    validate_blocks,
)
from qfi_probe.scan_repro import MODEL_IDS, ScanConfig, build_channel

EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)
THERMAL_CHANNEL = build_channel(ScanConfig("thermal1", alpha=np.pi / 4))


def qubit_eigenvalues(mat):
    """(upper, lower) eigenvalues of a qubit state or stack."""
    mat = np.asarray(mat)
    entries = (mat[..., 0, 0].real, mat[..., 1, 1].real, mat[..., 0, 1].real, mat[..., 0, 1].imag)
    return np.stack(pair_block(*entries)[3:], axis=-1)


def qubit(a, b, re, im=0.0):
    """A one-qubit record of a single state."""
    return block_state(QUBIT_BLOCKS, np.zeros(1), [(a, b, re, im)])


def fidelity(m0, m1):
    return fidelity_bloch(bloch_vector(m0), bloch_vector(m1))


class TestValidateBlocks:
    """The record validator, one check at a time, in its order."""

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_model_records_pass_with_spectra(self, model):
        channel = build_channel(ScanConfig(model))
        state = validate_blocks(channel.states(channel.value, [0.0, 0.3, 7.0, 49.0]))
        assert state.spectra is not None
        weight, _, _, upper, lower = state.spectra
        np.testing.assert_allclose(upper + lower, weight, rtol=0.0, atol=1e-15)

    def test_nan_rejected(self):
        with pytest.raises(StateValidationError, match="NaN") as info:
            validate_blocks(qubit(np.nan, 1.0, 0.0))
        assert type(info.value) is StateValidationError
        with pytest.raises(StateValidationError, match="NaN"):
            validate_blocks(qubit(0.5, 0.5, 0.0, np.inf))

    def test_negative_single_weight_rejected(self):
        # unit trace, a valid {|eg>, |ge>} block, and an {|ee>, |gg>} block
        # holding a lone |ee> weight of -0.1
        bad = block_state(X_BLOCKS, np.zeros(1), [(0.55, 0.55, 0.0, 0.0), (-0.1, 0.0, 0.0, 0.0)])
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_blocks(bad)

    def test_negative_pair_eigenvalue_rejected(self):
        # nonnegative diagonal, but the coherence is too large: eigenvalues
        # 1.1 and -0.1, both as a qubit and as an X-state block
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_blocks(qubit(0.5, 0.5, 0.6))
        pair = block_state(X_BLOCKS, np.zeros(1), [(0.5, 0.5, 0.0, 0.6), (0.0, 0.0, 0.0, 0.0)])
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_blocks(pair)

    def test_psd_tolerance_is_the_bound(self):
        # lower eigenvalue det / upper of a diagonal block is its entry
        validate_blocks(qubit(1.0 + 0.5e-10, -0.5e-10, 0.0))
        with pytest.raises(NegativeEigenvalue):
            validate_blocks(qubit(1.0 + 2e-10, -2e-10, 0.0))

    def test_trace_off_rejected(self):
        validate_blocks(qubit(0.3 + 0.5e-10, 0.7, 0.0))
        with pytest.raises(TraceNotOne, match="exceeds"):
            validate_blocks(qubit(0.3 + 2e-10, 0.7, 0.0))
        with pytest.raises(TraceNotOne):
            validate_blocks(block_state(X_BLOCKS, np.zeros(1),
                                        [(0.25, 0.25, 0.1, 0.0), (0.25, 0.3, 0.0, 0.0)]))

    def test_checks_run_in_order(self):
        # a negative eigenvalue is reported before a bad trace, and a NaN
        # before either
        with pytest.raises(NegativeEigenvalue):
            validate_blocks(qubit(0.9, -0.2, 0.0))
        with pytest.raises(StateValidationError, match="NaN"):
            validate_blocks(qubit(np.nan, -0.2, 0.0))

    def test_one_bad_state_in_a_record_is_named(self):
        states = np.array([EXCITED, np.diag([1.1, -0.1]), GROUND])
        with pytest.raises(NegativeEigenvalue, match="-1.0"):
            validate_blocks(record(states))

    def test_support_must_partition_the_basis(self):
        # the qubit and X-state blocks are the only supports
        for support in (((1, 2), (0,)), ((1, 2), (0, 3), (3,)), ((0,), (1, 2), (3,)),
                        ((0, 1, 2), (3,)), ((1, 2),), ((0, 3), (1, 2)), ((1, 0),)):
            with pytest.raises(ValueError, match="partition"):
                validate_blocks(block_state(support, np.zeros(1), []))

    def test_validated_record_is_read_only(self):
        state = validate_blocks(qubit(0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="read-only"):
            state.values[2] = 0.6

    def test_entries_must_fit_the_blocks(self):
        for support, blocks in ((QUBIT_BLOCKS, [(1.0,)]), (X_BLOCKS, [(0.5, 0.5, 0.0, 0.0), (0.0,)]),
                                (X_BLOCKS, [(0.5, 0.5, 0.0, 0.0)]),
                                (X_BLOCKS, [(0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), ()])):
            with pytest.raises(ValueError):
                block_state(support, np.zeros(1), blocks)

    def test_values_must_fit_the_blocks(self):
        state = qubit(0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="do not fit"):
            validate_blocks(type(state)(X_BLOCKS, state.values))

    def test_qfi_reuses_the_spectra(self, monkeypatch):
        state = validate_blocks(THERMAL_CHANNEL.states(0.1, [1.0, 2.0]))
        derivs = d_rho_grid(THERMAL_CHANNEL, 0.1, [1.0, 2.0])
        expected = qfi_engine.qfi_blocks(state, derivs).value

        def forbidden(*args, **kwargs):
            raise AssertionError("validated twice")

        monkeypatch.setattr(qfi_engine, "validate_blocks", forbidden)
        np.testing.assert_array_equal(qfi_engine.qfi_blocks(state, derivs).value, expected)


class TestValidateDensity:
    """The dense validator in tests/helpers, which checks oracle inputs."""

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
        weight, bloch, norm, upper, lower = pair_block(0.5, 0.5, 0.5, 0.0)
        assert (upper, lower) == pytest.approx((1.0, 0.0), abs=1e-12)
        # the Bloch axis is the |+> direction
        assert (weight, norm) == pytest.approx((1.0, 1.0), abs=1e-12)
        assert (bloch[0], bloch[1]) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_thermal_state_against_closed_form(self):
        # relaxed reservoir state at m=0.1, gamma t = 1, alpha = 45 degrees
        state = state_at(THERMAL_CHANNEL, 1.0)
        np.testing.assert_allclose(
            qubit_eigenvalues(state.matrix), eig2_closed_form(state.matrix), atol=1e-12
        )

    def test_tiny_eigenvalue_keeps_relative_accuracy(self):
        # a population of 6e-9, as fock1 reaches at alpha = 0: det / upper
        # keeps it to an ulp, where (w - |r|) / 2 loses half its digits
        small = 6.123456789e-9
        _, _, norm, upper, lower = pair_block(1.0 - small, small, 0.0, 0.0)
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
        state = state_at(build_channel(ScanConfig("fock2", alpha=np.pi / 4)), 0.5)
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
        state = state_at(THERMAL_CHANNEL, 1.0)
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


class TestReducedBloch:
    """The qubit-A Bloch vector of a record, a linear map of its entries."""

    @pytest.mark.parametrize("channel", [
        build_channel(ScanConfig("fock1", alpha=0.6)),
        build_channel(ScanConfig("thermal1", alpha=0.6)),
        build_channel(ScanConfig("squeezed1", alpha=0.6)),
        # away from alpha = pi/4, |eg> and |ge> carry different weights
        build_channel(ScanConfig("fock2", alpha=0.4)),
        build_channel(ScanConfig("thermal2")),
        build_channel(ScanConfig("squeezed2")),
    ], ids=MODEL_IDS)
    def test_matches_dense_partial_trace(self, channel):
        states = channel.states(channel.value, np.linspace(0.0, 20.0, 41))
        mats = dense(states)
        reduced = trace_out_B(mats) if states.dim == 4 else mats
        expected = bloch_vector(reduced)
        got = reduced_bloch(states)
        for g, e in zip(got, expected):
            assert np.abs(np.asarray(g) - e).max() <= 1e-15

    def test_two_qubit_coherence_on_qubit_a_rejected(self):
        # blocks pairing |ee> with |ge> would give qubit A a coherence, which
        # the diagonal map does not cover; no record holds them
        with pytest.raises(ValueError, match="partition"):
            block_state(((0, 2), (1, 3)), np.zeros(1),
                        [(0.5, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)])


class TestFidelity:
    def test_identical_pure_states(self):
        assert fidelity(EXCITED, EXCITED) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        assert fidelity(EXCITED, GROUND) == pytest.approx(0.0, abs=1e-14)

    def test_mixed_against_pure(self):
        assert fidelity(np.eye(2, dtype=complex) / 2, EXCITED) == pytest.approx(0.5)

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
                fidelity(rho0, rho1) - fidelity_uhlmann_oracle(rho0, rho1)
            ) <= 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rho0 = random_qubit_state(rng)
            rho1 = random_qubit_state(rng)
            assert abs(fidelity(rho0, rho1) - fidelity(rho1, rho0)) <= 1e-12

    def test_rejects_two_qubit_input(self):
        # only Bloch vectors of qubits, |a| <= 1, have a fidelity: a 4x4
        # matrix has none, and a vector longer than 1 is refused
        eye4 = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError):
            fidelity(eye4, eye4)
        too_long = (0.0, 0.0, 1.0 + 1e-9)
        with pytest.raises(ValueError, match="exceeds 1"):
            fidelity_bloch(bloch_vector(EXCITED), type(bloch_vector(EXCITED))(*too_long))

    def test_two_qubit_records_against_uhlmann(self):
        # the fidelity of qubit A, from records, against the dense oracle
        for channel in (build_channel(ScanConfig("fock2", alpha=0.4)),
                        build_channel(ScanConfig("squeezed2", squeezing=0.3))):
            initial = channel.states(channel.value, [0.0])
            states = channel.states(channel.value, np.linspace(0.1, 30.0, 25))
            got = fidelity_bloch(reduced_bloch(initial), reduced_bloch(states))
            reference = trace_out_B(dense(initial))[0]
            for value, mat in zip(got, trace_out_B(dense(states))):
                assert abs(value - fidelity_uhlmann_oracle(reference, mat)) <= 1e-10
