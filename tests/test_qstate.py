"""Tests for the block-state record, its validation and the Bloch-vector
fidelity, and for the dense helpers that serve them as oracles: the
record builder, the lower eigenvalue, the partial trace and the Bloch
vector."""

import numpy as np
import pytest

from helpers import (
    bloch_vector,
    block_state,
    d_rho_grid,
    dense,
    fidelity_uhlmann_oracle,
    lower_eigenvalue,
    nominal,
    random_density,
    random_qubit_state,
    record,
    state_at,
    states,
    trace_out_B,
)
from qfi_probe import qfi_engine
from qfi_probe.qstate import (
    PSD_TOL,
    QUBIT_BLOCKS,
    X_BLOCKS,
    BlochVector,
    BlockState,
    NegativeEigenvalue,
    StateValidationError,
    TraceNotOne,
    fidelity_bloch,
    reduced_bloch,
    validate_blocks,
)
from qfi_probe.scan_repro import MODEL_IDS, ScanConfig

EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)
BELL = np.diag([0.0, 0.5, 0.5, 0.0]) + np.diag([0.0, 0.5, 0.0], 1) + np.diag([0.0, 0.5, 0.0], -1)
THERMAL = ScanConfig("thermal1", alpha=np.pi / 4)


def qubit(a, b, re, im=0.0):
    """A one-qubit record of a single state."""
    return block_state(QUBIT_BLOCKS, np.zeros(1), [(a, b, re, im)])


def fidelity(m0, m1):
    return fidelity_bloch(bloch_vector(m0), bloch_vector(m1))


class TestValidateBlocks:
    """The record validator, one check at a time, in its order."""

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_model_records_pass_with_spectra(self, model):
        config = ScanConfig(model)
        state = validate_blocks(states(config, nominal(config), [0.0, 0.3, 7.0, 49.0]))
        # each block's weight and determinant are the sum and product of
        # its eigenvalues
        weight, det = state.spectra
        mats = dense(state)
        for k, (i, j) in enumerate(state.support):
            pairs = np.linalg.eigvalsh(mats[:, [i, j]][:, :, [i, j]])
            np.testing.assert_allclose(weight[k], pairs.sum(axis=-1), rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(det[k], pairs.prod(axis=-1), rtol=0.0, atol=1e-15)

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

    def test_determinant_gate_accepts_what_the_eigenvalue_bound_accepts(self):
        # unit-trace blocks whose lower eigenvalue lies within 3e-10 of 0,
        # coherent or not: w >= 0 and det >= 0 admit every PSD block, and
        # the rest are judged by the lower eigenvalue against -PSD_TOL
        rng = np.random.default_rng(26)
        for _ in range(400):
            a = rng.uniform(-3e-10, 1.0)
            bound = a * (1.0 - a) + rng.uniform(-3e-10, 3e-10)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            size = np.sqrt(max(bound, 0.0)) if rng.random() < 0.7 else 0.0
            entries = (a, 1.0 - a, size * np.cos(phase), size * np.sin(phase))
            accepted = bool(lower_eigenvalue(*entries) >= -PSD_TOL)
            try:
                validate_blocks(qubit(*entries))
            except NegativeEigenvalue:
                assert not accepted, entries
            else:
                assert accepted, entries

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

    @pytest.mark.parametrize("config", [ScanConfig("thermal1"), ScanConfig("thermal2")],
                             ids=["qubit", "X-state"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_nonfinite_entry_in_every_row_named_first(self, config, bad):
        # finiteness is tested only when the PSD or the trace check fails;
        # a NaN or an infinity in any row, of a mixed state or of the pure
        # t = 0 state (whose empty entries meet it as inf * 0), must still
        # fail first and as itself, with no floating-point warning
        for t in (0.0, 3.0):
            good = states(config, nominal(config), [t])
            for row in range(len(good.values)):
                values = good.values.copy()
                values[row] = bad
                with pytest.raises(StateValidationError, match="NaN or infinite") as info:
                    validate_blocks(BlockState(good.support, values))
                assert type(info.value) is StateValidationError, (t, row)

    def test_known_spectra(self):
        # (w, det) of the maximally mixed, excited and ground qubits, and of
        # the Bell state's {|eg>, |ge>} and {|ee>, |gg>} blocks
        weight, det = validate_blocks(record([np.eye(2) / 2, EXCITED, GROUND])).spectra
        np.testing.assert_array_equal(weight, [[1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(det, [[0.25, 0.0, 0.0]])
        weight, det = validate_blocks(record(BELL)).spectra
        np.testing.assert_array_equal(weight, [[1.0], [0.0]])
        np.testing.assert_array_equal(det, [[0.0], [0.0]])

    def test_one_nan_state_in_a_record_rejected(self):
        populations = np.array([0.5, 0.5, 0.5, np.nan, 0.5])
        with pytest.raises(StateValidationError, match="NaN"):
            validate_blocks(block_state(QUBIT_BLOCKS, np.zeros(5), [(populations, 0.5, 0.0, 0.0)]))

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
        state = validate_blocks(states(THERMAL, 0.1, [1.0, 2.0]))
        derivs = d_rho_grid(THERMAL, 0.1, [1.0, 2.0])
        expected = qfi_engine.qfi_blocks(state, derivs).value

        def forbidden(*args, **kwargs):
            raise AssertionError("validated twice")

        monkeypatch.setattr(qfi_engine, "validate_blocks", forbidden)
        np.testing.assert_array_equal(qfi_engine.qfi_blocks(state, derivs).value, expected)


class TestRecord:
    """The dense-to-record helper that feeds oracle inputs to the validator."""

    def test_dense_inverts_record(self):
        rng = np.random.default_rng(5)
        qubits = np.array([random_density(rng, 2) for _ in range(20)])
        np.testing.assert_allclose(dense(record(qubits)), qubits, rtol=0.0, atol=1e-16)
        np.testing.assert_array_equal(dense(record(BELL))[0], BELL)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            record(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_entry_outside_blocks_rejected(self):
        stray = BELL.copy()
        stray[0, 1] = stray[1, 0] = 1e-13
        with pytest.raises(ValueError, match="outside the blocks"):
            record(stray)


class TestLowerEigenvalue:
    """The oracle of the eigenvalue bound in TestValidateBlocks."""

    def test_tiny_block_eigenvalue_keeps_relative_accuracy(self):
        # a population of 6e-9, as fock1 reaches at alpha = 0: det / upper
        # keeps it to an ulp, where (w - |r|) / 2 loses half its digits
        small = 6.123456789e-9
        assert lower_eigenvalue(1.0 - small, small, 0.0, 0.0) == pytest.approx(small, rel=1e-15)
        weight, norm = (1.0 - small) + small, abs((1.0 - small) - small)
        assert abs(0.5 * (weight - norm) - small) > 1e-10 * small

    def test_block_lower_eigenvalue_against_eigvalsh(self):
        rng = np.random.default_rng(7)
        mats = np.array([random_density(rng, 2) for _ in range(50)])
        entries = (mats[:, 0, 0].real, mats[:, 1, 1].real, mats[:, 0, 1].real, mats[:, 0, 1].imag)
        np.testing.assert_allclose(lower_eigenvalue(*entries), np.linalg.eigvalsh(mats)[:, 0],
                                   rtol=0.0, atol=1e-14)


class TestPartialTrace:
    def test_product_state(self):
        product = np.kron(EXCITED, GROUND)
        np.testing.assert_allclose(trace_out_B(product), EXCITED, atol=1e-14)

    def test_bell_state(self):
        np.testing.assert_allclose(trace_out_B(BELL), np.eye(2) / 2, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="4x4"):
            trace_out_B(EXCITED)

    def test_reduction_of_random_states_is_valid(self):
        # tr_B (rho_A x rho_B) = rho_A, and every reduced state passes the
        # library validator
        rng = np.random.default_rng(11)
        a, b = random_density(rng, 2), random_density(rng, 2)
        np.testing.assert_allclose(trace_out_B(np.kron(a, b)), a, atol=1e-14)
        validate_blocks(record(trace_out_B([random_density(rng, 4) for _ in range(50)])))


class TestBlochVector:
    def test_maximally_mixed(self):
        assert bloch_vector(np.eye(2, dtype=complex) / 2) == (0.0, 0.0, 0.0)

    def test_pure_excited(self):
        assert bloch_vector(EXCITED) == (0.0, 0.0, 1.0)

    def test_inverse_map(self):
        # random_qubit_state builds (1 + a.sigma) / 2 from a in the unit ball
        rng = np.random.default_rng(3)
        states = np.array([random_qubit_state(rng) for _ in range(200)])
        ax, ay, az = bloch_vector(states)
        rebuilt = 0.5 * np.array([[1.0 + az, ax - 1j * ay], [ax + 1j * ay, 1.0 - az]])
        np.testing.assert_allclose(np.moveaxis(rebuilt, -1, 0), states, rtol=0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2x2"):
            bloch_vector(np.eye(4, dtype=complex) / 4)

    def test_thermal_state_components(self):
        state = state_at(THERMAL, 1.0)
        vec = bloch_vector(state)
        assert vec.ax == pytest.approx(0.54882, abs=1e-5)
        assert vec.ay == pytest.approx(0.0, abs=1e-12)
        assert vec.az == pytest.approx(-0.58234, abs=1e-5)


class TestReducedBloch:
    """The qubit-A Bloch vector of a record, a linear map of its entries."""

    @pytest.mark.parametrize("config", [
        ScanConfig("fock1", alpha=0.6),
        ScanConfig("thermal1", alpha=0.6),
        ScanConfig("squeezed1", alpha=0.6),
        # away from alpha = pi/4, |eg> and |ge> carry different weights
        ScanConfig("fock2", alpha=0.4),
        ScanConfig("thermal2"),
        ScanConfig("squeezed2"),
    ], ids=MODEL_IDS)
    def test_matches_dense_partial_trace(self, config):
        rows = states(config, nominal(config), np.linspace(0.0, 20.0, 41))
        mats = dense(rows)
        reduced = trace_out_B(mats) if rows.dim == 4 else mats
        expected = bloch_vector(reduced)
        got = reduced_bloch(rows)
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

    def test_rejects_a_negative_radicand(self):
        # |a0|^2 = 1 + 1e-10 passes the norm check, but against a1 = 0 the
        # radicand (1 - |a0|^2)(1 - |a1|^2) = -1e-10 is below -1e-12
        over = BlochVector(0.0, 0.0, np.sqrt(1.0 + 1e-10))
        with pytest.raises(ValueError, match="radicand -1.000e-10 below"):
            fidelity_bloch(over, BlochVector(0.0, 0.0, 0.0))

    def test_norm_errors_come_before_the_radicand_error(self):
        # the two norms are checked together, and on a failure one by one,
        # a0 first, before the radicand; a0 = (0, 0, 1.5) against a1 = 0
        # fails both, and a NaN fails the norm check
        long0, long1 = BlochVector(0.0, 0.0, 1.5), BlochVector(0.0, 0.0, np.array([0.5, 2.0]))
        zero, nan = BlochVector(0.0, 0.0, 0.0), BlochVector(0.0, 0.0, np.nan)
        for a0, a1, norm in ((long0, zero, "2.25"), (zero, long1, "4.0"), (long0, long1, "2.25"),
                             (nan, zero, "nan"), (zero, nan, "nan")):
            with pytest.raises(ValueError, match=rf"^Bloch vector norm\^2 = {norm}0* exceeds 1$"):
                fidelity_bloch(a0, a1)

    def test_two_qubit_records_against_uhlmann(self):
        # the fidelity of qubit A, from records, against the dense oracle
        for config in (ScanConfig("fock2", alpha=0.4), ScanConfig("squeezed2", squeezing=0.3)):
            initial = states(config, nominal(config), [0.0])
            rows = states(config, nominal(config), np.linspace(0.1, 30.0, 25))
            got = fidelity_bloch(reduced_bloch(initial), reduced_bloch(rows))
            reference = trace_out_B(dense(initial))[0]
            for value, mat in zip(got, trace_out_B(dense(rows))):
                assert abs(value - fidelity_uhlmann_oracle(reference, mat)) <= 1e-10
