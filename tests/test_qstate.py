"""Tests for the block-state record, its validation and the Bloch-vector
fidelity, and for the dense helpers that serve them as oracles: the
record builder, the lower eigenvalue, the partial trace and the Bloch
vector."""

from functools import partial

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
MIXED = np.eye(2, dtype=complex) / 2
THERMAL = ScanConfig("thermal1", alpha=np.pi / 4)


def qubit(a, b, re, im=0.0):
    """A one-qubit record of a single state."""
    return block_state(QUBIT_BLOCKS, np.zeros(1), [(a, b, re, im)])


def fidelity(m0, m1):
    return fidelity_bloch(bloch_vector(m0), bloch_vector(m1))


# records that validate_blocks rejects, (case, record builder, exception
# type, a pattern of its message), in the order of its checks: NaN and infinity
# first, then a negative eigenvalue, then the trace
REJECTED_RECORDS = [
    ("nan", partial(qubit, np.nan, 1.0, 0.0), StateValidationError, "NaN"),
    ("inf", partial(qubit, 0.5, 0.5, 0.0, np.inf), StateValidationError, "NaN"),
    ("nan_before_negative", partial(qubit, np.nan, -0.2, 0.0), StateValidationError, "NaN"),
    ("one_nan_state", partial(block_state, QUBIT_BLOCKS, np.zeros(5),
                              [(np.array([0.5, 0.5, 0.5, np.nan, 0.5]), 0.5, 0.0, 0.0)]),
     StateValidationError, "NaN"),
    # unit trace, a valid {|eg>, |ge>} block, and an {|ee>, |gg>} block
    # holding a lone |ee> weight of -0.1
    ("negative_single_weight", partial(block_state, X_BLOCKS, np.zeros(1),
                                       [(0.55, 0.55, 0.0, 0.0), (-0.1, 0.0, 0.0, 0.0)]),
     NegativeEigenvalue, "-1.0"),
    # nonnegative diagonal, but the coherence is too large: eigenvalues 1.1
    # and -0.1, both as a qubit and as an X-state block
    ("negative_pair_eigenvalue", partial(qubit, 0.5, 0.5, 0.6), NegativeEigenvalue, "-1.0"),
    ("negative_x_pair_eigenvalue", partial(block_state, X_BLOCKS, np.zeros(1),
                                           [(0.5, 0.5, 0.0, 0.6), (0.0, 0.0, 0.0, 0.0)]),
     NegativeEigenvalue, "-1.0"),
    ("one_bad_state", partial(record, np.array([EXCITED, np.diag([1.1, -0.1]), GROUND])),
     NegativeEigenvalue, "-1.0"),
    # the lower eigenvalue det / upper of a diagonal block is its entry:
    # -2e-10 is past PSD_TOL (-0.5e-10 passes)
    ("past_psd_tol", partial(qubit, 1.0 + 2e-10, -2e-10, 0.0), NegativeEigenvalue, None),
    ("negative_before_trace", partial(qubit, 0.9, -0.2, 0.0), NegativeEigenvalue, None),
    # 2e-10 off (0.5e-10 passes)
    ("trace_off", partial(qubit, 0.3 + 2e-10, 0.7, 0.0), TraceNotOne, "exceeds"),
    ("x_trace_off", partial(block_state, X_BLOCKS, np.zeros(1),
                            [(0.25, 0.25, 0.1, 0.0), (0.25, 0.3, 0.0, 0.0)]), TraceNotOne, None),
    # the qubit and X-state blocks are the only supports
    *((f"support_{support}", partial(block_state, support, np.zeros(1), []), ValueError,
       "partition")
      for support in (((1, 2), (0,)), ((1, 2), (0, 3), (3,)), ((0,), (1, 2), (3,)),
                      ((0, 1, 2), (3,)), ((1, 2),), ((0, 3), (1, 2)), ((1, 0),),
                      # would give qubit A a coherence, which the diagonal
                      # map of reduced_bloch does not cover
                      ((0, 2), (1, 3)))),
    ("values_do_not_fit", lambda: BlockState(X_BLOCKS, qubit(0.5, 0.5, 0.0).values), ValueError,
     "do not fit"),
]


@pytest.mark.parametrize("build, error, message",
                         [pytest.param(*row[1:], id=row[0]) for row in REJECTED_RECORDS])
def test_rejected_records(build, error, message):
    with pytest.raises(error, match=message) as info:
        validate_blocks(build())
    assert type(info.value) is error


@pytest.mark.parametrize("state", [qubit(1.0 + 0.5e-10, -0.5e-10, 0.0),
                                   qubit(0.3 + 0.5e-10, 0.7, 0.0)],
                         ids=["within_psd_tol", "trace_within_tol"])
def test_accepted_records(state):
    validate_blocks(state)


class TestValidateBlocks:
    """The record validator on model records and at its bounds."""

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

    def test_validated_record_is_read_only(self):
        state = validate_blocks(qubit(0.5, 0.5, 0.0))
        with pytest.raises(ValueError, match="read-only"):
            state.values[2] = 0.6

    def test_qfi_reuses_the_spectra(self, monkeypatch):
        state = validate_blocks(states(THERMAL, 0.1, [1.0, 2.0]))
        derivs = d_rho_grid(THERMAL, 0.1, [1.0, 2.0])
        expected = qfi_engine.qfi_blocks(state, derivs).value

        def forbidden(*args, **kwargs):
            raise AssertionError("validated twice")

        monkeypatch.setattr(qfi_engine, "validate_blocks", forbidden)
        np.testing.assert_array_equal(qfi_engine.qfi_blocks(state, derivs).value, expected)


def test_dense_inverts_record():
    rng = np.random.default_rng(5)
    qubits = np.array([random_density(rng, 2) for _ in range(20)])
    np.testing.assert_allclose(dense(record(qubits)), qubits, rtol=0.0, atol=1e-16)
    np.testing.assert_array_equal(dense(record(BELL))[0], BELL)


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


@pytest.mark.parametrize("function, args, expected", [
    (trace_out_B, (np.kron(EXCITED, GROUND),), EXCITED),
    (trace_out_B, (BELL,), MIXED),
    (bloch_vector, (MIXED,), (0.0, 0.0, 0.0)),
    (bloch_vector, (EXCITED,), (0.0, 0.0, 1.0)),
    (fidelity, (EXCITED, EXCITED), 1.0),
    (fidelity, (EXCITED, GROUND), 0.0),
    (fidelity, (MIXED, EXCITED), 0.5),
    (fidelity_uhlmann_oracle, (MIXED, MIXED), 1.0),
    (fidelity_uhlmann_oracle, (EXCITED, GROUND), 0.0),
], ids=["trace_out_B-product", "trace_out_B-bell", "bloch_vector-mixed", "bloch_vector-excited",
        "fidelity-identical", "fidelity-orthogonal", "fidelity-mixed_pure", "uhlmann-mixed",
        "uhlmann-orthogonal"])
def test_known_values(function, args, expected):
    # the Bloch-vector fidelity and the dense oracles on pure and maximally
    # mixed states
    np.testing.assert_array_equal(function(*args), expected)


def stray_bell():
    stray = BELL.copy()
    stray[0, 1] = stray[1, 0] = 1e-13
    return stray


ZERO = BlochVector(0.0, 0.0, 0.0)
LONG0, LONG1 = BlochVector(0.0, 0.0, 1.5), BlochVector(0.0, 0.0, np.array([0.5, 2.0]))
NAN = BlochVector(0.0, 0.0, np.nan)


@pytest.mark.parametrize("call, message", [
    (lambda: record(np.array([[0.5, 0.1], [0.3, 0.5]])), "Hermitian"),
    (lambda: record(stray_bell()), "outside the blocks"),
    (lambda: trace_out_B(EXCITED), "4x4"),
    (lambda: bloch_vector(np.eye(4, dtype=complex) / 4), "2x2"),
    # entries that do not give four per block of the support
    *((partial(block_state, support, np.zeros(1), blocks), None) for support, blocks in (
        (QUBIT_BLOCKS, [(1.0,)]), (X_BLOCKS, [(0.5, 0.5, 0.0, 0.0), (0.0,)]),
        (X_BLOCKS, [(0.5, 0.5, 0.0, 0.0)]),
        (X_BLOCKS, [(0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), ()]))),
    # only Bloch vectors of qubits, |a| <= 1, have a fidelity: a 4x4 matrix
    # has none, and a vector longer than 1 is refused
    (lambda: fidelity(np.eye(4) / 4, np.eye(4) / 4), None),
    (lambda: fidelity_bloch(bloch_vector(EXCITED), BlochVector(0.0, 0.0, 1.0 + 1e-9)),
     "exceeds 1"),
    # |a0|^2 = 1 + 1e-10 passes the norm check, but against a1 = 0 the
    # radicand (1 - |a0|^2)(1 - |a1|^2) = -1e-10 is below -1e-12
    (lambda: fidelity_bloch(BlochVector(0.0, 0.0, np.sqrt(1.0 + 1e-10)), ZERO),
     "radicand -1.000e-10 below"),
    # the two norms are checked together, and on a failure one by one, a0
    # first, before the radicand: a0 = (0, 0, 1.5) against a1 = 0 fails
    # both, and a NaN fails the norm check
    *((partial(fidelity_bloch, a0, a1), rf"^Bloch vector norm\^2 = {norm}0* exceeds 1$")
      for a0, a1, norm in ((LONG0, ZERO, "2.25"), (ZERO, LONG1, "4.0"), (LONG0, LONG1, "2.25"),
                           (NAN, ZERO, "nan"), (ZERO, NAN, "nan"))),
])
def test_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_reduction_of_random_states_is_valid():
    # tr_B (rho_A x rho_B) = rho_A, and every reduced state passes the
    # library validator
    rng = np.random.default_rng(11)
    a, b = random_density(rng, 2), random_density(rng, 2)
    np.testing.assert_allclose(trace_out_B(np.kron(a, b)), a, atol=1e-14)
    validate_blocks(record(trace_out_B([random_density(rng, 4) for _ in range(50)])))


def test_bloch_vector_inverse_map():
    # random_qubit_state builds (1 + a.sigma) / 2 from a in the unit ball
    rng = np.random.default_rng(3)
    states = np.array([random_qubit_state(rng) for _ in range(200)])
    ax, ay, az = bloch_vector(states)
    rebuilt = 0.5 * np.array([[1.0 + az, ax - 1j * ay], [ax + 1j * ay, 1.0 - az]])
    np.testing.assert_allclose(np.moveaxis(rebuilt, -1, 0), states, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("config", [
    ScanConfig("fock1", alpha=0.6),
    ScanConfig("thermal1", alpha=0.6),
    ScanConfig("squeezed1", alpha=0.6),
    # away from alpha = pi/4, |eg> and |ge> carry different weights
    ScanConfig("fock2", alpha=0.4),
    ScanConfig("thermal2"),
    ScanConfig("squeezed2"),
], ids=MODEL_IDS)
def test_reduced_bloch_matches_dense_partial_trace(config):
    # the qubit-A Bloch vector of a record, a linear map of its entries
    rows = states(config, nominal(config), np.linspace(0.0, 20.0, 41))
    mats = dense(rows)
    reduced = trace_out_B(mats) if rows.dim == 4 else mats
    expected = bloch_vector(reduced)
    got = reduced_bloch(rows)
    for g, e in zip(got, expected):
        assert np.abs(np.asarray(g) - e).max() <= 1e-15


class TestFidelity:
    def test_bloch_equals_uhlmann_and_is_symmetric_on_random_pairs(self):
        # continuous ensemble over the Bloch ball; exactly-pure boundary
        # states are covered by test_known_values (the square root of a
        # radicand that is zero only up to round-off is ill-conditioned)
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rho0 = random_qubit_state(rng)
            rho1 = random_qubit_state(rng)
            assert abs(fidelity(rho0, rho1) - fidelity_uhlmann_oracle(rho0, rho1)) <= 1e-10
            assert abs(fidelity(rho0, rho1) - fidelity(rho1, rho0)) <= 1e-12

    def test_two_qubit_records_against_uhlmann(self):
        # the fidelity of qubit A, from records, against the dense oracle
        for config in (ScanConfig("fock2", alpha=0.4), ScanConfig("squeezed2", squeezing=0.3)):
            initial = states(config, nominal(config), [0.0])
            rows = states(config, nominal(config), np.linspace(0.1, 30.0, 25))
            got = fidelity_bloch(reduced_bloch(initial), reduced_bloch(rows))
            reference = trace_out_B(dense(initial))[0]
            for value, mat in zip(got, trace_out_B(dense(rows))):
                assert abs(value - fidelity_uhlmann_oracle(reference, mat)) <= 1e-10
