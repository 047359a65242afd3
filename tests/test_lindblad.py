"""Tests for the master-equation generators and the step-halving integrator."""

import numpy as np
import pytest

from helpers import (
    dense,
    integrated,
    random_density,
    random_hermitian_traceless,
    reduce_A,
    squeezed_rates,
    state_at,
)
from qfi_probe.lindblad import (
    LindbladGenerator,
    StepUnderflow,
    integrate,
    squeezed_generator,
    thermal_generator,
    trajectory,
    two_qubit_generator,
)
from qfi_probe.probe_models import (
    SqueezedParams,
    ThermalParams,
    TwoQubitReservoirParams,
    reservoir_pair_channel,
    squeezed1_channel,
    thermal1_channel,
)
from qfi_probe.qstate import StateValidationError

BELL = np.zeros((4, 4), dtype=complex)
BELL[1:3, 1:3] = 0.5
PLUS = 0.5 * np.ones((2, 2), dtype=complex)


def thermal_rhs(rho, m, gamma):
    """Hand-coded element-wise right-hand side of the thermal master equation."""
    down, up = gamma * (m + 1.0), gamma * m
    return np.array(
        [
            [
                -down * rho[0, 0] + up * rho[1, 1],
                -gamma * (m + 0.5) * rho[0, 1],
            ],
            [
                -gamma * (m + 0.5) * rho[1, 0],
                down * rho[0, 0] - up * rho[1, 1],
            ],
        ]
    )


def squeezed_rhs(rho, r, gamma):
    """Hand-coded element-wise right-hand side for the squeezed reservoir."""
    occ = np.sinh(r) ** 2
    pair = np.cosh(r) * np.sinh(r)
    return np.array(
        [
            [
                gamma * occ * rho[1, 1] - gamma * (occ + 1.0) * rho[0, 0],
                -gamma * (occ + 0.5) * rho[0, 1] - gamma * pair * rho[1, 0],
            ],
            [
                -gamma * (occ + 0.5) * rho[1, 0] - gamma * pair * rho[0, 1],
                gamma * (occ + 1.0) * rho[0, 0] - gamma * occ * rho[1, 1],
            ],
        ]
    )


class TestThermalGenerator:
    def test_vacuum_has_single_downward_term(self):
        gen = thermal_generator(0.0, 1.0)
        assert len(gen.terms) == 1
        op, rate = gen.terms[0]
        np.testing.assert_allclose(op, [[0, 0], [1, 0]])
        assert rate == 1.0

    def test_coherence_decay_on_plus_state(self):
        gen = thermal_generator(0.1, 1.0)
        deriv = gen.apply(PLUS)
        assert deriv[0, 1].real == pytest.approx(-0.3, abs=1e-14)

    def test_elementwise_rhs(self):
        rng = np.random.default_rng(31)
        gen = thermal_generator(0.35, 1.7)
        for _ in range(20):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(gen.apply(rho), thermal_rhs(rho, 0.35, 1.7), atol=1e-13)

    def test_trace_preservation(self):
        rng = np.random.default_rng(37)
        gen = thermal_generator(0.2, 1.3)
        for _ in range(100):
            rho = random_hermitian_traceless(rng, 2) + np.eye(2) / 2
            assert abs(np.trace(gen.apply(rho))) <= 1e-12

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            thermal_generator(-0.1, 1.0)
        with pytest.raises(ValueError):
            thermal_generator(0.1, -1.0)


class TestSqueezedGenerator:
    def test_zero_squeezing_matches_vacuum_thermal(self):
        rng = np.random.default_rng(41)
        sq = squeezed_generator(0.0, 1.4)
        th = thermal_generator(0.0, 1.4)
        for _ in range(20):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(sq.apply(rho), th.apply(rho), atol=1e-14)

    def test_elementwise_rhs(self):
        rng = np.random.default_rng(43)
        gen = squeezed_generator(0.3, 0.9)
        for _ in range(20):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(gen.apply(rho), squeezed_rhs(rho, 0.3, 0.9), atol=1e-13)

    def test_symmetric_coherence_eigenrate(self):
        # the symmetric coherence combination decays at gamma (M + N + 1/2)
        p = SqueezedParams(0.1, 1.0)
        gen = squeezed_generator(0.1, 1.0)
        symmetric = np.array([[0, 1], [1, 0]], dtype=complex)
        rate = 1.0 * (sum(squeezed_rates(p)) + 0.5)
        np.testing.assert_allclose(gen.apply(symmetric), -rate * symmetric, atol=1e-14)

    def test_trace_preservation(self):
        rng = np.random.default_rng(47)
        gen = squeezed_generator(0.25, 1.1)
        for _ in range(100):
            rho = random_hermitian_traceless(rng, 2) + np.eye(2) / 2
            assert abs(np.trace(gen.apply(rho))) <= 1e-12

    def test_negative_squeezing_rejected(self):
        with pytest.raises(ValueError):
            squeezed_generator(-0.1, 1.0)


class TestTwoQubitGenerator:
    def test_vacuum_decay_of_doubly_excited_state(self):
        gen = two_qubit_generator(TwoQubitReservoirParams("thermal", 0.0, 1.0))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        for t in (0.5, 1.0):
            marginal = reduce_A(integrated(gen, rho0, t))
            assert marginal.matrix[0, 0].real == pytest.approx(np.exp(-t), abs=1e-8)

    def test_thermal_pattern_from_bell_state(self):
        gen = two_qubit_generator(TwoQubitReservoirParams("thermal", 0.1, 1.0))
        evolved = integrated(gen, BELL, 1.0).matrix
        allowed = np.zeros((4, 4), dtype=bool)
        allowed[np.arange(4), np.arange(4)] = True
        allowed[1, 2] = allowed[2, 1] = True
        assert np.abs(evolved[~allowed]).max() <= 1e-10
        assert abs(evolved[1, 2]) > 1e-3  # the shared coherence survives

    def test_squeezed_pattern_from_bell_state(self):
        gen = two_qubit_generator(TwoQubitReservoirParams("squeezed", 0.1, 1.0))
        evolved = integrated(gen, BELL, 1.0).matrix
        allowed = np.zeros((4, 4), dtype=bool)
        allowed[np.arange(4), np.arange(4)] = True
        allowed[1, 2] = allowed[2, 1] = True
        allowed[0, 3] = allowed[3, 0] = True
        assert np.abs(evolved[~allowed]).max() <= 1e-10
        assert abs(evolved[0, 3]) > 1e-3  # two-photon coherence builds up

    def test_unsupported_kind(self):
        with pytest.raises(ValueError, match="kind"):
            TwoQubitReservoirParams("depolarizing", 0.1, 1.0)


class TestIntegrate:
    def test_zero_generator_is_identity(self):
        gen = LindbladGenerator(dim=2)
        rho0 = state_at(thermal1_channel(ThermalParams(0.1, 1.0, np.pi / 4)), 0.0)
        out = integrate(gen, rho0, 3.0)
        assert np.abs(out - rho0.matrix).max() <= 1e-14

    def test_thermal_against_analytic(self):
        p = ThermalParams(0.1, 1.0, np.pi / 4)
        gen = thermal_generator(0.1, 1.0)
        out = integrated(gen, state_at(thermal1_channel(p), 0.0), 1.0)
        assert np.abs(out.matrix - state_at(thermal1_channel(p), 1.0).matrix).max() <= 1e-8

    def test_squeezed_against_analytic(self):
        p = SqueezedParams(0.1, 1.0, np.pi / 4)
        gen = squeezed_generator(0.1, 1.0)
        out = integrated(gen, state_at(squeezed1_channel(p), 0.0), 1.0)
        assert np.abs(out.matrix - state_at(squeezed1_channel(p), 1.0).matrix).max() <= 1e-8

    def test_random_tuples_against_analytic(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            m = rng.uniform(0.0, 1.0)
            gamma = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(0.0, np.pi / 2)
            t = rng.uniform(0.1, 3.0)
            p = ThermalParams(m, gamma, alpha)
            out = integrated(thermal_generator(m, gamma), state_at(thermal1_channel(p), 0.0), t)
            assert np.abs(out.matrix - state_at(thermal1_channel(p), t).matrix).max() <= 1e-8

    def test_superoperator_consistent_with_apply(self):
        rng = np.random.default_rng(59)
        for gen in (
            thermal_generator(0.3, 1.2),
            squeezed_generator(0.2, 0.8),
            two_qubit_generator(TwoQubitReservoirParams("squeezed", 0.15, 1.0)),
        ):
            sup = gen.superoperator()
            for _ in range(5):
                rho = random_density(rng, gen.dim)
                via_sup = (sup @ rho.reshape(-1)).reshape(gen.dim, gen.dim)
                np.testing.assert_allclose(via_sup, gen.apply(rho), atol=1e-12)

    def test_trajectory_matches_one_shot(self):
        p = ThermalParams(0.2, 1.0, np.pi / 3)
        gen = thermal_generator(0.2, 1.0)
        rho0 = state_at(thermal1_channel(p), 0.0)
        times = np.linspace(0.0, 2.0, 9)
        states = trajectory(gen, rho0, times)
        for t, state in zip(times, states):
            one_shot = integrate(gen, rho0, float(t))
            assert np.abs(state - one_shot).max() <= 1e-10

    def test_trajectory_conserves_trace_and_hermiticity(self):
        gen = two_qubit_generator(TwoQubitReservoirParams("squeezed", 0.1, 1.0))
        states = trajectory(gen, BELL, np.linspace(0.0, 5.0, 40))
        for state in states:
            assert abs(np.trace(state) - 1.0) <= 1e-9
            assert np.abs(state - state.conj().T).max() <= 1e-10

    def test_tolerance_range_enforced(self):
        gen = thermal_generator(0.1, 1.0)
        rho0 = state_at(thermal1_channel(ThermalParams(0.1, 1.0, 0.0)), 0.0)
        with pytest.raises(ValueError, match="tol"):
            integrate(gen, rho0, 1.0, tol=1e-5)
        with pytest.raises(ValueError, match="tol"):
            integrate(gen, rho0, 1.0, tol=1e-13)

    def test_step_underflow(self):
        # an absurd rate keeps the step-halving controller from ever
        # meeting the tolerance
        gen = thermal_generator(0.0, 1e16)
        rho0 = state_at(thermal1_channel(ThermalParams(0.0, 1.0, np.pi / 4)), 0.0)
        with pytest.raises(StepUnderflow):
            integrate(gen, rho0, 1.0, tol=1e-12)

    def test_marginal_consistency_product_state(self):
        # independent reservoirs: each qubit of a product state follows the
        # one-qubit analytic solution
        alpha_a, alpha_b = 0.3, 1.1
        qubit = lambda a: np.array(
            [
                [np.cos(a) ** 2, np.cos(a) * np.sin(a)],
                [np.cos(a) * np.sin(a), np.sin(a) ** 2],
            ],
            dtype=complex,
        )
        rho0 = np.kron(qubit(alpha_a), qubit(alpha_b))
        gen = two_qubit_generator(TwoQubitReservoirParams("thermal", 0.1, 1.0))
        # a product of superposed qubits is no X-state, so validating the
        # integrated state on the X-state blocks rejects it; the raw
        # trajectory is reduced and validated per qubit instead
        with pytest.raises(StateValidationError, match="outside the blocks"):
            integrated(gen, rho0, 1.5)
        evolved = trajectory(gen, rho0, [1.5])[-1]
        expected_a = state_at(thermal1_channel(ThermalParams(0.1, 1.0, alpha_a)), 1.5)
        assert np.abs(reduce_A(evolved).matrix - expected_a.matrix).max() <= 1e-8


class TestClosedFormPairOracle:
    """The two-qubit reservoir closed form (probe_models) against the
    integrator oracle."""

    @pytest.mark.parametrize("kind", ["thermal", "squeezed"])
    def test_closed_form_matches_trajectory(self, kind):
        rng = np.random.default_rng(101 if kind == "thermal" else 103)
        for _ in range(8):
            p = TwoQubitReservoirParams(kind, rng.uniform(0.0, 1.0), rng.uniform(0.2, 2.0))
            times = np.sort(rng.uniform(0.0, 50.0, size=6))
            integrated = trajectory(two_qubit_generator(p), BELL, times)
            closed = dense(reservoir_pair_channel(p).states(p.strength, times))
            assert np.abs(closed - integrated).max() <= 1e-9

    def test_closed_form_is_product_channel(self):
        # marginals of the closed form follow the one-qubit solutions from
        # |e> and |g>, averaged by the Bell state
        p = TwoQubitReservoirParams("squeezed", 0.3, 1.2)
        t = 0.7
        reduced = reduce_A(dense(reservoir_pair_channel(p).states(p.strength, [t]))[0]).matrix
        one = lambda a: state_at(squeezed1_channel(SqueezedParams(0.3, 1.2, a)), t).matrix
        np.testing.assert_allclose(reduced, 0.5 * (one(0.0) + one(np.pi / 2)), atol=1e-14)
