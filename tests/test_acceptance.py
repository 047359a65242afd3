"""Acceptance suite. One test per criterion; run with ``pytest -v`` for the
per-criterion pass/fail lines (add ``-s`` to see the reported values).

Criterion 6's figure-5 check is parameterized per panel. The 5a panel is
expected to fail and is intentionally not weakened: for the cavity-field
model both fidelity curves repeatedly touch 1 at incommensurate phases, so
the two-qubit curve is above the one-qubit curve at only ~75% of matched
grid points (its dips are shallower, 0.985 vs 0.862 at the minima, which
is the sense in which the two-qubit probe helps). A second check per panel
asserts that sense: a higher minimum and a higher mean. Criteria 5 and 7 report
comparisons against externally quoted maxima without gating them, since
the time units behind those quotes are not fully determined.
"""

import time

import numpy as np
import pytest
import sympy as sp

from helpers import (
    d_rho_grid,
    dense,
    fock1_amplitudes,
    fock2_amplitudes,
    qfi_pure_oracle,
    qfi_sld_oracle,
    qfi_spectral,
    random_density,
    random_hermitian_traceless,
    record,
    states,
)
from qfi_probe.qfi_engine import qfi_blocks
from qfi_probe.qstate import validate_blocks
from qfi_probe.scan_repro import (
    ScanConfig,
    backflow_intervals,
    discrepancy_report,
    find_max,
    point_qfi,
    reproduce_figure,
    scan,
)
from symbolic import (
    ALPHA,
    T,
    generic_matrix,
    lambdified,
    pair_generator,
    pair_state,
    qubit_generator,
    qubit_state,
    solves,
    vanishes,
)

QUOTED_ONE_QUBIT_SEPARABLE = 1.14e3
QUOTED_ONE_QUBIT_ENTANGLED = 1.18e3
QUOTED_TWO_QUBIT_DETUNING = 1.58e3


@pytest.fixture(scope="module")
def figures():
    """All figure datasets needed by criteria 5 and 6, computed once and timed."""
    start = time.perf_counter()
    cache = {tag: reproduce_figure(tag) for tag in ("1a", "2a", "3b", "5a", "5b", "5c")}
    return cache, time.perf_counter() - start


def test_criterion1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    # full-rank states: spectral formula against the SLD route, and the
    # closed-form block QFI where the state is one block (a qubit)
    for dim, count in ((2, 600), (4, 400)):
        for _ in range(count):
            rho = random_density(rng, dim)
            drho = random_hermitian_traceless(rng, dim)
            spectral = qfi_spectral(rho, drho)
            assert spectral.discarded_pairs == 0
            assert abs(spectral.value - qfi_sld_oracle(rho, drho)) <= 1e-8
            if dim == 2:
                block = qfi_blocks(record(rho), record(drho))
                assert block.floored == 0
                assert abs(block.value - spectral.value) <= 1e-8
    # rank-1 states: spectral formula against the pure-state limit
    for dim, count in ((2, 300), (4, 200)):
        for _ in range(count):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            dpsi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            dpsi -= psi * np.vdot(psi, dpsi).real
            rho = np.outer(psi, psi.conj())
            drho = np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj())
            assert abs(qfi_pure_oracle(psi, dpsi) - qfi_spectral(rho, drho).value) <= 1e-8
            if dim == 2:
                block = qfi_blocks(record(rho), record(drho)).value
                assert abs(qfi_pure_oracle(psi, dpsi) - block) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 1000 full-rank + 500 rank-1 oracle agreements in {elapsed:.2f}s")


def test_criterion2_analytic_vs_ode():
    # exact: for symbolic N, M, gamma, alpha and t >= 0 each reservoir closed
    # form solves its master equation identically (thermal is the case
    # M = 0) and starts from its initial state
    start = time.perf_counter()
    qubit, pair = qubit_state(), pair_state()
    assert solves(qubit, qubit_generator)
    assert solves(pair, pair_generator)
    psi = sp.Matrix([sp.cos(ALPHA), sp.sin(ALPHA)])
    bell = sp.Matrix([0, 1, 1, 0]) / sp.sqrt(2)
    assert vanishes(qubit.subs(T, 0) - psi * psi.T)
    assert vanishes(pair.subs(T, 0) - bell * bell.T)
    # independent reservoirs: L2[X x Y] = L[X] x Y + X x L[Y], so a product
    # of one-qubit solutions solves the two-qubit equation, and each qubit
    # of an evolved product state follows the one-qubit form
    x, y = generic_matrix("x"), generic_matrix("y")
    kron = sp.kronecker_product
    assert vanishes(pair_generator(kron(x, y)) - kron(qubit_generator(x), y)
                    - kron(x, qubit_generator(y)))
    # the package's kernels evaluate these forms: seeded strengths from 0
    # and times up to 50, with N = sinh(r)^2 and M = cosh(r) sinh(r) for
    # squeezing
    rng = np.random.default_rng(777)
    times = np.concatenate(([0.0, 50.0], rng.uniform(0.0, 5.0, size=30)))
    one, two = lambdified(qubit), lambdified(pair)
    worst = 0.0
    for strength in np.concatenate(([0.0], rng.uniform(0.0, 1.2, size=7))):
        gamma, alpha = rng.uniform(0.5, 2.0), rng.uniform(0.0, np.pi / 2)
        occupation, correlation = np.sinh(strength) ** 2, np.cosh(strength) * np.sinh(strength)
        for config, form, n, m in (
            (ScanConfig("thermal1", mean_occupation=strength, gamma=gamma, alpha=alpha), one,
             strength, 0.0),
            (ScanConfig("squeezed1", squeezing=strength, gamma=gamma, alpha=alpha), one,
             occupation, correlation),
            (ScanConfig("thermal2", mean_occupation=strength, gamma=gamma), two, strength, 0.0),
            (ScanConfig("squeezed2", squeezing=strength, gamma=gamma), two, occupation,
             correlation),
        ):
            rows = dense(states(config, strength, times))
            worst = max(worst, float(np.abs(rows - form(n, m, gamma, alpha, times)).max()))
    assert worst <= 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: closed forms solve the master equations exactly; kernel rows"
          f" within {worst:.1e} of them at 32 strength/model pairs in {elapsed:.2f}s")


def test_criterion3_thermal_steady_state_benchmark():
    # full engine pipeline at gamma t = 50, deep in the steady state
    config = ScanConfig("thermal1", alpha=np.pi / 4)
    state = validate_blocks(states(config, 0.1, [50.0]))
    fq_m = qfi_blocks(state, d_rho_grid(config, 0.1, [50.0])).value[0]
    assert fq_m == pytest.approx(6.3131, abs=1e-3)
    fq_t = point_qfi(ScanConfig("thermal1"), 50.0)  # times the library's (dm/dT)^2
    assert fq_t == pytest.approx(2.5256, abs=1e-3)
    print(f"criterion 3 PASS: F(m)={fq_m:.5f} (target 6.3131), F(T)={fq_t:.5f} (target 2.5256)")


def test_criterion4_closed_system_normalization():
    rng = np.random.default_rng(4242)
    worst1 = 0.0
    for _ in range(10_000):
        config = ScanConfig(
            "fock1",
            detuning=rng.uniform(-10.0, 10.0),
            coupling=rng.uniform(0.2, 3.0),
            photons=int(rng.integers(0, 5)),
            alpha=rng.uniform(0.0, np.pi / 2),
        )
        b1, b2 = fock1_amplitudes(config, rng.uniform(0.0, 50.0))
        worst1 = max(worst1, abs(abs(b1) ** 2 + abs(b2) ** 2 - 1.0))
    assert worst1 <= 1e-12
    worst2 = 0.0
    for _ in range(10_000):
        config = ScanConfig(
            "fock2", detuning=rng.uniform(-10.0, 10.0), coupling=rng.uniform(0.2, 3.0)
        )
        c2, c3, c4 = fock2_amplitudes(config, rng.uniform(0.0, 50.0))
        worst2 = max(worst2, abs(abs(c2) ** 2 + abs(c3) ** 2 + abs(c4) ** 2 - 1.0))
    assert worst2 <= 1e-12
    print(f"criterion 4 PASS: worst one-qubit drift {worst1:.2e}, two-qubit {worst2:.2e}")


def test_criterion5_detuning_maxima(figures):
    cache, _ = figures
    separable, entangled = cache["1a"]
    t_sep, max_sep = find_max(separable)
    t_ent, max_ent = find_max(entangled)
    two_qubit = scan(
        ScanConfig("fock2", t_min=0.01, t_max=100.0, points=2000, detuning=5.0)
    )
    t_two, max_two = find_max(two_qubit)
    # the hard assertion: the entangled initial state wins
    assert max_ent > max_sep
    print(
        "criterion 5 PASS (ordering): entangled max "
        f"{max_ent:.1f} at t={t_ent:.3f} > separable max {max_sep:.1f} at t={t_sep:.3f}"
    )
    for label, computed, quoted in (
        ("separable", max_sep, QUOTED_ONE_QUBIT_SEPARABLE),
        ("entangled", max_ent, QUOTED_ONE_QUBIT_ENTANGLED),
        ("two-qubit", max_two, QUOTED_TWO_QUBIT_DETUNING),
    ):
        deviation = (computed - quoted) / quoted
        print(
            f"criterion 5 report: {label} max {computed:.1f} vs quoted {quoted:.0f}"
            f" ({deviation:+.1%}; within 20%: {abs(deviation) <= 0.2})"
        )


def test_criterion6_cavity_backflow(figures):
    cache, _ = figures
    for dataset in cache["1a"]:
        intervals = backflow_intervals(dataset)
        assert len(intervals) >= 5
    counts = [len(backflow_intervals(d)) for d in cache["1a"]]
    print(f"criterion 6 PASS (backflow): {counts} revival intervals in figure 1a")


def test_criterion6_thermal_plateau(figures):
    cache, _ = figures
    flat = cache["2a"][0]  # alpha = 0 series
    window = flat.t[-1] - flat.t[0]
    tail = flat.qfi[flat.t >= flat.t[-1] - window / 10.0]
    rel_change = float((tail.max() - tail.min()) / tail.max())
    assert rel_change < 1e-3
    print(f"criterion 6 PASS (plateau): relative change {rel_change:.2e} over the last tenth")


def test_criterion6_squeezed_fidelity_collapse(figures):
    cache, _ = figures
    flat = cache["3b"][0]  # alpha = 0 series
    final = float(flat.fidelity[-1])
    assert final < 0.05
    print(f"criterion 6 PASS (fidelity collapse): f({flat.t[-1]:.0f}) = {final:.4f}")


@pytest.mark.parametrize("tag", ["5a", "5b", "5c"])
def test_criterion6_fig5_fidelity_dominance(figures, tag):
    cache, _ = figures
    one, two = cache[tag]
    fraction = float(np.mean(two.fidelity >= one.fidelity))
    print(f"criterion 6 (figure {tag}): two-qubit >= one-qubit at {fraction:.1%} of grid points")
    assert fraction >= 0.95


@pytest.mark.parametrize("tag", ["5a", "5b", "5c"])
def test_criterion6_fig5_fidelity_dominance_min_and_mean(figures, tag):
    # the sense in which the two-qubit probe keeps its state better on every
    # panel: shallower dips and a higher average over the window
    cache, _ = figures
    one, two = cache[tag]
    means = float(two.fidelity.mean()), float(one.fidelity.mean())
    minima = float(two.fidelity.min()), float(one.fidelity.min())
    print(f"criterion 6 PASS (figure {tag}): two-qubit vs one-qubit fidelity mean"
          f" {means[0]:.4f} vs {means[1]:.4f}, min {minima[0]:.4f} vs {minima[1]:.4f}")
    assert means[0] > means[1] and minima[0] > minima[1]


def test_criterion6_runtime(figures):
    _, elapsed = figures
    assert elapsed < 60.0
    print(f"criterion 6 PASS (runtime): figure datasets built in {elapsed:.1f}s")


def test_criterion7_discrepancy_report():
    report = discrepancy_report()
    for quoted in ("80", "541", "1210"):
        assert quoted in report
    assert "no tuning" in report
    print("criterion 7 PASS (report emitted, values not gated):")
    print(report)
