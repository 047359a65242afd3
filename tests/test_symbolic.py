"""Exact checks of the forms in tests/symbolic.py. For the reservoir master
equation: its generator against the hand-written element-wise equations,
the invariants it preserves, its coherence decay rates, jump operators and
steady state, and the structure of the closed forms; acceptance criterion 2
proves the closed forms against it. For the cavity models: proofs that the
closed-form amplitudes solve the Schrodinger equation of their
single-excitation sector, and the package's amplitudes against them. Last,
the library's QFI and fidelity against the exact oracle of every model."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import sympy as sp

from helpers import d_rho_grid, dense, fock1_amplitudes, fock2_amplitudes, states
from qfi_probe.qfi_engine import qfi_blocks
from qfi_probe.qstate import validate_blocks
from qfi_probe.scan_repro import (
    FIGURE_TAGS,
    MODEL_IDS,
    MODELS,
    ScanConfig,
    _figure_configs,
    find_max,
    point_fidelity,
    point_qfi,
    reproduce_figure,
    scan,
)
from symbolic import (
    ALPHA,
    DIGITS,
    EMPTY_PAIR,
    COUPLING,
    EXCHANGE,
    GAMMA,
    SIGMA_MINUS,
    SIGMA_PLUS,
    M,
    N,
    R,
    T,
    block_qfi_forms,
    equilibrium_forms,
    equilibrium_qfi,
    evolves,
    exact,
    fock1_amplitudes as fock1_form,
    fock1_hamiltonian,
    fock2_amplitudes as fock2_form,
    fock2_hamiltonian,
    generic_matrix,
    lambdified,
    lambdified_amplitudes,
    pair_generator,
    pair_state,
    qubit_generator,
    qubit_state,
    vanishes,
)

HALF = sp.S.Half
# the entries of a two-qubit X state: the {|eg>, |ge>} and {|ee>, |gg>}
# blocks of the pair kernel
X_PATTERN = {(i, i) for i in range(4)} | {(1, 2), (2, 1), (0, 3), (3, 0)}


def thermal_rhs(rho):
    """Hand-written element-wise right-hand side of the thermal master
    equation at occupation N."""
    down, up, coherence = GAMMA * (N + 1), GAMMA * N, -GAMMA * (N + HALF)
    return sp.Matrix([[-down * rho[0, 0] + up * rho[1, 1], coherence * rho[0, 1]],
                      [coherence * rho[1, 0], down * rho[0, 0] - up * rho[1, 1]]])


def squeezed_rhs(rho):
    """Hand-written element-wise right-hand side for the squeezed reservoir
    with occupation N and pair correlation M."""
    down, up, coherence = GAMMA * (N + 1), GAMMA * N, -GAMMA * (N + HALF)
    return sp.Matrix([
        [-down * rho[0, 0] + up * rho[1, 1], coherence * rho[0, 1] - GAMMA * M * rho[1, 0]],
        [coherence * rho[1, 0] - GAMMA * M * rho[0, 1], down * rho[0, 0] - up * rho[1, 1]],
    ])


@pytest.mark.parametrize("kind", ["thermal", "squeezed"])
def test_generator_matches_elementwise_rhs(kind):
    rho = generic_matrix("r")
    if kind == "thermal":
        assert vanishes(qubit_generator(rho).subs(M, 0) - thermal_rhs(rho))
    else:
        assert vanishes(qubit_generator(rho) - squeezed_rhs(rho))


@pytest.mark.parametrize("generator, dim", [(qubit_generator, 2), (pair_generator, 4)])
def test_generator_preserves_trace_and_hermiticity(generator, dim):
    rho = generic_matrix("r", dim)
    assert sp.expand(generator(rho).trace()) == 0
    assert vanishes(generator(rho).H - generator(rho.H))


def test_coherence_eigenrates():
    # the symmetric coherence combination (sigma_x) decays at
    # gamma (N + M + 1/2), the antisymmetric one (i sigma_y) at
    # gamma (N - M + 1/2)
    symmetric = sp.Matrix([[0, 1], [1, 0]])
    antisymmetric = sp.Matrix([[0, 1], [-1, 0]])
    assert vanishes(qubit_generator(symmetric) + GAMMA * (N + M + HALF) * symmetric)
    assert vanishes(qubit_generator(antisymmetric) + GAMMA * (N - M + HALF) * antisymmetric)


@pytest.mark.parametrize("sign", [1, -1])
def test_squeezed_rate_identity(sign):
    # N +- M + 1/2 = exp(+-2r) / 2 for a squeezed vacuum: the kernels take
    # the exponentials, which stay exact where the sum cancels
    r = sp.Symbol("r", nonnegative=True)
    total = sp.sinh(r) ** 2 + sign * sp.cosh(r) * sp.sinh(r) + HALF
    assert sp.simplify((total - sp.exp(2 * sign * r) / 2).rewrite(sp.exp)) == 0


@pytest.mark.parametrize("config", [ScanConfig("squeezed1", squeezing=10.0, gamma=1.3, alpha=0.4),
                                    ScanConfig("squeezed2", squeezing=10.0, gamma=1.3)],
                         ids=["qubit", "pair"])
def test_squeezed_kernels_at_large_squeezing(config):
    # at r = 10, gamma exp(-2r) t reaches 1.4e-7 by t = 50, which a
    # cancelled N - M + 1/2 reads as 0; the smallest times resolve the
    # fast gamma exp(2r) decay
    times = [0.0, 1e-10, 1e-9, 3e-9, 1e-3, 0.5, 5.0, 50.0]
    expected = [exact(config, t).rho for t in times]
    np.testing.assert_allclose(dense(states(config, 10.0, times)), expected,
                               rtol=0, atol=1e-13)


def _decay(jump, rho):
    return jump * rho * jump.H - (jump.H * jump * rho + rho * jump.H * jump) / 2


def _steady_qubit():
    return sp.diag(N / (2 * N + 1), (N + 1) / (2 * N + 1))


def test_vacuum_has_single_downward_term():
    rho = generic_matrix("x")
    assert vanishes(qubit_generator(rho).subs({N: 0, M: 0}) - GAMMA * _decay(SIGMA_MINUS, rho))


def test_squeezed_vacuum_has_one_jump_operator():
    # with N = sinh(r)^2 and M = cosh(r) sinh(r), as the squeezed kernels
    # take them, M^2 = N (N + 1) and the two rates and the two-photon terms
    # merge into the one jump operator cosh(r) sigma_- - sinh(r) sigma_+
    r = sp.Symbol("r", nonnegative=True)
    rho = generic_matrix("x")
    jump = sp.cosh(r) * SIGMA_MINUS - sp.sinh(r) * SIGMA_PLUS
    squeezed = qubit_generator(rho).subs({N: sp.sinh(r) ** 2, M: sp.cosh(r) * sp.sinh(r)})
    assert vanishes(squeezed - GAMMA * _decay(jump, rho))


def test_populations_and_coherences_decouple():
    populations = sp.diag(*sp.symbols("p0 p1"))
    coherences = sp.Matrix([[0, sp.Symbol("c01")], [sp.Symbol("c10"), 0]])
    assert qubit_generator(populations).is_diagonal()
    assert vanishes(sp.diag(*qubit_generator(coherences).diagonal()))


@pytest.mark.parametrize("generator, form, steady", [
    (qubit_generator, qubit_state, _steady_qubit),
    (pair_generator, pair_state, lambda: sp.kronecker_product(_steady_qubit(), _steady_qubit())),
], ids=["qubit", "pair"])
def test_steady_state(generator, form, steady):
    # the generator annihilates the thermal populations N / (2 N + 1) and
    # (N + 1) / (2 N + 1) (squeezing leaves them), and each closed form
    # tends to them once its decaying exponentials are gone
    assert vanishes(generator(steady()))
    assert vanishes(form().replace(sp.exp, lambda _: 0) - steady())


def test_x_states_stay_x_states():
    # the pair kernel's two 2-blocks are closed under the generator
    rho = sp.Matrix(4, 4, lambda i, j: sp.Symbol(f"x{i}{j}") if (i, j) in X_PATTERN else 0)
    out = pair_generator(rho)
    assert vanishes(sp.Matrix([out[i, j] for i in range(4) for j in range(4)
                               if (i, j) not in X_PATTERN]))


def test_only_squeezing_couples_ee_and_gg():
    # a state in the {|eg>, |ge>} block feeds the |ee><gg| coherence at
    # -gamma M times its coherences, so a thermal pair keeps it at 0
    a, b, c, d = sp.symbols("a b c d")
    rho = sp.zeros(4, 4)
    rho[1, 1], rho[2, 2], rho[1, 2], rho[2, 1] = a, b, c, d
    out = pair_generator(rho)
    assert vanishes(sp.Matrix([out[0, 3], out[3, 0]]) + GAMMA * M * (c + d) * sp.ones(2, 1))


def test_pair_marginal_follows_qubit_form():
    # each qubit of the Bell-state pair evolves as the one-qubit form from
    # |e> and from |g>, averaged
    rho = pair_state()
    reduced = sp.Matrix(2, 2, lambda i, j: rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1])
    one = qubit_state()
    assert vanishes(reduced - (one.subs(ALPHA, 0) + one.subs(ALPHA, sp.pi / 2)) / 2)


def test_pair_state_is_swap_symmetric():
    swap = sp.Matrix(4, 4, lambda i, j: 1 if (i, j) in {(0, 0), (1, 2), (2, 1), (3, 3)} else 0)
    rho = pair_state()
    assert vanishes(swap * rho * swap - rho)


@pytest.mark.parametrize("form", [qubit_state, pair_state], ids=["qubit", "pair"])
def test_closed_form_is_a_density_matrix(form):
    # across the physical domain M^2 <= N (N + 1), its boundary (a squeezed
    # vacuum) included, at times from 0 to 50
    rng = np.random.default_rng(2024)
    states = lambdified(form())
    times = np.concatenate(([0.0, 50.0], rng.uniform(0.0, 5.0, size=20)))
    for share in np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=10))):
        occupation = rng.uniform(0.0, 2.0)
        pair = share * np.sqrt(occupation * (occupation + 1.0))
        rows = states(occupation, pair, rng.uniform(0.5, 2.0), rng.uniform(0.0, np.pi / 2), times)
        np.testing.assert_allclose(np.trace(rows, axis1=1, axis2=2), 1.0, atol=1e-14)
        np.testing.assert_array_equal(rows, rows.conj().transpose(0, 2, 1))
        assert np.linalg.eigvalsh(rows).min() >= -1e-14


@pytest.mark.parametrize("form, hamiltonian", [(fock1_form, fock1_hamiltonian),
                                               (fock2_form, fock2_hamiltonian)],
                         ids=["fock1", "fock2"])
def test_cavity_amplitudes_solve_schrodinger(form, hamiltonian):
    # for symbolic detuning, coupling, alpha and t: i dC/dt = H(t) C
    # identically, from cos(alpha) and sin(alpha) on the first two states
    amplitudes = form()
    assert evolves(amplitudes, hamiltonian())
    initial = [sp.cos(ALPHA), sp.sin(ALPHA), 0][:amplitudes.rows]
    assert vanishes(amplitudes.subs(T, 0) - sp.Matrix(initial))


def test_cavity_amplitude_kernels_match_forms():
    # seeded parameters over the ranges of the other fock tests, times to 50
    rng = np.random.default_rng(20)
    times = np.concatenate(([0.0, 50.0], rng.uniform(0.0, 50.0, size=30)))
    one = lambdified_amplitudes(fock1_form(), EXCHANGE)
    two = lambdified_amplitudes(fock2_form(), COUPLING)
    worst = 0.0
    for _ in range(10):
        detuning, coupling = rng.uniform(-10.0, 10.0), rng.uniform(0.2, 3.0)
        alpha, photons = rng.uniform(0.0, np.pi / 2), int(rng.integers(0, 5))
        exchange = 2.0 * coupling * np.sqrt(photons + 1.0)
        for got, want in (
            (fock1_amplitudes(ScanConfig("fock1", detuning=detuning, coupling=coupling,
                                         photons=photons, alpha=alpha), times),
             one(detuning, exchange, alpha, times)),
            (fock2_amplitudes(ScanConfig("fock2", detuning=detuning, coupling=coupling,
                                         alpha=alpha), times),
             two(detuning, coupling, alpha, times)),
        ):
            worst = max(worst, float(np.abs(np.stack(got, axis=-1) - want).max()))
    assert worst <= 1e-13


def test_block_qfi_determinant_form_equals_eigen_pairs():
    # the difference over a common denominator has a numerator polynomial
    # in n that vanishes wherever n^2 = |r|^2: its remainder on division
    # by n^2 - |r|^2 is identically 0
    eigen_pairs, determinant, norm, norm_sq = block_qfi_forms()
    numerator = sp.numer(sp.together(eigen_pairs - determinant))
    assert sp.rem(sp.expand(numerator), norm**2 - norm_sq, norm) == 0


# the benchmark's ranges (perfbench/workloads.py) of the fields its point
# queries draw, alpha on one-qubit models only
RANGES = {"detuning": (1.0, 10.0), "coupling": (0.5, 2.0), "mean_occupation": (0.02, 1.0),
          "squeezing": (0.02, 0.5), "gamma": (0.5, 2.0), "alpha": (0.0, np.pi / 2)}
# model: (worst relative QFI error, worst absolute fidelity error) of the
# library against exact over the rows of test_library_error_against_exact,
# as measured and rounded up by less than 2x. ROADMAP items 3, 9 and 16
# tighten these; none may grow.
EXACT_BOUNDS = {"fock1": (3e-6, 5e-15), "thermal1": (1.5e-9, 1.5e-8), "squeezed1": (4e-9, 1e-8),
                "fock2": (5e-6, 1.5e-15), "thermal2": (7e-14, 3e-16), "squeezed2": (7e-14, 3e-15)}


def test_library_error_against_exact():
    # 48 seeded point queries per model over the benchmark's ranges, and
    # every 97th row of the 9 distinct scans behind the 24 figure series,
    # leaving out rows with an eigenvalue between an empty level and 1e-8
    # (rank drops, ROADMAP items 3 and 9). pytest -s prints the table.
    rng, rows = np.random.default_rng(23), []
    for model in MODEL_IDS:
        names = [name for name in MODELS[model][1]
                 if name in RANGES and (name != "alpha" or model.endswith("1"))]
        for _ in range(48):
            config = ScanConfig(model, **{name: rng.uniform(*RANGES[name]) for name in names})
            t = rng.uniform(0.01, 50.0)
            rows.append((config, t, point_qfi(config, t), point_fidelity(config, t)))
    for config in {config for tag in FIGURE_TAGS for _, config in _figure_configs(tag, 2000)}:
        dataset = scan(config)
        rows += [(config, *map(float, row))
                 for row in zip(dataset.t, dataset.qfi, dataset.fidelity)][::97]
    table = {model: [0, 0, 0.0, 0.0] for model in MODEL_IDS}
    for config, t, qfi, fidelity in rows:
        value, row = exact(config, t), table[config.model_id]
        if any(EMPTY_PAIR <= 2 * p < 2e-8 for p in value.eigenvalues):
            row[1] += 1
            continue
        with mpmath.workdps(DIGITS):
            row[0] += 1
            row[2] = max(row[2], float(abs(mpmath.mpf(qfi) / value.qfi - 1)))
            row[3] = max(row[3], float(abs(mpmath.mpf(fidelity) - value.fidelity)))
    print("\n| model | rows used | rows filtered | QFI, relative | fidelity, absolute |")
    print("| --- | --- | --- | --- | --- |")
    for model, (used, filtered, qfi_error, fidelity_error) in table.items():
        print(f"| {model} | {used} | {filtered} | {qfi_error:.3g} | {fidelity_error:.3g} |")
    for model, (used, _, qfi_error, fidelity_error) in table.items():
        assert used and qfi_error <= EXACT_BOUNDS[model][0], model
        assert fidelity_error <= EXACT_BOUNDS[model][1], model


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.2, 1.5])
def test_fock2_near_pure_rows_against_exact(alpha):
    # fock2's {|eg>, |ge>} block is pure, so its determinant is rounding
    # dust that the QFI's floor must drop: divided into the stencil's
    # ddet^2 it reads alpha = 1.5 at t = 42.1068 as 0.01535, not 3.0528e-5
    config = ScanConfig("fock2", alpha=alpha, points=400)
    dataset = scan(config)
    with mpmath.workdps(DIGITS):
        for t, qfi in list(zip(dataset.t, dataset.qfi))[::7]:
            value = exact(config, float(t))
            if any(EMPTY_PAIR <= 2 * p < 2e-8 for p in value.eigenvalues):
                continue
            error = float(abs(mpmath.mpf(float(qfi)) / value.qfi - 1))
            assert error <= EXACT_BOUNDS["fock2"][0], t


def test_fig1a_alpha0_maximum_against_exact():
    # within 1% of exact at the returned t (0.69% high); a floor that keeps
    # a dust determinant reads it 21% high
    (_, config), = [pair for pair in _figure_configs("1a", 2000) if pair[0] == "alpha0"]
    t, qfi = find_max(scan(config))
    assert qfi == pytest.approx(float(exact(config, t).qfi), rel=1e-2)


@pytest.mark.xfail(strict=True, reason="the stencil reads a cavity QFI high next to a rank drop"
                                       " (ROADMAP items 3 and 9)")
def test_known_refined_cavity_maxima_defect():
    # the refined 1a alpha0 and 4a two_qubit maxima read 0.69% and 0.67%
    # above exact at the returned t. The exact fock2 QFI peaks at the rank
    # drop t = 99.53235 (1819.4105); within about 5e-5 of it the stencil
    # reads up to 1831, and to its right a dip makes a local maximum at
    # 99.53301, where a golden-section search stopped 7.7e-6 below exact
    for tag, series in (("1a", "alpha0"), ("4a", "two_qubit")):
        config = dict(_figure_configs(tag, 2000))[series]
        t, qfi = find_max(scan(config))
        with mpmath.workdps(DIGITS):
            assert abs(mpmath.mpf(qfi) / exact(config, t).qfi - 1) <= 1e-6, (tag, series)


def test_exact_at_closed_form_values():
    # thermal1 deep in its steady state: F_m = 1 / ((2m + 1)^2 m (m + 1)),
    # and dm/dT = m (m + 1) ln^2(1 + 1/m) at s = 1
    with mpmath.workdps(DIGITS):
        m = mpmath.mpf(0.1)
        slope = m * (m + 1) * mpmath.log1p(1 / m) ** 2
        steady = slope**2 / ((2 * m + 1) ** 2 * m * (m + 1))
        assert abs(exact(ScanConfig("thermal1"), 200.0).qfi / steady - 1) < 1e-40
    # fock1 from |e> at a rank drop t_k = 2 pi k / w, where |b2|^2 vanishes:
    # F = c0 t^2 with c0 = x^2 Delta^2 / w^4, here 100 / 841 (ROADMAP item 11)
    t = 2.0 * math.pi * 171 / math.sqrt(29.0)
    assert float(exact(ScanConfig("fock1", alpha=0.0), t).qfi) == pytest.approx(
        100.0 / 841.0 * t * t, rel=1e-12)


def test_exact_honours_the_symmetries():
    # the identities that test_properties asserts on the library, and the
    # cavity scaling F(l Delta, l g, t / l) = F(Delta, g, t) / l^2, on the
    # oracle: each maps (config, t) to (config', t') and F to F' = F / k.
    # Both sides hold to 1e-12, the rounding of the doubles fed in
    fock1, fock2 = ScanConfig("fock1", detuning=3.0, photons=1), ScanConfig("fock2", detuning=3.0)
    thermal1, thermal2 = ScanConfig("thermal1", mean_occupation=0.4), ScanConfig("thermal2")
    for alpha, t in ((0.3, 7.3), (1.1, 31.0)):
        fock1, fock2, thermal1 = (replace(c, alpha=alpha) for c in (fock1, fock2, thermal1))
        cases = [(fock1, replace(fock1, detuning=-3.0, alpha=math.pi / 2 - alpha), t, 1.0),
                 (fock2, replace(fock2, detuning=-3.0), t, 1.0),
                 (fock2, replace(fock2, alpha=math.pi / 2 - alpha), t, 1.0),
                 (thermal1, replace(thermal1, freq_scale=7.0), t, 49.0),
                 (thermal2, replace(thermal2, freq_scale=0.01), t, 1e-4)]
        for scale in (1e-4, 1e-8):
            cases += [(config, replace(config, detuning=3.0 * scale, coupling=scale), t / scale,
                       scale**2) for config in (fock1, fock2)]
        with mpmath.workdps(DIGITS):
            for config, image, t_image, k in cases:
                value, mapped = exact(config, t), exact(image, t_image)
                assert abs(mapped.qfi * k / value.qfi - 1) < 1e-12, (config, image)
                if image.alpha == config.alpha:
                    assert abs(mapped.fidelity - value.fidelity) < 1e-12, (config, image)


def test_equilibrium_qfi_closed_form():
    # F_N = 1 / ((2N + 1)^2 N (N + 1)), and 4 / cosh(2r)^2 in the squeezing
    per_occupation, per_squeezing = equilibrium_forms()
    assert sp.simplify(per_occupation - 1 / ((2 * N + 1) ** 2 * N * (N + 1))) == 0
    assert sp.simplify(per_squeezing - 4 / sp.cosh(2 * R) ** 2) == 0
    with mpmath.workdps(DIGITS):
        assert equilibrium_qfi("squeezed", 0.1) == pytest.approx(3.8441719319, rel=1e-10)
        assert equilibrium_qfi("thermal", 0.1) == pytest.approx(2.5255213203, rel=1e-10)
        # the temperature QFI of exact() deep in the steady state
        assert abs(equilibrium_qfi("thermal", 0.1) / exact(ScanConfig("thermal1"), 200.0).qfi
                   - 1) < 1e-40


# the worst relative distance of a grid-only figure maximum from the
# equilibrium QFI, 2.32e-10 (3a, the squeezing stencil), rounded up by less
# than 2x
EQUILIBRIUM_RTOL = 3e-10
PLATEAU_SERIES = {"2a/alpha0", "2b/alpha0", "3a/alpha0", "3a/alpha45", "3b/alpha0",
                    "3b/alpha45", "4b/two_qubit", "4c/one_qubit", "4c/two_qubit",
                    "5b/two_qubit", "5c/one_qubit", "5c/two_qubit"}
# the fock1 alpha = 45 degree series, whose QFI still rises at t_max = 100
RISING_END_SERIES = {"1a/alpha45", "1b/alpha45", "4a/one_qubit", "5a/one_qubit"}


def test_grid_only_figure_maxima_are_the_equilibrium_qfi():
    # a figure maximum that find_max returns with no evaluator call sits
    # either at the end of a grid the QFI still rises into, or on the
    # steady-state plateau: there it is the number of qubits times the
    # equilibrium QFI of one qubit, to the stencil's error (ROADMAP item 3)
    def no_call(times):
        raise AssertionError("refined")

    plateau, rising_end = set(), set()
    for tag in FIGURE_TAGS:
        for (series, config), dataset in zip(_figure_configs(tag, 2000), reproduce_figure(tag)):
            try:
                t, qfi = find_max(replace(dataset, qfi_fn=no_call))
            except AssertionError:
                continue
            if t == dataset.t[-1]:
                rising_end.add(f"{tag}/{series}")
                continue
            plateau.add(f"{tag}/{series}")
            kind, qubits = config.model_id[:-1], int(config.model_id[-1])
            strength = config.squeezing if kind == "squeezed" else config.mean_occupation
            with mpmath.workdps(DIGITS):
                expected = qubits * equilibrium_qfi(kind, strength)
                assert abs(mpmath.mpf(qfi) / expected - 1) <= EQUILIBRIUM_RTOL, (tag, series)
    assert plateau == PLATEAU_SERIES and rising_end == RISING_END_SERIES


@pytest.mark.xfail(strict=True, reason="the stencil step grows with |detuning| (ROADMAP item 3)"
                                       " and the determinant floor zeroes a rank drop (item 9)")
@pytest.mark.parametrize("queries", [
    # 4.0213e-9 against 4.5509e-9, and 9.3e-31 against 3.45e-18
    [(ScanConfig("fock1", detuning=1e4), 10.0), (ScanConfig("fock1", detuning=1e10), 10.0)],
    # 2.9e-14 against 4733.23
    [(ScanConfig("fock1", alpha=0.0, t_max=200.0), 199.5156557)],
], ids=["large_detuning", "rank_drop"])
def test_known_qfi_defects_against_exact(queries):
    for config, t in queries:
        assert point_qfi(config, t) == pytest.approx(float(exact(config, t).qfi), rel=1e-3)


@pytest.mark.xfail(strict=True, reason="the determinant floor drops the occupation QFI of a level"
                                       " the derivative fills (ROADMAP items 9 and 21)")
@pytest.mark.parametrize("gamma, t", [(2.0, 15.0), (3.0, 10.0)])
def test_known_occupation_qfi_defect_at_zero_temperature(gamma, t):
    # thermal1 at m = 0 and alpha = 0, where e^{-gamma t} = 9.4e-14 is below
    # the floor: qfi_blocks reads 4.0 and helpers.qfi_spectral 1.0, against
    # 1.07e13 from exact (the temperature QFI is 0: dm/dT vanishes at m = 0)
    config = ScanConfig("thermal1", mean_occupation=0.0, gamma=gamma, alpha=0.0)
    rho = validate_blocks(states(config, config.mean_occupation, [t]))
    qfi = qfi_blocks(rho, d_rho_grid(config, config.mean_occupation, [t])).value[0]
    assert qfi == pytest.approx(float(exact(config, t, chain=False).qfi), rel=1e-3)


@pytest.mark.xfail(strict=True, reason="the chain factor reads 0.0 where g * g underflows, even"
                                       " where g / s is an ordinary number (ROADMAP item 25)")
def test_known_chain_factor_underflow_defect():
    # thermal1 at m = 1e-200: g = m (m + 1) ln^2(1 + 1/m) is 2.1e-195, so
    # g * g underflows to 0.0, but g / s is 2.1e-5 at s = 1e-190; the library
    # reads 0.0, against 0.87284 from exact
    config = ScanConfig("thermal1", mean_occupation=1e-200, freq_scale=1e-190)
    assert point_qfi(config, 20.0) == pytest.approx(float(exact(config, 20.0).qfi), rel=1e-6)


@pytest.mark.xfail(strict=True, reason="the stencil step never goes below 6.1e-6, which swamps a"
                                       " detuning set by a small coupling (ROADMAP items 3, 18)")
@pytest.mark.parametrize("model", ["fock1", "fock2"])
@pytest.mark.parametrize("scale", [1e-4, 1e-8])
def test_known_cavity_scaling_defect(model, scale):
    # F(l Delta, l g, t / l) l^2 = F(Delta, g, t), which exact honours
    # (test_exact_honours_the_symmetries): fock1 at l = 1e-4 reads 5.650
    # against 5.985, and 6.2e-11 at l = 1e-8
    config = ScanConfig(model)
    scaled = replace(config, detuning=config.detuning * scale, coupling=config.coupling * scale)
    assert point_qfi(scaled, 7.3 / scale) * scale**2 == pytest.approx(point_qfi(config, 7.3),
                                                                      rel=1e-3)
