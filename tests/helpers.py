"""Shared test utilities: random state factories, dense matrices built
from block records, and independent oracles.

The oracles here (the 2x2 lower eigenvalue, the dense partial trace and
Bloch vector, the spectral and pure-state QFI of arbitrary states,
the Uhlmann fidelity, the full golden-section search,
the loop form of the backflow detector, per-row f-string CSV formatting,
and the stencil table and dense stencil that pin the record stencil's
bits) deliberately avoid the package code paths they check. They take and
return plain complex arrays; qstate.validate_blocks is the one state
validator. The models' states, derivatives, QFI and fidelity have one
exact oracle, symbolic.exact. The record builder block_state, the
scan_repro.MODELS wrappers states, evaluator_kernel and d_rho_grid and
without_floored_fill serve only the tests. The assertions
assert_block_qfi_matches_the_spectral_oracle and
assert_numbers_depend_on_gamma_t_only are shared by the property tests and
the known-defect table.
"""

import math
from typing import NamedTuple

import numpy as np

from qfi_probe.probe_models import _fock1_amplitudes, _fock2_amplitudes
from qfi_probe.qfi_engine import EIGENSUM_FLOOR, qfi_blocks
from qfi_probe.qstate import (
    QUBIT_BLOCKS,
    X_BLOCKS,
    BlochVector,
    BlockState,
    _diagonal_rows,
    validate_blocks,
)
from qfi_probe.scan_repro import (
    _ESTIMAND_FIELDS,
    MODELS,
    T_TOL,
    ScanConfig,
    point_fidelity,
    point_qfi,
)

HERMITICITY_TOL = 1e-10
# the stencil step at |value| <= 1, cbrt(machine epsilon)
FD_SCALE = float(np.cbrt(np.finfo(float).eps))


def lower_eigenvalue(a, b, re, im):
    """The lower eigenvalue of 2-blocks [[a, re + i im], [re - i im, b]]:
    det / upper with upper = (w + |r|) / 2, which stays accurate where it is
    tiny and (w - |r|) / 2 cancels; only where upper <= 0 is it w - upper."""
    weight = a + b
    upper = 0.5 * (weight + np.sqrt((a - b) ** 2 + 4.0 * (re**2 + im**2)))
    det = a * b - (re**2 + im**2)
    return np.divide(det, upper, out=np.asarray(weight - upper, dtype=float), where=upper > 0.0)


def dense(state: BlockState) -> np.ndarray:
    """The (N, d, d) complex matrices of a block record."""
    values = state.values
    out = np.zeros((values.shape[-1], state.dim, state.dim), dtype=complex)
    a, b, re, im = state.pairs()
    for k, (i, j) in enumerate(state.support):
        out[:, i, i], out[:, j, j] = a[k], b[k]
        out[:, i, j].real, out[:, i, j].imag = re[k], im[k]
        out[:, j, i] = np.conj(out[:, i, j])
    return out


def block_state(support, times, blocks) -> BlockState:
    """Record of N = len(times) states from the entries (a, b, Re c, Im c)
    of each block in support order, each an array of length N or a scalar.
    Raises ValueError for a support other than the qubit and X-state
    blocks, or entries that do not give four per block."""
    npairs = len(_diagonal_rows(support)) // 2
    values = np.empty((4 * npairs, len(times)))
    for k, (block, entries) in enumerate(zip(support, blocks, strict=True)):
        if len(entries) != 4:
            raise ValueError(f"block {block} takes 4 entries, got {len(entries)}")
        for row, entry in zip(range(k, 4 * npairs, npairs), entries):
            values[row] = entry
    return BlockState(support, values)


def record(matrix, support=None) -> BlockState:
    """Block record of a dense matrix, or a stack of them, on the given
    blocks (the qubit or X-state blocks by default).
    Raises ValueError for an entry outside the blocks or a non-Hermitian
    input, which the record could not represent."""
    mat = np.asarray(matrix, dtype=complex)
    stack = mat.reshape((-1,) + mat.shape[-2:])
    support = (QUBIT_BLOCKS if mat.shape[-1] == 2 else X_BLOCKS) if support is None else support
    outside = np.ones(mat.shape[-2:], dtype=bool)
    for block in support:
        outside[np.ix_(block, block)] = False
    if np.count_nonzero(stack[:, outside]):
        largest = np.abs(stack[:, outside]).max()
        raise ValueError(f"entry of magnitude {largest:.3e} outside the blocks {support}")
    if np.abs(stack - np.conj(stack).swapaxes(-1, -2)).max() > HERMITICITY_TOL:
        raise ValueError("a record holds Hermitian matrices only")
    blocks = [(stack[:, i, i].real, stack[:, j, j].real, stack[:, i, j].real, stack[:, i, j].imag)
              for i, j in support]
    return block_state(support, np.zeros(len(stack)), blocks)


def trace_out_B(state) -> np.ndarray:
    """Raw reduced matrices of qubit A, shape (..., 2, 2), for two-qubit
    input of shape (..., 4, 4).

    With the A-major basis order, rho^A_ee = rho_11 + rho_22,
    rho^A_gg = rho_33 + rho_44 and rho^A_eg = rho_13 + rho_24.
    """
    mat = np.asarray(state, dtype=complex)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"partial trace expects a 4x4 matrix, got shape {mat.shape}")
    return np.trace(mat.reshape(mat.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def bloch_vector(state) -> BlochVector:
    """Bloch components of a dense qubit state (or a stack) under the
    package convention; components are arrays for stacked input."""
    mat = np.asarray(state, dtype=complex)
    if mat.shape[-2:] != (2, 2):
        raise ValueError(f"Bloch vector expects a 2x2 matrix, got shape {mat.shape}")
    return BlochVector(
        ax=2.0 * mat[..., 0, 1].real,
        ay=-2.0 * mat[..., 0, 1].imag,
        az=(mat[..., 0, 0] - mat[..., 1, 1]).real,
    )


def nominal(config: ScanConfig) -> float:
    """The value of the config's estimand field."""
    return getattr(config, _ESTIMAND_FIELDS[config.estimand][0])


def states(config: ScanConfig, value, times) -> BlockState:
    """The raw states of the config's model with its estimand at value over
    a time grid: row 0 of one call of evaluator_kernel, without the
    derivative."""
    record = evaluator_kernel(config, value)(np.ravel(times).astype(float), derive=False)
    return BlockState(MODELS[config.model_id][2], record[0])


def state_at(config: ScanConfig, t) -> np.ndarray:
    """The dense matrix of a config's validated state at time t: a grid of
    length 1."""
    return dense(validate_blocks(states(config, nominal(config), [t])))[0]


def fidelity_uhlmann_oracle(state0, state1):
    """Qubit fidelity via tr(rho0 rho1) + 2 sqrt(det rho0 det rho1).

    Independent of the Bloch-vector route; the two must agree to 1e-10
    on every valid qubit pair.
    """
    m0, m1 = np.asarray(state0, dtype=complex), np.asarray(state1, dtype=complex)
    if m0.shape != (2, 2) or m1.shape != (2, 2):
        raise ValueError("Uhlmann oracle expects two 2x2 matrices")
    overlap = float(np.trace(m0 @ m1).real)
    dets = []
    for mat in (m0, m1):
        det = float(np.linalg.det(mat).real)
        if det < 0.0:
            if det < -1e-12:
                raise ValueError(f"determinant {det:.3e} below -1e-12; input invalid")
            det = 0.0
        dets.append(det)
    value = overlap + 2.0 * np.sqrt(dets[0] * dets[1])
    return float(min(max(value, 0.0), 1.0))


class SpectralQfi(NamedTuple):
    """The QFI of qfi_spectral and the number of ordered eigenvalue pairs
    it left out."""

    value: float | np.ndarray
    discarded_pairs: int


def qfi_spectral(rho, drho):
    """QFI of a state, or of every state in a stack, from a full
    eigendecomposition of the matrix, with no block structure assumed.

    Computed in the matrix-element form
    F = sum_{i,j} 2 |<psi_i| drho |psi_j>|^2 / (p_i + p_j)
    over pairs with p_i + p_j > 1e-12; diagonal terms reproduce the
    classical sum (dp_i)^2 / p_i and off-diagonal terms the eigenvector
    contribution. discarded_pairs counts every ordered pair at or below
    the floor over the whole stack, across blocks too.
    """
    mat = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != mat.shape:
        raise ValueError(f"drho shape {drho.shape} does not match state shape {mat.shape}")
    values, vectors = np.linalg.eigh(mat)
    elements = np.conj(vectors).swapaxes(-1, -2) @ drho @ vectors
    pair_sums = values[..., :, None] + values[..., None, :]
    supported = pair_sums > EIGENSUM_FLOOR
    weights = 2.0 * np.abs(elements) ** 2 / np.where(supported, pair_sums, 1.0)
    value = np.where(supported, weights, 0.0).sum(axis=(-2, -1))
    return SpectralQfi(
        value=np.maximum(value, 0.0),
        discarded_pairs=int(np.count_nonzero(~supported)),
    )


def qfi_pure_oracle(psi, dpsi):
    """Pure-state QFI, F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    For a normalized family Re<psi|dpsi> = 0, and the value agrees with
    qfi_spectral applied to the rank-1 density matrix.
    """
    psi = np.asarray(psi, dtype=complex)
    dpsi = np.asarray(dpsi, dtype=complex)
    value = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)
    return float(max(value, 0.0))


def _one_point(amplitudes, times):
    """The amplitudes of a one-point kernel at times, in the shape of times."""
    times = np.asarray(times, dtype=float)
    return tuple(column[0].reshape(times.shape) for column in amplitudes(times))


def fock1_amplitudes(c: ScanConfig, times):
    """The package's one-qubit cavity amplitudes (b1, b2) at the fields of
    a fock1 config."""
    return _one_point(_fock1_amplitudes((c.detuning,), c.coupling, c.photons, c.alpha), times)


def fock2_amplitudes(c: ScanConfig, times):
    """The package's two-qubit cavity amplitudes (C_eg, C_ge, C_gg) at the
    fields of a fock2 config."""
    return _one_point(_fock2_amplitudes((c.detuning,), c.coupling, c.alpha), times)


def evaluator_kernel(config: ScanConfig, value):
    """The kernel that the evaluator of config calls, with the estimand at
    value: the entry of the model's MODELS row, a tangent kernel or
    qfi_engine.stencil_kernel."""
    return MODELS[config.model_id][3](value, config)


def d_rho_grid(config: ScanConfig, value, times) -> BlockState:
    """The estimand derivative of a config's states at value over a time
    grid, from evaluator_kernel: exact for a tangent kernel, the stencil's
    otherwise."""
    record = evaluator_kernel(config, value)(np.atleast_1d(np.asarray(times, dtype=float)))
    return BlockState(MODELS[config.model_id][2], record[1])


def without_floored_fill(rho: BlockState, drho: BlockState) -> BlockState:
    """drho less its component <v|drho|v> |v><v| along the lower eigenvector
    v of each block whose determinant term qfi_blocks floors (w above half
    EIGENSUM_FLOOR, det at or below that times w): the weight that drho moves
    into a level that the floors count as empty. There the determinant form
    keeps it in |dr|^2 / w, the eigenvalue floor of qfi_spectral drops it,
    and the exact QFI grows as its square over the tiny level (ROADMAP item
    9). Every other block of drho is returned unchanged."""
    weight, det = validate_blocks(rho).spectra
    a, b, re, im = rho.pairs()
    c, (da, db, dre, dim) = re + 1j * im, drho.pairs()
    h = 0.5 * (a - b)
    r = np.hypot(h, np.abs(c))
    # (A - p_-) v = 0 from the row that cancels less
    x, y = np.where(h >= 0.0, c, r - h), np.where(h >= 0.0, -(h + r), -np.conj(c))
    norm2 = np.abs(x) ** 2 + np.abs(y) ** 2
    floor = 0.5 * EIGENSUM_FLOOR
    floored = (weight > floor) & (det <= floor * weight) & (norm2 > 0.0)
    dc = dre + 1j * dim
    fill = np.abs(x) ** 2 * da + np.abs(y) ** 2 * db + 2.0 * (np.conj(x) * dc * y).real
    fill = np.where(floored, fill / np.where(floored, norm2, 1.0) ** 2, 0.0)
    dc = dc - fill * x * np.conj(y)
    parts = (da - fill * np.abs(x) ** 2, db - fill * np.abs(y) ** 2, dc.real, dc.imag)
    return BlockState(drho.support, np.concatenate(parts))


def assert_block_qfi_matches_the_spectral_oracle(config, times):
    # the closed-form block QFI against a full eigendecomposition, row by
    # row. The weight that the derivative moves into a floored level is
    # left out: the two floors treat it differently, and neither gives the
    # QFI there (the zero_temperature_occupation rows of
    # test_symbolic.py::test_known_defects)
    rows = validate_blocks(states(config, nominal(config), times))
    derivs = without_floored_fill(rows, d_rho_grid(config, nominal(config), times))
    batched = qfi_blocks(rows, derivs).value
    spectral = qfi_spectral(dense(rows), dense(derivs)).value
    assert batched.shape == times.shape
    assert np.all(np.abs(batched - spectral) <= 1e-8 * np.maximum(1.0, np.abs(spectral)))


# the worst relative QFI error over 20,000 draws per model of the test's
# distribution, rounded up by less than 2x; the fidelity's worst absolute
# error was 4.4e-16
SCALING_QFI_RTOL = {"thermal1": 5e-10, "squeezed1": 5e-10, "thermal2": 1.5e-10,
                    "squeezed2": 6e-9}


def assert_numbers_depend_on_gamma_t_only(model, exponent, scaled_t):
    # every reservoir rate is gamma times a function of the strength, so
    # the QFI and the fidelity at (gamma, t) are those at (1, gamma t)
    gamma, unit = 10.0**exponent, ScanConfig(model)
    config, t = ScanConfig(model, gamma=gamma), scaled_t / gamma
    qfi, expected = point_qfi(config, t), point_qfi(unit, scaled_t)
    assert abs(qfi - expected) <= SCALING_QFI_RTOL[model] * expected
    assert abs(point_fidelity(config, t) - point_fidelity(unit, scaled_t)) <= 8e-16


def golden_section_max(dataset):
    """The grid maximum raised by a full golden-section search, one
    evaluator call per point, in [t[p - 1], t[p + 1]] around the grid argmax
    p, down to a bracket of T_TOL: the (t, qfi) of the best value seen. It
    assumes one peak in the bracket."""
    peak = int(np.argmax(dataset.qfi))
    best_t, best_q = float(dataset.t[peak]), float(dataset.qfi[peak])
    fn = lambda t: float(dataset.qfi_fn(np.array([t]))[0])
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo = float(dataset.t[max(peak - 1, 0)])
    hi = float(dataset.t[min(peak + 1, dataset.t.size - 1)])
    x1 = hi - inv_golden * (hi - lo)
    x2 = lo + inv_golden * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while True:
        for xc, fc in ((x1, f1), (x2, f2)):
            if fc > best_q:
                best_t, best_q = xc, fc
        if hi - lo <= T_TOL:
            return best_t, best_q
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_golden * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_golden * (hi - lo)
            f1 = fn(x1)


def random_qubit_state(rng):
    """Uniformly random qubit state (identity + a.sigma) / 2 from a random
    Bloch vector a in the unit ball, under the bloch_vector convention."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    ax, ay, az = rng.uniform(0.0, 1.0) ** (1.0 / 3.0) * direction
    return 0.5 * np.array([[1.0 + az, ax - 1j * ay], [ax + 1j * ay, 1.0 - az]])


def random_density(rng, dim):
    """Random full-support density matrix from a Wishart-style draw, as a
    plain array: for dim 4 it has no block structure."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T + 0.05 * np.eye(dim)
    return mat / mat.trace()


def random_hermitian_traceless(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return h - (np.trace(h) / dim) * np.eye(dim)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def backflow_intervals_loop(dataset):
    """The step-by-step backflow detector that backflow_intervals
    vectorises."""
    diffs = np.diff(dataset.qfi)
    t = dataset.t
    floor = 1e-9 * float(np.abs(dataset.qfi).max(initial=0.0))
    intervals = []
    run_start = None
    last_nonzero = 0
    for k, d in enumerate(diffs):
        if abs(d) <= floor:
            d = 0.0
        if d > 0.0:
            if run_start is None and last_nonzero < 0:
                run_start = k
            last_nonzero = 1
        else:
            if run_start is not None:
                intervals.append((float(t[run_start]), float(t[k])))
                run_start = None
            if d < 0.0:
                last_nonzero = -1
    if run_start is not None:
        intervals.append((float(t[run_start]), float(t[-1])))
    return intervals


def csv_fstring(dataset, header="t,qfi,fidelity"):
    """CSV text with one f-string per row: the reference for the bytes
    emit_csv writes, which must match it exactly."""
    lines = [f"# {key}={value}" for key, value in dataset.metadata.items()]
    lines.append(header)
    for t, q, f in zip(dataset.t, dataset.qfi, dataset.fidelity):
        lines.append(f"{t:.17g},{q:.17g},{f:.17g}")
    return "\n".join(lines) + "\n"


def stencil(value, floor):
    """The step h = FD_SCALE max(1, |value|) and the (offset in steps,
    weight) taps of the second-order derivative stencil at value: one-sided
    forward where value - h crosses the floor, central elsewhere. The
    tests' own table of what stencil_points computes."""
    h = FD_SCALE * max(1.0, abs(value))
    if floor is not None and value - h < floor:
        return h, ((0.0, -3.0), (1.0, 4.0), (2.0, -1.0))
    return h, ((1.0, 1.0), (-1.0, -1.0))


def d_rho_dense(config: ScanConfig, value, times):
    """The stencil derivative on dense complex matrices, the way it ran
    before the models emitted records: each stencil state divided by its
    trace, weighted, summed, divided by 2 h and symmetrized."""
    h, taps = stencil(value, _ESTIMAND_FIELDS[config.estimand][1])
    diff = 0.0
    for offset, weight in taps:
        term = dense(states(config, value + offset * h, times))
        term /= np.einsum("kii->k", term).real[:, None, None]
        diff = diff + term * weight
    diff /= 2.0 * h
    return 0.5 * (diff + np.conj(diff).swapaxes(-1, -2))
