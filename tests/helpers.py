"""Shared test utilities: random state factories, dense matrices built
from block records, and independent oracles.

The oracles here (the dense density-matrix validator and its 2x2 lower
eigenvalue, brute-force partial traces, the spectral, SLD and
pure-state QFI of arbitrary states, the Uhlmann fidelity, the
sequential golden-section search,
the loop form of the backflow detector, per-row f-string CSV formatting,
and the dense stencil that pins the record stencil's bits) deliberately
avoid the package code paths they check. The models' states, derivatives,
QFI and fidelity have one exact oracle, symbolic.exact. The record
builder block_state, the grid wrapper d_rho_grid and the Cramer-Rao bound
serve only the tests.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qfi_probe.probe_models import _fock1_amplitudes, _fock2_amplitudes
from qfi_probe.qfi_engine import (
    EIGENSUM_FLOOR,
    derivative,
    derivative_taps,
    stencil,
)
from qfi_probe.qstate import (
    PSD_TOL,
    QUBIT_BLOCKS,
    TRACE_TOL,
    X_BLOCKS,
    BlochVector,
    BlockState,
    NegativeEigenvalue,
    StateValidationError,
    TraceNotOne,
    _diagonal_rows,
)
from qfi_probe.scan_repro import T_TOL, ScanConfig

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-10


class NotHermitian(StateValidationError):
    pass


def _as_matrix(state):
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


@dataclass(frozen=True)
class DensityMatrix:
    """One validated dense state, or a stack of them along leading axes.

    Attributes:
        matrix: read-only complex array of shape (..., d, d), d = 2 or 4.
        blocks: the index sets of size 1 or 2 that partition the basis and
            carry the state; every entry outside them is exactly zero.
    """

    matrix: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def off_block(matrix, blocks) -> float:
    """Largest magnitude of the entries outside the blocks, over a matrix
    or a stack of them; 0.0 when every such entry is exactly zero."""
    outside = np.ones(matrix.shape[-2:], dtype=bool)
    for block in blocks:
        for i in block:
            outside[i, block] = False
    entries = matrix[..., outside]
    return float(np.abs(entries).max()) if np.count_nonzero(entries) else 0.0


def validate_density(matrix, blocks=None, psd_tol: float = PSD_TOL) -> DensityMatrix:
    """Check the state invariants of a dense matrix or a stack of them that
    is a direct sum of blocks of size 2 or less: finite entries, no entry
    outside the blocks, Hermiticity, unit trace, and per-block positivity.
    The default blocks are the whole qubit for d = 2 and the X-state blocks
    for d = 4. Returns a read-only copy."""
    mat = np.array(getattr(matrix, "matrix", matrix), dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[-1]
    if dim not in (2, 4):
        raise ValueError(f"unsupported dimension {dim}, expected 2 or 4")
    blocks = (QUBIT_BLOCKS if dim == 2 else X_BLOCKS) if blocks is None else blocks
    if sorted(sum(blocks, ())) != list(range(dim)) or not all(len(b) in (1, 2) for b in blocks):
        raise ValueError(f"blocks {blocks} do not partition range({dim}) into sizes 1 and 2")
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix has a NaN or infinite entry")
    outside = off_block(mat, blocks)
    if outside != 0.0:
        raise StateValidationError(f"entry of magnitude {outside:.3e} outside the blocks {blocks}")
    herm_dev = float(np.abs(mat - np.conj(mat).swapaxes(-1, -2)).max(initial=0.0))
    if not herm_dev <= HERMITICITY_TOL:
        raise NotHermitian(
            f"max |rho_ij - conj(rho_ji)| = {herm_dev:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    trace_dev = float(np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if not trace_dev <= TRACE_TOL:
        raise TraceNotOne(f"|tr(rho) - 1| = {trace_dev:.3e} exceeds {TRACE_TOL:.0e}")
    lowest = [mat[..., b[0], b[0]].real if len(b) == 1
              else lower_eigenvalue(*_pair_entries(mat, b)) for b in blocks]
    smallest = min(float(low.min(initial=np.inf)) for low in lowest)
    if not smallest >= -psd_tol:
        raise NegativeEigenvalue(f"smallest eigenvalue {smallest:.3e} below -{psd_tol:.0e}")
    mat.flags.writeable = False
    return DensityMatrix(matrix=mat, blocks=blocks)


def lower_eigenvalue(a, b, re, im):
    """The lower eigenvalue of 2-blocks [[a, re + i im], [re - i im, b]]:
    det / upper with upper = (w + |r|) / 2, which stays accurate where it is
    tiny and (w - |r|) / 2 cancels; only where upper <= 0 is it w - upper."""
    weight = a + b
    upper = 0.5 * (weight + np.sqrt((a - b) ** 2 + 4.0 * (re**2 + im**2)))
    det = a * b - (re**2 + im**2)
    return np.divide(det, upper, out=np.asarray(weight - upper, dtype=float), where=upper > 0.0)


def _pair_entries(mat, block):
    i, j = block
    return mat[..., i, i].real, mat[..., j, j].real, mat[..., i, j].real, mat[..., i, j].imag


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
    mat = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    stack = mat.reshape((-1,) + mat.shape[-2:])
    support = (QUBIT_BLOCKS if mat.shape[-1] == 2 else X_BLOCKS) if support is None else support
    outside = off_block(stack, support)
    if outside != 0.0:
        raise ValueError(f"entry of magnitude {outside:.3e} outside the blocks {support}")
    if np.abs(stack - np.conj(stack).swapaxes(-1, -2)).max() > HERMITICITY_TOL:
        raise NotHermitian("a record holds Hermitian matrices only")
    blocks = [_pair_entries(stack, block) for block in support]
    return block_state(support, np.zeros(len(stack)), blocks)


def trace_out_B(state) -> np.ndarray:
    """Raw reduced matrices of qubit A, shape (..., 2, 2), for two-qubit
    input of shape (..., 4, 4).

    With the A-major basis order, rho^A_ee = rho_11 + rho_22,
    rho^A_gg = rho_33 + rho_44 and rho^A_eg = rho_13 + rho_24.
    """
    mat = _as_matrix(state)
    if mat.shape[-2:] != (4, 4):
        raise ValueError(f"partial trace expects a 4x4 matrix, got shape {mat.shape}")
    return np.trace(mat.reshape(mat.shape[:-2] + (2, 2, 2, 2)), axis1=-3, axis2=-1)


def bloch_vector(state) -> BlochVector:
    """Bloch components of a dense qubit state (or a stack) under the
    package convention; components are arrays for stacked input."""
    mat = _as_matrix(state)
    if mat.shape[-2:] != (2, 2):
        raise ValueError(f"Bloch vector expects a 2x2 matrix, got shape {mat.shape}")
    return BlochVector(
        ax=2.0 * mat[..., 0, 1].real,
        ay=-2.0 * mat[..., 0, 1].imag,
        az=(mat[..., 0, 0] - mat[..., 1, 1]).real,
    )


def state_at(channel, t) -> DensityMatrix:
    """One validated dense state of a channel at its nominal value: a grid
    of length 1."""
    return validate_density(dense(channel.states(channel.value, [t]))[0], channel.support)


def density_from_bloch(vec: BlochVector):
    """Inverse of bloch_vector: (identity + a.sigma) / 2."""
    return 0.5 * (
        np.eye(2, dtype=complex) + vec.ax * PAULI_X + vec.ay * PAULI_Y + vec.az * PAULI_Z
    )


def fidelity_uhlmann_oracle(state0, state1):
    """Qubit fidelity via tr(rho0 rho1) + 2 sqrt(det rho0 det rho1).

    Independent of the Bloch-vector route; the two must agree to 1e-10
    on every valid qubit pair.
    """
    m0, m1 = _as_matrix(state0), _as_matrix(state1)
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
    mat = _as_matrix(rho)
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


def qfi_sld_oracle(rho, drho):
    """QFI via the symmetric logarithmic derivative.

    Solves drho = (L rho + rho L) / 2 in the eigenbasis of rho
    (L_ij = 2 drho_ij / (p_i + p_j) on the supported subspace), rebuilds L
    in the original basis and returns tr(rho L^2). Independent of the
    spectral route and its validated eigen-decomposition; the two agree to
    1e-8 whenever nothing is discarded.
    """
    mat = _as_matrix(rho)
    values, vectors = np.linalg.eigh(mat)
    elements = vectors.conj().T @ np.asarray(drho, dtype=complex) @ vectors
    pair_sums = values[:, None] + values[None, :]
    supported = pair_sums > EIGENSUM_FLOOR
    sld_eigen = np.where(supported, 2.0 * elements / np.where(supported, pair_sums, 1.0), 0.0)
    sld = vectors @ sld_eigen @ vectors.conj().T
    return float(np.trace(mat @ sld @ sld).real)


def qfi_pure_oracle(psi, dpsi):
    """Pure-state QFI, F = 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).

    For a normalized family Re<psi|dpsi> = 0, and the value agrees with
    qfi_spectral applied to the rank-1 density matrix.
    """
    psi = np.asarray(psi, dtype=complex)
    dpsi = np.asarray(dpsi, dtype=complex)
    value = 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)
    return float(max(value, 0.0))


def reduce_A(state):
    """Validated reduced state of qubit A; asserts that it is diagonal for
    the block-structured two-qubit states the package produces."""
    mat = _as_matrix(state)
    reduced = validate_density(trace_out_B(mat))
    block = np.maximum(np.abs(mat[..., 0, 2]), np.abs(mat[..., 1, 3])) <= 5e-11
    if np.any(block & (np.abs(reduced.matrix[..., 0, 1]) > 1e-10)):
        raise AssertionError("reduced state of a block-structured input is not diagonal")
    return reduced


def fock1_amplitudes(c: ScanConfig, times):
    """The package's one-qubit cavity amplitudes (b1, b2) at the fields of
    a fock1 config."""
    amplitudes = _fock1_amplitudes(c.detuning, c.coupling, c.photons, c.alpha)
    return amplitudes(np.asarray(times, dtype=float))


def fock2_amplitudes(c: ScanConfig, times):
    """The package's two-qubit cavity amplitudes (C_eg, C_ge, C_gg) at the
    fields of a fock2 config."""
    return _fock2_amplitudes(c.detuning, c.coupling, c.alpha)(np.asarray(times, dtype=float))


def d_rho_grid(channel, value, times) -> BlockState:
    """The stencil derivative of a channel's states at value over a time
    grid, as the evaluator composes it: derivative_taps, then derivative."""
    return derivative(*derivative_taps(channel, value),
                      np.atleast_1d(np.asarray(times, dtype=float)))


@dataclass(frozen=True)
class CramerRaoInput:
    """QFI plus the number of repeated experiments."""

    qfi: float
    experiments: int = 1

    def __post_init__(self):
        if self.qfi <= 0.0:
            raise ValueError("qfi must be positive")
        if self.experiments < 1:
            raise ValueError("experiment count must be at least 1")


def cramer_rao(bound_input: CramerRaoInput) -> float:
    """Best attainable uncertainty 1 / sqrt(experiments * qfi)."""
    return 1.0 / np.sqrt(bound_input.experiments * bound_input.qfi)


def find_max_sequential(dataset):
    """Golden-section refinement with one evaluator call per step: the
    loop find_max ran before it evaluated the steps in batches."""
    peak = int(np.argmax(dataset.qfi))
    best_t, best_q = float(dataset.t[peak]), float(dataset.qfi[peak])
    fn = lambda t: float(dataset.qfi_fn(np.array([t]))[0])
    inv_golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo = float(dataset.t[peak - 1]) if peak > 0 else best_t
    hi = float(dataset.t[peak + 1]) if peak + 1 < dataset.t.size else best_t
    x1 = hi - inv_golden * (hi - lo)
    x2 = lo + inv_golden * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    steps = 0
    while hi - lo > T_TOL:
        steps += 1
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_golden * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_golden * (hi - lo)
            f1 = fn(x1)
        for xc, fc in ((x1, f1), (x2, f2)):
            if fc > best_q:
                best_t, best_q = xc, fc
    return (best_t, best_q), steps


def random_qubit_state(rng, pure=False):
    """Uniformly random valid qubit state via a random Bloch vector."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = 1.0 if pure else rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    vec = BlochVector(*(radius * direction))
    return validate_density(density_from_bloch(vec))


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


def ptrace_b_bruteforce(mat):
    """Index-sum partial trace over qubit B (A-major basis order)."""
    out = np.zeros((2, 2), dtype=complex)
    for ia in range(2):
        for ja in range(2):
            for b in range(2):
                out[ia, ja] += mat[2 * ia + b, 2 * ja + b]
    return out


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


def d_rho_dense(channel, value, times):
    """The stencil derivative on dense complex matrices, the way it ran
    before the models emitted records: each stencil state divided by its
    trace, weighted, summed, divided by 2 h and symmetrized."""
    h, taps = stencil(value, channel.floor)
    diff = 0.0
    for offset, weight in taps:
        term = dense(channel.states(value + offset * h, times))
        term /= np.einsum("kii->k", term).real[:, None, None]
        diff = diff + term * weight
    diff /= 2.0 * h
    return 0.5 * (diff + np.conj(diff).swapaxes(-1, -2))
