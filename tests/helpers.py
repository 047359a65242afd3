"""Shared test utilities: random state factories and independent oracles.

The oracles here (closed-form 2x2 diagonalization, brute-force partial
traces, fixed-step amplitude integration, the SLD and pure-state QFI, the
Uhlmann fidelity, analytic reservoir derivatives) deliberately avoid the
package code paths they check.
"""

import numpy as np

from qfi_probe.probe_models import SqueezedParams, ThermalParams
from qfi_probe.qfi_engine import EIGENSUM_FLOOR
from qfi_probe.qstate import BlochVector, trace_out_B, validate_density

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _as_matrix(state):
    return np.asarray(getattr(state, "matrix", state), dtype=complex)


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


def _reservoir_derivative(occupation, d_occupation, gamma, coherence_rate, d_rate, alpha,
                          times):
    """Derivative of the one-qubit reservoir solution along a parameter that
    moves the occupation at d_occupation and the coherence rate at d_rate."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    width = 2.0 * occupation + 1.0
    steady = occupation / width
    pop_env = np.exp(-gamma * width * t)
    d11_docc = (1.0 / width**2) * (1.0 - pop_env) + (
        np.cos(alpha) ** 2 - steady
    ) * (-2.0 * gamma * t) * pop_env
    d11 = d_occupation * d11_docc
    coh = np.cos(alpha) * np.sin(alpha) * np.exp(-coherence_rate * t)
    d12 = -d_rate * t * coh
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = d11, d12, np.conj(d12), -d11
    return out


def thermal1_doccupation(p: ThermalParams, times):
    """Analytic derivative of the thermal solution w.r.t. the mean occupation."""
    m, g = p.mean_occupation, p.gamma
    return _reservoir_derivative(m, 1.0, g, g * (m + 0.5), g, p.alpha, times)


def squeezed1_dsqueezing(p: SqueezedParams, times):
    """Analytic derivative of the squeezed solution w.r.t. the squeezing strength.

    Uses d(occupation)/dr = 2 pair_correlation and
    d(pair_correlation)/dr = 2 occupation + 1.
    """
    occ, pair, g = p.occupation, p.pair_correlation, p.gamma
    d_occ, d_pair = 2.0 * pair, 2.0 * occ + 1.0
    rate = g * (occ + pair + 0.5)
    return _reservoir_derivative(occ, d_occ, g, rate, g * (d_occ + d_pair), p.alpha, times)


def state_at(states_fn, params, t):
    """One validated state of a batched model function: a grid of length 1."""
    return validate_density(states_fn(params, [t])[0])


def random_qubit_state(rng, pure=False):
    """Uniformly random valid qubit state via a random Bloch vector."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    radius = 1.0 if pure else rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    vec = BlochVector(*(radius * direction))
    return validate_density(density_from_bloch(vec))


def random_density(rng, dim):
    """Random full-support density matrix from a Wishart-style draw."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T + 0.05 * np.eye(dim)
    return validate_density(mat / mat.trace())


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


def ptrace_a_bruteforce(mat):
    """Index-sum partial trace over qubit A."""
    out = np.zeros((2, 2), dtype=complex)
    for ib in range(2):
        for jb in range(2):
            for a in range(2):
                out[ib, jb] += mat[2 * a + ib, 2 * a + jb]
    return out


def eig2_closed_form(mat):
    """Closed-form eigenvalues (descending) of a real-symmetric 2x2 matrix."""
    a, b, c = mat[0, 0].real, mat[1, 1].real, mat[0, 1]
    mean = 0.5 * (a + b)
    split = np.sqrt((0.5 * (a - b)) ** 2 + abs(c) ** 2)
    return np.array([mean + split, mean - split])


def _rk4_fixed(rhs, y0, t_end, steps):
    y = np.array(y0, dtype=complex)
    h = t_end / steps
    t = 0.0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        t += h
    return y


def fock1_amplitudes_ode(detuning, coupling, photons, alpha, t, steps=4000):
    """Rotating-frame amplitude equations for the one-qubit cavity model,
    integrated with fixed-step RK4."""
    g = coupling * np.sqrt(photons + 1.0)

    def rhs(time, y):
        phase = np.exp(1j * detuning * time)
        return np.array([-1j * g * phase * y[1], -1j * g * np.conj(phase) * y[0]])

    return _rk4_fixed(rhs, [np.cos(alpha), np.sin(alpha)], t, steps)


def fock2_amplitudes_ode(detuning, coupling, alpha, t, steps=4000):
    """Amplitude equations in the two-qubit single-excitation sector."""

    def rhs(time, y):
        phase = np.exp(1j * detuning * time)
        d2 = -1j * coupling * phase * y[2]
        d3 = -1j * coupling * phase * y[2]
        d4 = -1j * coupling * np.conj(phase) * (y[0] + y[1])
        return np.array([d2, d3, d4])

    y0 = [np.cos(alpha), np.sin(alpha), 0.0]
    return _rk4_fixed(rhs, y0, t, steps)
