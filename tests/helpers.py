"""Shared test utilities: random state factories and independent oracles.

The oracles here (closed-form 2x2 diagonalization, brute-force partial
traces, fixed-step amplitude integration) deliberately avoid the package
code paths they check.
"""

import numpy as np

from qfi_probe.qstate import BlochVector, density_from_bloch, validate_density


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
