"""Exact sympy forms of the probe models: the qubit master equation, its
extension to two independent qubits, the interaction-picture Hamiltonians
of the cavity models in their single-excitation sectors, and the closed
forms that probe_models evaluates, written out symbolically.

The tests prove, for symbolic occupation N, pair correlation M, decay rate
gamma, angle alpha and time t >= 0, that each reservoir closed form solves
its master equation identically and starts from the right state; and, for
symbolic detuning and coupling, that each cavity closed form solves
i d/dt C = H(t) C and starts from the right state. They then check the
package's kernels against these forms lambdified to numpy. A squeezed
vacuum of strength r has N = sinh(r)^2 and M = cosh(r) sinh(r); a thermal
reservoir has M = 0. Basis orders follow qfi_probe.qstate: (|e>, |g>) for
one qubit, A-major products for two.
"""

import mpmath
import numpy as np
import sympy as sp

N, M = sp.symbols("N M", nonnegative=True)
GAMMA = sp.symbols("gamma", positive=True)
ALPHA = sp.symbols("alpha", real=True)
T = sp.symbols("t", nonnegative=True)
DETUNING = sp.symbols("Delta", real=True)
COUPLING, EXCHANGE = sp.symbols("g x", positive=True)

SIGMA_MINUS = sp.Matrix([[0, 0], [1, 0]])
SIGMA_PLUS = SIGMA_MINUS.T
EYE = sp.eye(2)


def _lindblad(op, rho):
    gram = op.H * op
    return op * rho * op.H - (gram * rho + rho * gram) / 2


def _dissipator(rho, lower, upper):
    """The reservoir dissipator with lowering operator `lower` and its
    adjoint `upper`: rates gamma (N + 1) down and gamma N up, plus the
    two-photon terms -gamma M (lower rho lower + upper rho upper)."""
    return (GAMMA * (N + 1) * _lindblad(lower, rho) + GAMMA * N * _lindblad(upper, rho)
            - GAMMA * M * (lower * rho * lower + upper * rho * upper))


def qubit_generator(rho):
    """d(rho)/dt of one qubit in its own reservoir."""
    return _dissipator(rho, SIGMA_MINUS, SIGMA_PLUS)


def pair_generator(rho):
    """d(rho)/dt of two uncoupled qubits, each in its own identical
    reservoir: the qubit dissipator on A (op x 1) plus on B (1 x op)."""
    kron = sp.kronecker_product
    return (_dissipator(rho, kron(SIGMA_MINUS, EYE), kron(SIGMA_PLUS, EYE))
            + _dissipator(rho, kron(EYE, SIGMA_MINUS), kron(EYE, SIGMA_PLUS)))


def _relaxation(excited0):
    """Excited population from excited0 at t = 0, relaxing toward
    N / (2 N + 1) at rate gamma (2 N + 1)."""
    steady = N / (2 * N + 1)
    return steady + (excited0 - steady) * sp.exp(-GAMMA * (2 * N + 1) * T)


def qubit_state():
    """The qubit closed form of probe_models._reservoir_qubit_kernel, from
    cos(alpha)|e> + sin(alpha)|g>; its coherence decays at
    gamma (N + M + 1/2)."""
    excited = _relaxation(sp.cos(ALPHA) ** 2)
    coherence = sp.cos(ALPHA) * sp.sin(ALPHA) * sp.exp(-GAMMA * (N + M + sp.S.Half) * T)
    return sp.Matrix([[excited, coherence], [coherence, 1 - excited]])


def pair_state():
    """The X-state closed form of probe_models._reservoir_pair_kernel,
    from the Bell state (|eg> + |ge>) / sqrt(2)."""
    up_e, up_g = _relaxation(1), _relaxation(0)
    down_e, down_g = 1 - up_e, 1 - up_g
    x_decay = sp.exp(-2 * GAMMA * (N + M + sp.S.Half) * T)
    y_decay = sp.exp(-2 * GAMMA * (N - M + sp.S.Half) * T)
    rho = sp.zeros(4, 4)
    rho[0, 0], rho[3, 3] = up_e * up_g, down_e * down_g
    rho[1, 1] = rho[2, 2] = (up_e * down_g + up_g * down_e) / 2
    rho[1, 2] = rho[2, 1] = (x_decay + y_decay) / 4
    rho[0, 3] = rho[3, 0] = (x_decay - y_decay) / 4
    return rho


def fock1_hamiltonian():
    """H(t) = (x/2)(exp(i Delta t)|e,n><g,n+1| + h.c.) on (|e,n>, |g,n+1>),
    with x = 2 g sqrt(n + 1)."""
    phase = sp.exp(sp.I * DETUNING * T)
    return EXCHANGE / 2 * sp.Matrix([[0, phase], [1 / phase, 0]])


def fock1_amplitudes():
    """The closed form of probe_models._fock1_amplitudes, the column
    (b1, b2) on (|e,n>, |g,n+1>) from cos(alpha)|e,n> + sin(alpha)|g,n+1>;
    it oscillates at w = sqrt(x^2 + Delta^2)."""
    w = sp.sqrt(EXCHANGE**2 + DETUNING**2)
    c, s = sp.cos(w * T / 2), sp.sin(w * T / 2)
    ca, sa = sp.cos(ALPHA), sp.sin(ALPHA)
    half = sp.exp(sp.I * DETUNING * T / 2)
    return sp.Matrix([half * (ca * (c - sp.I * DETUNING / w * s) - sp.I * sa * EXCHANGE / w * s),
                      (sa * (c + sp.I * DETUNING / w * s) - sp.I * ca * EXCHANGE / w * s) / half])


def fock2_hamiltonian():
    """H(t) = g exp(i Delta t)(|eg,0> + |ge,0>)<gg,1| + h.c. on
    (|eg,0>, |ge,0>, |gg,1>)."""
    phase = sp.exp(sp.I * DETUNING * T)
    return COUPLING * sp.Matrix([[0, 0, phase], [0, 0, phase], [1 / phase, 1 / phase, 0]])


def fock2_amplitudes():
    """The closed form of probe_models._fock2_amplitudes, the column
    (C_eg, C_ge, C_gg) from cos(alpha)|eg,0> + sin(alpha)|ge,0>: the
    antisymmetric part is dark, and the symmetric part exchanges with
    |gg,1> at w = sqrt(8 g^2 + Delta^2)."""
    w = sp.sqrt(8 * COUPLING**2 + DETUNING**2)
    c, s = sp.cos(w * T / 2), sp.sin(w * T / 2)
    ca, sa = sp.cos(ALPHA), sp.sin(ALPHA)
    half = sp.exp(sp.I * DETUNING * T / 2)
    symmetric = (ca + sa) / 2 * (c - sp.I * DETUNING / w * s) * half
    antisymmetric = (ca - sa) / 2
    gg = -(ca + sa) * 2 * sp.I * COUPLING / w * s / half
    return sp.Matrix([symmetric + antisymmetric, symmetric - antisymmetric, gg])


def evolves(amplitudes, hamiltonian) -> bool:
    """Whether i d/dt C - H(t) C is identically 0."""
    return vanishes(sp.I * amplitudes.diff(T) - hamiltonian * amplitudes)


def generic_matrix(name, dim=2):
    """A dim x dim matrix of independent complex symbols."""
    return sp.Matrix(dim, dim, lambda i, j: sp.Symbol(f"{name}{i}{j}"))


def vanishes(matrix) -> bool:
    """Whether every entry is identically 0. Expanded (which splits each
    exponential into a product of exponentials of single terms) and put
    over a common denominator, it must cancel to 0, or to a trigonometric
    remainder such as 1 - cos^2 - sin^2 that trigsimp takes to 0."""
    return all(sp.trigsimp(sp.cancel(sp.expand(entry))) == 0 for entry in matrix)


def solves(rho, generator) -> bool:
    """Whether d(rho)/dt - generator(rho) is identically 0."""
    return vanishes(rho.diff(T) - generator(rho))


def lambdified(rho):
    """rho as a numpy function of (N, M, gamma, alpha, times[K]) giving the
    complex array of shape (K, d, d)."""
    entries = sp.lambdify((N, M, GAMMA, ALPHA, T), list(rho), "numpy")

    def states(occupation, pair, gamma, alpha, times):
        times = np.asarray(times, dtype=float)
        values = entries(occupation, pair, gamma, alpha, times)
        stack = np.array([np.broadcast_to(v, times.shape) for v in values], dtype=complex)
        return np.moveaxis(stack.reshape(rho.shape + times.shape), -1, 0)

    return states


def lambdified_amplitudes(column, rate):
    """An amplitude column as a numpy function of (detuning, rate, alpha,
    times[K]) giving the complex array of shape (K, d); rate is the symbol
    EXCHANGE (fock1) or COUPLING (fock2)."""
    entries = sp.lambdify((DETUNING, rate, ALPHA, T), list(column), "numpy")

    def amplitudes(detuning, value, alpha, times):
        times = np.asarray(times, dtype=float)
        values = entries(detuning, value, alpha, times)
        return np.stack([np.broadcast_to(v, times.shape) for v in values], axis=-1).astype(complex)

    return amplitudes


def squeezed_states(rho, digits=40):
    """rho for a squeezed vacuum, N = sinh(r)^2 and M = cosh(r) sinh(r), as
    a function of (r, gamma, alpha, times[K]) giving the complex array of
    shape (K, d, d). mpmath evaluates it at `digits` significant digits,
    since in floats N - M + 1/2 loses every digit from r of about 10."""
    r = sp.Symbol("r", nonnegative=True)
    form = rho.subs({N: sp.sinh(r) ** 2, M: sp.cosh(r) * sp.sinh(r)})
    entries = sp.lambdify((r, GAMMA, ALPHA, T), list(form), "mpmath")

    def states(squeezing, gamma, alpha, times):
        with mpmath.workdps(digits):
            rows = [[complex(v) for v in entries(*map(mpmath.mpf, (squeezing, gamma, alpha, t)))]
                    for t in times]
        return np.array(rows).reshape((len(rows),) + rho.shape)

    return states
