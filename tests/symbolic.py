"""Exact sympy forms of the reservoir models: the qubit master equation, its
extension to two independent qubits, and the closed forms that
probe_models evaluates, written out symbolically.

The tests prove, for symbolic occupation N, pair correlation M, decay rate
gamma, angle alpha and time t >= 0, that each closed form solves its master
equation identically and starts from the right state, and then check the
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
