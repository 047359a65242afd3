"""Exact sympy forms of the probe models: the qubit master equation, its
extension to two independent qubits, the interaction-picture Hamiltonians
of the cavity models in their single-excitation sectors, and the closed
forms that probe_models evaluates, written out symbolically.

The tests prove, for symbolic occupation N, pair correlation M, decay rate
gamma, angle alpha and time t >= 0, that each reservoir closed form solves
its master equation identically and starts from the right state; and, for
symbolic detuning and coupling, that each cavity closed form solves
i d/dt C = H(t) C and starts from the right state. They then check the
package's kernels against these forms lambdified to numpy, and exact()
evaluates them at 50 digits: the tests' one oracle for the state, its
derivative, the QFI and the fidelity of all six models. A squeezed vacuum
of strength r has N = sinh(r)^2 and M = cosh(r) sinh(r); a thermal
reservoir has M = 0. block_qfi_forms writes the 2-block QFI in its
eigenvalue-pair and determinant forms, which the tests prove equal.
equilibrium_qfi gives the QFI of a qubit's steady state in its reservoir,
the plateau of the reservoir scans. Basis
orders follow qfi_probe.qstate: (|e>, |g>) for one qubit, A-major products
for two.
"""

import collections
import functools

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
    """The qubit closed form of probe_models.reservoir_qubit_kernel, from
    cos(alpha)|e> + sin(alpha)|g>; its coherence decays at
    gamma (N + M + 1/2)."""
    excited = _relaxation(sp.cos(ALPHA) ** 2)
    coherence = sp.cos(ALPHA) * sp.sin(ALPHA) * sp.exp(-GAMMA * (N + M + sp.S.Half) * T)
    return sp.Matrix([[excited, coherence], [coherence, 1 - excited]])


def pair_state():
    """The X-state closed form of probe_models.reservoir_pair_kernel,
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


def block_qfi_forms():
    """The QFI of a 2-block [[a, c], [conj(c), b]] = (w + r.sigma) / 2, for
    symbolic entries and derivatives (dw free, since X-state blocks trade
    weight), in two forms: the eigenvalue-pair form
    d_+^2 / p_+ + d_-^2 / p_- + (|dr|^2 - (dr.r / n)^2) / w, with
    p_pm = (w +- n) / 2 and d_pm = (dw +- dr.r / n) / 2, and the determinant
    form (|dr|^2 + ddet^2 / det) / w that qfi_engine.qfi_blocks evaluates.
    Returns (eigen-pair form, determinant form, n, |r|^2): the symbol n
    stands for the norm |r| = sqrt(|r|^2)."""
    a, b, re, im, da, db, dre, dim = sp.symbols("a b re im da db dre dim", real=True)
    norm = sp.Symbol("n", positive=True)
    weight, dweight = a + b, da + db
    bloch, dbloch = (a - b, 2 * re, 2 * im), (da - db, 2 * dre, 2 * dim)
    along = sum(x * dx for x, dx in zip(bloch, dbloch)) / norm
    dnorm_sq = sum(dx * dx for dx in dbloch)
    eigen_pairs = ((dweight + along) ** 2 / (2 * (weight + norm))
                   + (dweight - along) ** 2 / (2 * (weight - norm))
                   + (dnorm_sq - along**2) / weight)
    det = a * b - (re**2 + im**2)
    ddet = a * db + b * da - 2 * (re * dre + im * dim)
    return eigen_pairs, (dnorm_sq + ddet**2 / det) / weight, norm, sum(x * x for x in bloch)


# ---------------------------------------------------------------- the oracle

DIGITS = 50
# an eigenvalue pair summing below this is an identically empty level, such
# as fock2's |ee> or the zero eigenvalue of a pure block, at 50 digits
EMPTY_PAIR = mpmath.mpf("1e-40")
R = sp.Symbol("r", nonnegative=True)
SQUEEZED_VACUUM = {N: sp.sinh(R) ** 2, M: sp.cosh(R) * sp.sinh(R)}
# rho and drho as complex (d, d) arrays; qfi, fidelity and every block
# eigenvalue as 50-digit mpmath numbers
Exact = collections.namedtuple("Exact", "rho drho qfi fidelity eigenvalues")


def fock2_state():
    """The two-qubit state of the fock2 amplitudes after tracing the
    cavity: C_eg and C_ge share the empty cavity and stay coherent, C_gg
    holds one photon, and |ee> is empty."""
    c_eg, c_ge, c_gg = fock2_amplitudes()
    pair = sp.Matrix([0, c_eg, c_ge, 0])
    return pair * pair.H + sp.diag(0, 0, 0, c_gg * sp.conjugate(c_gg))


# model id: (its closed form, its 2-blocks, the symbols it reads with the
# channel value's first, and their values from a ScanConfig). |e,n> and
# |g,n+1> hold different photon numbers, so fock1's qubit state is diagonal.
_FORMS = {
    "fock1": (lambda: sp.diag(*(b * sp.conjugate(b) for b in fock1_amplitudes())), ((0, 1),),
              (DETUNING, EXCHANGE, ALPHA),
              lambda c: (c.detuning, 2 * mpmath.sqrt(c.photons + 1) * c.coupling, c.alpha)),
    "thermal1": (lambda: qubit_state().subs(M, 0), ((0, 1),), (N, GAMMA, ALPHA),
                 lambda c: (c.mean_occupation, c.gamma, c.alpha)),
    "squeezed1": (lambda: qubit_state().subs(SQUEEZED_VACUUM), ((0, 1),), (R, GAMMA, ALPHA),
                  lambda c: (c.squeezing, c.gamma, c.alpha)),
    "fock2": (fock2_state, ((1, 2), (0, 3)), (DETUNING, COUPLING, ALPHA),
              lambda c: (c.detuning, c.coupling, c.alpha)),
    "thermal2": (lambda: pair_state().subs(M, 0), ((1, 2), (0, 3)), (N, GAMMA),
                 lambda c: (c.mean_occupation, c.gamma)),
    "squeezed2": (lambda: pair_state().subs(SQUEEZED_VACUUM), ((1, 2), (0, 3)), (R, GAMMA),
                  lambda c: (c.squeezing, c.gamma)),
}


@functools.cache
def _lambdified(model_id):
    """mpmath functions of the form's symbols: with t, the row-major entries
    of rho, of its derivative in the channel value and of qubit A's state
    (traced over B); alone, the entries of A's state at t = 0."""
    form, _, symbols, _ = _FORMS[model_id]
    rho = form()
    reduced = rho if rho.rows == 2 else sp.Matrix(
        2, 2, lambda i, j: rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1])
    return (sp.lambdify(symbols + (T,), [*rho, *rho.diff(symbols[0]), *reduced], "mpmath",
                        cse=True),
            sp.lambdify(symbols, list(reduced.subs(T, 0)), "mpmath"))


@functools.cache
def occupation_slope(m, s):
    """dm/dT of m(T) = 1 / (exp(s/T) - 1) at T = s / ln(1 + 1/m), by
    mpmath.diff. At m = 0 (T = 0) every derivative of m(T) vanishes."""
    if m == 0.0:
        return mpmath.mpf(0)
    with mpmath.workdps(DIGITS):
        return mpmath.diff(lambda temperature: 1 / (mpmath.exp(s / temperature) - 1),
                           s / mpmath.log(1 + 1 / mpmath.mpf(m)))


@functools.cache
def equilibrium_forms():
    """The QFI of the qubit steady state diag(p, 1 - p), p = N / (2 N + 1)
    (the t -> oo limit of the relaxation), in the occupation N, and in the
    squeezing r of a squeezed vacuum (N = sinh(r)^2)."""
    steady = sp.limit(_relaxation(0), T, sp.oo)
    per_occupation = sp.factor(sp.diff(steady, N) ** 2 / (steady * (1 - steady)))
    occupation = SQUEEZED_VACUUM[N]
    per_squeezing = sp.simplify(per_occupation.subs(N, occupation) * sp.diff(occupation, R) ** 2)
    return per_occupation, per_squeezing


def equilibrium_qfi(kind, strength):
    """The QFI of one qubit's steady state in a "thermal" or "squeezed"
    reservoir at 50 digits: F_N = 1 / ((2N + 1)^2 N (N + 1)) times
    (dN/d theta)^2, which is (dm/dT)^2 at freq_scale 1 for the temperature
    (N = m) and gives 4 / cosh(2r)^2 for the squeezing r. Two qubits in
    their own reservoirs relax to the product of two such states, so their
    QFI is twice this."""
    per_occupation, per_squeezing = equilibrium_forms()
    with mpmath.workdps(DIGITS):
        value = mpmath.mpf(strength)
        if kind == "squeezed":
            return sp.lambdify(R, per_squeezing, "mpmath")(value)
        slope = occupation_slope(strength, 1.0)
        return sp.lambdify(N, per_occupation, "mpmath")(value) * slope**2


def _eigh(a, b, c):
    """The eigenvalues p_+, p_- of the Hermitian block [[a, c], [c*, b]]
    and orthonormal eigenvectors: (h + r, c*) or (c, r - h) for p_+, with
    h = (a - b) / 2 and r = sqrt(h^2 + |c|^2), whichever cancels less."""
    h, r = (a - b) / 2, mpmath.hypot((a - b) / 2, abs(c))
    if r == 0:
        return (a, b), ((1, 0), (0, 1))
    x, y = (h + r, mpmath.conj(c)) if h >= 0 else (c, r - h)
    x, y = (v / mpmath.hypot(abs(x), abs(y)) for v in (x, y))
    return ((a + b) / 2 + r, (a + b) / 2 - r), ((x, y), (-mpmath.conj(y), mpmath.conj(x)))


def exact(config, t, chain=True):
    """rho, its derivative in the channel value (detuning, m or r), the
    estimand QFI and the fidelity of qubit A against t = 0 for a ScanConfig
    at time t >= 0: the forms above, differentiated symbolically (one-sided
    at m = 0 or r = 0, where they are analytic), at 50 digits. The QFI sums
    2 |<i|drho|j>|^2 / (p_i + p_j) over each 2-block's eigenvalue pairs with
    p_i + p_j >= 1e-40, times (dm/dT)^2 for the temperature unless chain is
    False, which gives the occupation QFI. The fidelity, tr(rho0 rho) +
    2 sqrt(det rho0 det rho), is exact to 25 digits where rho0 is pure
    (det rho0 = 0 to 50). No qfi_probe code runs."""
    _, blocks, _, arguments = _FORMS[config.model_id]
    evaluate, initial = _lambdified(config.model_id)
    dim = 2 * len(blocks)
    with mpmath.workdps(DIGITS):
        fields = [mpmath.mpf(value) for value in arguments(config)]
        values = evaluate(*fields, mpmath.mpf(t))
        states, derivatives = values[:dim * dim], values[dim * dim:2 * dim * dim]
        qfi, eigenvalues = mpmath.mpf(0), ()
        for i, j in blocks:
            p, u = _eigh(*(mpmath.re(states[k * dim + k]) for k in (i, j)), states[i * dim + j])
            dblock = [[derivatives[k * dim + n] for n in (i, j)] for k in (i, j)]
            qfi += mpmath.fsum(
                2 * abs(mpmath.fsum(mpmath.conj(u[x][k]) * dblock[k][n] * u[y][n]
                                    for k in range(2) for n in range(2))) ** 2 / (p[x] + p[y])
                for x in range(2) for y in range(2) if p[x] + p[y] >= EMPTY_PAIR)
            eigenvalues += p
        if chain and config.model_id.startswith("thermal"):
            qfi *= occupation_slope(config.mean_occupation, config.freq_scale) ** 2
        (a0, c0, d0, b0), (a, c, d, b) = initial(*fields), values[2 * dim * dim:]
        root = mpmath.sqrt((a0 * b0 - c0 * d0) * (a * b - c * d))
        fidelity = mpmath.re(a0 * a + c0 * d + d0 * c + b0 * b + 2 * root)
        rho, drho = (np.array(v, dtype=complex).reshape(dim, dim) for v in (states, derivatives))
        return Exact(rho, drho, qfi, fidelity, eigenvalues)
