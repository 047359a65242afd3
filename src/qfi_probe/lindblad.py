"""Master-equation generators and a step-halving Runge-Kutta integrator.

The integrator is an accuracy oracle only: the tests check the one- and
two-qubit reservoir closed forms of probe_models against it (two
independent, identical single-qubit dissipators; no qubit-qubit coupling).
No scan or point query integrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .probe_models import TwoQubitReservoirParams

SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

TOL_MIN = 1e-12
TOL_MAX = 1e-6
DEFAULT_TOL = 1e-10
TRACE_DRIFT_LIMIT = 1e-9


class StepUnderflow(RuntimeError):
    """The controller pushed the step below 1e-12 of the integration span."""


@dataclass(frozen=True)
class LindbladGenerator:
    """Trace-preserving generator d(rho)/dt built from jump operators.

    Attributes:
        dim: state dimension.
        terms: (jump operator, rate >= 0) pairs contributing the standard
            dissipator rate * (L rho L^dag - {L^dag L, rho} / 2).
        cross_terms: (left, right, signed coefficient) triples contributing
            coeff * (left rho right) with no anticommutator part; used for
            the two-photon pieces of the squeezed reservoir.
    """

    dim: int
    terms: tuple[tuple[np.ndarray, float], ...] = ()
    cross_terms: tuple[tuple[np.ndarray, np.ndarray, float], ...] = field(default=())

    def __post_init__(self):
        for _, rate in self.terms:
            if rate < 0.0:
                raise ValueError(f"negative dissipator rate {rate}")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate d(rho)/dt for one state."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for op, rate in self.terms:
            op_dag = op.conj().T
            gram = op_dag @ op
            out += rate * (op @ rho @ op_dag - 0.5 * (gram @ rho + rho @ gram))
        for left, right, coeff in self.cross_terms:
            out += coeff * (left @ rho @ right)
        return out

    def superoperator(self) -> np.ndarray:
        """Matrix of the generator acting on row-major vectorized states.

        Built by applying the generator to every matrix unit, so it agrees
        with apply() by construction.
        """
        d = self.dim
        sup = np.zeros((d * d, d * d), dtype=complex)
        unit = np.zeros((d, d), dtype=complex)
        for k in range(d * d):
            i, j = divmod(k, d)
            unit[i, j] = 1.0
            sup[:, k] = self.apply(unit).reshape(-1)
            unit[i, j] = 0.0
        return sup


def thermal_generator(mean_occupation: float, gamma: float) -> LindbladGenerator:
    """Qubit dissipator with downward rate gamma (m + 1) and upward rate gamma m."""
    if mean_occupation < 0.0:
        raise ValueError("mean occupation must be nonnegative")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    terms = [(SIGMA_MINUS, gamma * (mean_occupation + 1.0))]
    if mean_occupation > 0.0:
        terms.append((SIGMA_PLUS, gamma * mean_occupation))
    return LindbladGenerator(dim=2, terms=tuple(terms))


def squeezed_generator(squeezing: float, gamma: float) -> LindbladGenerator:
    """Qubit dissipator for a squeezed vacuum reservoir at reference phase 0.

    Thermal-like rates with occupation sinh^2(r) plus the two-photon
    sandwich terms -gamma N (s- rho s- + s+ rho s+), N = cosh(r) sinh(r).
    """
    if squeezing < 0.0:
        raise ValueError("squeezing strength must be nonnegative")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")
    occupation = np.sinh(squeezing) ** 2
    pair = np.cosh(squeezing) * np.sinh(squeezing)
    terms = [(SIGMA_MINUS, gamma * (occupation + 1.0))]
    cross = []
    if squeezing > 0.0:
        terms.append((SIGMA_PLUS, gamma * occupation))
        cross = [
            (SIGMA_MINUS, SIGMA_MINUS, -gamma * pair),
            (SIGMA_PLUS, SIGMA_PLUS, -gamma * pair),
        ]
    return LindbladGenerator(dim=2, terms=tuple(terms), cross_terms=tuple(cross))


def two_qubit_generator(params: TwoQubitReservoirParams) -> LindbladGenerator:
    """Tensor extension of one single-qubit dissipator to each of two qubits."""
    if params.kind == "thermal":
        single = thermal_generator(params.strength, params.gamma)
    else:
        single = squeezed_generator(params.strength, params.gamma)
    eye = np.eye(2, dtype=complex)
    terms = []
    cross = []
    for op, rate in single.terms:
        terms.append((np.kron(op, eye), rate))
        terms.append((np.kron(eye, op), rate))
    for left, right, coeff in single.cross_terms:
        cross.append((np.kron(left, eye), np.kron(right, eye), coeff))
        cross.append((np.kron(eye, left), np.kron(eye, right), coeff))
    return LindbladGenerator(dim=4, terms=tuple(terms), cross_terms=tuple(cross))


def _rk4_step(sup: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    k1 = sup @ y
    k2 = sup @ (y + (0.5 * h) * k1)
    k3 = sup @ (y + (0.5 * h) * k2)
    k4 = sup @ (y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _advance(
    sup: np.ndarray,
    y: np.ndarray,
    span: float,
    tol: float,
    h: float,
    h_min: float,
    dim: int,
) -> tuple[np.ndarray, float]:
    """March y across span; each step is accepted once the full-step vs
    two-half-step discrepancy drops to tol. Returns (y, carried step)."""
    done = 0.0
    while span - done > 1e-14 * max(span, 1.0):
        h_eff = min(h, span - done)
        full = _rk4_step(sup, y, h_eff)
        half = _rk4_step(sup, _rk4_step(sup, y, 0.5 * h_eff), 0.5 * h_eff)
        disc = float(np.abs(full - half).max())
        if disc > tol:
            h = 0.5 * h_eff
            if h < h_min:
                raise StepUnderflow(
                    f"step {h:.3e} fell below 1e-12 of the span {span:.3e}"
                )
            continue
        y = half
        done += h_eff
        trace_drift = abs(y[:: dim + 1].sum() - 1.0)
        if trace_drift > TRACE_DRIFT_LIMIT:
            raise RuntimeError(f"trace drift {trace_drift:.3e} exceeds 1e-9")
        if disc < tol / 64.0:
            # the max keeps a span-clamped (shortened) step from shrinking
            # the carried step size
            h = max(h, 2.0 * h_eff)
    return y, h


def trajectory(
    generator: LindbladGenerator,
    rho0,
    times,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Integrate from t = 0 and record the state at each requested time.

    Args:
        generator: constant Lindblad generator.
        rho0: initial state (a matrix, or an object with a .matrix),
            trace 1.
        times: nondecreasing, nonnegative sample times.
        tol: per-step discrepancy bound, within [1e-12, 1e-6].

    Returns:
        Array of shape (len(times), dim, dim) with the raw (unvalidated)
        integrated states.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol = {tol:.3e} outside [{TOL_MIN:.0e}, {TOL_MAX:.0e}]")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("no sample times given")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise ValueError("sample times must be nondecreasing and nonnegative")
    mat0 = np.asarray(getattr(rho0, "matrix", rho0), dtype=complex)
    dim = generator.dim
    if mat0.shape != (dim, dim):
        raise ValueError(f"initial state shape {mat0.shape} does not match dim {dim}")
    sup = generator.superoperator()
    t_end = float(times[-1])
    h_min = 1e-12 * max(t_end, 1e-300)
    h = max(t_end / 64.0, h_min) if t_end > 0.0 else 1.0
    y = mat0.reshape(-1).copy()
    out = np.empty((times.size, dim, dim), dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(times):
        y, h = _advance(sup, y, float(t) - t_prev, tol, h, h_min, dim)
        out[k] = y.reshape(dim, dim)
        t_prev = float(t)
    return out


def integrate(
    generator: LindbladGenerator,
    rho0,
    t_end: float,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Evolve rho0 (a matrix, or an object with a .matrix) to t_end and
    return the raw (unvalidated) final matrix. Integration error can leave
    tiny negative eigenvalues, so a caller that validates the result
    relaxes the positivity tolerance.

    Raises:
        StepUnderflow: if error control drives the step below
            1e-12 * t_end.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    if t_end == 0.0:
        return np.array(getattr(rho0, "matrix", rho0), dtype=complex)
    return trajectory(generator, rho0, [t_end], tol)[-1]
