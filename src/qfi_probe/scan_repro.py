"""Time sweeps of QFI and fidelity, maxima search, information-backflow
detection, and regeneration of the standard figure datasets (tags 1a-5c)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .probe_models import (
    ChannelModel,
    FockParams,
    SqueezedParams,
    ThermalParams,
    TwoQubitFockParams,
    TwoQubitReservoirParams,
    fock1_channel,
    fock2_channel,
    require_finite,
    reservoir_pair_channel,
    squeezed1_channel,
    thermal1_channel,
)
from .qfi_engine import (
    d_rho_grid,
    occupation_slope,
    qfi_spectral,
    temperature_from_occupation,
)
from .qstate import DensityMatrix, fidelity_bloch, trace_out_B, validate_density

MODEL_IDS = ("fock1", "thermal1", "squeezed1", "fock2", "thermal2", "squeezed2")
ESTIMANDS = ("detuning", "temperature", "squeezing")
MODEL_ESTIMAND = {
    "fock1": "detuning",
    "fock2": "detuning",
    "thermal1": "temperature",
    "thermal2": "temperature",
    "squeezed1": "squeezing",
    "squeezed2": "squeezing",
}
FIGURE_TAGS = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5a", "5b", "5c")
# One stack of states per evaluation block (1024 one-qubit or 256 two-qubit
# rows) stays in cache and below the allocator's mmap threshold, so blocks
# reuse heap memory instead of faulting in fresh pages on every scan.
BLOCK_BYTES = 64 * 1024
# 500 times the 2000-point figure grid; a larger count is rejected before
# the grid is allocated.
MAX_POINTS = 1_000_000


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ScanConfig:
    """One sweep configuration.

    The time grid starts strictly after zero because the QFI of every
    estimand vanishes at t = 0. Every number must be finite. alpha is
    given in radians and is not used by the two-qubit models, whose
    initial state is fixed; it is then left out of the metadata.
    """

    model_id: str
    estimand: str = ""
    t_min: float = 0.01
    t_max: float = 50.0
    points: int = 2000
    alpha: float = math.pi / 4.0
    detuning: float = 5.0
    coupling: float = 1.0
    photons: int = 0
    mean_occupation: float = 0.1
    gamma: float = 1.0
    squeezing: float = 0.1
    freq_scale: float = 1.0
    figure: str = ""
    series: str = ""

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise ValueError(f"unknown model {self.model_id!r}")
        expected = MODEL_ESTIMAND[self.model_id]
        if self.estimand == "":
            object.__setattr__(self, "estimand", expected)
        elif self.estimand != expected:
            raise ValueError(
                f"model {self.model_id!r} estimates {expected!r}, not {self.estimand!r}"
            )
        require_finite(self)
        if self.t_min <= 0.0:
            raise ValueError("t_min must be positive (QFI vanishes at t = 0)")
        if self.t_max <= self.t_min:
            raise ValueError("t_max must exceed t_min")
        if self.points < 2:
            raise ValueError("a scan needs at least 2 grid points")
        if self.points > MAX_POINTS:
            raise ValueError(f"points = {self.points} exceeds the limit of {MAX_POINTS}")


@dataclass(frozen=True)
class ScanDataset:
    """Rows of (t, qfi, fidelity) plus string metadata identifying the scan.

    qfi_fn, when present, evaluates the same QFI pipeline at an arbitrary
    time and backs the golden-section refinement in find_max.
    """

    t: np.ndarray
    qfi: np.ndarray
    fidelity: np.ndarray
    metadata: dict[str, str]
    qfi_fn: Callable[[float], float] | None = field(default=None, repr=False, compare=False)


def time_grid(config: ScanConfig) -> np.ndarray:
    return np.linspace(config.t_min, config.t_max, config.points)


def build_channel(config: ScanConfig) -> ChannelModel:
    if config.model_id == "fock1":
        return fock1_channel(
            FockParams(config.detuning, config.coupling, config.photons, config.alpha)
        )
    if config.model_id == "thermal1":
        return thermal1_channel(
            ThermalParams(
                config.mean_occupation, config.gamma, config.alpha, config.freq_scale
            )
        )
    if config.model_id == "squeezed1":
        return squeezed1_channel(
            SqueezedParams(config.squeezing, config.gamma, config.alpha)
        )
    if config.model_id == "fock2":
        return fock2_channel(
            TwoQubitFockParams(config.detuning, config.coupling, photons=config.photons)
        )
    if config.model_id == "thermal2":
        return reservoir_pair_channel(
            TwoQubitReservoirParams("thermal", config.mean_occupation, config.gamma)
        )
    return reservoir_pair_channel(
        TwoQubitReservoirParams("squeezed", config.squeezing, config.gamma)
    )


def _chain_factor(config: ScanConfig) -> float:
    """Squared occupation-temperature slope for temperature estimation."""
    if config.estimand != "temperature":
        return 1.0
    m = config.mean_occupation
    temperature = temperature_from_occupation(m, config.freq_scale) if m > 0.0 else 0.0
    if temperature == 0.0:
        # zero-temperature limit (also reached when 1/m overflows):
        # d(occupation)/dT vanishes faster than any power, so the
        # temperature QFI is identically zero
        return 0.0
    return occupation_slope(temperature, config.freq_scale) ** 2


def _atomic(channel: ChannelModel, state: DensityMatrix) -> np.ndarray:
    return trace_out_B(state.matrix) if channel.dim == 4 else state.matrix


def _evaluate(config: ScanConfig, times, qfi: bool = True, fidelity: bool = True):
    """QFI of the configured estimand over a time grid and the fidelity of
    the (reduced) atomic states against their t = 0 counterpart, each
    None when not asked for. The single path behind scans, point queries
    and maxima refinement. Rows are independent, so evaluating the grid
    in blocks of BLOCK_BYTES of states leaves every value unchanged."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError("times must be finite and nonnegative")
    channel = build_channel(config)
    chain = _chain_factor(config) if qfi else None
    if fidelity:
        reference = _atomic(channel, validate_density(channel.states(channel.value, [0.0])))
    rows = max(1, BLOCK_BYTES // (16 * channel.dim**2))
    qfi_parts, fidelity_parts = [], []
    for k in range(0, times.size, rows):
        block = times[k:k + rows]
        states = validate_density(channel.states(channel.value, block))
        if qfi:
            derivs = d_rho_grid(channel, channel.value, block)
            qfi_parts.append(qfi_spectral(states, derivs).value * chain)
        if fidelity:
            fidelity_parts.append(fidelity_bloch(reference, _atomic(channel, states)))
    return (np.concatenate(qfi_parts) if qfi else None,
            np.concatenate(fidelity_parts) if fidelity else None)


def scan(config: ScanConfig) -> ScanDataset:
    """Sweep the time grid, computing the estimand QFI and the fidelity of
    the (reduced) atomic state against its t = 0 counterpart."""
    times = time_grid(config)
    qfi, fidelity = _evaluate(config, times)
    metadata = _metadata(config, times, qfi)
    for arr in (times, qfi, fidelity):
        arr.flags.writeable = False
    return ScanDataset(times, qfi, fidelity, metadata, lambda t: point_qfi(config, t))


def point_qfi(config: ScanConfig, t: float) -> float:
    """Single-point QFI of the configured estimand (a grid of length 1)."""
    return float(_evaluate(config, [t], fidelity=False)[0][0])


def point_fidelity(config: ScanConfig, t: float) -> float:
    """Single-point fidelity between the initial and evolved atomic state."""
    return float(_evaluate(config, [t], qfi=False)[1][0])


def _metadata(config: ScanConfig, times: np.ndarray, qfi: np.ndarray) -> dict[str, str]:
    md = {"model": config.model_id, "estimand": config.estimand}
    if config.model_id.endswith("1"):
        md["alpha_deg"] = _fmt(math.degrees(config.alpha))
    md.update({
        "t_min": _fmt(config.t_min),
        "t_max": _fmt(config.t_max),
        "points": str(config.points),
    })
    if config.model_id in ("fock1", "fock2"):
        md["detuning"] = _fmt(config.detuning)
        md["coupling"] = _fmt(config.coupling)
        md["photons"] = str(config.photons)
    elif config.model_id in ("thermal1", "thermal2"):
        md["mean_occupation"] = _fmt(config.mean_occupation)
        md["gamma"] = _fmt(config.gamma)
        md["freq_scale"] = _fmt(config.freq_scale)
    else:
        md["squeezing"] = _fmt(config.squeezing)
        md["gamma"] = _fmt(config.gamma)
    if config.figure:
        md["figure"] = config.figure
    if config.series:
        md["series"] = config.series
    peak = int(np.argmax(qfi))
    md["max_index"] = str(peak)
    md["max_t"] = _fmt(times[peak])
    md["max_qfi"] = _fmt(qfi[peak])
    return md


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# width of the time bracket at which golden-section refinement stops
T_TOL = 1e-6


def find_max(dataset: ScanDataset) -> tuple[float, float]:
    """Grid argmax refined by golden-section search in the bracketing interval.

    The refinement uses the dataset's attached evaluator, qfi_fn; without
    one the grid maximum is returned. The refined value is never below the
    grid value.
    """
    if dataset.t.size == 0:
        raise ValueError("empty dataset")
    peak = int(np.argmax(dataset.qfi))
    best_t = float(dataset.t[peak])
    best_q = float(dataset.qfi[peak])
    fn = dataset.qfi_fn
    if fn is None or dataset.t.size < 2:
        return best_t, best_q
    lo = float(dataset.t[peak - 1]) if peak > 0 else best_t
    hi = float(dataset.t[peak + 1]) if peak + 1 < dataset.t.size else best_t
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > T_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = fn(x1)
        for xc, fc in ((x1, f1), (x2, f2)):
            if fc > best_q:
                best_t, best_q = xc, fc
    return best_t, best_q


def backflow_intervals(dataset: ScanDataset) -> list[tuple[float, float]]:
    """Maximal time intervals where the QFI strictly rises after a strictly
    falling stretch (information backflow); empty for monotone datasets.

    Forward differences within 1e-9 of the dataset's peak QFI (relative)
    count as flat, so plateau round-off does not register as revivals.
    """
    diffs = np.diff(dataset.qfi)
    t = dataset.t
    floor = 1e-9 * float(np.abs(dataset.qfi).max(initial=0.0))
    intervals: list[tuple[float, float]] = []
    run_start: int | None = None
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


_FOCK_WINDOW = (0.01, 100.0)
_RESERVOIR_WINDOW = (0.01, 50.0)


def _figure_configs(tag: str, points: int) -> list[ScanConfig]:
    alpha0 = 0.0
    alpha45 = math.pi / 4.0
    if tag in ("1a", "1b"):
        base = ScanConfig(
            "fock1", t_min=_FOCK_WINDOW[0], t_max=_FOCK_WINDOW[1], points=points,
            detuning=5.0, figure=tag,
        )
        return [
            replace(base, alpha=alpha0, series="alpha0"),
            replace(base, alpha=alpha45, series="alpha45"),
        ]
    if tag in ("2a", "2b"):
        base = ScanConfig(
            "thermal1", t_min=_RESERVOIR_WINDOW[0], t_max=_RESERVOIR_WINDOW[1],
            points=points, mean_occupation=0.1, gamma=1.0, figure=tag,
        )
        return [
            replace(base, alpha=alpha0, series="alpha0"),
            replace(base, alpha=alpha45, series="alpha45"),
        ]
    if tag in ("3a", "3b"):
        base = ScanConfig(
            "squeezed1", t_min=_RESERVOIR_WINDOW[0], t_max=_RESERVOIR_WINDOW[1],
            points=points, squeezing=0.1, gamma=1.0, figure=tag,
        )
        return [
            replace(base, alpha=alpha0, series="alpha0"),
            replace(base, alpha=alpha45, series="alpha45"),
        ]
    pair = {
        "4a": ("fock1", "fock2", _FOCK_WINDOW),
        "5a": ("fock1", "fock2", _FOCK_WINDOW),
        "4b": ("thermal1", "thermal2", _RESERVOIR_WINDOW),
        "5b": ("thermal1", "thermal2", _RESERVOIR_WINDOW),
        "4c": ("squeezed1", "squeezed2", _RESERVOIR_WINDOW),
        "5c": ("squeezed1", "squeezed2", _RESERVOIR_WINDOW),
    }
    if tag not in pair:
        raise ValueError(f"unknown figure tag {tag!r}")
    one, two, window = pair[tag]
    base = ScanConfig(
        one, t_min=window[0], t_max=window[1], points=points, alpha=alpha45,
        figure=tag, series="one_qubit",
    )
    return [base, replace(base, model_id=two, estimand="", series="two_qubit")]


def reproduce_figure(tag: str, points: int = 2000) -> list[ScanDataset]:
    """Regenerate the dataset(s) behind one figure tag.

    Two-curve figures (1a-3b) return the alpha = 0 and alpha = 45 degree
    series; the probe-comparison figures (4a-5c) return the one-qubit
    (alpha = 45 degrees) and two-qubit series on matched time grids.
    """
    return [scan(config) for config in _figure_configs(tag, points)]


def discrepancy_report(points: int = 2000) -> str:
    """Computed temperature and squeezing maxima next to externally quoted
    peak QFI values. Apart from the two-qubit temperature value, this model
    does not reproduce them (the unit conventions behind the quotes are
    unclear), so they are compared, never asserted."""
    window = dict(t_min=_RESERVOIR_WINDOW[0], t_max=_RESERVOIR_WINDOW[1], points=points)
    thermal1 = scan(
        ScanConfig("thermal1", alpha=math.pi / 4.0, mean_occupation=0.1, gamma=1.0, **window)
    )
    thermal2 = scan(ScanConfig("thermal2", mean_occupation=0.1, gamma=1.0, **window))
    squeezed2 = scan(ScanConfig("squeezed2", squeezing=0.1, gamma=1.0, **window))
    t_th1, q_th1 = find_max(thermal1)
    t_th2, q_th2 = find_max(thermal2)
    t_sq2, q_sq2 = find_max(squeezed2)
    lines = ["discrepancy report: computed maxima vs quoted reference values"]
    lines.append(
        f"  temperature QFI, one-qubit alpha=45deg: computed {q_th1:.5g}"
        f" at t={t_th1:.4g} vs quoted 80 (ratio {q_th1 / 80.0:.3g})"
    )
    lines.append(
        f"  temperature QFI, two-qubit: computed {q_th2:.5g} at t={t_th2:.4g}"
        f" vs quoted 5 (ratio {q_th2 / 5.0:.3g}; this one matches)"
    )
    for quote, target in (("A", 541.0), ("B", 1210.0)):
        lines.append(
            f"  squeezing QFI, two-qubit: computed {q_sq2:.5g} at t={t_sq2:.4g}"
            f" vs quoted {target:g} (two-qubit quote {quote},"
            f" ratio {q_sq2 / target:.3g})"
        )
    lines.append(
        "  the computed curves are emitted as-is; no tuning is applied to"
        " force agreement with the quoted values"
    )
    return "\n".join(lines)
