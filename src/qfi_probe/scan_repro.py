"""Time sweeps of QFI and fidelity, maxima search, information-backflow
detection, and regeneration of the standard figure datasets (tags 1a-5c)."""

from __future__ import annotations

import ctypes
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .probe_models import fock1_kernel, fock2_kernel, reservoir_pair_kernel, reservoir_qubit_kernel
from .qfi_engine import RECORD_POINTS, qfi_blocks, stencil_kernel
from .qstate import QUBIT_BLOCKS, X_BLOCKS, BlockState, fidelity_bloch, reduced_bloch
from .qstate import validate_blocks

# model id: (estimand, the ScanConfig fields the model reads in metadata
# order, its blocks, its kernel(points, config)). A scan reads nothing else.
MODELS = {
    "fock1": ("detuning", ("alpha", "detuning", "coupling", "photons"), QUBIT_BLOCKS,
              lambda v, c: fock1_kernel(v, c.coupling, c.photons, c.alpha)),
    "thermal1": ("temperature", ("alpha", "mean_occupation", "gamma", "freq_scale"), QUBIT_BLOCKS,
                 lambda v, c: reservoir_qubit_kernel("thermal", v, c.gamma, c.alpha)),
    "squeezed1": ("squeezing", ("alpha", "squeezing", "gamma"), QUBIT_BLOCKS,
                  lambda v, c: reservoir_qubit_kernel("squeezed", v, c.gamma, c.alpha)),
    "fock2": ("detuning", ("alpha", "detuning", "coupling"), X_BLOCKS,
              lambda v, c: fock2_kernel(v, c.coupling, c.alpha)),
    "thermal2": ("temperature", ("mean_occupation", "gamma", "freq_scale"), X_BLOCKS,
                 lambda v, c: reservoir_pair_kernel("thermal", v, c.gamma)),
    "squeezed2": ("squeezing", ("squeezing", "gamma"), X_BLOCKS,
                  lambda v, c: reservoir_pair_kernel("squeezed", v, c.gamma)),
}
MODEL_IDS = tuple(MODELS)
_MODEL_FIELDS = {name for _, names, _, _ in MODELS.values() for name in names}
# the domain of each model parameter as (comparison, bound) pairs, checked
# by ScanConfig; detuning takes any finite value
FIELD_DOMAINS = {
    "alpha": ((">=", 0.0), ("<=", 0.5 * math.pi)),
    "coupling": ((">", 0.0),),
    "photons": ((">=", 0),),
    "mean_occupation": ((">=", 0.0),),
    "gamma": ((">", 0.0),),
    "squeezing": ((">=", 0.0),),
    "freq_scale": ((">", 0.0),),
}
_COMPARISONS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
# estimand: (its ScanConfig field, and the stencil floor: its ">=" bound or None)
_ESTIMAND_FIELDS = {estimand: (name, dict(FIELD_DOMAINS.get(name, ())).get(">="))
                    for estimand, name in (("detuning", "detuning"), ("squeezing", "squeezing"),
                                           ("temperature", "mean_occupation"))}
FIGURE_TAGS = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5a", "5b", "5c")
# Bound on the kernel record of one evaluation block: RECORD_POINTS points
# of 4 (one qubit) or 8 (two qubits) doubles per row; a 2000-point scan and
# its t = 0 reference take one block.
BLOCK_BYTES = 512 * 1024
# Fixed glibc malloc thresholds: left dynamic, the trim threshold follows
# the largest block freed so far, below one block's transient arrays, so
# every scan gave the heap top back to the kernel and faulted it in again
# page by page. A no-op off glibc or without mallopt.
try:
    _mallopt = ctypes.CDLL(None).mallopt if os.confstr("CS_GNU_LIBC_VERSION") else None
except (AttributeError, ValueError, OSError):  # no confstr, no such name, not glibc, no mallopt
    _mallopt = None
if _mallopt is not None:
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 8 * BLOCK_BYTES)  # M_MMAP_THRESHOLD
    _mallopt(-1, 16 * BLOCK_BYTES)  # M_TRIM_THRESHOLD
# 500 times the 2000-point figure grid; a larger count is rejected before
# the grid is allocated.
MAX_POINTS = 1_000_000
_DBL_MAX = np.float64(sys.float_info.max)  # np.float32 compares with it in double precision


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _typed_degrees(alpha: float) -> float:
    """The degree value with the fewest significant digits that
    math.radians maps to alpha, so that an angle given in degrees is echoed
    as given; math.degrees(alpha) where no such value exists."""
    degrees = math.degrees(alpha)
    for digits in range(1, 18):
        shortest = float(f"{degrees:.{digits}g}")
        if math.radians(shortest) == alpha:
            return shortest
    return degrees


def require_finite(config) -> None:
    """Reject a field, model_id aside, that is not a real number, or is a
    NaN, an infinity or an int past the doubles."""
    for f in _FIELDS[1:]:
        value = getattr(config, f.name)
        # float and int are tested in C before the ABC, with its verdict
        if not isinstance(value, (float, int, numbers.Real)):
            raise ValueError(f"{f.name} = {value!r} is not a real number")
        if not abs(value) <= (sys.float_info.max if isinstance(value, (float, int)) else _DBL_MAX):
            raise ValueError(f"{f.name} = {value} is not finite")


def require_domains(config) -> None:
    """Reject a field outside its FIELD_DOMAINS entry."""
    for name, domain in FIELD_DOMAINS.items():
        value = getattr(config, name)
        for comparison, bound in domain:
            if not _COMPARISONS[comparison](value, bound):
                raise ValueError(f"{name} = {value!r} is not {comparison} {bound!r}")


def require_count(name: str, value) -> None:
    """Reject anything but a nonnegative integer (a bool is no count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} = {value!r} is not an integer")
    if value < 0:
        raise ValueError(f"{name} = {value} is negative")


class UnreadField(ValueError):
    """A model field set away from its default that the model does not read."""

    def __init__(self, model_id: str, name: str):
        super().__init__(f"model {model_id!r} does not read {name}")
        self.name = name


@dataclass(frozen=True)
class ScanConfig:
    """One sweep configuration.

    The time grid starts strictly after zero because the QFI of every
    estimand vanishes at t = 0. Every field but model_id must be a finite
    real number. alpha is given in radians. The model fixes the estimand,
    and MODELS lists the model fields it reads; a model field it does not
    read must keep its default (UnreadField), and the metadata names only
    the fields read. Every model field must lie in its FIELD_DOMAINS entry.
    """

    model_id: str
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

    def __post_init__(self):
        if self.model_id not in MODELS:
            raise ValueError(f"unknown model {self.model_id!r}")
        require_finite(self)
        for name, default in _UNREAD[self.model_id]:
            if getattr(self, name) != default:
                raise UnreadField(self.model_id, name)
        if self.t_min <= 0.0:
            raise ValueError("t_min must be positive (QFI vanishes at t = 0)")
        if self.t_max <= self.t_min:
            raise ValueError("t_max must exceed t_min")
        require_count("points", self.points)
        require_count("photons", self.photons)
        require_domains(self)
        if self.points < 2:
            raise ValueError("a scan needs at least 2 grid points")
        if self.points > MAX_POINTS:
            raise ValueError(f"points = {self.points} exceeds the limit of {MAX_POINTS}")

    @property
    def estimand(self) -> str:
        return MODELS[self.model_id][0]


# per model, the (name, default) of each model field it does not read, in field order
_FIELDS = fields(ScanConfig)
_UNREAD = {model: tuple((f.name, f.default) for f in _FIELDS if f.name in _MODEL_FIELDS
                        and f.name not in read) for model, (_, read, _, _) in MODELS.items()}


@dataclass(frozen=True)
class ScanDataset:
    """Rows of (t, qfi, fidelity) plus string metadata identifying the scan.

    qfi_fn, when present, maps times[N] to qfi[N] through the scan's own
    evaluator, one kernel call per block with every row independent; it
    backs find_max's refinement of a peak it does not skip, one call per
    nested grid of ZOOM_POINTS points.
    """

    t: np.ndarray
    qfi: np.ndarray
    fidelity: np.ndarray
    metadata: dict[str, str]
    qfi_fn: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )


def time_grid(config: ScanConfig) -> np.ndarray:
    return np.linspace(config.t_min, config.t_max, config.points)


def _chain_factor(config: ScanConfig) -> float:
    """(dm/dT)^2 for temperature estimation, where the occupation at
    temperature T is m = 1 / (exp(s/T) - 1) and s is freq_scale. Taken
    from m and s without forming T: dm/dT = g / s with
    g = m (m + 1) ln^2(1 + 1/m), which lies in [0, 1). ValueError where
    (g / s)^2 under- or overflows."""
    if config.estimand != "temperature":
        return 1.0
    m, s = config.mean_occupation, config.freq_scale
    log = math.log1p(1.0 / m) if m > 0.0 else math.inf
    g = (m * log) * ((m + 1.0) * log) if log < math.inf else 0.0
    if g * g == 0.0:
        # zero-temperature limit (also where 1/m overflows): dm/dT vanishes
        # faster than any power of T, so the temperature QFI is zero
        return 0.0
    slope = g / s
    factor = slope * slope  # not slope ** 2, which raises OverflowError
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"the temperature chain factor at freq_scale = {s!r}"
                         f" and mean_occupation = {m!r} under- or overflows")
    return factor


def _evaluator(config: ScanConfig):
    """The single path behind scans, point queries and maxima refinement:
    a function of (times, qfi=True, fidelity=True) giving the QFI of the
    configured estimand over a time grid and the fidelity of the (reduced)
    atomic states against their t = 0 counterpart, each None when not
    asked for. The chain factor and the kernel are built once per
    evaluator. A block of times is one kernel call: the states in record[0]
    and, for the QFI, their estimand derivative in record[1]. A fidelity
    evaluation puts t = 0 in row 0 of its first block for the reference,
    and nothing is kept between calls. Rows are independent, so blocks of
    BLOCK_BYTES, each written into its slice of one output array per
    quantity, leave every value unchanged."""
    estimand, _, support, model_kernel = MODELS[config.model_id]
    name, floor = _ESTIMAND_FIELDS[estimand]
    chain = _chain_factor(config)
    kernel = stencil_kernel(model_kernel, config, support, getattr(config, name), floor)
    rows = BLOCK_BYTES // (8 * RECORD_POINTS * 4 * len(support))

    def evaluate(times, qfi: bool = True, fidelity: bool = True):
        times = np.asarray(times, dtype=float)
        if not (np.isfinite(times) & (times >= 0.0)).all():
            raise ValueError("times must be finite and nonnegative")
        skip = int(fidelity)
        times = np.concatenate((np.zeros(skip), times)) if skip else times
        qfi_out = np.empty(times.size) if qfi else None
        fidelity_out = np.empty(times.size) if fidelity else None
        for k in range(0, times.size, rows):
            record = kernel(times[k:k + rows], qfi)
            states = validate_blocks(BlockState(support, record[0]))
            if qfi:
                value = qfi_blocks(states, BlockState(support, record[1])).value
                np.multiply(value, chain, out=qfi_out[k:k + rows])
            if fidelity:
                if k == 0:
                    reference = reduced_bloch(BlockState(support, states.values[:, :1]))
                fidelity_out[k:k + rows] = fidelity_bloch(reference, reduced_bloch(states))
        return (qfi_out[skip:] if qfi else None, fidelity_out[skip:] if fidelity else None)

    return evaluate


def scan(config: ScanConfig) -> ScanDataset:
    """Sweep the time grid, computing the estimand QFI and the fidelity of
    the (reduced) atomic state against its t = 0 counterpart."""
    times = time_grid(config)
    evaluate = _evaluator(config)
    qfi, fidelity = evaluate(times)
    metadata = _metadata(config, times, qfi)
    for arr in (times, qfi, fidelity):
        arr.flags.writeable = False
    return ScanDataset(times, qfi, fidelity, metadata,
                       lambda ts: evaluate(ts, fidelity=False)[0])


def point_qfi(config: ScanConfig, t: float) -> float:
    """Single-point QFI of the configured estimand (a grid of length 1)."""
    return float(_evaluator(config)([t], fidelity=False)[0][0])


def point_fidelity(config: ScanConfig, t: float) -> float:
    """Single-point fidelity between the initial and evolved atomic state."""
    return float(_evaluator(config)([t], qfi=False)[1][0])


def _metadata(config: ScanConfig, times: np.ndarray, qfi: np.ndarray) -> dict[str, str]:
    read = MODELS[config.model_id][1]
    md = {"model": config.model_id, "estimand": config.estimand}
    if "alpha" in read:
        md["alpha_deg"] = _fmt(_typed_degrees(config.alpha))
    md.update(t_min=_fmt(config.t_min), t_max=_fmt(config.t_max), points=str(config.points))
    for name in read:
        if name != "alpha":
            value = getattr(config, name)
            md[name] = str(value) if name == "photons" else _fmt(value)
    peak = int(np.argmax(qfi))
    md.update(max_index=str(peak), max_t=_fmt(times[peak]), max_qfi=_fmt(qfi[peak]))
    return md


FLAT = 1e-9  # QFI spread, relative to the largest |qfi|, that counts as flat
# width of the bracket around the argmax at which refinement stops
T_TOL = 1e-6
# points of each nested grid: the argmax's two-step bracket in 62 steps
ZOOM_POINTS = 63


def find_max(dataset: ScanDataset) -> tuple[float, float]:
    """Grid argmax refined by nested grids over the bracketing interval.

    The refinement uses the dataset's attached evaluator, qfi_fn: one call
    per level on ZOOM_POINTS points spanning the neighbours [t[p - 1],
    t[p + 1]] of the last level's argmax p. Every level stops by the same
    rules, and with no qfi_fn the grid maximum is returned with no call. A
    peak is flat when its window of 3 to 5 values, two steps each side at
    most, lies within FLAT times the largest |qfi| of the dataset: refining
    a quadratic peak would gain at most FLAT/4 (FLAT/8 at a grid end), and
    on a plateau t is the first argmax. A rising end is a peak at a grid
    end where the parabola through the 3 end values does not fall:
    refining would gain nothing. A sharp peak stops at a bracket no wider
    than T_TOL. A level that reads below the last one's maximum (its
    midpoint can miss t[p] by an ulp) returns the last argmax, so the result
    is never below the grid value.
    """
    if dataset.t.size == 0:
        raise ValueError("empty dataset")
    t, qfi, fn = dataset.t, dataset.qfi, dataset.qfi_fn
    tol = FLAT * np.abs(qfi).max()
    while True:
        peak = int(np.argmax(qfi))
        window = qfi[max(peak - 2, 0):peak + 3]
        flat = window.size >= 3 and qfi[peak] - window.min() <= tol
        end = window[::-1] if peak == t.size - 1 else window if peak == 0 else window[:0]
        rising = end.size == 3 and 3 * end[0] - 4 * end[1] + end[2] >= 0
        lo, hi = t[max(peak - 1, 0)], t[min(peak + 1, t.size - 1)]
        if fn is None or flat or rising or hi - lo <= T_TOL:
            return float(t[peak]), float(qfi[peak])
        zoom = np.linspace(lo, hi, ZOOM_POINTS)
        values = fn(zoom)
        if values.max() < qfi[peak]:
            return float(t[peak]), float(qfi[peak])
        t, qfi = zoom, values


def backflow_intervals(dataset: ScanDataset) -> list[tuple[float, float]]:
    """Maximal time intervals where the QFI strictly rises after a strictly
    falling stretch (information backflow); empty for monotone datasets.

    Forward differences within FLAT of the dataset's peak QFI (relative)
    count as flat, so plateau round-off does not register as revivals. A
    run of rising steps counts when the last nonflat step before it falls;
    it ends at the point where the rise stops.
    """
    diffs = dataset.qfi[1:] - dataset.qfi[:-1]
    floor = FLAT * float(np.abs(dataset.qfi).max(initial=0.0))
    rising = diffs > floor
    falling = diffs < -floor
    padded = np.concatenate(([False], rising, [False]))  # changes where a run starts and ends
    starts, ends = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    nonflat = np.flatnonzero(rising | falling)
    before = np.searchsorted(nonflat, starts) - 1
    counted = (before >= 0) & falling[nonflat[np.maximum(before, 0)]]
    t = dataset.t
    return list(zip(t[starts[counted]].tolist(), t[ends[counted]].tolist()))


def _figure_configs(tag: str, points: int) -> list[tuple[str, ScanConfig]]:
    """(series, config) pairs: figures 1-3 show the one-qubit probe of kind
    1, 2 or 3 (cavity, thermal, squeezed) at alpha 0 and 45 degrees, figures
    4-5 the one- and two-qubit probes of kind a, b or c. Cavity series run to
    t = 100, reservoir series to 50; all else is a ScanConfig default."""
    if tag not in FIGURE_TAGS:
        raise ValueError(f"unknown figure tag {tag!r}")
    kinds = ("fock", "thermal", "squeezed")
    pair = tag[0] in "45"
    kind = kinds["abc".index(tag[1])] if pair else kinds[int(tag[0]) - 1]
    base = dict(points=points, t_max=100.0 if kind == "fock" else 50.0)
    if not pair:
        return [("alpha0", ScanConfig(kind + "1", alpha=0.0, **base)),
                ("alpha45", ScanConfig(kind + "1", **base))]
    return [("one_qubit", ScanConfig(kind + "1", **base)),
            ("two_qubit", ScanConfig(kind + "2", **base))]


def reproduce_figure(tag: str, points: int = ScanConfig.points) -> list[ScanDataset]:
    """Regenerate the dataset(s) behind one figure tag.

    Two-curve figures (1a-3b) return the alpha = 0 and alpha = 45 degree
    series; the probe-comparison figures (4a-5c) return the one-qubit
    (alpha = 45 degrees) and two-qubit series on matched time grids. The
    metadata names the figure and the series before the maximum.
    """
    datasets = []
    for series, config in _figure_configs(tag, points):
        datasets.append(dataset := scan(config))
        peak = {key: dataset.metadata.pop(key) for key in ("max_index", "max_t", "max_qfi")}
        dataset.metadata.update(figure=tag, series=series, **peak)
    return datasets


def discrepancy_report(points: int = ScanConfig.points) -> str:
    """Computed temperature and squeezing maxima next to externally quoted
    peak QFI values. Apart from the two-qubit temperature value, this model
    does not reproduce them (the unit conventions behind the quotes are
    unclear), so they are compared, never asserted."""
    thermal1 = scan(ScanConfig("thermal1", points=points))
    thermal2 = scan(ScanConfig("thermal2", points=points))
    squeezed2 = scan(ScanConfig("squeezed2", points=points))
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
