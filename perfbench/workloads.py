"""The benchmark's three closed-loop workloads: inputs, operations, checks.

Each workload builds its inputs one pass at a time from the seed, runs an
operation per input through the package's stable entry points (`ScanConfig`,
`scan`, `reproduce_figure`, `find_max`, `backflow_intervals`, `point_qfi`,
`point_fidelity`, `emit_csv`, `parse_csv`, `cli.run`) and checks every
result afterwards, outside the timed region. Functions are looked up on the
package modules at call time, so a traced run sees the tracer's wrappers.

* figures: the 12 figure tags at 2000 points, each emitted as CSV, with
  maxima and backflow intervals per series. The seed only shuffles the tag
  order. This is the paper's product, the only workload that writes CSV,
  and the only one whose inputs repeat work (tags 4x and 5x compute the
  same series).
* reservoir_pairs: 2000-point scans of thermal2 and squeezed2 with seeded
  reservoir parameters, each followed by find_max and backflow_intervals.
  The RK4 integrator dominates here.
* point_queries: in-process `qfi` / `fidelity` CLI queries spread over all
  six models, one state at a time; argument parsing sets the median and the
  integrated two-qubit reservoir models set the tail.

Inputs are stratified within a pass (every parameter range is cut into as
many equal bins as the pass has draws of it, one draw per bin), so passes
from different seeds carry the same mix of work.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qfi_probe import cli, scan_repro
from warmup import MODELS

FIGURE_TAGS = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "4c", "5a", "5b", "5c")
FIGURE_POINTS = 2000
SCAN_POINTS = 2000
SCANS_PER_PASS = 12
QUERY_COMMANDS = ("qfi", "fidelity")
QUERIES_PER_STRATUM = 40
T_QUERY = (0.01, 50.0)

# Parameter ranges shared by the scan and query generators.
DETUNING = (1.0, 10.0)
COUPLING = (0.5, 2.0)
OCCUPATION = (0.02, 1.0)
SQUEEZING = (0.02, 0.5)
GAMMA = (0.5, 2.0)
ALPHA_DEG = (0.0, 90.0)
T_MAX_SCAN = (10.0, 50.0)

INTEGRATED_MODELS = ("thermal2", "squeezed2")
CLOSED_FORM_RTOL = 1e-12
INTEGRATOR_RTOL = 1e-8
# point_qfi on thermal2/squeezed2 integrates 0 -> t in one adaptive sweep per
# stencil state; where the sweeps take different step sequences the
# finite-difference derivative is off by up to 2.2e-6 relative (1% of
# thermal2 draws exceed 1e-8), while scan rows stay within 2.4e-10 of an
# exact matrix exponential. The QFI cross-check therefore only catches gross
# errors; the worst deviation of each run is reported in the run record.
POINT_QFI_RTOL = 1e-4
POINT_FIDELITY_ATOL = 1e-8
ROWS_CHECKED_PER_SCAN = 2

REFERENCE = Path(__file__).resolve().parent / "reference" / "figures_2000.npz"


def _rng(seed: int, pass_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, stream])


def stratified(rng: np.random.Generator, bounds: tuple[float, float], n: int) -> np.ndarray:
    """n draws from [lo, hi], one in each of n equal bins, in random order."""
    lo, hi = bounds
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def domain_problems(label: str, qfi, fidelity) -> list[str]:
    """Values must be finite, QFI >= 0 and fidelity within [0, 1]."""
    qfi = np.asarray(qfi, dtype=float)
    fidelity = np.asarray(fidelity, dtype=float)
    problems = []
    if not (np.all(np.isfinite(qfi)) and np.all(np.isfinite(fidelity))):
        problems.append(f"{label}: non-finite value")
    elif np.any(qfi < 0.0):
        problems.append(f"{label}: negative QFI {qfi.min():.3e}")
    elif np.any(fidelity < 0.0) or np.any(fidelity > 1.0):
        problems.append(f"{label}: fidelity outside [0, 1]")
    return problems


def excess(actual, expected, rtol: float) -> float:
    """Largest deviation relative to the expected series' largest
    magnitude, in units of rtol: at most 1 passes."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return math.inf
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    return float(np.abs(actual - expected).max(initial=0.0)) / scale / rtol


# ---------------------------------------------------------------- figures


def load_reference(path: Path = REFERENCE) -> dict[str, np.ndarray]:
    """Reference rows per series, keyed "<tag>/<series>", shape (3, points):
    t, qfi and fidelity."""
    with np.load(path, allow_pickle=False) as data:
        return {key: data[key] for key in data.files}


def figure_reference(tags=FIGURE_TAGS, points: int = FIGURE_POINTS) -> dict[str, np.ndarray]:
    """Compute the reference the figures workload compares against."""
    reference = {}
    for tag in tags:
        for dataset in scan_repro.reproduce_figure(tag, points=points):
            key = f"{tag}/{dataset.metadata['series']}"
            reference[key] = np.stack([dataset.t, dataset.qfi, dataset.fidelity])
    return reference


@dataclass
class FiguresWorkload:
    seed: int
    out_dir: Path
    reference: dict[str, np.ndarray]
    tags: tuple[str, ...] = FIGURE_TAGS
    points: int = FIGURE_POINTS
    bytes_out: int = 0  # what the cli layer wrote: CSV files, captured stdout

    def make_pass(self, pass_index: int) -> list[str]:
        order = _rng(self.seed, pass_index, 0).permutation(len(self.tags))
        return [self.tags[k] for k in order]

    def execute(self, tag: str):
        results = []
        for dataset in scan_repro.reproduce_figure(tag, points=self.points):
            series = dataset.metadata["series"]
            path = self.out_dir / f"fig{tag}_{series}.csv"
            cli.emit_csv(dataset, path)
            maximum = scan_repro.find_max(dataset)
            scan_repro.backflow_intervals(dataset)
            results.append((series, dataset.metadata["model"], path, maximum))
        return results

    def check(self, tag: str, results) -> list[str]:
        problems = []
        for series, model, path, (_, max_qfi) in results:
            key = f"{tag}/{series}"
            self.bytes_out += path.stat().st_size
            parsed = cli.parse_csv(path)
            rows = np.stack([parsed.t, parsed.qfi, parsed.fidelity])
            problems += domain_problems(key, parsed.qfi, parsed.fidelity)
            expected = self.reference.get(key)
            if expected is None:
                problems.append(f"{key}: no reference series")
                continue
            rtol = INTEGRATOR_RTOL if model in INTEGRATED_MODELS else CLOSED_FORM_RTOL
            for name, k in (("t", 0), ("qfi", 1), ("fidelity", 2)):
                off = excess(rows[k], expected[k], rtol)
                if not off <= 1.0:
                    problems.append(f"{key}: {name} off the reference by {off:.3g} x {rtol:g}")
            if not max_qfi >= float(parsed.qfi.max()):
                problems.append(f"{key}: find_max {max_qfi!r} below the grid maximum")
        return problems

    def points_of(self, tag: str) -> int:
        # every figure tag has two series
        return 2 * self.points


# -------------------------------------------------------- reservoir_pairs


@dataclass(frozen=True)
class ScanInput:
    model: str
    params: dict
    rows: tuple[int, ...]

    def config(self):
        return scan_repro.ScanConfig(self.model, points=SCAN_POINTS, **self.params)


def reservoir_inputs(seed: int, pass_index: int) -> list[ScanInput]:
    """Half thermal2, half squeezed2 scans, parameters stratified per model."""
    rng = _rng(seed, pass_index, 1)
    per_model = SCANS_PER_PASS // 2
    inputs = []
    for model, key, bounds in (
        ("thermal2", "mean_occupation", OCCUPATION),
        ("squeezed2", "squeezing", SQUEEZING),
    ):
        strength = stratified(rng, bounds, per_model)
        gamma = stratified(rng, GAMMA, per_model)
        t_max = stratified(rng, T_MAX_SCAN, per_model)
        for k in range(per_model):
            rows = tuple(int(r) for r in rng.choice(SCAN_POINTS, ROWS_CHECKED_PER_SCAN, replace=False))
            params = {key: float(strength[k]), "gamma": float(gamma[k]), "t_max": float(t_max[k])}
            inputs.append(ScanInput(model, params, rows))
    return [inputs[k] for k in rng.permutation(len(inputs))]


@dataclass
class ReservoirPairsWorkload:
    seed: int
    bytes_out: int = 0  # what the cli layer wrote: CSV files, captured stdout
    worst_point_qfi: float = 0.0  # largest |row - point_qfi| / series peak

    def make_pass(self, pass_index: int) -> list[ScanInput]:
        return reservoir_inputs(self.seed, pass_index)

    def execute(self, item: ScanInput):
        dataset = scan_repro.scan(item.config())
        maximum = scan_repro.find_max(dataset)
        scan_repro.backflow_intervals(dataset)
        return dataset, maximum

    def check(self, item: ScanInput, result) -> list[str]:
        dataset, (_, max_qfi) = result
        label = f"{item.model} {item.params}"
        problems = domain_problems(label, dataset.qfi, dataset.fidelity)
        if not max_qfi >= float(np.max(dataset.qfi)):
            problems.append(f"{label}: find_max {max_qfi!r} below the grid maximum")
        config = item.config()
        peak = max(float(np.abs(dataset.qfi).max()), 1e-300)
        for row in item.rows:
            t = float(dataset.t[row])
            qfi = scan_repro.point_qfi(config, t)
            fidelity = scan_repro.point_fidelity(config, t)
            off = abs(qfi - dataset.qfi[row]) / peak
            self.worst_point_qfi = max(self.worst_point_qfi, off)
            if not off <= POINT_QFI_RTOL:
                problems.append(f"{label}: row {row} qfi {dataset.qfi[row]!r} vs point {qfi!r}")
            if not abs(fidelity - dataset.fidelity[row]) <= POINT_FIDELITY_ATOL:
                problems.append(
                    f"{label}: row {row} fidelity {dataset.fidelity[row]!r} vs point {fidelity!r}"
                )
        return problems

    def points_of(self, item: ScanInput) -> int:
        return SCAN_POINTS


# ----------------------------------------------------------- point_queries


@dataclass(frozen=True)
class QueryInput:
    command: str
    model: str
    t: float
    flags: tuple[tuple[str, float], ...]

    def argv(self) -> list[str]:
        argv = [self.command, "--model", self.model]
        for flag, value in self.flags:
            argv += [flag, repr(value)]
        return argv + ["--t", repr(self.t)]

    def config_kwargs(self) -> dict:
        """The ScanConfig fields these flags set (alpha in radians)."""
        names = {"--delta": "detuning", "--coupling": "coupling", "--m": "mean_occupation",
                 "--r": "squeezing", "--gamma": "gamma", "--alpha": "alpha"}
        kwargs = {names[flag]: value for flag, value in self.flags}
        if "alpha" in kwargs:
            kwargs["alpha"] = math.radians(kwargs["alpha"])
        return kwargs


def _model_flags(model: str) -> tuple[tuple[str, tuple[float, float]], ...]:
    """Only the parameters each model uses; alpha only on one-qubit models."""
    if model.startswith("fock"):
        flags = (("--delta", DETUNING), ("--coupling", COUPLING))
    elif model.startswith("thermal"):
        flags = (("--m", OCCUPATION), ("--gamma", GAMMA))
    else:
        flags = (("--r", SQUEEZING), ("--gamma", GAMMA))
    if model.endswith("1"):
        flags += (("--alpha", ALPHA_DEG),)
    return flags


def query_inputs(seed: int, pass_index: int,
                 per_stratum: int = QUERIES_PER_STRATUM) -> list[QueryInput]:
    """per_stratum queries for every (command, model) pair, t and every
    parameter stratified over its range."""
    rng = _rng(seed, pass_index, 2)
    inputs = []
    for model in MODELS:
        for command in QUERY_COMMANDS:
            times = stratified(rng, T_QUERY, per_stratum)
            draws = [(flag, stratified(rng, bounds, per_stratum))
                     for flag, bounds in _model_flags(model)]
            for k in range(per_stratum):
                flags = tuple((flag, float(values[k])) for flag, values in draws)
                inputs.append(QueryInput(command, model, float(times[k]), flags))
    return [inputs[k] for k in rng.permutation(len(inputs))]


@dataclass
class PointQueriesWorkload:
    seed: int
    per_stratum: int = QUERIES_PER_STRATUM
    bytes_out: int = 0  # what the cli layer wrote: CSV files, captured stdout

    def make_pass(self, pass_index: int) -> list[QueryInput]:
        return query_inputs(self.seed, pass_index, self.per_stratum)

    def execute(self, item: QueryInput):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(item.argv())
        return code, out.getvalue(), err.getvalue()

    def check(self, item: QueryInput, result) -> list[str]:
        code, out, err = result
        label = " ".join(item.argv())
        self.bytes_out += len(out.encode())
        if code != 0:
            return [f"{label}: exit code {code}: {err.strip()}"]
        try:
            value = float(out)
        except ValueError:
            return [f"{label}: unparsable output {out!r}"]
        if item.command == "qfi":
            return domain_problems(label, [value], [])
        return domain_problems(label, [], [value])

    def points_of(self, item: QueryInput) -> int:
        return 1


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "figures":
        return FiguresWorkload(seed, out_dir, load_reference())
    if name == "reservoir_pairs":
        return ReservoirPairsWorkload(seed)
    if name == "point_queries":
        return PointQueriesWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
