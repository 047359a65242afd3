"""Tests for scans, maxima refinement, backflow detection, and the figure
dataset builders. Grids are kept small here; the full-resolution runs live
in the acceptance suite."""

import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import backflow_intervals_loop, golden_section_max
from qfi_probe import cli, probe_models, scan_repro
from qfi_probe.probe_models import fock2_kernel
from qfi_probe.scan_repro import (
    FIELD_DOMAINS,
    FIGURE_TAGS,
    FLAT,
    MODEL_IDS,
    MODELS,
    ZOOM_POINTS,
    ScanConfig,
    ScanDataset,
    UnreadField,
    backflow_intervals,
    find_max,
    point_fidelity,
    point_qfi,
    reproduce_figure,
    scan,
)
from symbolic import occupation_slope


# every ScanConfig field that some model reads
MODEL_FIELDS = {name for _, names, *_ in MODELS.values() for name in names}
# values just outside each field's domain
OUT_OF_DOMAIN = {"alpha": (-1e-9, np.pi / 2 + 1e-9, 2.0), "coupling": (0.0, -1.0),
                 "photons": (-1,), "mean_occupation": (-1e-9, -1.0), "gamma": (0.0, -1.0),
                 "squeezing": (-1e-9,), "freq_scale": (0.0, -1.0)}
# (model, a field that some other model reads and this one does not)
UNREAD = [(model, name) for model in MODEL_IDS
          for name in sorted(MODEL_FIELDS.difference(MODELS[model][1]))]


def fock_config(alpha=np.pi / 4, points=400):
    return ScanConfig(
        "fock1", alpha=alpha, t_min=0.01, t_max=100.0, points=points, detuning=5.0
    )


# the ScanConfig calls that fail: (model, fields, exception, a pattern of
# its message)
REJECTED = [
    ("nosuch", {}, ValueError, "unknown model"),
    # the model fixes the estimand, so no estimand argument is taken
    *(("fock1", {"estimand": estimand}, TypeError, "estimand")
      for estimand in ("temperature", "detuning")),
    *((model, {name: 1 if name == "photons" else getattr(ScanConfig, name) / 2}, ValueError,
       rf"does not read {name}$") for model, name in UNREAD),
    *((model, {name: math.nan}, ValueError, f"{name} = nan is not finite")
      for model, name in UNREAD),
    *((model, {name: bad}, ValueError, name) for model in MODEL_IDS
      for name in MODELS[model][1] for bad in OUT_OF_DOMAIN.get(name, ())),
    ("fock1", {"photons": -1}, ValueError, "negative"),
    ("fock1", {"t_min": 0.0}, ValueError, "positive"),
    ("fock1", {"t_min": 1.0, "t_max": 1.0}, ValueError, "exceed"),
    ("fock1", {"points": 1}, ValueError, "points"),
    ("fock1", {"points": 10**12}, ValueError, "points"),
    # a float used to pass and fail later inside np.linspace, and True was
    # caught only as "below 2"; photons = 2.5 used to scan fock1 and write
    # photons=2.5 to the CSV
    *(("fock1", {name: bad}, ValueError, "not an integer")
      for name, values in (("points", (2.5, True, 50.0)), ("photons", (2.5, 0.5, True, 0.0)))
      for bad in values),
    # a string, None or a complex number used to construct a config that
    # point_qfi then failed on, or failed a comparison with a TypeError
    *(("thermal1" if name == "gamma" else "fock1", {name: bad}, ValueError,
       re.escape(f"{name} = {bad!r} is not a real number"))
      for name in ("t_max", "points", "alpha", "detuning", "gamma")
      for bad in ("5", None, 1 + 0j, Decimal("1"))),
    *(("thermal1", {"points": 3, name: bad}, ValueError, "not finite")
      for name in ("t_min", "t_max", "alpha", "detuning", "coupling", "mean_occupation", "gamma",
                   "squeezing", "freq_scale")
      for bad in (np.nan, np.inf, np.float32(np.inf))),
    # every field a model reads, at -inf too
    *((model, {name: bad}, ValueError, "not finite") for model, name in (
        ("fock1", "detuning"), ("fock1", "coupling"), ("thermal1", "mean_occupation"),
        ("thermal1", "gamma"), ("squeezed1", "squeezing"), ("squeezed1", "alpha"),
        ("fock2", "detuning"), ("thermal2", "mean_occupation"), ("squeezed2", "gamma"))
      for bad in (np.nan, np.inf, -np.inf)),
    *(("fock1", {name: 10**400}, ValueError, f"{name} = 1000+ is not finite")
      for name in ("points", "photons")),
]


@pytest.mark.parametrize("model, fields, error, message", [
    pytest.param(*row, id=f"{row[0]}-" + "-".join(f"{name}={value!r}"[:24]
                                                    for name, value in row[1].items()))
    for row in REJECTED])
def test_rejected_at_construction(model, fields, error, message):
    with pytest.raises(error, match=message):
        ScanConfig(model, **fields)


@pytest.mark.parametrize("model, name, value", [
    # numpy scalars, fractions and bools are numbers.Real, as int and float are
    ("fock1", "detuning", np.float64(5)), ("thermal1", "gamma", np.float32(2)),
    ("fock1", "coupling", np.int64(2)), ("fock1", "alpha", Fraction(1, 2)),
    ("thermal1", "mean_occupation", Fraction(1, 2)), ("fock1", "coupling", True),
    # a field the model does not read, left at its default
    *((model, name, getattr(ScanConfig, name)) for model, name in UNREAD)])
def test_accepted_at_construction(model, name, value):
    assert getattr(ScanConfig(model, **{name: value}), name) is value


class TestScanConfig:
    def test_estimand_defaulted_from_model(self):
        assert ScanConfig("thermal1").estimand == "temperature"

    def test_model_fields_are_the_scan_config_parameters_with_domains(self):
        grid = {"model_id", "t_min", "t_max", "points"}
        assert MODEL_FIELDS == {f.name for f in fields(ScanConfig)} - grid
        assert set(FIELD_DOMAINS) == MODEL_FIELDS - {"detuning"} == set(OUT_OF_DOMAIN)

    @pytest.mark.parametrize("name, edge", [("alpha", 0.0), ("alpha", np.pi / 2),
                                            ("mean_occupation", 0.0), ("squeezing", 0.0),
                                            ("photons", 0)])
    def test_closed_domain_edges_accepted(self, name, edge):
        model = next(model for model in MODEL_IDS if name in MODELS[model][1])
        assert np.all(np.isfinite(scan(ScanConfig(model, points=3, **{name: edge})).qfi))

    @pytest.mark.parametrize("model", ["thermal1", "thermal2"])
    @pytest.mark.parametrize("freq_scale", [1e-300, 1e-155, 1e300])
    def test_chain_factor_not_finite_raises(self, model, freq_scale):
        # (g/s)^2 overflows (1e-300, 1e-155) or underflows to 0 (1e300):
        # no QFI is a plausible number there
        config = ScanConfig(model, freq_scale=freq_scale)
        with pytest.raises(ValueError, match="chain factor"):
            point_qfi(config, 1.0)

    @pytest.mark.parametrize("model, given, first", [
        ("fock1", {"squeezing": 1, "gamma": 2}, "gamma"),
        ("squeezed2", {"freq_scale": 2, "alpha": 1}, "alpha")])
    def test_unread_field_named_in_field_order(self, model, given, first):
        with pytest.raises(UnreadField) as error:
            ScanConfig(model, **given)
        assert error.value.name == first

    def test_numpy_integers_accepted(self):
        dataset = scan(ScanConfig("fock1", photons=np.int64(2), points=np.int64(50)))
        assert dataset.t.size == 50
        assert (dataset.metadata["photons"], dataset.metadata["points"]) == ("2", "50")

    def test_nonfinite_point_time_raises(self):
        with pytest.raises(ValueError):
            point_qfi(ScanConfig("thermal1"), np.nan)


class TestChainFactor:
    """scan_repro._chain_factor, (dm/dT)^2 from m and s = freq_scale."""

    def test_against_mpmath_derivative(self):
        # dm/dT of m(T) = 1 / (exp(s/T) - 1), differentiated numerically at
        # 50 digits at T = s / ln(1 + 1/m). The factor is within 1.1e-15 of
        # it, closer than a round trip through T (up to 4.9e-15)
        rng = np.random.default_rng(20)
        draws = zip(10.0 ** rng.uniform(-6.0, 3.0, 1000), 10.0 ** rng.uniform(-3.0, 3.0, 1000))
        worst = 0.0
        for k, (m, s) in enumerate(draws):
            config = ScanConfig(("thermal1", "thermal2")[k % 2], mean_occupation=m, freq_scale=s)
            slope = occupation_slope(float(m), float(s))
            worst = max(worst, abs(float(scan_repro._chain_factor(config) / slope**2) - 1.0))
        assert worst <= 2e-15

    @pytest.mark.parametrize("model", ["thermal1", "thermal2"])
    @pytest.mark.parametrize("m", [0.0, 2.2e-311, 1e-300])
    def test_zero_temperature_limit(self, model, m):
        # m = 0, 1/m overflowing (2.2e-311) and g^2 underflowing (1e-300)
        assert scan_repro._chain_factor(ScanConfig(model, mean_occupation=m)) == 0.0

    @pytest.mark.parametrize("model", ["fock1", "squeezed1", "fock2", "squeezed2"])
    def test_one_for_other_estimands(self, model):
        assert scan_repro._chain_factor(ScanConfig(model)) == 1.0

    @pytest.mark.parametrize("freq_scale", [3.5e154, 1e157, 2.9e161])
    def test_tiny_factor_where_the_temperature_square_overflowed(self, freq_scale):
        # T^2 = (s / ln(1 + 1/m))^2 overflows here, so no factor formed
        # through T exists; (g/s)^2 is a subnormal number, and the QFI a
        # tiny nonnegative one
        config = ScanConfig("thermal1", freq_scale=freq_scale)
        factor = scan_repro._chain_factor(config)
        assert 0.0 < factor < 1e-300
        assert 0.0 <= point_qfi(config, 1.0) < 1e-300


def figure_scans(model):
    """The distinct scans behind the figure series of a model."""
    return sorted({config for tag in FIGURE_TAGS
                   for _, config in scan_repro._figure_configs(tag, 2000)
                   if config.model_id == model}, key=repr)


def seeded_reservoir_scans(model, thermal_seed, squeezed_seed, top):
    """8 seeded 500-point scans of thermal2 (occupation up to top) or
    squeezed2 (squeezing up to 0.5) over the benchmark's gamma and t_max;
    none for the other models."""
    if model not in ("thermal2", "squeezed2"):
        return []
    rng = np.random.default_rng(thermal_seed if model == "thermal2" else squeezed_seed)
    key, top = ("mean_occupation", top) if model == "thermal2" else ("squeezing", 0.5)
    return [ScanConfig(model, points=500, gamma=rng.uniform(0.5, 2.0),
                       t_max=rng.uniform(10.0, 50.0), **{key: rng.uniform(0.02, top)})
            for _ in range(8)]


class TestScan:
    def test_two_point_contract(self):
        dataset = scan(ScanConfig("thermal1", t_min=1.0, t_max=1.001, points=2))
        assert dataset.t.shape == (2,)
        assert dataset.t[0] < dataset.t[1]
        assert np.all(dataset.qfi >= 0.0)
        assert np.all((dataset.fidelity >= 0.0) & (dataset.fidelity <= 1.0))

    def test_metadata_echo(self):
        dataset = scan(ScanConfig("thermal1", points=4, t_max=2.0))
        md = dataset.metadata
        assert md["model"] == "thermal1"
        assert md["estimand"] == "temperature"
        assert md["points"] == "4"
        assert md["mean_occupation"] == "0.10000000000000001"
        assert int(md["max_index"]) == int(np.argmax(dataset.qfi))

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_metadata_echoes_alpha_where_read(self, model):
        md = scan(ScanConfig(model, points=3, t_max=1.0)).metadata
        assert md["model"] == model
        if "alpha" not in MODELS[model][1]:
            assert "alpha_deg" not in md
            return
        md = scan(ScanConfig(model, points=3, t_max=1.0, alpha=0.3)).metadata
        assert md["alpha_deg"] == format(np.degrees(0.3), ".17g")
        # an angle given in degrees (as --alpha takes it) is echoed as given,
        # at the 17 significant digits of every metadata number
        for given, echoed in (("30", "30"), ("12.5", "12.5"), ("89.99", "89.989999999999995")):
            config = ScanConfig(model, points=3, t_max=1.0, alpha=math.radians(float(given)))
            assert scan(config).metadata["alpha_deg"] == echoed

    def test_typed_degrees(self):
        # every angle in [0, 90] typed with at most two decimals comes back
        # as typed, where math.degrees would give 29.999999999999996 for 30,
        # and so do 1e-3, pi / 4 and pi / 2; no shorter degree value maps
        # to 0.3 rad
        for hundredths in range(9001):
            typed = float(f"{hundredths / 100:.2f}")
            assert scan_repro._typed_degrees(math.radians(typed)) == typed
        for alpha, degrees in ((math.radians(1e-3), 1e-3), (math.pi / 4, 45.0),
                               (math.pi / 2, 90.0), (0.3, math.degrees(0.3))):
            assert scan_repro._typed_degrees(alpha) == degrees

    def test_fock2_honours_alpha(self, monkeypatch):
        config = ScanConfig("fock2", t_max=20.0, points=200, alpha=0.4)
        honoured = scan(config)
        bell = scan(replace(config, alpha=math.pi / 4))
        direct_kernel = scan_repro._stencil(lambda points, _: fock2_kernel(points, 1.0, 0.4))
        monkeypatch.setitem(MODELS, "fock2", MODELS["fock2"][:3] + (direct_kernel,))
        direct = scan(replace(config, alpha=math.pi / 4))
        for name in ("qfi", "fidelity"):
            np.testing.assert_array_equal(getattr(honoured, name), getattr(direct, name))
            assert not np.array_equal(getattr(honoured, name), getattr(bell, name))


@pytest.mark.parametrize("model, strength", [(model, {}) for model in MODEL_IDS] + [
    ("thermal1", {"mean_occupation": 0.0}), ("squeezed1", {"squeezing": 0.0}),
    ("thermal2", {"mean_occupation": 0.0}), ("squeezed2", {"squeezing": 0.0})],
    ids=list(MODEL_IDS) + ["thermal1-0", "squeezed1-0", "thermal2-0", "squeezed2-0"])
def test_point_queries_equal_scan_rows(model, strength):
    # a point query is a grid of length 1 through the scan's own path, which
    # validates its row: every row of the scan, bit for bit, at the default
    # alpha and (where the model reads it) at 0.6, and for the reservoirs at
    # strength 0, whose one-sided stencil repeats the state's own point
    base = ScanConfig(model, t_min=0.5, t_max=40.0, points=50, **strength)
    alphas = (base.alpha, 0.6) if "alpha" in MODELS[model][1] else (base.alpha,)
    for config in (replace(base, alpha=alpha) for alpha in alphas):
        dataset = scan(config)
        for t, qfi, fidelity in zip(dataset.t.tolist(), dataset.qfi, dataset.fidelity):
            assert point_qfi(config, t) == qfi
            assert point_fidelity(config, t) == fidelity


@pytest.mark.parametrize("caller", ["default", "ignore_all"])
@pytest.mark.parametrize("model", MODEL_IDS)
def test_the_callers_error_state_survives_every_call(model, caller):
    # the library enters numpy error states of its own; the caller's comes
    # back after each call, also after one that raises. The inputs: the
    # defaults, strength 0 (the one-sided stencil of the reservoirs), and
    # t = 1e308, where rate * t overflows: a reservoir state then sits at its
    # steady state, and a cavity phase past the double range is NaN, which
    # validate_blocks rejects. A temperature model also fails its chain
    # factor at freq_scale = 1e300.
    base = ScanConfig(model)
    zero = replace(base, **{scan_repro._ESTIMAND_FIELDS[base.estimand][0]: 0.0})
    calls = [(lambda: scan(replace(base, points=50)), None)]
    for config, t in ((base, 7.3), (zero, 7.3), (base, 1e308)):
        fails = t > 1e300 and model.startswith("fock")
        calls += [(lambda c=config, t=t, query=query: query(c, t),
                   "NaN or infinite" if fails else None) for query in (point_qfi, point_fidelity)]
    if base.estimand == "temperature":
        calls.append((lambda: point_qfi(replace(base, freq_scale=1e300), 1.0), "chain factor"))
    with np.errstate(all="ignore") if caller == "ignore_all" else np.errstate():
        state = np.geterr()
        for call, error in calls:
            if error is None:
                call()
            else:
                with pytest.raises(ValueError, match=error):
                    call()
            assert np.geterr() == state


# per model, a window whose QFI peak lies inside the grid and is not flat,
# so that find_max refines it
REFINED_WINDOWS = {
    "fock1": {"t_max": 8.0},
    "thermal1": {"t_max": 5.0, "mean_occupation": 0.5},
    "squeezed1": {"t_max": 5.0, "squeezing": 1.0},
    "fock2": {"t_max": 5.0},
    "thermal2": {"t_max": 5.0, "mean_occupation": 1.0},
    "squeezed2": {"t_max": 5.0, "squeezing": 0.5, "gamma": 2.0},
}


@pytest.mark.parametrize("model", MODEL_IDS)
def test_one_kernel_call_per_evaluation_block(model, monkeypatch):
    # count the calls of the kernel that the model's MODELS entry returns;
    # every model's peak is refined, at or above the grid maximum, to a
    # value its point query gives
    calls = []
    estimand, read, blocks, entry = MODELS[model]

    def counting(value, config):
        kernel = entry(value, config)
        return lambda times, derive=True: calls.append(len(times)) or kernel(times, derive)

    monkeypatch.setitem(MODELS, model, (estimand, read, blocks, counting))
    config = ScanConfig(model, **REFINED_WINDOWS[model])
    dataset = scan(config)
    # the 2000-point grid and its t = 0 reference in one block
    assert calls == [2001]
    calls.clear()
    point_qfi(config, 3.0)
    point_fidelity(config, 3.0)
    assert calls == [1, 2]
    calls.clear()
    rounds = []
    qfi_fn = lambda times: rounds.append(len(times)) or dataset.qfi_fn(times)
    t_star, q_star = find_max(replace(dataset, qfi_fn=qfi_fn))
    assert rounds and calls == rounds
    assert q_star >= dataset.qfi.max()
    assert q_star == pytest.approx(point_qfi(config, t_star), rel=1e-12)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with args; it imports the package from src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


# Minor page faults over 20 seeded 2000-point thermal2/squeezed2 scans with
# find_max, and over 4 figure tags (all six models) with emit_csv, after a
# warm-up; the CSV goes to sys.argv[1]. Left to glibc's dynamic thresholds,
# malloc returned the heap top to the kernel after each scan and faulted it
# in again.
FAULT_COUNT = """
import resource, sys
import numpy as np
from qfi_probe import cli, scan_repro as sr
rng = np.random.default_rng(31)
scans = [sr.ScanConfig(model, **{key: float(rng.uniform(0.02, 0.5))},
                       gamma=float(rng.uniform(0.5, 2.0)), t_max=float(rng.uniform(10.0, 50.0)))
         for model, key in [("thermal2", "mean_occupation"), ("squeezed2", "squeezing")] * 10]
tags = ("1a", "3b", "4a", "5b")
def figure(tag):
    for dataset in sr.reproduce_figure(tag):
        cli.emit_csv(dataset, sys.argv[1])
        sr.find_max(dataset)
def faults(op, inputs):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for item in inputs:
        op(item)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(inputs)
def scan(config):
    sr.find_max(sr.scan(config))
faults(scan, scans[:2]), faults(figure, tags)
print(faults(scan, scans), faults(figure, tags))
"""


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are fixed on glibc only")
def test_scans_and_figure_tags_keep_the_heap_resident(tmp_path):
    done = _python("-c", FAULT_COUNT, str(tmp_path / "fig.csv"))
    per_scan, per_tag = map(float, done.stdout.split())
    assert per_scan <= 1.0
    assert per_tag <= 25.0


# The import-time malloc policy under stand-ins for os.confstr and libc. It
# prints the mallopt calls that importing the package made.
MALLOPT_CALLS = """
import ctypes, os
calls = []
class Mallopt:
    def __call__(self, param, value):
        calls.append((param, value))
        return 1
class Libc:
    mallopt = Mallopt()
def refuse(error):
    def confstr(name):
        raise error
    return confstr
ctypes.CDLL = lambda name: Libc()
{stand_in}
import qfi_probe
print(calls)
"""
GLIBC = 'os.confstr = lambda name: "glibc 2.36"'
MALLOPT = [(-3, 8 * scan_repro.BLOCK_BYTES), (-1, 16 * scan_repro.BLOCK_BYTES)]


@pytest.mark.parametrize("stand_in, calls", [
    (GLIBC, MALLOPT),
    (GLIBC + "; del Libc.mallopt", []),
    ('os.confstr = refuse(OSError(22, "Invalid argument"))', []),
    ('os.confstr = refuse(ValueError("unrecognized configuration name"))', []),
    ("del os.confstr", []),
], ids=["glibc", "glibc_without_mallopt", "musl", "macos", "windows"])
def test_import_sets_malloc_thresholds_on_glibc_only(stand_in, calls):
    # elsewhere, or without mallopt, the import calls nothing and warns of nothing
    done = _python("-W", "error", "-c", MALLOPT_CALLS.format(stand_in=stand_in))
    assert done.stdout == f"{calls}\n"
    assert done.stderr == ""


@pytest.mark.parametrize("squeezing", [5.0, 10.0, 20.0])
def test_large_squeezing_scans_are_finite(squeezing):
    # 2 gamma (N - M + 1/2) computed from N and M loses every digit here;
    # once the populations have relaxed, the QFI is 4 e^2 / (exp(2 e) - 1)
    # with e = gamma exp(-2r) t. At r = 20, exp(-e) rounds to 1 and the
    # QFI reads 0, within 1e-15 of that value.
    dataset = scan(ScanConfig("squeezed2", squeezing=squeezing, points=200))
    assert np.isfinite(dataset.qfi).all() and (dataset.qfi >= 0.0).all()
    assert ((dataset.fidelity >= 0.0) & (dataset.fidelity <= 1.0)).all()
    e = math.exp(-2.0 * squeezing) * dataset.t[-1]
    assert dataset.qfi[-1] == pytest.approx(4.0 * e**2 / math.expm1(2.0 * e), rel=1e-4, abs=1e-15)


class TestFindMax:
    def test_monotone_dataset_returns_last_point(self):
        t = np.linspace(1.0, 2.0, 10)
        dataset = ScanDataset(t, t**2, np.ones_like(t), {})
        assert find_max(dataset) == (2.0, 4.0)

    def test_parabola_refined_to_vertex(self):
        parabola = lambda t: -((t - 3.0) ** 2) + 9.0
        t = np.linspace(0.0, 6.0, 11)  # vertex falls between grid points
        t = t + 0.13
        dataset = ScanDataset(t, parabola(t), np.ones_like(t), {}, qfi_fn=parabola)
        t_star, q_star = find_max(dataset)
        # the zoom stops once a level's window is flat to FLAT, so t is known
        # only to the half-width over which 9 - (t - 3)^2 is flat to FLAT
        assert t_star == pytest.approx(3.0, abs=math.sqrt(FLAT * 9.0))
        assert q_star == pytest.approx(9.0, abs=1e-9)
        assert q_star >= dataset.qfi.max()

    def test_empty_dataset(self):
        empty = ScanDataset(np.array([]), np.array([]), np.array([]), {})
        with pytest.raises(ValueError, match="empty"):
            find_max(empty)

    @staticmethod
    def assert_levels_span_neighbours(dataset):
        # every call takes ZOOM_POINTS even points from one neighbour of the
        # previous level's argmax to the other, and the result is the argmax
        # of the last level, or of the one before where the last reads lower
        levels = [(dataset.t, dataset.qfi)]

        def recorded(times, fn=dataset.qfi_fn):
            levels.append((times, fn(times)))
            return levels[-1][1]

        result = find_max(replace(dataset, qfi_fn=recorded))
        for (grid, qfi), (times, _) in zip(levels, levels[1:]):
            peak = int(np.argmax(qfi))
            lo, hi = grid[max(peak - 1, 0)], grid[min(peak + 1, grid.size - 1)]
            np.testing.assert_array_equal(times, np.linspace(lo, hi, ZOOM_POINTS))
        lower = len(levels) > 1 and levels[-1][1].max() < levels[-2][1].max()
        grid, qfi = levels[-2] if lower else levels[-1]
        assert result == (grid[np.argmax(qfi)], qfi.max())
        return result

    @pytest.mark.parametrize("source", [*MODEL_IDS, "plateau"])
    def test_each_level_spans_the_neighbours_of_the_previous_argmax(self, source):
        # a model's figure scans and, for the two-qubit reservoirs, 8 seeded
        # scans; on a plateau the zoom follows its edge onto it
        if source == "plateau":
            t = np.linspace(0.0, 1.0, 11)
            plateau = lambda times: np.where(np.abs(np.asarray(times) - 0.5) < 0.08, 2.0, 1.0)
            t_star, q_star = self.assert_levels_span_neighbours(
                ScanDataset(t, plateau(t) - 0.5, np.ones_like(t), {}, qfi_fn=plateau))
            assert q_star == 2.0 and abs(t_star - 0.5) < 0.08
            return
        for config in figure_scans(source) + seeded_reservoir_scans(source, 31, 37, 1.0):
            self.assert_levels_span_neighbours(scan(config))

    def test_a_level_that_reads_lower_ends_at_the_last_argmax(self):
        # the midpoint of a level can miss the last argmax by an ulp, where
        # the evaluator's rounding can read it lower: the result never drops
        t = np.linspace(1.0, 2.0, 5)
        calls = []
        fn = lambda times: calls.append(len(times)) or np.full(len(times), 2.0)
        dataset = ScanDataset(t, np.array([0.0, 1.0, 3.0, 1.0, 0.0]), np.ones_like(t), {},
                              qfi_fn=fn)
        assert find_max(dataset) == (1.5, 3.0) and calls == [ZOOM_POINTS]

    @pytest.mark.parametrize("offsets, refined", [
        ([0.9, 0.5, 0.0, 0.5, 0.9], False),  # within FLAT two steps each side
        ([0.9, 0.5, 0.0, 0.5, 1.1], True),  # one value two steps away is not
        ([0.2, 0.9, 0.5, 0.0], False),  # three values at the end of the grid
        ([0.5, 0.0], True),  # two values are too few to tell
        ([9.0, 5.0, 2.0, 0.0], False),  # not flat, but the end parabola still rises
        ([9.0, 5.0, 1.0, 0.0], True),  # its vertex lies inside the last step
        ([0.0, 2.0, 5.0, 9.0], False),  # the same rise, into the start
    ])
    def test_flat_peak_or_rising_end_returns_its_grid_point_with_no_call(self, offsets, refined):
        calls = []
        t = np.linspace(1.0, 2.0, len(offsets))
        qfi = 3.0 - 3.0 * FLAT * np.array(offsets)
        fn = lambda times: calls.append(len(times)) or np.full(len(times), 3.0)
        peak = int(np.argmin(offsets))
        result = find_max(ScanDataset(t, qfi, np.ones_like(t), {}, qfi_fn=fn))
        assert bool(calls) == refined
        if not refined:
            assert result == (t[peak], qfi[peak])

    def test_skipped_refinement_gains_at_most_a_quarter_of_flat(self):
        # 240 seeded two-qubit reservoir scans over the benchmark's ranges.
        # On every peak, the full golden-section search ends at most FLAT/4
        # above what find_max returns: the grid value of a peak it leaves
        # unrefined, flat or a rising end (measured: 2.4e-11 relative at
        # most, on 41 of the 155 skipped peaks it raised), and the argmax of
        # the last nested grid of a refined one (measured: 4.1e-11 at most;
        # on 26 of the 85 refined peaks the zoom ends above the search). A
        # refined peak takes at most 4 calls (measured: 1 to 3, 2.12 on
        # average).
        rng = np.random.default_rng(53)
        skipped = 0
        for k in range(240):
            model, key, top = (("thermal2", "mean_occupation", 1.0),
                               ("squeezed2", "squeezing", 0.5))[k % 2]
            dataset = scan(ScanConfig(model, gamma=rng.uniform(0.5, 2.0),
                                      t_max=rng.uniform(10.0, 50.0),
                                      **{key: rng.uniform(0.02, top)}))
            calls = []
            counted = lambda times, fn=dataset.qfi_fn: calls.append(len(times)) or fn(times)
            _, found = find_max(replace(dataset, qfi_fn=counted))
            _, full = golden_section_max(dataset)
            assert dataset.qfi.max() <= found and full <= found * (1.0 + FLAT / 4.0), k
            assert len(calls) <= 4, k
            skipped += not calls
        assert skipped >= 100


class TestBackflowIntervals:
    @pytest.mark.parametrize("qfi, expected", [
        (list(range(20)), []),  # monotone
        ([0.0, 2.0, 1.0, 0.5, 1.5, 2.5], [(3.0, 5.0)]),  # a single revival
        ([0.0, 1.0, 2.0, 3.0], []),  # an initial rise is no revival
        ([1.0, 1.0, 1.0, 1.0], []),  # all flat
        ([0.0, 1.0, 0.5, 0.7], [(2.0, 3.0)]),  # a rise at index 0 is no revival
        ([2.0, 1.0, 1.0, 1.5], [(2.0, 3.0)]),  # fall, flat, rise counts
        ([0.0, 1.0, 1.0, 1.5], []),  # rise, flat, rise does not
        ([2.0, 1.0, 1.5, 2.5, 3.0], [(1.0, 4.0)]),  # a rise to the last point
        ([3.0, 2.0, 2.5, 1.0, 1.5, 1.2, 1.2, 1.9], [(1.0, 2.0), (3.0, 4.0), (6.0, 7.0)]),
        ([1.0], []),
        # steps within 1e-9 of the peak count as flat, beyond it they count
        ([1.0, 1.0 - 0.5e-9, 1.0 - 0.5e-9, 1.0, 1.0], []),
        ([1.0, 1.0 - 2e-9, 1.0 - 2e-9, 1.0, 1.0], [(2.0, 3.0)]),
    ])
    def test_edge_cases_match_the_loop(self, qfi, expected):
        t = np.arange(float(len(qfi)))
        dataset = ScanDataset(t, np.array(qfi, dtype=float), np.ones_like(t), {})
        assert backflow_intervals(dataset) == expected
        assert backflow_intervals_loop(dataset) == expected

    @pytest.mark.parametrize("model", MODEL_IDS)
    def test_scans_match_the_loop(self, model):
        # the model's figure scans and, for the two-qubit reservoirs, 8
        # seeded scans
        for config in figure_scans(model) + seeded_reservoir_scans(model, 41, 43, 0.5):
            dataset = scan(config)
            assert backflow_intervals(dataset) == backflow_intervals_loop(dataset)

    @pytest.mark.parametrize("config, least, most, first_start", [
        (fock_config(alpha=0.0, points=600), 5, math.inf, None),
        # the population sensitivity to the occupation crosses zero near
        # gamma t = 1.17, so the QFI dips to zero once and then climbs to
        # its plateau: exactly one revival interval
        (ScanConfig("thermal1", alpha=0.0, points=400), 1, 1, (0.9, 1.4)),
        (ScanConfig("squeezed1", alpha=0.0, t_max=5.0, points=400), 1, math.inf, None),
    ], ids=["oscillatory_cavity", "thermal_nonsuperposed", "squeezed_nonsuperposed"])
    def test_revivals(self, config, least, most, first_start):
        intervals = backflow_intervals(scan(config))
        assert least <= len(intervals) <= most
        assert first_start is None or first_start[0] < intervals[0][0] < first_start[1]


class TestReproduceFigure:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown figure tag"):
            reproduce_figure("9z")

    @pytest.mark.parametrize("tag, points, series, models", [
        ("2a", 40, ["alpha0", "alpha45"], ["thermal1", "thermal1"]),
        ("5b", 30, ["one_qubit", "two_qubit"], ["thermal1", "thermal2"]),
    ])
    def test_series_structure(self, tag, points, series, models):
        datasets = reproduce_figure(tag, points=points)
        assert [d.metadata["series"] for d in datasets] == series
        assert [d.metadata["model"] for d in datasets] == models
        assert all(d.metadata["figure"] == tag for d in datasets)
        assert all(d.t.size == points for d in datasets)
        np.testing.assert_array_equal(datasets[0].t, datasets[1].t)
        # the labels sit where the CSV has always had them, before the maximum
        assert [list(d.metadata)[-5:] for d in datasets] == 2 * [
            ["figure", "series", "max_index", "max_t", "max_qfi"]]

    @pytest.mark.parametrize("tag, points", [("2b", 120), ("5b", 60)])
    def test_second_series_keeps_the_higher_fidelity(self, tag, points):
        # the superposed initial state keeps the atom closer to where it
        # started (2b), and the two-qubit reservoir probe its qubit A (5b)
        first, second = reproduce_figure(tag, points=points)
        assert np.all(second.fidelity >= first.fidelity)

    def test_series_that_share_data(self):
        # the 24 series hold 9 distinct scans: 1a = 1b, 2a = 2b, 3a = 3b,
        # 5x = 4x, and the one_qubit series of 4a-4c are the alpha45
        # series of 1a-3a; only the figure metadata tells them apart
        configs = {config for tag in FIGURE_TAGS
                   for _, config in scan_repro._figure_configs(tag, 50)}
        assert len(configs) == 9
        figures = {tag: reproduce_figure(tag, points=50) for tag in FIGURE_TAGS}
        same = [(f"{n}a", f"{n}b") for n in "123"] + [(f"4{k}", f"5{k}") for k in "abc"]
        pairs = [(a, b, i, i) for a, b in same for i in (0, 1)]
        pairs += [(f"{n}a", f"4{k}", 1, 0) for n, k in zip("123", "abc")]
        for a, b, i, j in pairs:
            first, second = figures[a][i], figures[b][j]
            for name in ("t", "qfi", "fidelity"):
                assert np.array_equal(getattr(first, name), getattr(second, name)), (a, b, name)


@pytest.fixture
def no_parameter_classes(monkeypatch):
    # ScanConfig validates every field once; the five *Params builders of
    # probe_models stay only for the benchmark tests, and no library path
    # may call one
    def refuse(*args, **kwargs):
        raise AssertionError("a *Params builder was called")

    for name in ("FockParams", "ThermalParams", "SqueezedParams", "TwoQubitFockParams",
                 "TwoQubitReservoirParams"):
        monkeypatch.setattr(probe_models, name, refuse)
    with pytest.raises(AssertionError, match="builder was called"):
        probe_models.FockParams(5.0)


@pytest.mark.parametrize("model", MODEL_IDS)
def test_hot_path_calls_no_eigensolver_and_no_parameter_class(model, no_parameter_classes,
                                                              monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    config = ScanConfig(model, points=200, t_max=20.0)
    t, qfi = find_max(scan(config))
    assert qfi > 0.0
    assert point_qfi(config, t) >= 0.0
    assert 0.0 <= point_fidelity(config, t) <= 1.0


@pytest.mark.parametrize("tag", ["4a", "4b", "4c"])
def test_figures_build_no_parameter_class(tag, no_parameter_classes, tmp_path):
    # 4a-4c cover all six models
    assert cli.run(["figure", "--tag", tag, "--points", "50",
                    "--out", str(tmp_path / "fig.csv")]) == 0
    assert len(list(tmp_path.iterdir())) == 2

