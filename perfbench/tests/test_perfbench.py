"""Tests of the benchmark itself: seeded inputs, input validity, the
correctness gate, and the tracer's install/restore cycle."""

import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import qfi_probe  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qfi_probe import lindblad, probe_models, scan_repro  # noqa: E402


def _inputs(name, seed):
    if name == "figures":
        return workloads.FiguresWorkload(seed, Path("."), {}).make_pass(0)
    if name == "reservoir_pairs":
        return workloads.reservoir_inputs(seed, 0)
    return workloads.query_inputs(seed, 0)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_reservoir_inputs_are_valid():
    for item in workloads.reservoir_inputs(3, 0):
        config = item.config()
        strength = config.mean_occupation if item.model == "thermal2" else config.squeezing
        lindblad.TwoQubitReservoirParams(item.model[:-1], strength, config.gamma)
        assert set(item.params) == {
            "mean_occupation" if item.model == "thermal2" else "squeezing", "gamma", "t_max"
        }
        assert all(0 <= row < workloads.SCAN_POINTS for row in item.rows)


def test_query_inputs_are_valid():
    queries = workloads.query_inputs(3, 0)
    assert len(queries) == 12 * workloads.QUERIES_PER_STRATUM
    for item in queries:
        argv = item.argv()
        assert "--photons" not in argv
        assert ("--alpha" in argv) == item.model.endswith("1")
        assert 0.0 < item.t <= 50.0
        config = scan_repro.ScanConfig(item.model, **item.config_kwargs())
        if item.model == "fock1":
            probe_models.FockParams(config.detuning, config.coupling, 0, config.alpha)
        elif item.model == "fock2":
            probe_models.TwoQubitFockParams(config.detuning, config.coupling)
        elif item.model == "thermal1":
            probe_models.ThermalParams(config.mean_occupation, config.gamma, config.alpha)
        elif item.model == "squeezed1":
            probe_models.SqueezedParams(config.squeezing, config.gamma, config.alpha)
        else:
            strength = config.mean_occupation if item.model == "thermal2" else config.squeezing
            lindblad.TwoQubitReservoirParams(item.model[:-1], strength, config.gamma)


def test_stratified_covers_every_bin():
    draws = workloads.stratified(np.random.default_rng(0), (10.0, 50.0), 8)
    assert sorted(int((d - 10.0) // 5.0) for d in draws) == list(range(8))


@pytest.mark.parametrize("corrupt", [False, True])
def test_corrupted_reference_row_counts_as_failure(tmp_path, corrupt):
    tags, points = ("2a", "3a"), 40
    reference = workloads.figure_reference(tags, points)
    if corrupt:
        qfi = reference["2a/alpha45"][1]
        qfi[17] += 1e-9 * qfi.max()
    workload = workloads.FiguresWorkload(0, tmp_path, reference, tags, points)
    ops = run.run_ops(workload, workload.make_pass(0), speed.SpeedProbe())
    metrics, _ = run.summarize(ops, [op.latency_s for op in ops])
    assert metrics["ok_ratio"]["value"] == (0.5 if corrupt else 1.0)
    assert workload.bytes_out > 0


def test_point_query_failure_counts(monkeypatch):
    workload = workloads.PointQueriesWorkload(0, per_stratum=1)
    items = [item for item in workload.make_pass(0) if item.model == "fock1"]
    monkeypatch.setattr(workloads.QueryInput, "argv", lambda self: ["qfi", "--bogus"])
    ops = run.run_ops(workload, items, speed.SpeedProbe())
    assert all(op.problems for op in ops)


@pytest.mark.parametrize("n", [24, 30, 600, 1200, 1800])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    samples = list(range(n))
    cuts = statistics.quantiles(samples, n=100, method="inclusive")

    def beyond(pct):
        return sum(x > cuts[pct - 1] for x in samples)

    pct = run.tail_percentile(n)
    assert beyond(pct) >= 10
    assert pct == 99 or beyond(pct + 1) < 10


def test_pass_count_fixed_by_seconds():
    assert {name: run.pass_count(name, 20) for name in run.WORKLOADS} == {
        "figures": 2, "reservoir_pairs": 3, "point_queries": 3}
    assert run.pass_count("figures", 1) == 1


def _bindings():
    return {
        (module.__name__, name): obj
        for module in tracing._package_modules()
        for name, obj in vars(module).items()
        if callable(obj)
    }


def test_tracer_restores_every_binding():
    before = _bindings()
    workload = workloads.PointQueriesWorkload(0, per_stratum=1)
    items = [item for item in workload.make_pass(0) if not item.model.endswith("2")]
    tracer = tracing.LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert tracing.leftover_wrappers()
            assert scan_repro.scan is not before[("qfi_probe.scan_repro", "scan")]
            ops = run.run_ops(workload, items, speed.SpeedProbe(), tracer)
            raise RuntimeError("leave the block early")
    assert tracing.leftover_wrappers() == []
    assert _bindings() == before
    assert not any(op.problems for op in ops)
    assert tracer.stats["cli"].calls >= len(items)
    assert tracer.stats["qstate"].calls > 0
    assert tracer.stats["lindblad"].calls == 0


def test_tracer_tolerates_missing_functions(monkeypatch):
    for module in (qfi_probe, lindblad, scan_repro):
        monkeypatch.delattr(module, "trajectory", raising=False)
    workload = workloads.PointQueriesWorkload(0, per_stratum=1)
    items = [item for item in workload.make_pass(0) if item.model == "fock2"]
    tracer = tracing.LayerTracer()
    with tracer.installed():
        ops = run.run_ops(workload, items, speed.SpeedProbe(), tracer)
    assert not any(op.problems for op in ops)
    assert tracer.stats["lindblad"].calls == 0
    assert tracer.integrated_time == 0.0
    assert tracer.stats["probe_models"].calls > 0
    assert tracing.leftover_wrappers() == []
