"""qfi-probe benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): figures, reservoir_pairs, point_queries.

--trace 0 runs as many whole passes of operations as fill --seconds at the
reference speed (below), a number fixed per workload so that every commit
gets the same samples and tail percentile, checks every result, and reports
the end-to-end metrics:

* setup_s: median time of fresh interpreters that import qfi_probe and make
  one tiny call per model (warmup.py), after one untimed start that fills
  the bytecode caches;
* points_per_s: evaluated time points (scan grid rows or answered queries)
  per second of operation time;
* latency_ms.p50 and latency_ms.tail: per-operation latency; the tail is the
  highest whole percentile with at least ten samples beyond it, and the run
  record states that percentile and the sample count;
* peak_rss_mb: peak resident memory of this process;
* ok_ratio: operations that neither raised, exited nonzero nor failed a
  check, over operations attempted (1 - failed/attempted; the failed and
  attempted counts are in the result line).

Every reported time is calibrated to a reference CPU speed with a probe
kernel timed during the run (speed.py); the run record keeps the raw
values.

--trace 1 runs one pass untraced and then the same pass with every public
function of the qfi_probe layers wrapped (tracing.py), and reports
per-layer calls, self time and counts, the benchmark's own time and the
tracing overhead. Results are checked in both passes; the checks run with
tracing paused.

The last line of stdout is the result as JSON; the line before it is the
run record (git SHA, Python and numpy versions, CPU count, seed, sample
counts, raw times). Problems found by the checks go to stderr. Exits 2
without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("figures", "reservoir_pairs", "point_queries")
SETUP_REPEATS = 7
# Time of one pass at the reference speed of speed.py, measured on the
# commit that introduced the benchmark. Only the number of passes derives
# from it, so a faster or slower program keeps the same sample count.
REFERENCE_PASS_S = {"figures": 11.6, "reservoir_pairs": 8.0, "point_queries": 8.3}
MAX_PROBLEMS_SHOWN = 20
# One process and no thread pool: main() pins the BLAS/OpenMP pools before
# numpy loads, and the set-up child processes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Op:
    latency_s: float
    points: int
    problems: list[str]
    probe_index: int = 0  # last speed-probe sample taken before the operation


def run_ops(workload, items, probe, tracer=None) -> list[Op]:
    """Run operations closed-loop, each after the previous one and its
    (untimed) check have finished. The speed probe runs between them."""
    ops: list[Op] = []
    for item in items:
        probe.sample_if_due()
        start = time.perf_counter()
        try:
            result, problems = workload.execute(item), []
        except Exception as exc:  # a failed operation is counted, not fatal
            result, problems = None, [f"{item!r}: {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if not problems:
            with tracer.pause() if tracer is not None else nullcontext():
                try:
                    problems = workload.check(item, result)
                except Exception as exc:
                    problems = [f"{item!r}: check raised {type(exc).__name__}: {exc}"]
        ops.append(Op(elapsed, workload.points_of(item), problems, len(probe.samples) - 1))
    probe.sample()
    return ops


def busy_s(ops: list[Op]) -> float:
    return sum(op.latency_s for op in ops)


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99, linear interpolation between
    samples) with at least ten of n samples beyond it, or the median when
    n is too small for any."""
    # p leaves ten samples beyond exactly when p * (n - 1) / 100 < n - 10
    return min(99, max(50, (100 * (n - 10) - 1) // (n - 1)))


def pass_count(name: str, seconds: float) -> int:
    """Whole passes that fill `seconds` at the reference speed; the same on
    every commit, however fast the program runs."""
    return max(1, math.ceil(seconds / REFERENCE_PASS_S[name]))


def measure_setup(probe, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time of a fresh interpreter running warmup.py, calibrated and
    raw (seconds)."""
    command = [sys.executable, str(HERE / "warmup.py")]
    # No timeout: with one, subprocess polls the child every 50 ms and the
    # measured times snap to that grid.
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    starts = []
    for _ in range(repeats):
        probe.sample()
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        starts.append(Op(time.perf_counter() - start, 0, [], len(probe.samples) - 1))
    probe.sample()
    return (statistics.median(probe.calibrate(starts)),
            statistics.median(op.latency_s for op in starts))


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git repository
    or git is missing. The search for .git stops at the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_stats(ops: list[Op], latencies: list[float]) -> tuple[float, float, float]:
    """Points per second, median and tail latency (seconds)."""
    tail_pct = tail_percentile(len(ops))
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[tail_pct - 1]
    return sum(op.points for op in ops) / sum(latencies), statistics.median(latencies), tail


def summarize(ops: list[Op], latencies: list[float]) -> tuple[dict, dict]:
    """Throughput, latency and success metrics of operations whose
    calibrated latencies are given; the raw ones go to the record."""
    points_per_s, p50, tail = latency_stats(ops, latencies)
    raw_points_per_s, raw_p50, raw_tail = latency_stats(ops, [op.latency_s for op in ops])
    failed = sum(1 for op in ops if op.problems)
    metrics = {
        "points_per_s": metric(points_per_s, "points/s"),
        "latency_ms.p50": metric(1e3 * p50, "ms"),
        "latency_ms.tail": metric(1e3 * tail, "ms"),
        "ok_ratio": metric(1.0 - failed / len(ops), "ratio"),
    }
    record = {"samples": len(ops), "tail_percentile": tail_percentile(len(ops)),
              "busy_s_raw": busy_s(ops), "points_per_s_raw": raw_points_per_s,
              "latency_ms_raw.p50": 1e3 * raw_p50, "latency_ms_raw.tail": 1e3 * raw_tail}
    return metrics, record


def end_to_end(name: str, workload, seconds: float) -> tuple[list[Op], dict, dict]:
    import speed

    setup_s, setup_raw = measure_setup(speed.SpeedProbe())
    probe = speed.SpeedProbe()
    passes = pass_count(name, seconds)
    ops: list[Op] = []
    for pass_index in range(passes):
        ops += run_ops(workload, workload.make_pass(pass_index), probe)
    metrics, record = summarize(ops, probe.calibrate(ops))
    metrics["setup_s"] = metric(setup_s, "s")
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    record.update({"passes": passes, "setup_s_raw": setup_raw,
                   "probe_s_mean": statistics.fmean(probe.samples),
                   "probe_samples": len(probe.samples)})
    return ops, metrics, record


def traced(workload) -> tuple[list[Op], dict, dict]:
    import speed
    import tracing

    items = workload.make_pass(0)
    plain_probe, traced_probe = speed.SpeedProbe(), speed.SpeedProbe()
    plain = run_ops(workload, items, plain_probe)
    workload.bytes_out = 0
    tracer = tracing.LayerTracer()
    with tracer.installed():
        ops = run_ops(workload, items, traced_probe, tracer)
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        ops.append(Op(0.0, 0, [f"wrappers left in place: {leftovers}"]))
    wall = sum(traced_probe.calibrate(ops))
    scale = wall / busy_s(ops)
    points = sum(op.points for op in ops)
    stats = tracer.stats
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = metric(stats[layer].calls, "count")
        metrics[f"{layer}.self_s"] = metric(stats[layer].self_s * scale, "s")
    find_max_calls = tracer.find_max_calls
    metrics.update({
        "qstate.validated_per_point": metric(tracer.matrices_validated / points, "count/point"),
        "probe_models.states_per_point": metric(tracer.states_produced / points, "count/point"),
        "lindblad.integrated_time": metric(tracer.integrated_time, "model_time"),
        "scan_repro.refine_evals": metric(tracer.refine_evals, "count"),
        "scan_repro.find_max_calls": metric(find_max_calls, "count"),
        "scan_repro.refined_ratio": metric(
            tracer.find_max_refined / find_max_calls if find_max_calls else 0.0, "ratio"),
        "cli.bytes_out": metric(workload.bytes_out, "bytes"),
        "traced_points": metric(points, "count"),
        "traced_wall_s": metric(wall, "s"),
        "bench.self_s": metric(wall - tracer.top_level_s * scale, "s"),
        "trace_overhead_ratio": metric(wall / sum(plain_probe.calibrate(plain)), "ratio"),
    })
    record = {"samples": len(ops), "untraced_wall_s_raw": busy_s(plain),
              "traced_wall_s_raw": busy_s(ops)}
    return plain + ops, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfi_probe" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import numpy
    import warmup
    import workloads

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.make_workload(args.workload, args.seed, out_dir)
        warmup.warm_up()
        if args.trace:
            ops, metrics, record = traced(workload)
        else:
            ops, metrics, record = end_to_end(args.workload, workload, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    problems = [problem for op in ops for problem in op.problems]
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"perfbench: {problem}", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
    })
    if args.workload == "reservoir_pairs":
        record["worst_point_qfi_deviation"] = workload.worst_point_qfi
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
