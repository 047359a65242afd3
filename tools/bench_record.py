"""Record a change's performance trajectory: one JSON file at the repository root.

    python tools/bench_record.py PARENT CHANGE --out BENCH_50.json [--seeds 1 2 3] [--seconds 20]

PARENT and CHANGE are checkouts holding src/ and perfbench/, run read-only.
The records "parent", "change" and "parent_again" (the A/A spread) hold the
git SHA ("dirty": src/ or perfbench/ differ from it), nproc, the Python and
numpy versions, numpy's enabled SIMD dispatch targets (which pick its exp,
sin and cos loops; NPY_DISABLE_CPU_FEATURES turns them off) and the seeds; per workload, the median and IQR over the
seeds of every end-to-end metric of `perfbench/run.py --trace 0`, the trees'
runs alternating; and the median and IQR in microseconds of 15 rounds of
direct calls, in one interpreter that imports a copy of each tree's package
and alternates them: per model and grid size N each evaluator stage and
whole calls, and per model a ScanConfig construction and a `qfi` CLI parse.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("figures", "reservoir_pairs", "point_queries")
SIZES = (1, 2, 63, 2001)
# one thread per BLAS/OpenMP pool, as perfbench/run.py sets before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DISPATCH = ("import json; from numpy._core._multiarray_umath import __cpu_dispatch__ as d,"
            " __cpu_features__ as f; print(json.dumps([k for k in d if f[k]]))")
CHILD = """
import importlib, json, statistics, sys, time
labels, sizes = json.loads(sys.argv[1])
import numpy as np
trees = [{name: importlib.import_module(f"{label}.{name}")
          for name in ("cli", "qfi_engine", "qstate", "scan_repro")} for label in labels]

def per_call(calls, number):  # one call per tree, the trees alternating round by round
    rounds = [[] for _ in calls]
    for _ in range(15):
        for call, times in zip(calls, rounds):
            start = time.perf_counter()
            for _ in range(number): call()
            times.append((time.perf_counter() - start) / number * 1e6)
    quartiles = [statistics.quantiles(times, n=4) for times in rounds]
    return [{"unit": "us", "median": q[1], "iqr": q[2] - q[0]} for q in quartiles]

def stages(tree, model, n):
    sr, qstate, qfi_blocks = tree["scan_repro"], tree["qstate"], tree["qfi_engine"].qfi_blocks
    config, (estimand, _, support, entry) = sr.ScanConfig(model), sr.MODELS[model]
    kernel = entry(getattr(config, sr._ESTIMAND_FIELDS[estimand][0]), config)
    times, build = np.linspace(0.5, 20.0, n), sr._evaluator
    evaluate, record = build(config), kernel(times)
    states = qstate.validate_blocks(qstate.BlockState(support, record[0]))
    drho = qstate.BlockState(support, record[1])
    reference = qstate.reduced_bloch(qstate.BlockState(support, record[0][:, :1]))
    return {"build": lambda: build(config), "kernel": lambda: kernel(times),
            "validate_blocks": lambda: qstate.validate_blocks(states),
            "qfi_blocks": lambda: qfi_blocks(states, drho),
            "fidelity": lambda: qstate.fidelity_bloch(reference, qstate.reduced_bloch(states)),
            "qfi_call": lambda: evaluate(times, fidelity=False),
            "build_qfi_call": lambda: build(config)(times, fidelity=False),
            "build_fidelity_call": lambda: build(config)(times, qfi=False)}

def setup(tree, model):
    parser, argv = tree["cli"].build_parser(), ["qfi", "--model", model, "--t", "7.3"]
    return {"scan_config": lambda: tree["scan_repro"].ScanConfig(model),
            "cli_parse": lambda: parser.parse_args(argv)}

out = {label: {"direct_calls": {}, "setup_calls": {}} for label in labels}
for model in trees[0]["scan_repro"].MODEL_IDS:
    for n in sizes:
        calls = [stages(tree, model, n) for tree in trees]
        for key in calls[0]:
            for label, spread in zip(labels, per_call([c[key] for c in calls], 9000 // (n + 200))):
                out[label]["direct_calls"].setdefault(model, {}).setdefault(str(n), {})[key] = \
                    spread
    calls = [setup(tree, model) for tree in trees]
    for key in calls[0]:
        for label, spread in zip(labels, per_call([c[key] for c in calls], 100)):
            out[label]["setup_calls"].setdefault(model, {})[key] = spread
print(json.dumps(out))
"""


def run(command: list[str], root: Path) -> str:
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, env=env, cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{root}: {' '.join(command[:2])} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()[-1]


def git_state(root: Path) -> tuple[str, bool]:
    """HEAD of the checkout as perfbench/run.py finds it, and whether src/ or perfbench/ differ."""
    env, git = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)), ["git", "-C", str(root)]
    sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    status = subprocess.run(git + ["status", "--porcelain", "src", "perfbench"],
                            capture_output=True, text=True, env=env)
    return ("unknown", False) if sha.returncode else (sha.stdout.strip(), bool(status.stdout))


def spread(metrics: list[dict], name: str) -> dict:
    values = [m[name]["value"] for m in metrics]
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"unit": metrics[0][name]["unit"], "median": median, "iqr": q3 - q1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    parent, change = (checkout.resolve() for checkout in args.checkouts)
    roots = {"parent": parent, "change": change, "parent_again": parent}
    runs = {label: {name: [] for name in WORKLOADS} for label in roots}
    for workload in WORKLOADS:
        for seed in args.seeds:
            for label, root in roots.items():
                command = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                runs[label][workload].append(json.loads(run(command, root))["metrics"])
    with tempfile.TemporaryDirectory() as packages:  # each tree's qfi_probe, renamed
        for label, root in roots.items():
            shutil.copytree(root / "src" / "qfi_probe", Path(packages) / label)
        child = [sys.executable, "-c", CHILD, json.dumps([list(roots), SIZES])]
        direct = json.loads(run(child, Path(packages)))
    records = {}
    for label, root in roots.items():
        sha, dirty = git_state(root)
        records[label] = {
            "git_sha": sha, "dirty": dirty, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "seeds": args.seeds,
            "numpy": run([sys.executable, "-c", "import numpy; print(numpy.__version__)"], root),
            "numpy_dispatch": json.loads(run([sys.executable, "-c", DISPATCH], root)),
            "end_to_end": {workload: {name: spread(metrics, name) for name in metrics[0]}
                           for workload, metrics in runs[label].items()},
            **direct[label]}
    args.out.write_text(json.dumps({"sizes": list(SIZES), "records": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
