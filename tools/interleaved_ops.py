"""In-process A/B timer: per-operation latency of a perfbench workload on two
checkouts, measured in alternating fresh interpreters.

    python tools/interleaved_ops.py PARENT CHANGE --workload reservoir_pairs \\
        --seed 7 --passes 3 --rounds 21 [--model thermal2 --model squeezed2]

PARENT and CHANGE are checkouts (directories holding src/ and perfbench/).
Each round starts one fresh interpreter per checkout, the first checkout
alternating from round to round. The interpreter imports that checkout's
perfbench/workloads.py, and through it that checkout's qfi_probe, runs
perfbench/warmup.py's warm-up, builds the items of passes 0 .. passes - 1
for the seed (only those of the given models, if any) and times one
`execute` of each, with no check and no tracing. This prints, per checkout,
the median, interquartile range and mean of all its operation times, and
the ratio CHANGE / PARENT of the medians, of the means (the inverse of
perfbench's points_per_s ratio) and of the per-item medians; it also
prints the rounds in which CHANGE's median was the lower. Give the same
checkout twice for the A/A spread. Only perfbench/ is imported; nothing is
written to either checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# one thread per BLAS/OpenMP pool, as perfbench/run.py sets before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD = """
import json, sys, time
root, workload_name, seed, passes, models, out_dir = json.loads(sys.argv[1])
sys.path[:0] = [root + "/perfbench", root + "/src"]
import warmup, workloads
warmup.warm_up()
workload = workloads.make_workload(workload_name, seed, __import__("pathlib").Path(out_dir))
items = [item for p in range(passes) for item in workload.make_pass(p)
         if not models or getattr(item, "model", None) in models]
latencies = []
for item in items:
    start = time.perf_counter()
    workload.execute(item)
    latencies.append(time.perf_counter() - start)
print(json.dumps(latencies))
"""


def run_once(root: Path, args, out_dir: str) -> list[float]:
    """The operation times of one fresh interpreter on the checkout at root."""
    payload = json.dumps([str(root), args.workload, args.seed, args.passes, args.model, out_dir])
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", CHILD, payload], env=env, cwd=root,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{root}: the child exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("figures", "reservoir_pairs", "point_queries"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--model", action="append", default=[],
                        help="time only the items of this model (repeatable)")
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "perfbench" / "workloads.py").is_file() or not (root / "src").is_dir():
            parser.error(f"{root} holds no perfbench/workloads.py and src/")
    times: list[list[list[float]]] = [[], []]  # [checkout][round][item]
    with tempfile.TemporaryDirectory() as out_dir:
        for round_index in range(args.rounds):
            order = (0, 1) if round_index % 2 == 0 else (1, 0)
            for side in order:
                times[side].append(run_once(roots[side], args, out_dir))
    if not times[0][0] or len(times[0][0]) != len(times[1][0]):
        sys.exit("the checkouts ran different items, or none")
    medians, means = [], []
    for name, root, rounds in zip(("parent", "change"), roots, times):
        pooled = [t for one in rounds for t in one]
        q1, median, q3 = quartiles(pooled)
        medians.append(median)
        means.append(statistics.fmean(pooled))
        print(f"{name}: {root}: {len(rounds[0])} operations x {len(rounds)} rounds;"
              f" median {median * 1e6:.1f} us, IQR {q1 * 1e6:.1f} - {q3 * 1e6:.1f} us,"
              f" mean {means[-1] * 1e6:.1f} us")
    per_item = [statistics.median(change) / statistics.median(parent)
                for parent, change in zip(zip(*times[0]), zip(*times[1]))]
    won = sum(statistics.median(c) < statistics.median(p) for p, c in zip(*times))
    print(f"ratio change/parent: median {medians[1] / medians[0]:.4f};"
          f" mean {means[1] / means[0]:.4f};"
          f" per-item median {statistics.median(per_item):.4f}"
          f" (IQR {quartiles(per_item)[0]:.4f} - {quartiles(per_item)[2]:.4f});"
          f" change lower in {won} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
