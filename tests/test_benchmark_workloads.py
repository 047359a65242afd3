"""The reservoir_pairs and point_queries workloads of the benchmark, run
with their own checks over one seeded pass: domain, find_max at or above
the grid maximum, point queries against scan rows, and CLI exit codes.
The checks are defined once, in perfbench/workloads.py."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run_pass(workload):
    problems = []
    items = workload.make_pass(0)
    for item in items:
        problems += workload.check(item, workload.execute(item))
    return items, problems


def test_reservoir_pairs_pass_checks():
    items, problems = run_pass(workloads.ReservoirPairsWorkload(11))
    assert len(items) == workloads.SCANS_PER_PASS
    assert problems == []


def test_point_queries_pass_checks():
    items, problems = run_pass(workloads.PointQueriesWorkload(11, per_stratum=2))
    # two per stratum of each (command, model) pair
    assert len(items) == 2 * len(workloads.QUERY_COMMANDS) * len(workloads.MODELS)
    assert problems == []
