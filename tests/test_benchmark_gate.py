"""The figures correctness gate of the benchmark, run in the test suite.

All 12 figure tags are rebuilt at 2000 points, written as CSV, parsed
back and compared with the committed reference rows by the benchmark's
own figures workload (perfbench/workloads.py), so the gate and its
tolerances are defined in one place."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    reference = workloads.load_reference()
    workload = workloads.FiguresWorkload(0, tmp_path_factory.mktemp("figures"), reference)
    return workload, reference


@pytest.mark.parametrize("tag", workloads.FIGURE_TAGS)
def test_figure_rows_match_the_committed_reference(figures, tag):
    workload, reference = figures
    results = workload.execute(tag)
    assert [f"{tag}/{series}" for series, *_ in results] == sorted(
        key for key in reference if key.startswith(f"{tag}/"))
    assert workload.check(tag, results) == []
