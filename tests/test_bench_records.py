"""The committed performance records, BENCH_*.json at the repository root,
against the schema that tools/bench_record.py writes: the keys, the units,
and one entry per record, workload, end-to-end metric, model, grid size and
stage, and from BENCH_51.json on numpy's enabled dispatch targets. No
timing value is read."""

import json
from pathlib import Path

import pytest

from qfi_probe.scan_repro import MODEL_IDS

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PATHS = sorted(ROOT.glob("BENCH_*.json"))
RECORD_KEYS = {"git_sha", "dirty", "nproc", "python", "numpy", "seeds", "end_to_end",
               "direct_calls", "setup_calls"}
STAGES = ["build", "kernel", "validate_blocks", "qfi_blocks", "fidelity", "qfi_call",
          "build_qfi_call", "build_fidelity_call"]
SPREAD = {"unit", "median", "iqr"}


def test_a_record_is_committed():
    assert PATHS


@pytest.mark.parametrize("path", PATHS, ids=[path.name for path in PATHS])
def test_record_schema(path):
    data = json.loads(path.read_text())
    assert set(data) == {"sizes", "records"} and data["sizes"] == [1, 2, 63, 2001]
    assert list(data["records"]) == ["parent", "change", "parent_again"]
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    dispatch = int(path.stem.split("_")[1]) >= 51
    for record in data["records"].values():
        assert set(record) == RECORD_KEYS | ({"numpy_dispatch"} if dispatch else set())
        assert not dispatch or all(isinstance(k, str) for k in record["numpy_dispatch"])
        assert list(record["end_to_end"]) == [w["name"] for w in BENCHMARK["workloads"]]
        for metrics in record["end_to_end"].values():
            assert {name: metric["unit"] for name, metric in metrics.items()} == units
            assert all(set(metric) == SPREAD for metric in metrics.values())
        assert list(record["direct_calls"]) == list(MODEL_IDS) == list(record["setup_calls"])
        for sizes in record["direct_calls"].values():
            assert list(sizes) == [str(n) for n in data["sizes"]]
            for stages in sizes.values():
                assert list(stages) == STAGES
                assert all(set(s) == SPREAD and s["unit"] == "us" for s in stages.values())
        for calls in record["setup_calls"].values():
            assert list(calls) == ["scan_config", "cli_parse"]
            assert all(set(c) == SPREAD and c["unit"] == "us" for c in calls.values())
