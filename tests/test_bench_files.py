"""Committed ``BENCH_*.json`` files (written by ``tools/bench_capture.py``)
keep the schema README documents and cover the benchmark they claim to."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {entry["name"] for entry in BENCHMARK["workloads"]}
END_TO_END = [entry["name"] for entry in BENCHMARK["end_to_end"]]
MIN_UNTRACED = 5


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_a_bench_file_summarizes_enough_untraced_runs_of_known_workloads(path):
    record = json.loads(path.read_text())
    assert record["tag"] == path.stem[len("BENCH_"):]
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    for name, workload in record["workloads"].items():
        untraced = [run for run in workload["invocations"] if run["trace"] == 0]
        assert len(untraced) >= MIN_UNTRACED, name
        for run in workload["invocations"]:
            assert run["environment"]["workload"] == name
            assert run["environment"]["seed"] == run["seed"]
            assert "metrics" in run["result"] and "correct" in run["result"]
        assert set(workload["end_to_end"]) == set(END_TO_END), name
        for metric in END_TO_END:
            summary = workload["end_to_end"][metric]
            values = [run["result"]["metrics"][metric]["value"] for run in untraced]
            assert summary["n"] == len(values)
            assert summary["median"] == statistics.median(values), (name, metric)
            assert summary["q1"] <= summary["median"] <= summary["q3"], (name, metric)
