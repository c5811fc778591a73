"""The verdict of ``tools/bench_pairs.py`` on synthetic paired runs, and
its choice of workloads."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

# ten parent runs of a lower-is-better time: median 1.0, quartiles 0.9725 / 1.0275
PARENT = [0.95, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.05]


def _verdict(change, parent=PARENT, better="lower", bound=0.25):
    return bench_pairs.verdict(parent, change, better, bound)


def test_a_clear_gain():
    result = _verdict([0.6 * p for p in PARENT])
    assert (result["wins"], result["verdict"]) == (10, "gain")
    assert result["parent"]["median"] == 1.0


def test_a_gain_on_a_higher_is_better_metric():
    result = _verdict([p + 1.0 for p in PARENT], better="higher")
    assert result["verdict"] == "gain"


def test_winning_every_pair_inside_the_parent_spread_is_no_gain():
    result = _verdict([p - 0.01 for p in PARENT])
    assert result["wins"] == 10
    assert result["verdict"] == "no change"


def test_a_regression_beyond_the_bound_is_worse():
    result = _verdict([1.3 * p for p in PARENT])
    assert result["wins"] == 0
    assert result["verdict"] == "worse"
    assert _verdict([1.2 * p for p in PARENT])["verdict"] == "no change"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [0.5, 0.6, 0.7, 0.9, 1.0, 1.0, 1.1, 1.3, 1.4, 1.5]
    result = _verdict([p * 0.95 for p in parent[::-1]], parent=parent)
    assert result["verdict"] == "unresolved"
    # unless every change run beats every parent run
    parent = [0.9] * 3 + [1.0] * 4 + [1.5] * 3      # interquartile range 0.45
    assert _verdict([0.89] * 10, parent=parent)["verdict"] == "no change"


def test_ties_count_for_neither_side():
    change = list(PARENT[:5]) + [p - 0.5 for p in PARENT[5:]]
    result = _verdict(change)
    assert result["wins"] == 5
    assert result["verdict"] == "no change"
    assert _verdict(list(PARENT))["wins"] == 0


def test_identical_runs_tie_every_pair():
    result = _verdict(list(PARENT))
    assert (result["wins"], result["losses"], result["ties"]) == (0, 0, 10)
    assert result["verdict"] == "no change"


def test_a_lost_pair_and_a_tied_pair_are_told_apart():
    won_rest = [p - 0.01 for p in PARENT[1:]]
    lost = _verdict([PARENT[0] + 0.01] + won_rest)
    tied = _verdict([PARENT[0]] + won_rest)
    assert (lost["wins"], lost["losses"], lost["ties"]) == (9, 1, 0)
    assert (tied["wins"], tied["losses"], tied["ties"]) == (9, 0, 1)


def test_an_unknown_workload_fails_before_the_parent_is_exported(monkeypatch):
    def export(rev, into):
        raise AssertionError("the parent was exported")

    monkeypatch.setattr(bench_pairs, "_export", export)
    with pytest.raises(SystemExit, match="unknown workload no_such_workload; "
                                         "BENCHMARK.json lists noise_study"):
        bench_pairs.main("HEAD", ["stretch_source", "no_such_workload"])


@pytest.mark.parametrize("named", [[], ["gradient_backward"]])
def test_only_the_named_workloads_are_paired(monkeypatch, capsys, named):
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, into: None)
    invoked = []

    def invoke(workload, seed, trace, checkout):
        invoked.append(workload)
        return {"result": {"metrics": {entry["name"]: {"value": 1.0}
                                       for entry in BENCHMARK["end_to_end"]}}}

    monkeypatch.setattr(bench_pairs, "invoke", invoke)
    bench_pairs.main("HEAD", named)
    paired = named or [entry["name"] for entry in BENCHMARK["workloads"]]
    assert invoked == [name for name in paired for _ in range(2 * bench_pairs.PAIRS)]
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()
            if not line.startswith(" ")] == paired


def test_a_worse_metric_fails_the_run_and_names_it(monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "_export", lambda rev, into: None)

    def invoke(workload, seed, trace, checkout):
        # the change runs half as many runs per second; every other metric ties
        slow = checkout == bench_pairs.ROOT
        return {"result": {"metrics": {
            entry["name"]: {"value": 0.5 if slow and entry["name"] == "runs_per_s" else 1.0}
            for entry in BENCHMARK["end_to_end"]}}}

    monkeypatch.setattr(bench_pairs, "invoke", invoke)
    with pytest.raises(SystemExit) as stopped:
        bench_pairs.main("HEAD", ["stretch_source", "gradient_backward"])
    assert stopped.value.code == "worse: stretch_source runs_per_s, gradient_backward runs_per_s"
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.split()[0] == "runs_per_s" and line.endswith("worse") for line in lines) == 2
