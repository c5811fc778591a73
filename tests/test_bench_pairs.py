"""The verdict of ``tools/bench_pairs.py`` on synthetic paired runs."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
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
