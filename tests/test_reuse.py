"""Reuse inside one process: the problem memo, the per-(ops, dt)
factorization table and the truth-stage memo.

Correctness of the reuse rests on complete keys, so every input that
changes a result must miss the memo, and a run on a warm memo must write
what a cold process writes.  Cold runs happen in forks of a child process
that has imported adjpod but run nothing, so each one starts with empty
memos.
"""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace

import numpy as np
import pytest

import adjpod.fem
from adjpod import (CoefficientSet, ExperimentConfig, TimeGrid, assemble_operators,
                    build_grid, build_problem, make_shape, read_json,
                    run_experiment, solve_forward)
from adjpod import experiment

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# small and noisy, so every stage (denoise included) runs and writes
BASE = ExperimentConfig(kind="source", truth="sin2exp", nx=13, ny=13, M=8,
                        n_pod=3, detectors="6x6", noise=0.10, seed=3)

# one changed input per case; each must miss the memo
CHANGES = {
    "q": dict(q="2.0"),
    "c": dict(c="0.5"),
    "T": dict(T=0.5),
    "M": dict(M=12),
    "truth": dict(truth="sin2"),
    "max_snapshots": dict(max_snapshots=9),
    "n_pod": dict(n_pod=4),
    "energy": dict(energy=1e-6),
}

_COLD_RUNNER = textwrap.dedent("""
    import json, os, sys
    from adjpod import ExperimentConfig, run_experiment
    for raw, out in json.loads(sys.stdin.read()):
        pid = os.fork()
        if pid == 0:
            try:
                run_experiment(ExperimentConfig(**raw), out)
            except BaseException:
                os._exit(1)
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            sys.exit(f"cold run into {out} failed")
""")


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """case -> output directory of the same config run on empty memos."""
    root = tmp_path_factory.mktemp("cold")
    cases = {"base": BASE, **{name: replace(BASE, **change)
                              for name, change in CHANGES.items()}}
    jobs = [(asdict(cfg), str(root / name)) for name, cfg in cases.items()]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", _COLD_RUNNER], input=json.dumps(jobs),
                   text=True, env=env, check=True, timeout=300)
    return {name: root / name for name in cases}


def _without_timings(path) -> dict:
    metrics = read_json(path / "metrics.json")
    metrics.pop("timings")
    return metrics


@pytest.mark.parametrize("case", sorted(CHANGES))
def test_a_changed_input_misses_the_memo(case, cold, tmp_path):
    run_experiment(BASE, str(tmp_path / "base"))
    metrics = run_experiment(replace(BASE, **CHANGES[case]), str(tmp_path / case))
    assert metrics["timings"]["forward_reused"] is False
    assert _without_timings(tmp_path / case) == _without_timings(cold[case])


def test_a_warm_run_writes_what_a_cold_process_writes(cold, tmp_path):
    run_experiment(BASE, str(tmp_path / "first"))
    metrics = run_experiment(BASE, str(tmp_path / "warm"))
    assert metrics["timings"]["forward_reused"] is True
    warm, reference = tmp_path / "warm", cold["base"]
    names = sorted(str(p.relative_to(reference)) for p in reference.rglob("*")
                   if p.is_file())
    assert names == sorted(str(p.relative_to(warm)) for p in warm.rglob("*")
                           if p.is_file())
    assert "denoised.csv" in names
    for name in names:
        if name == "metrics.json":
            assert _without_timings(warm) == _without_timings(reference)
        else:
            assert (warm / name).read_bytes() == (reference / name).read_bytes(), name


def test_a_hit_reports_the_stored_solve_time(tmp_path):
    cfg = replace(BASE, truth="glyphZ", M=5)     # used by no other test
    first = run_experiment(replace(cfg, seed=7), str(tmp_path / "a"))
    again = run_experiment(replace(cfg, seed=8, noise=0.5), str(tmp_path / "b"))
    assert first["timings"]["forward_reused"] is False
    assert again["timings"]["forward_reused"] is True
    assert again["timings"]["full_solve_s"] == first["timings"]["full_solve_s"]


def test_arrays_held_by_the_truth_memo_are_read_only(tmp_path):
    run_experiment(BASE, str(tmp_path / "run"))
    (entry,) = experiment._TRUTH_MEMO.values()
    truth, final, _, traditional = entry
    for array in (truth, final, traditional.psi, traditional.eigenvalues):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_the_truth_memo_keeps_one_entry(tmp_path):
    for i, truth in enumerate(("sin1", "sin2", "glyphA")):
        run_experiment(replace(BASE, truth=truth), str(tmp_path / str(i)))
        assert len(experiment._TRUTH_MEMO) == 1


def test_equal_problems_share_one_setup():
    first = build_problem("backward", 11, 9, None, 6, "1.0", "0.0")
    assert build_problem("backward", 11, 9, 0.05, 6, "1.0", "0.0") is first
    other = build_problem("backward", 11, 9, None, 6, "2.0", "0.0")
    assert other[2] is not first[2]
    assert not np.array_equal(other[2].stiffness.toarray(), first[2].stiffness.toarray())
    _, grid, ops, _ = first
    for array in (grid.coords, grid.boundary, grid.interior, ops.mass.data,
                  ops.stiffness.indices):
        assert not array.flags.writeable


def test_one_factorization_per_operators_and_step(monkeypatch):
    calls = []
    real = adjpod.fem.splu
    monkeypatch.setattr(adjpod.fem, "splu", lambda a: calls.append(a.shape) or real(a))
    grid = build_grid(9, 9)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    f = make_shape("sin1", grid)
    zero = np.zeros(grid.n_nodes)
    tg = TimeGrid(T=0.2, M=4)
    first = solve_forward(ops, tg, f=f, g=zero)
    again = solve_forward(ops, tg, f=zero, g=f)
    assert len(calls) == 1
    solve_forward(ops, TimeGrid(T=0.4, M=8), f=f, g=zero)    # same dt
    assert len(calls) == 1
    solve_forward(ops, TimeGrid(T=0.2, M=8), f=f, g=zero)    # new dt
    assert len(calls) == 2
    for M in (5, 6, 7):     # the oldest step size is dropped, not kept forever
        solve_forward(ops, TimeGrid(T=0.2, M=M), f=f, g=zero)
    assert len(calls) == 5 and len(ops._steppers) == 4
    solve_forward(ops, tg, f=f, g=zero)
    assert len(calls) == 6
    # a fresh factorization gives the same trajectories
    fresh = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    np.testing.assert_array_equal(solve_forward(fresh, tg, f=f, g=zero).states,
                                  first.states)
    np.testing.assert_array_equal(solve_forward(fresh, tg, f=zero, g=f).states,
                                  again.states)
