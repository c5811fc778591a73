"""Reuse inside one process: the problem memo, the per-(ops, dt)
factorization table, the truth-stage memo, the detector-layout memo and
the denoise memo.

Correctness of the reuse rests on complete keys, so every input that
changes a result must miss the memo, and a run on a warm memo must write
what a cold process writes.  The truth-stage memo is keyed on the problem,
the truth and the snapshot budget alone: a run that changes only the basis
size (n_pod or energy) must hit it, so a study over basis sizes solves each
truth once.  Cold runs happen in forks of a child process that has imported
adjpod but run nothing, so each one starts with empty memos.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

import adjpod.fem
from adjpod import (CoefficientSet, ExperimentConfig, TimeGrid, assemble_operators,
                    build_grid, build_problem, make_shape, read_json,
                    run_example, run_experiment, solve_forward)
from adjpod import experiment, inversion, serialize

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
}
# one changed basis size per case; the truth stage reads none, so each must hit
BASIS_SIZES = {
    "n_pod": dict(n_pod=4),
    "energy": dict(energy=1e-6),
}
# one truth over the basis sizes of a study, in the order they run
SIZE_STUDY = {**{f"n_pod_{n}": replace(BASE, n_pod=n) for n in range(1, 10)},
              "energy_1e-6": replace(BASE, energy=1e-6)}
# a changed detector layout misses the layout memo but not the truth memo
LAYOUT = replace(BASE, detectors="5x7")

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
    cases = {"base": BASE, "layout": LAYOUT, **SIZE_STUDY,
             **{name: replace(BASE, **change)
                for name, change in {**CHANGES, **BASIS_SIZES}.items()}}
    jobs = [(asdict(cfg), str(root / name)) for name, cfg in cases.items()]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    subprocess.run([sys.executable, "-c", _COLD_RUNNER], input=json.dumps(jobs),
                   text=True, env=env, check=True, timeout=300)
    return {name: root / name for name in cases}


# configs that together reach every stage and artifact kind of a run
REPEATS = {
    "noisy_direct": BASE,
    "gradient_backward": replace(BASE, kind="backward", truth="glyphA", noise=0.0,
                                 mode="gradient", lam="1e-8", max_iters=200),
    "foreign_varying_coefficients": replace(BASE, basis="foreign:sin1",
                                            q="varq", c="varc"),
}


def _timings(path) -> dict:
    return read_json(path / "timings.json")


@pytest.mark.parametrize("case", [*REPEATS, *(f"preset_{label}" for label in
                                              ("4.1", "4.2", "4.4", "4.5", "4.7"))])
def test_two_runs_of_one_config_write_the_same_tree(case, tmp_path, artifact_tree):
    for side in ("a", "b"):
        if case in REPEATS:
            run_experiment(REPEATS[case], str(tmp_path / side))
        else:
            run_example(case.removeprefix("preset_"), str(tmp_path / side), BASE)
    assert artifact_tree(tmp_path / "a") == artifact_tree(tmp_path / "b")
    runs = sorted(path.parent for path in tmp_path.rglob("metrics.json"))
    assert runs and sorted(path.parent for path in tmp_path.rglob("timings.json")) == runs
    for run in runs:
        assert set(_timings(run)) == {"forward_reused", "stage_s"}


@pytest.mark.parametrize("case", sorted(CHANGES))
def test_a_changed_input_misses_the_memo(case, cold, tmp_path, artifact_tree):
    run_experiment(BASE, str(tmp_path / "base"))
    run_experiment(replace(BASE, **CHANGES[case]), str(tmp_path / case))
    assert _timings(tmp_path / case)["forward_reused"] is False
    assert artifact_tree(tmp_path / case) == artifact_tree(cold[case])


@pytest.mark.parametrize("case", sorted(BASIS_SIZES))
def test_a_changed_basis_size_hits_the_truth_memo(case, cold, tmp_path, artifact_tree):
    run_experiment(BASE, str(tmp_path / "base"))
    run_experiment(replace(BASE, **BASIS_SIZES[case]), str(tmp_path / case))
    assert _timings(tmp_path / case)["forward_reused"] is True
    assert artifact_tree(tmp_path / case) == artifact_tree(cold[case])


def test_a_study_over_basis_sizes_solves_the_truth_once(cold, tmp_path, artifact_tree,
                                                        monkeypatch):
    solves = []
    truth_solve = experiment.snapshot_set
    monkeypatch.setattr(experiment, "snapshot_set", lambda *args: (
        solves.append(args) or truth_solve(*args)))
    experiment._truth_stage.cache_clear()
    for i, (name, cfg) in enumerate(SIZE_STUDY.items()):
        run_experiment(cfg, str(tmp_path / name))
        assert _timings(tmp_path / name)["forward_reused"] is (i > 0), name
        assert artifact_tree(tmp_path / name) == artifact_tree(cold[name]), name
    assert len(solves) == 1


def test_a_warm_run_writes_what_a_cold_process_writes(cold, tmp_path, artifact_tree):
    run_experiment(BASE, str(tmp_path / "first"))
    run_experiment(BASE, str(tmp_path / "warm"))
    assert _timings(tmp_path / "warm")["forward_reused"] is True
    reference = artifact_tree(cold["base"])
    assert "denoised.csv" in reference
    assert artifact_tree(tmp_path / "warm") == reference


def test_a_changed_detector_layout_writes_what_a_cold_process_writes(
        cold, tmp_path, artifact_tree, monkeypatch):
    """The measurements CSV template is formatted once per layout."""
    templates = []
    measurements_template = serialize.measurements_template
    monkeypatch.setattr(serialize, "measurements_template", lambda points: (
        templates.append(points) or measurements_template(points)))
    experiment._detector_layout.cache_clear()
    for seed in (1, 2):
        run_experiment(replace(BASE, seed=seed), str(tmp_path / f"seed{seed}"))
    assert len(templates) == 1
    run_experiment(LAYOUT, str(tmp_path / "layout"))
    assert len(templates) == 2 and templates[1].shape == (35, 2)
    assert _timings(tmp_path / "layout")["forward_reused"] is True
    assert artifact_tree(tmp_path / "layout") == artifact_tree(cold["layout"])
    for array in templates:
        assert not array.flags.writeable


def test_arrays_held_by_the_truth_memo_are_read_only(tmp_path):
    run_experiment(BASE, str(tmp_path / "run"))
    hits = experiment._truth_stage.cache_info().hits
    stage = experiment._truth_stage(
        build_problem(BASE.kind, BASE.nx, BASE.ny, BASE.T, BASE.M, BASE.q, BASE.c),
        BASE.truth, BASE.max_snapshots)
    assert experiment._truth_stage.cache_info().hits == hits + 1
    for array in (stage.field, stage.final, stage.traditional.psi,
                  stage.traditional.eigenvalues):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


def test_the_truth_memo_keeps_one_entry(tmp_path):
    for i, truth in enumerate(("sin1", "sin2", "glyphA")):
        run_experiment(replace(BASE, truth=truth), str(tmp_path / str(i)))
        assert experiment._truth_stage.cache_info().currsize == 1


def test_a_truth_stage_the_memo_drops_is_freed(tmp_path):
    """The smoothness estimate lives on its truth stage, so nothing holds a
    stage once the truth memo has moved on to another truth."""
    run_experiment(BASE, str(tmp_path / "auto"))     # noisy, alpha = auto
    stage = weakref.ref(experiment._truth_stage(
        build_problem(BASE.kind, BASE.nx, BASE.ny, BASE.T, BASE.M, BASE.q, BASE.c),
        BASE.truth, BASE.max_snapshots))
    assert "smoothness" in vars(stage())
    run_experiment(replace(BASE, truth="sin1", noise=0.0), str(tmp_path / "clean"))
    gc.collect()
    assert stage() is None


def test_the_truth_memo_keys_on_the_resolved_final_time(tmp_path):
    cfg = replace(BASE, truth="glyphA", M=6)     # used by no other test
    run_experiment(replace(cfg, T=None), str(tmp_path / "default"))
    run_experiment(replace(cfg, T=1.0), str(tmp_path / "explicit"))
    assert _timings(tmp_path / "explicit")["forward_reused"] is True


def test_the_truth_memo_formats_its_fields_and_estimates_smoothness_once(
        tmp_path, monkeypatch):
    """The two truth-derived CSVs are formatted once per memo entry, and
    the smoothness estimate only when a noisy run selects alpha itself."""
    cfg = replace(BASE, truth="sin1", M=7)     # used by no other test
    formatted, estimates = [], []
    field_csv, h2_norm_estimate = serialize.field_csv, inversion.h2_norm_estimate
    monkeypatch.setattr(serialize, "field_csv", lambda grid, values: (
        formatted.append(values) or field_csv(grid, values)))
    monkeypatch.setattr(inversion, "h2_norm_estimate", lambda *args: (
        estimates.append(args) or h2_norm_estimate(*args)))
    run_experiment(replace(cfg, noise=0.0), str(tmp_path / "clean"))
    run_experiment(replace(cfg, alpha="1e-6"), str(tmp_path / "fixed_alpha"))
    assert estimates == []
    for seed in (1, 2):
        run_experiment(replace(cfg, seed=seed), str(tmp_path / f"auto{seed}"))
    assert len(estimates) == 1
    truth_stage = experiment._truth_stage(
        build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M, cfg.q, cfg.c),
        cfg.truth, cfg.max_snapshots)
    assert sum(values is truth_stage.field for values in formatted) == 1
    assert sum(values is truth_stage.final for values in formatted) == 1
    grid = truth_stage.traditional.grid
    for name, values in (("truth.csv", truth_stage.field),
                         ("final_state.csv", truth_stage.final)):
        assert (tmp_path / "auto2" / name).read_text() == field_csv(grid, values)


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
    real = adjpod.fem._factorize
    monkeypatch.setattr(adjpod.fem, "_factorize",
                        lambda a, shape: calls.append(a.shape) or real(a, shape))
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
    assert len(calls) == 5 and adjpod.fem._stepper.cache_info().currsize == 4
    solve_forward(ops, tg, f=f, g=zero)
    assert len(calls) == 6
    # a fresh factorization gives the same trajectories
    fresh = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    np.testing.assert_array_equal(solve_forward(fresh, tg, f=f, g=zero).states,
                                  first.states)
    np.testing.assert_array_equal(solve_forward(fresh, tg, f=zero, g=f).states,
                                  again.states)


def _held_denoise_factors() -> int:
    """How many factorizations the denoise memo holds."""
    return sum(entry is not None for entry in inversion._DENOISE_MEMO.values())


def test_the_denoise_memo_keeps_factors_once_a_layout_repeats(tmp_path, monkeypatch,
                                                               artifact_tree):
    calls = []
    factorize = inversion._factorize
    monkeypatch.setattr(inversion, "_factorize",
                        lambda a, shape: calls.append(a.shape) or factorize(a, shape))
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    # (config, its run's denoise factorizations, factorizations held after it)
    runs = [(BASE, 1, 0),                               # one-shot: nothing held
            (BASE, 1, 1),                               # the layout repeats: kept
            (BASE, 0, 1),                               # hit
            (replace(BASE, seed=4), 0, 1),              # same alpha on a new seed
            (replace(BASE, alpha="1e-6"), 1, 1),        # new alpha, same layout: kept
            (replace(BASE, detectors="5x5"), 1, 0),     # new layout: not kept
            (BASE, 1, 0)]                               # back again: not kept
    trees = {}
    for i, (cfg, factorized, held) in enumerate(runs):
        before = len(calls)
        run_experiment(cfg, str(tmp_path / str(i)))
        assert (len(calls) - before, _held_denoise_factors()) == (factorized, held), i
        trees.setdefault(cfg, []).append(artifact_tree(tmp_path / str(i)))
    for same in trees.values():
        assert all(tree == same[0] for tree in same)
    assert len(trees[BASE]) == 4
