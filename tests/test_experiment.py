"""Config plumbing and the end-to-end experiment pipeline."""

import functools
from pathlib import Path

import numpy as np
import pytest

from adjpod import (ExperimentConfig, StageError, TimeGrid, build_adjoint_pod, build_grid,
                    build_problem, build_reduced_model, detector_nodes,
                    hminus1_surrogate_error, load_config, make_shape, parse_coefficient,
                    parse_detector_spec, read_json, relative_l2_error, run_experiment,
                    snapshot_set, tikhonov_direct)

STUDIES = Path(__file__).resolve().parents[1] / "studies"

_FAST = dict(nx=17, ny=17, M=10, n_pod=4, detectors="10x10")
STAGES = ("setup", "truth", "forward", "measure", "denoise", "basis", "reduce",
          "invert", "metrics")
# every file a noise-free run writes, all in one directory; a noisy run adds
# denoised.csv
NOISE_FREE_FILES = ("truth.csv", "final_state.csv", "measurements.csv", "basis.csv",
                    "basis.json", "reduced_model.csv", "recovered.csv", "metrics.json",
                    "timings.json")


def _fast_config(**overrides):
    return ExperimentConfig(**{**_FAST, **overrides})


# ------------------------------------------------------------------ config


def test_config_defaults_resolve_final_time_by_kind():
    src = ExperimentConfig()
    assert src.kind == "source" and src.final_time == 1.0
    back = ExperimentConfig(kind="backward")
    assert back.final_time == 0.05
    fixed = ExperimentConfig(kind="backward", T=0.7)
    assert fixed.final_time == 0.7
    assert ExperimentConfig().to_dict()["T"] == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="oblique")
    with pytest.raises(ValueError):
        ExperimentConfig(nx=2)
    with pytest.raises(ValueError):
        ExperimentConfig(M=0)
    with pytest.raises(ValueError):
        ExperimentConfig(noise=-0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(mode="annealing")
    with pytest.raises(ValueError):
        ExperimentConfig(basis="psychic")
    with pytest.raises(ValueError):
        ExperimentConfig(detectors="50by50")
    with pytest.raises(ValueError):
        ExperimentConfig(q="negative-q")
    with pytest.raises(ValueError):
        ExperimentConfig(lam="plenty")


def test_parse_coefficient_literals_and_profiles():
    assert parse_coefficient("2.5") == 2.5
    fn = parse_coefficient("varq")
    assert fn(0.0, 0.0) == pytest.approx(2.0)
    assert fn(np.pi / 2, np.pi / 2) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="varc"):
        parse_coefficient("mystery")


def test_parse_detector_spec():
    assert parse_detector_spec("50x50") == (50, 50)
    assert parse_detector_spec("3X7") == (3, 7)
    with pytest.raises(ValueError):
        parse_detector_spec("50")
    with pytest.raises(ValueError):
        parse_detector_spec("0x5")


def test_detector_nodes_uniform_and_clipped():
    grid = build_grid(9, 7)
    nodes = detector_nodes(grid, "3x4")
    assert nodes.size == 12
    assert not np.any(grid.boundary[nodes])
    clipped = detector_nodes(grid, "100x100")
    np.testing.assert_array_equal(np.sort(clipped), grid.interior)


def test_load_config_from_ini_with_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[problem]\nkind = backward\ntruth = glyphA\n"
        "[grid]\nnx = 21\nny = 19\n"
        "[time]\nt = 0.08\nm = 24\n"
        "[inverse]\nlambda = 1e-8\nmode = gradient\n"
        "[output]\ndir = outx\n")
    cfg = load_config(str(path))
    assert cfg.kind == "backward"
    assert cfg.truth == "glyphA"
    assert (cfg.nx, cfg.ny) == (21, 19)
    assert cfg.T == 0.08 and cfg.M == 24
    assert cfg.lam == "1e-8" and cfg.mode == "gradient"
    assert cfg.out_dir == "outx"

    cfg2 = load_config(str(path), overrides=("GRID.NX=25", "pod.n_pod=5",
                                             "pod.energy=1e-10"))
    assert cfg2.nx == 25 and cfg2.ny == 19
    assert cfg2.n_pod == 5
    assert cfg2.energy == 1e-10


def test_overrides_strip_whitespace_as_ini_lines_do(tmp_path):
    path = tmp_path / "spaced.ini"
    path.write_text("[grid]\nnx = 9\n[problem]\ntruth= sin1\n")
    from_file = load_config(str(path))
    assert (from_file.nx, from_file.truth) == (9, "sin1")
    assert load_config(None, overrides=("grid.nx = 9", "problem.truth= sin1")) == from_file
    assert load_config(None, overrides=(" grid . nx\t=9 ",)).nx == 9


def test_load_config_rejects_unknown_and_malformed_entries(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\ntol = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(path))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(None, overrides=("problem.flavor=hot",))
    with pytest.raises(ValueError, match="section.key=value"):
        load_config(None, overrides=("gridnx=25",))


# ---------------------------------------------------------------- pipeline


def test_run_experiment_writes_artifacts_and_metrics(tmp_path):
    out = tmp_path / "run"
    metrics = run_experiment(_fast_config(), str(out))
    assert sorted(p.name for p in out.iterdir()) == sorted(NOISE_FREE_FILES)

    assert metrics["kind"] == "source"
    assert metrics["denoise"]["skipped"] is True
    assert metrics["denoise"]["alpha"] is None
    assert metrics["recovery"]["lambda"] == 1e-10
    assert metrics["recovery"]["iterations"] == 0
    assert 0.0 <= metrics["recovery"]["rel_l2_error"] < 1.0
    assert np.isfinite(metrics["recovery"]["rel_hminus1_surrogate_error"])
    assert metrics["reduced_vs_full"]["rel_l2_final_state_gap"] < 1.0
    assert metrics["basis"]["n_pod"] == 4
    timings = read_json(out / "timings.json")
    assert set(timings) == {"forward_reused", "stage_s"}
    assert isinstance(timings["forward_reused"], bool)
    assert set(timings["stage_s"]) == set(STAGES)
    for seconds in timings["stage_s"].values():
        assert type(seconds) is float and np.isfinite(seconds) and seconds >= 0.0
    disk = read_json(out / "metrics.json")
    assert disk["recovery"]["rel_l2_error"] == pytest.approx(
        metrics["recovery"]["rel_l2_error"])


def test_run_experiment_noisy_path_denoises(tmp_path):
    out = tmp_path / "noisy"
    metrics = run_experiment(_fast_config(noise=0.25, seed=5), str(out))
    assert sorted(p.name for p in out.iterdir()) == sorted(NOISE_FREE_FILES +
                                                           ("denoised.csv",))
    assert metrics["denoise"]["skipped"] is False
    assert metrics["denoise"]["alpha"] > 0
    assert metrics["denoise"]["rel_l2_error_vs_clean_state"] < 1.0
    assert metrics["recovery"]["lambda"] > 1e-10
    meas = read_json(out / "metrics.json")["measurement"]
    assert meas == metrics["measurement"]
    assert meas["n_detectors"] == 100 and meas["seed"] == 5
    assert meas["noise_level"] == 0.25
    assert meas["sigma"] > 0
    assert meas["quasi_uniformity"] >= 1.0


def test_run_experiment_gradient_mode_and_foreign_basis(tmp_path):
    metrics = run_experiment(
        _fast_config(mode="gradient", max_iters=400, lam="1e-8",
                     basis="foreign:sin1", truth="sin2"),
        str(tmp_path / "gd"))
    assert metrics["recovery"]["mode"] == "gradient"
    assert metrics["recovery"]["iterations"] > 0
    assert metrics["basis"]["source"] == "foreign:sin1"


def test_stage_error_carries_the_failing_stage(tmp_path):
    cfg = _fast_config(truth="glyphA", nx=5, ny=5)     # zero at every node
    with pytest.raises(StageError) as err:
        run_experiment(cfg, str(tmp_path / "boom"))
    assert err.value.stage == "truth"
    assert "problem.truth: shape 'glyphA' is zero at every node of the 5x5 grid" in \
        str(err.value)
    assert isinstance(err.value.original, ValueError)


def test_a_foreign_shape_zero_on_the_grid_fails_in_the_basis_stage(tmp_path):
    with pytest.raises(StageError) as err:
        run_experiment(_fast_config(basis="foreign:glyphA", nx=5, ny=5),
                       str(tmp_path / "boom"))
    assert err.value.stage == "basis"
    assert "pod.basis: shape 'glyphA' is zero at every node of the 5x5 grid" in \
        str(err.value)
    assert isinstance(err.value.original, ValueError)


def test_an_alpha_that_smooths_the_readings_to_zero_fails_in_the_denoise_stage(tmp_path):
    with pytest.raises(StageError) as err:
        run_experiment(_fast_config(nx=9, ny=9, M=5, noise=0.1, alpha="1e300"),
                       str(tmp_path / "boom"))
    assert err.value.stage == "denoise"
    assert "measurement.alpha=1e+300 smooths the readings to a zero field; lower it" in \
        str(err.value)
    assert isinstance(err.value.original, ValueError)


def test_metrics_are_bit_reproducible_modulo_timings(tmp_path, artifact_tree):
    """The output directory is no input of a result: two runs that differ
    only in it write the same bytes, ``timings.json`` aside."""
    for side in ("a", "b"):
        run_experiment(_fast_config(noise=0.10, seed=42, out_dir=str(tmp_path / side)))
    tree = artifact_tree(tmp_path / "a")
    assert "metrics.json" in tree and "denoised.csv" in tree
    assert artifact_tree(tmp_path / "b") == tree


def test_surrogate_error_vanishes_on_exact_recovery(desk_ops):
    truth = np.sin(desk_ops.grid.coords[:, 0]) * np.sin(desk_ops.grid.coords[:, 1])
    assert hminus1_surrogate_error(desk_ops, truth, truth) == 0.0
    assert hminus1_surrogate_error(desk_ops, 1.1 * truth, truth) > 0.0


def _errors(runs: dict) -> dict:
    return {tag: metrics["recovery"]["rel_l2_error"] for tag, metrics in runs.items()}


def _basis_importance(runs):
    """The adjoint basis recovers within 0.10; the sin1-driven basis is at
    least 5x worse."""
    errors = _errors(runs)
    assert errors["adjoint"] <= 0.10
    assert errors["foreign_sin1"] >= 5.0 * errors["adjoint"]


def _basis_comparison(runs, smooth, glyph, tol, angle_tol):
    """Both bases recover the smooth truth within ``tol``, both glyph
    recoveries are finite, and, given ``angle_tol``, the adjoint basis sized
    to its dominant energy lies within that many radians of the inverse-crime
    one (trailing near-degenerate modes are numerically arbitrary)."""
    errors = _errors(runs)
    assert errors[f"{smooth}_adjoint"] <= tol
    assert errors[f"{smooth}_traditional"] <= tol
    assert np.isfinite(errors[f"{glyph}_adjoint"])
    assert np.isfinite(errors[f"{glyph}_traditional"])
    if angle_tol is not None:
        probe = runs[f"{smooth}_angle_probe"]["basis"]
        assert probe["largest_angle_vs_traditional"] <= angle_tol


STUDY_CHECKS = {
    "4.1": _basis_importance,
    "4.2": functools.partial(_basis_comparison, smooth="sin2", glyph="glyphZ",
                             tol=0.05, angle_tol=0.2),
    "4.4": _basis_importance,
    # No angle check: backward-kind adjoint snapshots live one propagation
    # interval deeper than the truth trajectory, so even energy-significant
    # modes legitimately drift from the inverse-crime baseline.
    "4.5": functools.partial(_basis_comparison, smooth="sin2exp", glyph="glyphA",
                             tol=0.10, angle_tol=None),
}


@pytest.mark.parametrize("label", sorted(STUDY_CHECKS))
def test_basis_importance_and_comparison_presets_pass(label, tmp_path, sweep_study):
    STUDY_CHECKS[label](sweep_study(label, tmp_path))


def test_a_source_kind_basis_recovers_the_backward_truth_within_twice_native(
        tmp_path, sweep_study):
    """Study 4.7: on the basis of the source-kind auxiliary solve driven by
    the same noise-free data, the backward truth is recovered within 2x of
    the native run's error.  No config names that basis, so the recovery is
    composed from the public stages."""
    native = sweep_study("4.7", tmp_path)["native_backward"]["recovery"]["rel_l2_error"]
    cfg = load_config(str(STUDIES / "4.7" / "native_backward.ini"))
    kind, grid, ops, tg = build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M, cfg.q, cfg.c)
    truth = make_shape(cfg.truth, grid)
    m = snapshot_set(kind, truth, ops, tg, cfg.max_snapshots).states[-1]
    source_tg = TimeGrid(T=ExperimentConfig(kind="source").final_time, M=cfg.M)
    basis = build_adjoint_pod("source", m, ops, source_tg, n_modes=cfg.n_pod,
                              max_snapshots=cfg.max_snapshots)
    model = build_reduced_model(ops, basis, tg, kind)
    cross = relative_l2_error(ops, tikhonov_direct(model, m, 1e-10), truth)
    assert cross <= 2.0 * native
