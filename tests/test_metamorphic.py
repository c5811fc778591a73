"""Relations the pipeline keeps between runs (metamorphic checks).

Scale: every stage of the direct path is positively homogeneous in the
truth, and multiplying by a power of two rounds nothing, so scaling the
truth by 2^k scales each field artifact by exactly 2^k and leaves the
basis, the chosen weights and every relative error bit for bit alone.

Transpose: swapping the grid's axes together with the detector counts
mirrors the problem for a truth symmetric in x and y, so the recovery
error agrees up to the roundoff that lambda = 1e-10 amplifies, and the
detector layout's figures agree exactly.
"""

import json

import numpy as np
import pytest

from adjpod import ExperimentConfig, experiment, make_shape, run_experiment, serialize

SCALE_EXPONENTS = (-30, 20)
FIELDS = ("truth.csv", "final_state.csv", "recovered.csv")


@pytest.fixture
def fresh_truth_stage():
    """Truth stages built under a patched ``make_shape`` must not outlive
    the test: clear the memo before and after."""
    experiment._truth_stage.cache_clear()
    yield
    experiment._truth_stage.cache_clear()


def _scaled_run(monkeypatch, cfg, out, exponent):
    monkeypatch.setattr(experiment, "make_shape",
                        lambda name, grid: np.ldexp(make_shape(name, grid), exponent))
    experiment._truth_stage.cache_clear()
    run_experiment(cfg, str(out))
    return json.loads((out / "metrics.json").read_text())


def _field(path):
    return serialize.read_field_csv(path)[1]


@pytest.mark.parametrize("kind,truth", [("source", "sin2exp"), ("backward", "glyphA")])
@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_scaling_the_truth_scales_every_field_and_keeps_every_ratio(
        tmp_path, monkeypatch, fresh_truth_stage, kind, truth, noise):
    cfg = ExperimentConfig(kind=kind, truth=truth, nx=17, ny=17, M=20, n_pod=6,
                           detectors="12x12", noise=noise, seed=3)
    base = _scaled_run(monkeypatch, cfg, tmp_path / "base", 0)
    names = FIELDS + (("denoised.csv",) if noise else ())
    for exponent in SCALE_EXPONENTS:
        out = tmp_path / f"scaled{exponent}"
        scaled = _scaled_run(monkeypatch, cfg, out, exponent)
        for name in names:
            assert np.array_equal(_field(out / name),
                                  np.ldexp(_field(tmp_path / "base" / name), exponent)), name
        points, readings = serialize.read_measurements_csv(out / "measurements.csv")
        base_points, base_readings = serialize.read_measurements_csv(
            tmp_path / "base" / "measurements.csv")
        assert np.array_equal(points, base_points)
        assert np.array_equal(readings, np.ldexp(base_readings, exponent))
        assert (out / "basis.csv").read_bytes() == (tmp_path / "base" / "basis.csv").read_bytes()
        assert scaled["recovery"]["lambda"] == base["recovery"]["lambda"]
        assert scaled["denoise"] == base["denoise"]
        assert scaled["basis"] == base["basis"]
        for section, key in (("recovery", "rel_l2_error"),
                             ("recovery", "rel_hminus1_surrogate_error"),
                             ("reduced_vs_full", "rel_l2_final_state_gap")):
            assert scaled[section][key] == base[section][key], key
        assert scaled["measurement"]["sigma"] == np.ldexp(base["measurement"]["sigma"],
                                                          exponent)


@pytest.mark.parametrize("kind,truth", [("source", "sin2"), ("source", "sin2exp"),
                                        ("backward", "sin2"), ("backward", "sin2exp")])
def test_transposing_grid_and_detectors_keeps_the_recovery(tmp_path, kind, truth):
    runs = []
    for nx, ny, detectors in ((33, 21, "15x25"), (21, 33, "25x15")):
        out = tmp_path / f"{nx}x{ny}"
        run_experiment(ExperimentConfig(kind=kind, truth=truth, nx=nx, ny=ny,
                                        detectors=detectors), str(out))
        runs.append(json.loads((out / "metrics.json").read_text()))
    wide, tall = runs
    assert tall["recovery"]["rel_l2_error"] == pytest.approx(
        wide["recovery"]["rel_l2_error"], rel=1e-5, abs=0)
    assert tall["recovery"]["lambda"] == wide["recovery"]["lambda"]
    for key in ("n_detectors", "quasi_uniformity"):
        assert tall["measurement"][key] == wide["measurement"][key], key
