"""Command-line entry points, driven in-process through main()."""

from pathlib import Path

import numpy as np
import pytest

from adjpod import add_noise, build_grid, make_shape, read_json
from adjpod import serialize
from adjpod.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
_SMALL = ["--nx", "17", "--ny", "17", "--M", "10"]


def _small_ini(tmp_path, name="run.ini", truth="sin2"):
    path = tmp_path / name
    path.write_text(
        f"[problem]\nkind = source\ntruth = {truth}\n"
        "[grid]\nnx = 17\nny = 17\n"
        "[time]\nm = 10\n"
        "[pod]\nn_pod = 4\n"
        "[measurement]\ndetectors = 10x10\n")
    return str(path)


def test_forward_with_shape_input(tmp_path, capsys):
    out = tmp_path / "fwd"
    code = main(["forward", "--input", "sin1", "--out", str(out)] + _SMALL)
    assert code == 0
    assert (out / "input.csv").is_file()
    assert (out / "final_state.csv").is_file()
    report = read_json(out / "forward.json")
    assert report["kind"] == "source"
    assert report["final_l2_norm"] > 0
    assert "PASS" in capsys.readouterr().out


def test_forward_reads_a_shape_name_shadowed_by_a_directory(tmp_path, monkeypatch):
    (tmp_path / "sin2").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["forward", "--input", "sin2", "--nx", "9", "--ny", "9", "--M", "5",
                 "--out", "fwd"]) == 0
    _, values = serialize.read_field_csv(tmp_path / "fwd" / "input.csv")
    np.testing.assert_allclose(values, make_shape("sin2", build_grid(9, 9)), atol=1e-12)


def test_forward_with_field_csv_and_grid_mismatch(tmp_path, capsys):
    grid = build_grid(17, 17)
    field_path = tmp_path / "field.csv"
    serialize.write_field_csv(field_path, grid, make_shape("sin2", grid))
    out = tmp_path / "fwd_csv"
    assert main(["forward", "--input", str(field_path),
                 "--out", str(out)] + _SMALL) == 0
    capsys.readouterr()
    code = main(["forward", "--input", str(field_path), "--out", str(out),
                 "--nx", "21", "--ny", "21", "--M", "10"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_adjoint_pod_fixed_count_and_energy(tmp_path, capsys):
    out = tmp_path / "pod"
    code = main(["adjoint-pod", "--data", "sin2", "--n-pod", "4",
                 "--out", str(out)] + _SMALL)
    assert code == 0
    report = read_json(out / "basis.json")
    assert report["n_pod"] == 4
    assert 4 <= report["retained_rank"]
    assert 0.0 <= report["rho"] <= 1.0
    assert len((out / "basis.csv").read_text().splitlines()) == 4
    assert sorted(p.name for p in out.iterdir()) == ["basis.csv", "basis.json"]
    assert capsys.readouterr().out.count("PASS") == 2

    out2 = tmp_path / "pod_energy"
    code = main(["adjoint-pod", "--data", "sin2", "--energy", "1e-10",
                 "--kind", "backward", "--out", str(out2)] + _SMALL)
    assert code == 0
    assert read_json(out2 / "basis.json")["provenance"]["kind"] == "backward"


@pytest.mark.parametrize("command,flag", [("forward", "--input"), ("adjoint-pod", "--data")])
def test_a_field_shape_zero_on_the_grid_fails_naming_its_flag(tmp_path, capsys, command, flag):
    """glyphA is zero at every node of a 5x5 grid: the command fails before
    any solve, naming the option, the shape and the grid."""
    out = tmp_path / "zero"
    code = main([command, flag, "glyphA", "--nx", "5", "--ny", "5", "--M", "5",
                 "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert f"{flag}: shape 'glyphA' is zero at every node of the 5x5 grid" in captured.err
    assert "PASS" not in captured.out and not out.exists()


def _write_measurements(tmp_path):
    grid = build_grid(17, 17)
    field = make_shape("sin1", grid)
    det = grid.coords[grid.interior]
    ms = add_noise(det, field[grid.interior], p=0.1, seed=1)
    path = tmp_path / "meas.csv"
    serialize.write_measurements_csv(path, ms)
    return str(path), ms


def test_denoise_with_explicit_alpha(tmp_path, capsys):
    meas, _ = _write_measurements(tmp_path)
    out = tmp_path / "dn"
    code = main(["denoise", "--measurements", meas, "--nx", "17", "--ny", "17",
                 "--alpha", "1e-6", "--out", str(out)])
    assert code == 0
    assert (out / "denoised.csv").is_file()
    assert read_json(out / "denoise.json")["alpha"] == 1e-6
    assert "PASS" in capsys.readouterr().out


def test_denoise_auto_alpha_requires_sigma(tmp_path, capsys):
    meas, ms = _write_measurements(tmp_path)
    out = tmp_path / "dn_auto"
    code = main(["denoise", "--measurements", meas, "--nx", "17", "--ny", "17",
                 "--out", str(out)])
    assert code == 1
    assert "sigma" in capsys.readouterr().err
    code = main(["denoise", "--measurements", meas, "--nx", "17", "--ny", "17",
                 "--sigma", str(ms.sigma), "--out", str(out)])
    assert code == 0
    assert read_json(out / "denoise.json")["alpha"] > 0


def test_denoise_rejects_a_detector_off_the_grid_nodes(tmp_path, capsys):
    grid = build_grid(17, 17)
    points = grid.coords[grid.interior[:5]].copy()
    points[3] += (0.5 * grid.hx, 0.0)         # halfway between two nodes
    path = tmp_path / "meas.csv"
    serialize.write_measurements_csv(path, add_noise(points, np.ones(5), 0.0))
    out = tmp_path / "dn"
    code = main(["denoise", "--measurements", str(path), "--nx", "17", "--ny", "17",
                 "--alpha", "1e-6", "--out", str(out)])
    assert code == 1
    x, y = serialize.read_measurements_csv(path)[0][3]
    assert (f"FAIL  detector ({float(x)!r}, {float(y)!r}) does not coincide with a grid "
            f"node of the 17x17 grid") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--alpha", "1e300"], "FAIL  --alpha=1e+300 smooths the readings to a zero field"),
    (["--alpha", "abc"], "FAIL  --alpha takes 'auto' or a positive number, got 'abc'"),
    (["--alpha", "1e-6", "--nx", "13", "--ny", "13"], "of the 13x13 grid"),
    (["--alpha", "-1"], "FAIL  --alpha takes 'auto' or a positive number, got '-1'"),
    (["--alpha", "0"], "FAIL  --alpha takes 'auto' or a positive number, got '0'"),
    (["--alpha", "1e-6", "--sigma", "-5"], "FAIL  --sigma must be finite and >= 0, got -5.0"),
    (["--sigma", "nan"], "FAIL  --sigma must be finite and >= 0, got nan"),
])
def test_denoise_rejects_what_invert_rejects(tmp_path, capsys, flags, named):
    """A weight that fits a zero field, a weight that is no positive number,
    a detector off the grid and a noise scale that is no finite number >= 0
    each fail naming what is wrong."""
    meas, _ = _write_measurements(tmp_path)
    out = tmp_path / "dn"
    code = main(["denoise", "--measurements", meas, "--nx", "17", "--ny", "17",
                 "--out", str(out)] + flags)
    assert code == 1
    err = capsys.readouterr().err
    assert named in err
    assert "np.float64" not in err and "Traceback" not in err
    assert not out.exists()


def test_invert_with_config_and_overrides(tmp_path, capsys):
    ini = _small_ini(tmp_path)
    out = tmp_path / "inv"
    code = main(["invert", "--config", ini, "--set", "measurement.noise=0.1",
                 "--set", "measurement.seed=3", "--out", str(out)])
    assert code == 0
    metrics = read_json(out / "metrics.json")
    assert metrics["config"]["noise"] == 0.1
    assert metrics["config"]["seed"] == 3
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and str(out) in stdout


def test_invert_reports_failing_stage(tmp_path, capsys):
    ini = _small_ini(tmp_path, truth="glyphA")     # zero at every node of a 5x5 grid
    code = main(["invert", "--config", ini, "--set", "grid.nx=5", "--set", "grid.ny=5",
                 "--out", str(tmp_path / "bad")])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "FAIL" in text and "stage 'truth'" in text


def test_invert_reads_a_percent_sign_literally(tmp_path):
    ini = _small_ini(tmp_path)
    out = tmp_path / "out%1"
    with open(ini, "a") as fh:
        fh.write(f"[output]\ndir = {out}\n")
    assert main(["invert", "--config", ini]) == 0
    assert (out / "metrics.json").is_file()


@pytest.mark.parametrize("text", [
    "nx = 17\n",
    "[grid]\nnx = 17\nnx = 19\n",
    "[grid]\nnx 17\n",
], ids=["no-section-header", "duplicate-key", "no-equals-sign"])
def test_invert_names_a_malformed_config(tmp_path, capsys, text):
    path = tmp_path / "malformed.ini"
    path.write_text(text)
    code = main(["invert", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and str(path) in fails[0]
    assert "Traceback" not in text
    assert not (tmp_path / "out").exists()


def test_verify_theory_small_levels(tmp_path, capsys):
    out = tmp_path / "theory"
    code = main(["verify-theory", "--levels", "2,3", "--nx", "17", "--ny", "17",
                 "--out", str(out)])
    assert code == 0
    report = read_json(out / "verify_theory.json")
    assert report["passed"] is True
    assert len(report["records"]) == 4        # both kinds x two levels
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 8
    assert "FAIL" not in stdout


def test_verify_theory_rejects_zero_levels(capsys):
    code = main(["verify-theory", "--levels", "0", "--nx", "9", "--ny", "9"])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and "L=0" in fails[0]
    assert "Traceback" not in text


def test_verify_theory_rejects_non_integer_levels(capsys):
    code = main(["verify-theory", "--levels", "abc", "--nx", "9", "--ny", "9"])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1
    assert "--levels" in fails[0] and "comma-separated positive integers" in fails[0]
    assert "'abc'" in fails[0] and "int()" not in fails[0]
    assert "Traceback" not in text


def test_sweep_runs_a_study_directory(tmp_path, capsys):
    study = ROOT / "studies" / "4.7"
    out = tmp_path / "4.7"
    code = main(["sweep", *map(str, sorted(study.glob("*.ini"))), "--out", str(out)])
    assert code == 0
    assert read_json(out / "sweep.json")["passed"] is True
    assert (out / "native_backward" / "metrics.json").is_file()
    stdout = capsys.readouterr().out
    assert f"PASS  sweep config {study / 'native_backward.ini'}" in stdout


def test_sweep_runs_configs_in_parallel(tmp_path, capsys):
    ini_a = _small_ini(tmp_path, "a.ini")
    ini_b = _small_ini(tmp_path, "b.ini")
    out = tmp_path / "sweep"
    code = main(["sweep", ini_a, ini_b, "--set", "measurement.noise=0.1",
                 "--out", str(out), "--jobs", "2"])
    assert code == 0
    report = read_json(out / "sweep.json")
    assert report["passed"] is True
    assert len(report["runs"]) == 2
    assert all(np.isfinite(r["rel_l2_error"]) for r in report["runs"])
    assert (out / "a" / "metrics.json").is_file()
    assert (out / "b" / "metrics.json").is_file()
    assert capsys.readouterr().out.count("PASS") == 2


def test_sweep_surfaces_failures(tmp_path, capsys):
    ini_ok = _small_ini(tmp_path, "ok.ini")
    ini_bad = _small_ini(tmp_path, "bad.ini", truth="not-a-shape")
    out = tmp_path / "sweep_bad"
    code = main(["sweep", ini_ok, ini_bad, "--out", str(out), "--jobs", "1"])
    assert code == 1
    report = read_json(out / "sweep.json")
    assert report["passed"] is False
    flags = {r["config"]: r["ok"] for r in report["runs"]}
    assert flags[ini_ok] is True and flags[ini_bad] is False
    assert "FAIL" in capsys.readouterr().out


def test_sweep_rejects_configs_that_share_a_file_name(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    ini_a = _small_ini(tmp_path, "a/run.ini", truth="sin1")
    ini_b = _small_ini(tmp_path, "b/run.ini", truth="glyphA")
    out = tmp_path / "sweep"
    code = main(["sweep", ini_a, ini_b, "--out", str(out), "--jobs", "1"])
    assert code == 1
    captured = capsys.readouterr()
    fails = [line for line in (captured.out + captured.err).splitlines() if "FAIL" in line]
    assert len(fails) == 1 and ini_a in fails[0] and ini_b in fails[0]
    assert not out.exists()                 # rejected before any run starts


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps
    in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("jobs,workers", [("500", 2), ("2", 2)])
def test_sweep_starts_at_most_one_worker_per_config(tmp_path, capsys, monkeypatch,
                                                    jobs, workers):
    monkeypatch.setattr("adjpod.cli.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    configs = [_small_ini(tmp_path, "a.ini"), _small_ini(tmp_path, "b.ini")]
    code = main(["sweep", *configs, "--out", str(tmp_path / "sweep"), "--jobs", jobs])
    assert code == 0
    assert _RecordingPool.sizes == [workers]
    assert capsys.readouterr().out.count("PASS") == 2


def test_sweep_of_one_config_starts_no_pool(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("adjpod.cli.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    code = main(["sweep", _small_ini(tmp_path), "--out", str(tmp_path / "sweep"),
                 "--jobs", "500"])
    assert code == 0 and _RecordingPool.sizes == []


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr("adjpod.cli.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    out = tmp_path / "sweep"
    code = main(["sweep", _small_ini(tmp_path), "--out", str(out), "--jobs", jobs])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and "--jobs" in fails[0] and jobs in fails[0]
    assert "PASS" not in text and "Traceback" not in text
    assert _RecordingPool.sizes == [] and not out.exists()


def test_cli_rejects_a_missing_subcommand():
    with pytest.raises(SystemExit):
        main([])


def _default_jobs():
    return build_parser().parse_args(["sweep", "run.ini"]).jobs


def test_sweep_jobs_default_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    assert _default_jobs() == 1


@pytest.mark.parametrize("count,jobs", [(3, 3), (None, 1)])
def test_sweep_jobs_default_to_the_cpu_count_without_affinity(monkeypatch, count, jobs):
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: count)
    assert _default_jobs() == jobs
