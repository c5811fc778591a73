"""Bad config values are rejected when the config is loaded, naming the key.

Before, some of them ran silently (a gradient-descent knob in direct mode)
and the others failed late, in the stage that first used them.
"""

import math
import warnings

import numpy as np
import pytest

import adjpod.cli
from adjpod import (CoefficientSet, ExperimentConfig, assemble_operators, build_grid,
                    laplacian_stencil, load_config)
from adjpod.cli import main

# (override, INI key named in the message)
BAD_VALUES = [
    ("measurement.noise=nan", "measurement.noise"),
    ("measurement.noise=inf", "measurement.noise"),
    ("measurement.noise=-inf", "measurement.noise"),
    ("measurement.noise=-0.1", "measurement.noise"),
    ("time.t=nan", "time.t"),
    ("time.t=inf", "time.t"),
    ("time.t=0", "time.t"),
    ("time.t=-1", "time.t"),
    ("pod.energy=nan", "pod.energy"),
    ("pod.energy=inf", "pod.energy"),
    ("pod.energy=-1e-3", "pod.energy"),
    ("inverse.grad_tol=nan", "inverse.grad_tol"),
    ("inverse.grad_tol=-1", "inverse.grad_tol"),
    ("inverse.beta=-1", "inverse.beta"),
    ("inverse.beta=0", "inverse.beta"),
    ("inverse.beta=nan", "inverse.beta"),
    ("inverse.max_iters=0", "inverse.max_iters"),
    ("pod.n_pod=0", "pod.n_pod"),
    ("pod.max_snapshots=10", "pod.max_snapshots"),
    ("pod.max_snapshots=1", "pod.max_snapshots"),
    ("pod.n_pod=abc", "pod.n_pod"),
    ("measurement.seed=-1", "measurement.seed"),
    ("inverse.lambda=-1", "inverse.lambda"),
    ("measurement.alpha=0", "measurement.alpha"),
    ("measurement.alpha=-1", "measurement.alpha"),
    ("measurement.alpha=nan", "measurement.alpha"),
    ("measurement.alpha=1e308", "measurement.alpha"),
    ("inverse.lambda=plenty", "inverse.lambda"),
    ("coefficients.q=abc", "coefficients.q"),
    ("coefficients.q=nan", "coefficients.q"),
    ("coefficients.q=0", "coefficients.q"),
    ("coefficients.q=-1", "coefficients.q"),
    ("coefficients.q=1e308", "coefficients.q"),
    ("coefficients.c=varz", "coefficients.c"),
    ("coefficients.c=inf", "coefficients.c"),
    ("coefficients.c=-0.5", "coefficients.c"),
    ("measurement.detectors=50by50", "measurement.detectors"),
    ("measurement.detectors=0x5", "measurement.detectors"),
    ("measurement.detectors=5x-1", "measurement.detectors"),
    ("grid.nx=2", "grid.nx"),
    ("grid.ny=2", "grid.ny"),
    ("problem.kind=oblique", "problem.kind"),
    ("inverse.mode=annealing", "inverse.mode"),
    ("pod.basis=psychic", "pod.basis"),
    ("problem.truth=nosuch", "problem.truth"),
    ("pod.basis=foreign:nosuch", "pod.basis"),
    ("pod.basis=foreign:", "pod.basis"),
]
TINY = ("grid.nx=9", "grid.ny=9", "time.m=5")


@pytest.mark.parametrize("override,key", BAD_VALUES)
def test_load_config_names_the_key(override, key):
    with pytest.raises(ValueError, match=f"^{key}: "):
        load_config(None, overrides=TINY + (override,))


@pytest.mark.parametrize("override,key", BAD_VALUES)
def test_invert_fails_before_running(tmp_path, capsys, monkeypatch, override, key):
    def no_run(*args, **kwargs):
        raise AssertionError("a bad config reached the pipeline")

    monkeypatch.setattr(adjpod.cli, "run_experiment", no_run)
    argv = ["invert", "--out", str(tmp_path)]
    for item in TINY + (override,):
        argv += ["--set", item]
    assert main(argv) == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and key in fails[0]
    assert "Traceback" not in text and "internal error" not in text


@pytest.mark.parametrize("changes", [dict(T=None), dict(T=0.3), dict(energy=None),
                                     dict(energy=0.0), dict(grad_tol=0.0),
                                     dict(beta=1e-3), dict(max_iters=1),
                                     dict(max_snapshots=3), dict(noise=0.0),
                                     dict(seed=0), dict(lam="0"), dict(alpha="1e-9")])
def test_edge_values_stay_valid(changes):
    cfg = ExperimentConfig(**changes)
    assert all(getattr(cfg, name) == value for name, value in changes.items())


def test_forward_stores_only_the_final_state(tmp_path, monkeypatch):
    seen = []
    drive = adjpod.cli.drive

    def recording_drive(*args, **kwargs):
        traj = drive(*args, **kwargs)
        seen.append((kwargs.get("steps"), traj.n_states))
        return traj

    monkeypatch.setattr(adjpod.cli, "drive", recording_drive)
    assert main(["forward", "--input", "sin2", "--nx", "9", "--ny", "9", "--M", "7",
                 "--out", str(tmp_path)]) == 0
    assert len(seen) == 1 and np.array_equal(seen[0][0], [7]) and seen[0][1] == 1


@pytest.mark.parametrize("nx,ny", [(9, 9), (33, 17)])
def test_alpha_rule_bounds_the_largest_penalty_entry(nx, ny):
    # the rule's closed form for max|B^T B| is the stencil's own largest entry
    grid = build_grid(nx, ny)
    B = laplacian_stencil(grid)
    edge = float(np.finfo(float).max / (grid.hx * grid.hy * abs(B.T @ B).max()))
    assert ExperimentConfig(nx=nx, ny=ny, alpha=repr(0.5 * edge)).alpha == repr(0.5 * edge)
    with pytest.raises(ValueError, match="^measurement.alpha: .*overflows"):
        ExperimentConfig(nx=nx, ny=ny, alpha=repr(2.0 * edge))


def _q_accepted(nx, ny, q) -> bool:
    try:
        ExperimentConfig(nx=nx, ny=ny, q=repr(q))
    except ValueError as exc:
        assert str(exc).startswith("coefficients.q: diffusion coefficient q overflows "
                                   f"the stiffness matrix on a {nx}x{ny} grid")
        return False
    return True


@pytest.mark.parametrize("nx,ny", [(3, 3), (9, 9), (5, 64), (33, 17), (101, 101)])
def test_q_rule_agrees_with_the_assembled_stiffness(nx, ny):
    # the first three grids bind on the assembled diagonal, the others on the
    # element scale q / (2 hx hy); rounding in the node coordinates moves the
    # true threshold by about 1e-14 relative, inside the smallest step below
    lo, hi = 1.0, float(np.finfo(float).max)
    for _ in range(80):                     # bisect the rule's threshold in log q
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if _q_accepted(nx, ny, mid) else (lo, mid)
    grid = build_grid(nx, ny)
    for scale in (0.5, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12,
                  1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1 + 1e-3, 2.0):
        q = lo * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assemble_operators(grid, CoefficientSet(q=q))
                assembled = True
            except ValueError as exc:
                assert "overflow" in str(exc)
                assembled = False
        assert assembled == _q_accepted(nx, ny, q), (scale, q)
