"""Non-finite inputs are rejected with a message that names the value."""

import math

import numpy as np
import pytest

from adjpod import (CoefficientSet, ExperimentConfig, InverseConfig, TimeGrid,
                    assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, gradient_of_J, solve_forward,
                    tikhonov_direct_reduced, tikhonov_gradient_descent_reduced,
                    write_field_csv)
from adjpod.cli import main
from adjpod.fem import conform_dirichlet

BAD = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def grid():
    return build_grid(11, 11)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def model(grid, ops):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    m = np.sin(x) * np.sin(y) + 0.3 * np.sin(x) * np.sin(2 * y)
    tg = TimeGrid(T=0.4, M=8)
    basis = build_adjoint_pod("source", m, ops, tg, n_modes=4)
    return build_reduced_model(ops, basis, tg, "source")


def _with_bad_entry(n, bad):
    values = np.linspace(0.1, 0.4, n)
    values[1] = bad
    return values


@pytest.mark.parametrize("bad", BAD)
def test_inverse_config_rejects_non_finite_lambda(bad):
    with pytest.raises(ValueError, match=f"Tikhonov weight.*{bad}"):
        InverseConfig(lam=bad)


@pytest.mark.parametrize("bad", BAD)
def test_inverse_config_rejects_non_finite_step(bad):
    with pytest.raises(ValueError, match=f"step size.*{bad}"):
        InverseConfig(beta=bad)


@pytest.mark.parametrize("bad", BAD)
def test_direct_solve_rejects_non_finite_lambda(model, bad):
    with pytest.raises(ValueError, match=f"Tikhonov weight.*{bad}"):
        tikhonov_direct_reduced(model, np.ones(model.n_pod), bad)


@pytest.mark.parametrize("bad", BAD)
def test_direct_solve_rejects_non_finite_data(model, bad):
    with pytest.raises(ValueError, match=f"m_r must be finite.*{bad}"):
        tikhonov_direct_reduced(model, _with_bad_entry(model.n_pod, bad), 1e-6)


@pytest.mark.parametrize("bad", BAD)
def test_gradient_rejects_non_finite_lambda(model, bad):
    f = np.zeros(model.n_pod)
    with pytest.raises(ValueError, match=f"Tikhonov weight.*{bad}"):
        gradient_of_J(model, f, np.ones(model.n_pod), bad)


@pytest.mark.parametrize("bad", BAD)
def test_gradient_rejects_non_finite_data(model, bad):
    f = np.zeros(model.n_pod)
    with pytest.raises(ValueError, match=f"m_r must be finite.*{bad}"):
        gradient_of_J(model, f, _with_bad_entry(model.n_pod, bad), 1e-6)


@pytest.mark.parametrize("bad", BAD)
def test_descent_rejects_non_finite_data(model, bad):
    cfg = InverseConfig(lam=1e-6, mode="gradient", max_iters=5)
    with pytest.raises(ValueError, match=f"m_r must be finite.*{bad}"):
        tikhonov_gradient_descent_reduced(model, _with_bad_entry(model.n_pod, bad), cfg)


@pytest.mark.parametrize("key", ["lam", "alpha"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
def test_experiment_config_rejects_non_finite_strings(key, raw):
    with pytest.raises(ValueError, match=f"{key} must be 'auto' or a finite number.*{raw}"):
        ExperimentConfig(**{key: raw})


@pytest.mark.parametrize("bad", BAD)
def test_conform_dirichlet_rejects_non_finite_values(grid, bad):
    values = np.zeros(grid.n_nodes)
    values[grid.interior[0]] = bad
    with pytest.raises(ValueError, match="initial state must be finite"):
        conform_dirichlet(grid, values, "initial state")


def test_forward_solve_rejects_a_nan_source(grid, ops):
    f = np.zeros(grid.n_nodes)
    f[grid.interior[3]] = math.nan
    with pytest.raises(ValueError, match="source term must be finite"):
        solve_forward(ops, TimeGrid(T=0.1, M=2), f=f, g=np.zeros(grid.n_nodes))


def test_cli_forward_rejects_a_nan_field(tmp_path, capsys):
    grid = build_grid(9, 9)
    values = np.zeros(grid.n_nodes)
    values[grid.interior[0]] = math.nan
    path = tmp_path / "nan_field.csv"
    write_field_csv(path, grid, values)
    code = main(["forward", "--input", str(path), "--nx", "9", "--ny", "9",
                 "--M", "2", "--out", str(tmp_path / "fwd")])
    assert code == 1
    assert "source term" in capsys.readouterr().err
