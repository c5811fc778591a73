"""Non-finite inputs are rejected with a message that names the value."""

import math
import warnings

import numpy as np
import pytest

import adjpod.fem
import adjpod.inversion
import adjpod.reduced
from adjpod import (CoefficientSet, ExperimentConfig, InverseConfig, TimeGrid,
                    add_noise, assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, compute_pod_basis, denoise, gradient_of_J,
                    make_shape, select_alpha, solve_forward, tikhonov_direct_reduced,
                    tikhonov_gradient_descent_reduced, write_field_csv,
                    write_measurements_csv)
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


@pytest.mark.parametrize("bad", BAD + [-1.0])
def test_inverse_config_rejects_a_bad_gradient_tolerance(bad):
    with pytest.raises(ValueError, match=f"gradient tolerance.*{bad}"):
        InverseConfig(grad_tol=bad)


def test_inverse_config_accepts_a_zero_gradient_tolerance():
    assert InverseConfig(grad_tol=0.0).grad_tol == 0.0


@pytest.mark.parametrize("bad", BAD)
def test_pod_basis_rejects_a_non_finite_energy_tolerance(grid, ops, bad):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    snaps = np.stack([np.sin(x) * np.sin(y), np.sin(2 * x) * np.sin(y)])
    with pytest.raises(ValueError, match=f"energy_tol.*{bad}"):
        compute_pod_basis(snaps, energy_tol=bad, ops=ops)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_time_grid_rejects_a_non_finite_final_time(bad):
    with pytest.raises(ValueError, match=f"final time.*{bad}"):
        TimeGrid(T=bad, M=4)


@pytest.mark.parametrize("name", ["q", "c"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_assembly_rejects_non_finite_coefficients(grid, name, bad):
    coeffs = CoefficientSet(**{name: bad})
    with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
        assemble_operators(grid, coeffs)


@pytest.mark.parametrize("override,named", [("time.t=inf", "final time"),
                                            ("coefficients.q=nan", "coefficient q"),
                                            ("coefficients.c=inf", "coefficient c")])
def test_cli_invert_names_a_non_finite_problem_value(tmp_path, capsys, override, named):
    code = main(["invert", "--set", "grid.nx=9", "--set", "grid.ny=9",
                 "--set", "time.m=5", "--set", override, "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    out = captured.out + captured.err
    assert named in out and "internal error" not in out


def test_cli_invert_names_a_diffusion_coefficient_that_overflows(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["invert", "--set", "grid.nx=9", "--set", "grid.ny=9",
                     "--set", "time.m=10", "--set", "coefficients.q=1e308",
                     "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1
    assert "coefficients.q: diffusion coefficient q overflows" in fails[0]
    assert "stage" not in fails[0]              # rejected at load, before setup
    assert "internal error" not in text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_forward_names_a_diffusion_coefficient_that_overflows(tmp_path, capsys):
    # no config here: the check inside assemble_operators names q
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["forward", "--input", "sin2", "--nx", "9", "--ny", "9", "--M", "5",
                     "--q", "1e308", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1
    assert "diffusion coefficient q overflows the stiffness matrix" in fails[0]
    assert "Traceback" not in text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("overrides,stage,named", [
    (["coefficients.c=1e308"], "forward", "coefficients.c"),
    (["measurement.noise=0.1", "measurement.alpha=1e300"], "denoise",
     "measurement.alpha=1e+300"),
], ids=["c-decays-the-truth-to-zero", "alpha-smooths-the-fit-to-zero"])
def test_cli_invert_names_the_key_that_zeroes_a_field(tmp_path, capsys, overrides,
                                                      stage, named):
    sets = [arg for item in overrides for arg in ("--set", item)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["invert", "--set", "grid.nx=9", "--set", "grid.ny=9",
                     "--set", "time.m=10", *sets, "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and f"stage '{stage}'" in fails[0] and named in fails[0]
    assert "internal error" not in text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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
    cfg = InverseConfig(lam=1e-6, max_iters=5)
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


@pytest.mark.parametrize("kind", ["source", "backward"])
@pytest.mark.parametrize("bad", BAD)
def test_adjoint_pod_rejects_a_non_finite_measurement_field_before_solving(
        grid, ops, monkeypatch, kind, bad):
    m = np.sin(grid.coords[:, 0]) * np.sin(grid.coords[:, 1])
    m[grid.interior[2]] = bad
    solves = []
    monkeypatch.setattr(adjpod.reduced, "solve_forward",
                        lambda *args, **kwargs: solves.append(args))
    with pytest.raises(ValueError, match="measurement field must be finite"):
        build_adjoint_pod(kind, m, ops, TimeGrid(T=0.4, M=8), n_modes=4)
    assert solves == []


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


# ------------------------------------------------------------ denoising weights

@pytest.fixture(scope="module")
def noisy(grid):
    nodes = grid.interior[::2]
    return add_noise(grid.coords[nodes], make_shape("sin2", grid)[nodes], 0.1, seed=1)


@pytest.mark.parametrize("bad", BAD)
def test_denoise_rejects_a_non_finite_alpha(grid, noisy, bad):
    with pytest.raises(ValueError, match="alpha must be finite and positive"):
        denoise(noisy, grid, bad)


def test_denoise_rejects_an_alpha_whose_normal_matrix_overflows(grid, noisy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no RuntimeWarning either
        with pytest.raises(ValueError, match="alpha=1e[+]308 overflows"):
            denoise(noisy, grid, 1e308)


def test_a_rejected_alpha_keeps_the_held_denoise_factorization(grid, noisy, monkeypatch):
    calls = []
    real = adjpod.inversion._factorize
    monkeypatch.setattr(adjpod.inversion, "_factorize",
                        lambda a, shape: calls.append(a.shape) or real(a, shape))
    monkeypatch.setattr(adjpod.inversion, "_DENOISE_MEMO", {})
    first = denoise(noisy, grid, 1e-6)
    assert np.array_equal(denoise(noisy, grid, 1e-6), first)   # the layout repeats
    assert len(calls) == 2                                     # so its LU is held
    with pytest.raises(ValueError, match="overflows"):
        denoise(noisy, grid, 1e308)
    assert np.array_equal(denoise(noisy, grid, 1e-6), first)
    assert len(calls) == 2


def test_denoise_rejects_zero_detectors(grid):
    empty = add_noise(np.empty((0, 2)), np.empty(0), 0.0)
    with pytest.raises(ValueError, match="need at least one detector, got 0"):
        denoise(empty, grid, 1e-3)


def test_denoise_names_an_alpha_whose_penalty_underflows(grid, noisy):
    # alpha * cell rounds to 0, and half the interior has no detector
    with pytest.raises(ValueError, match="alpha=5e-324 is singular"):
        denoise(noisy, grid, 5e-324)


def test_a_singular_banded_denoise_keeps_the_held_factorization(monkeypatch):
    # at 53 x 53 the denoise system is a banded Cholesky: the zero pivots
    # left by an underflowing penalty fail as SuperLU's singular factor does
    grid = build_grid(53, 53)
    nodes = grid.interior[::2]
    ms = add_noise(grid.coords[nodes], make_shape("sin2", grid)[nodes], 0.1, seed=1)
    calls = []
    real = adjpod.inversion._factorize
    monkeypatch.setattr(adjpod.inversion, "_factorize",
                        lambda a, shape: calls.append(a.shape) or real(a, shape))
    monkeypatch.setattr(adjpod.inversion, "_DENOISE_MEMO", {})
    first = denoise(ms, grid, 1e-6)
    assert np.array_equal(denoise(ms, grid, 1e-6), first)   # the layout repeats
    (held,) = adjpod.inversion._DENOISE_MEMO.values()
    assert isinstance(held[2], adjpod.fem._BandedCholesky)
    with pytest.raises(ValueError, match="alpha=5e-324 is singular"):
        denoise(ms, grid, 5e-324)
    assert len(calls) == 3
    assert np.array_equal(denoise(ms, grid, 1e-6), first)
    assert len(calls) == 3


@pytest.mark.parametrize("bad", BAD)
def test_select_alpha_rejects_a_non_finite_sigma(bad):
    with pytest.raises(ValueError, match="sigma must be finite"):
        select_alpha(bad, 10, 1.0)


def test_select_alpha_rejects_a_sigma_whose_alpha_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma=1e[+]300 overflows"):
            select_alpha(1e300, 10, 1.0)


@pytest.mark.parametrize("flags,named", [(["--alpha", "inf"], "alpha must be finite"),
                                         (["--alpha", "1e308"], "alpha=1e+308 overflows"),
                                         (["--sigma", "inf"], "sigma must be finite"),
                                         (["--sigma", "1e300"], "sigma=1e+300 overflows")])
def test_cli_denoise_names_a_bad_weight(tmp_path, capsys, grid, noisy, flags, named):
    path = tmp_path / "measurements.csv"
    write_measurements_csv(path, noisy)
    code = main(["denoise", "--measurements", str(path), "--nx", str(grid.nx),
                 "--ny", str(grid.ny), "--out", str(tmp_path / "dn")] + flags)
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and named in fails[0]
    assert "internal error" not in text and "Traceback" not in text


def test_cli_invert_names_an_overflowing_alpha(tmp_path, capsys):
    code = main(["invert", "--set", "grid.nx=9", "--set", "grid.ny=9",
                 "--set", "time.m=5", "--set", "measurement.noise=0.1",
                 "--set", "measurement.alpha=1e308", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    out = captured.out + captured.err
    # rejected when the config is loaded, before any stage runs
    assert "measurement.alpha: " in out and "overflows" in out and "stage" not in out
    assert "internal error" not in out
