"""Noise model, scattered-data denoising, and reduced Tikhonov solvers."""

import numpy as np
import pytest

from adjpod import (CoefficientSet, InverseConfig, TimeGrid, add_noise,
                    assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, denoise, descent_step_bound,
                    gradient_of_J, h2_norm_estimate, laplacian_stencil,
                    select_alpha, snap_detectors_to_nodes, spod_matrix,
                    tikhonov_direct, tikhonov_direct_reduced,
                    tikhonov_gradient_descent_reduced, tikhonov_objective)
from adjpod.experiment import _quasi_uniformity


@pytest.fixture(scope="module")
def grid():
    return build_grid(15, 15)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def smooth_field(grid):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    return np.sin(x) * np.sin(y)


@pytest.fixture(scope="module")
def model(grid, ops):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    m = np.sin(x) * np.sin(y) + 0.4 * np.sin(2 * x) * np.sin(y)
    m[grid.boundary] = 0.0
    tg = TimeGrid(T=0.4, M=16)
    basis = build_adjoint_pod("source", m, ops, tg, n_modes=5)
    return build_reduced_model(ops, basis, tg, "source")


# ---------------------------------------------------------------- noise


def test_add_noise_scales_sigma_by_peak_reading(grid, smooth_field):
    det = grid.coords[grid.interior]
    clean = smooth_field[grid.interior]
    ms = add_noise(det, clean, p=0.25, seed=7)
    assert ms.sigma == pytest.approx(0.25 * np.max(np.abs(clean)))
    assert ms.n == det.shape[0]
    # the detectors are the interior lattice, whose spread experiment reports
    assert _quasi_uniformity(grid.xs[1:-1], grid.ys[1:-1]) >= 1.0


def test_add_noise_is_seed_reproducible(grid, smooth_field):
    det = grid.coords[grid.interior]
    clean = smooth_field[grid.interior]
    a = add_noise(det, clean, p=0.1, seed=3)
    b = add_noise(det, clean, p=0.1, seed=3)
    c = add_noise(det, clean, p=0.1, seed=4)
    np.testing.assert_array_equal(a.readings, b.readings)
    assert np.any(a.readings != c.readings)


def test_add_noise_noise_free_passthrough(grid, smooth_field):
    det = grid.coords[grid.interior]
    clean = smooth_field[grid.interior]
    ms = add_noise(det, clean, p=0.0, seed=None)
    np.testing.assert_array_equal(ms.readings, clean)
    assert ms.sigma == 0.0


def test_add_noise_validation(grid, smooth_field):
    det = grid.coords[grid.interior]
    with pytest.raises(ValueError):
        add_noise(det, smooth_field[grid.interior], p=-0.1)
    with pytest.raises(ValueError):
        add_noise(det, smooth_field[grid.interior][:-1], p=0.1)


# ---------------------------------------------------------- detector snap


def test_snap_detectors_recovers_node_indices(grid):
    nodes = np.array([0, 17, grid.n_nodes - 1])
    idx = snap_detectors_to_nodes(grid, grid.coords[nodes])
    np.testing.assert_array_equal(idx, nodes)


def test_snap_detectors_rejects_off_node_points(grid):
    off = grid.coords[17] + 0.3 * grid.hx
    with pytest.raises(ValueError, match="grid node"):
        snap_detectors_to_nodes(grid, off.reshape(1, 2))


# ---------------------------------------------------------------- denoise


def test_laplacian_stencil_exact_on_quadratics(grid):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    u = x ** 2 + y ** 2
    lap = laplacian_stencil(grid) @ u
    np.testing.assert_allclose(lap, 4.0, rtol=1e-10)


def test_denoise_reproduces_clean_data(grid, smooth_field):
    det = grid.coords[grid.interior]
    ms = add_noise(det, smooth_field[grid.interior], p=0.0)
    fit = denoise(ms, grid, alpha=1e-12)
    np.testing.assert_array_equal(fit[grid.boundary], 0.0)
    err = np.linalg.norm(fit - smooth_field) / np.linalg.norm(smooth_field)
    assert err < 1e-5


def test_denoise_attenuates_noise(grid, ops, smooth_field):
    det = grid.coords[grid.interior]
    clean = smooth_field[grid.interior]
    ms = add_noise(det, clean, p=0.25, seed=11)
    alpha = select_alpha(ms.sigma, ms.n, h2_norm_estimate(grid, ops, smooth_field))
    fit = denoise(ms, grid, alpha)
    raw_err = np.linalg.norm(ms.readings - clean) / np.linalg.norm(clean)
    fit_err = np.linalg.norm(fit[grid.interior] - clean) / np.linalg.norm(clean)
    assert fit_err < raw_err


def test_denoise_requires_positive_alpha(grid, smooth_field):
    det = grid.coords[grid.interior]
    ms = add_noise(det, smooth_field[grid.interior], p=0.0)
    for alpha in (0.0, -1e-3):
        with pytest.raises(ValueError):
            denoise(ms, grid, alpha)


def test_select_alpha_value_floor_and_monotonicity():
    assert select_alpha(0.0, 100, 1.0) == 1e-14
    expected = (0.3 / np.sqrt(400) / 2.0) ** (4.0 / 3.0)
    assert select_alpha(0.3, 400, 2.0) == pytest.approx(expected, rel=1e-15)
    assert select_alpha(0.6, 400, 2.0) > select_alpha(0.3, 400, 2.0)
    with pytest.raises(ValueError):
        select_alpha(-1.0, 10, 1.0)
    with pytest.raises(ValueError):
        select_alpha(0.1, 0, 1.0)
    with pytest.raises(ValueError):
        select_alpha(0.1, 10, 0.0)


def test_h2_norm_estimate_is_a_norm_surrogate(grid, ops, smooth_field):
    val = h2_norm_estimate(grid, ops, smooth_field)
    assert val > 0
    assert h2_norm_estimate(grid, ops, 2.0 * smooth_field) == pytest.approx(
        2.0 * val, rel=1e-12)


# ------------------------------------------------------------- inversion


def test_inverse_config_validation():
    InverseConfig()
    with pytest.raises(ValueError):
        InverseConfig(lam=-1e-3)
    with pytest.raises(ValueError):
        InverseConfig(beta=0.0)
    with pytest.raises(ValueError):
        InverseConfig(max_iters=0)


def test_gradient_matches_finite_differences(model, rng):
    lam = 1e-4
    m_r = rng.standard_normal(model.n_pod)
    for _ in range(5):
        f = rng.standard_normal(model.n_pod)
        grad = gradient_of_J(model, f, m_r, lam)
        fd = np.empty_like(grad)
        eps = 1e-6
        for i in range(model.n_pod):
            e = np.zeros(model.n_pod)
            e[i] = eps
            fd[i] = (tikhonov_objective(model, f + e, m_r, lam)
                     - tikhonov_objective(model, f - e, m_r, lam)) / (2 * eps)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-30)
        assert rel < 1e-6


def test_gradient_validates_shapes_and_lambda(model, rng):
    f = rng.standard_normal(model.n_pod)
    with pytest.raises(ValueError):
        gradient_of_J(model, f[:-1], f, 1e-3)
    with pytest.raises(ValueError):
        gradient_of_J(model, f, f, -1.0)


def test_descent_rejects_step_at_or_beyond_bound(model, rng):
    m_r = rng.standard_normal(model.n_pod)
    bound = descent_step_bound(model, 1e-6)
    with pytest.raises(ValueError, match="stability bound"):
        tikhonov_gradient_descent_reduced(
            model, m_r, InverseConfig(lam=1e-6, beta=bound))
    f, _ = tikhonov_gradient_descent_reduced(
        model, m_r, InverseConfig(lam=1e-6, beta=0.99 * bound, max_iters=50))
    assert np.all(np.isfinite(f))


def test_descent_objective_decreases_monotonically(model, rng):
    m_r = rng.standard_normal(model.n_pod)
    _, history = tikhonov_gradient_descent_reduced(
        model, m_r, InverseConfig(lam=1e-6, max_iters=300))
    assert np.all(np.diff(history) <= 1e-14 * history[0])


def test_descent_agrees_with_direct_solver(model, rng):
    lam = 1e-6
    m_r = rng.standard_normal(model.n_pod)
    direct = tikhonov_direct_reduced(model, m_r, lam)
    descent, _ = tikhonov_gradient_descent_reduced(
        model, m_r, InverseConfig(lam=lam, max_iters=20000, grad_tol=1e-14))
    assert np.linalg.norm(descent - direct) < 1e-8


def test_direct_solver_recovers_attainable_data(model, rng):
    S = spod_matrix(model)
    f_true = rng.standard_normal(model.n_pod)
    f_hat = tikhonov_direct_reduced(model, S @ f_true, 1e-14)
    np.testing.assert_allclose(f_hat, f_true, rtol=1e-5, atol=1e-8)


def test_direct_solver_lambda_zero_rank_deficiency(model, ops):
    """A long backward horizon decays the trailing modes below machine
    precision, so the solution operator is numerically rank deficient."""
    degenerate = build_reduced_model(ops, model.basis, TimeGrid(T=30.0, M=200),
                                     "backward")
    ones = np.ones(degenerate.n_pod)
    with pytest.raises(ValueError, match="singular"):
        tikhonov_direct_reduced(degenerate, ones, 0.0)
    with pytest.raises(ValueError):
        tikhonov_direct_reduced(degenerate, ones, -1e-3)


def test_full_field_wrappers_match_reduced_solvers(model, rng):
    m = model.basis.expand(rng.standard_normal(model.n_pod))
    lam = 1e-8
    field = tikhonov_direct(model, m, lam)
    m_r = model.basis.coefficients(m)
    np.testing.assert_allclose(
        field, model.basis.expand(tikhonov_direct_reduced(model, m_r, lam)),
        rtol=0, atol=1e-14)
