"""Property tests: the spectral Tikhonov filter and the kind dispatch.

The direct solve is the filter Q (w / (w^2 + lam)) Q^T m in the eigenbasis
of the reduced solution operator; it must agree with the regularized
normal equations (S^T S + lam I) f = S^T m solved densely, and the
diagonal descent in eigen-coordinates must retrace the original loop.
``drive`` must be exactly the explicit ``solve_forward`` call for each
problem kind.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adjpod import (CoefficientSet, InverseConfig, TimeGrid,
                    assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, drive, solve_forward, spod_matrix,
                    tikhonov_direct_reduced, tikhonov_gradient_descent_reduced)

N_POD = 5
TIMES = {"source": TimeGrid(T=0.4, M=16), "backward": TimeGrid(T=0.05, M=16)}


@pytest.fixture(scope="module")
def grid():
    return build_grid(15, 15)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def models(grid, ops):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    m = np.sin(x) * np.sin(y) + 0.4 * np.sin(2 * x) * np.sin(y)
    out = {}
    for kind, tg in TIMES.items():
        basis = build_adjoint_pod(kind, m, ops, tg, n_modes=N_POD)
        out[kind] = build_reduced_model(ops, basis, tg, kind)
    return out


@pytest.mark.parametrize("kind", sorted(TIMES))
def test_spectrum_reassembles_the_solution_operator(models, kind):
    w, Q = models[kind].spectrum
    assert np.all(w > 0)
    np.testing.assert_allclose(Q.T @ Q, np.eye(N_POD), atol=1e-12)
    np.testing.assert_allclose((Q * w) @ Q.T, spod_matrix(models[kind]),
                               rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(TIMES)),
       log_lam=st.floats(min_value=-10.0, max_value=-2.0),
       m_r=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                    min_size=N_POD, max_size=N_POD))
def test_filter_matches_normal_equations(models, kind, log_lam, m_r):
    model = models[kind]
    lam = 10.0 ** log_lam
    m_r = np.asarray(m_r)
    S = spod_matrix(model)
    reference = scipy.linalg.solve(S.T @ S + lam * np.eye(N_POD), S.T @ m_r,
                                   assume_a="pos")
    got = tikhonov_direct_reduced(model, m_r, lam)
    scale = np.max(np.abs(reference)) + np.max(np.abs(m_r))
    np.testing.assert_allclose(got, reference, rtol=0, atol=1e-9 * scale)


def _reference_descent(S, m_r, lam, beta, max_iters):
    """The descent loop in the original coordinates, with S rebuilt densely."""
    f = np.zeros(S.shape[0])
    grad = S.T @ (S @ f - m_r) + lam * f
    tol = 1e-10 * (np.linalg.norm(grad) + 1.0)
    history = [0.5 * (np.sum((S @ f - m_r) ** 2) + lam * f @ f)]
    for _ in range(max_iters):
        if np.linalg.norm(grad) <= tol:
            break
        f = f - beta * grad
        history.append(0.5 * (np.sum((S @ f - m_r) ** 2) + lam * f @ f))
        grad = S.T @ (S @ f - m_r) + lam * f
    return f, np.asarray(history)


@pytest.mark.parametrize("kind", sorted(TIMES))
@pytest.mark.parametrize("lam", [1e-10, 1e-4])
def test_eigen_coordinate_descent_matches_the_reference_loop(models, kind, lam):
    model = models[kind]
    m_r = np.linspace(1.0, 0.2, N_POD)
    S = spod_matrix(model)
    beta = 1.0 / (np.linalg.norm(S, 2) ** 2 + lam)
    f_ref, h_ref = _reference_descent(S, m_r, lam, beta, max_iters=4000)
    f, history = tikhonov_gradient_descent_reduced(
        model, m_r, InverseConfig(lam=lam, mode="gradient", max_iters=4000))
    assert len(history) == len(h_ref)
    np.testing.assert_allclose(history, h_ref, rtol=1e-10, atol=1e-14 * h_ref[0])
    np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-9 * np.max(np.abs(f_ref)))


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["source", "backward"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_drive_is_the_explicit_forward_call(grid, ops, kind, seed):
    field = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    field[grid.boundary] = 0.0
    zero = np.zeros(grid.n_nodes)
    tg = TimeGrid(T=0.1, M=4)
    explicit = (solve_forward(ops, tg, f=field, g=zero) if kind == "source"
                else solve_forward(ops, tg, f=zero, g=field))
    np.testing.assert_array_equal(drive(kind, field, ops, tg).states,
                                  explicit.states)


def test_drive_keeps_a_nonzero_boundary_an_error(grid, ops):
    field = np.ones(grid.n_nodes)
    with pytest.raises(ValueError, match="vanish on the boundary"):
        drive("source", field, ops, TimeGrid(T=0.1, M=2))
