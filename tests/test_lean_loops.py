"""The lean inner loops reproduce the loops they replaced, bit for bit.

Each reference below is a copy of the formulation it replaced: gradient
descent that evaluates J on every iterate, the fancy-index scatter of the
time stepper, the copy/diff/vstack snapshot assembly, ``cho_solve`` per
reduced step, a denoise that factorizes on every call and the mode table
sorted with a key function.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg

import adjpod.inversion
import adjpod.reduced
from adjpod import (CoefficientSet, InverseConfig, TimeGrid,
                    add_noise, assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, collect_snapshots, denoise, mode_table,
                    reduced_solve, solve_forward,
                    tikhonov_gradient_descent_reduced)
from adjpod.fem import _stepper
from adjpod.inversion import descent_step_bound, tikhonov_objective
from adjpod.spectral import eigenvalue

TIMES = {"source": TimeGrid(T=0.4, M=30), "backward": TimeGrid(T=0.05, M=30)}


@pytest.fixture(scope="module")
def grid():
    return build_grid(17, 15)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


def _field(grid, seed=0):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    a = np.random.default_rng(seed).uniform(0.5, 1.5, 3)
    return (a[0] * np.sin(x) * np.sin(y) + a[1] * np.sin(2 * x) * np.sin(y)
            + a[2] * np.sin(x) * np.sin(3 * y))


@pytest.fixture(scope="module")
def cases(grid, ops):
    """kind -> (reduced model, measured coefficients m_r)."""
    out = {}
    for kind, tg in TIMES.items():
        m = _field(grid)
        basis = build_adjoint_pod(kind, m, ops, tg, n_modes=6)
        out[kind] = build_reduced_model(ops, basis, tg, kind), basis.coefficients(m)
    return out


# ------------------------------------------------------------ gradient descent

def _reference_descent(model, m_r, cfg):
    """The descent loop as it was: J of every iterate, from the original
    coordinates."""
    w, Q = model.spectrum
    bound = descent_step_bound(model, cfg.lam)
    beta = cfg.beta if cfg.beta is not None else 0.5 * bound
    f = np.zeros(model.n_pod)
    z = Q.T @ f
    n = Q.T @ m_r
    curvature = w * w + cfg.lam
    grad = curvature * z - w * n
    tol = cfg.grad_tol if cfg.grad_tol is not None \
        else 1e-10 * (float(np.linalg.norm(grad)) + 1.0)
    history = [tikhonov_objective(model, f, m_r, cfg.lam)]
    for _ in range(cfg.max_iters):
        if np.linalg.norm(grad) <= tol:
            break
        z = z - beta * grad
        history.append(tikhonov_objective(model, Q @ z, m_r, cfg.lam))
        grad = curvature * z - w * n
    return Q @ z, np.asarray(history)


@pytest.mark.parametrize("max_iters", [5000, 7])
@pytest.mark.parametrize("lam", [1e-10, 1e-4])
@pytest.mark.parametrize("kind", sorted(TIMES))
def test_descent_matches_the_per_iteration_objective_loop(cases, kind, lam, max_iters):
    model, m_r = cases[kind]
    cfg = InverseConfig(lam=lam, max_iters=max_iters)
    f_ref, history_ref = _reference_descent(model, m_r, cfg)
    f, history = tikhonov_gradient_descent_reduced(model, m_r, cfg)
    assert np.array_equal(f, f_ref)
    assert len(history) == len(history_ref)
    if max_iters == 7:
        assert len(history) == 8            # stopped by max_iters, not by the test
    np.testing.assert_allclose(history, history_ref, rtol=1e-10, atol=0)


def test_descent_memory_grows_with_the_iterations_taken(cases):
    model, m_r = cases["source"]
    s_max = float(np.max(model.spectrum[0]))
    cfg = InverseConfig(lam=10.0 * s_max ** 2, max_iters=10 ** 8)
    tracemalloc.start()
    try:
        _, history = tikhonov_gradient_descent_reduced(model, m_r, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(history) < 100
    assert peak < 200_000


# ------------------------------------------------------------ time stepping

def _reference_forward(ops, tg, f, g):
    """Backward Euler with the per-step fancy-index scatter."""
    idx = ops.interior
    lu, mass_ii = _stepper(ops, tg.dt)
    load = tg.dt * (ops.mass @ f)[idx]
    states = np.zeros((tg.M + 1, ops.grid.n_nodes))
    u = g[idx].copy()
    states[0, idx] = u
    for k in range(1, tg.M + 1):
        u = lu.solve(mass_ii @ u + load)
        states[k, idx] = u
    return states


@pytest.mark.parametrize("shape", [(7, 5), (5, 7), (17, 15)])
def test_interior_is_the_row_major_inner_block(shape):
    nx, ny = shape
    g = build_grid(nx, ny)
    block = np.arange(nx * ny).reshape(ny, nx)[1:-1, 1:-1].ravel()
    assert np.array_equal(g.interior, block)


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)])
def test_solve_forward_matches_the_scatter_loop(shape):
    g = build_grid(*shape)
    ops = assemble_operators(g, CoefficientSet(q=1.0, c=0.5))
    tg = TimeGrid(T=0.3, M=9)
    rng = np.random.default_rng(1)
    f, u0 = rng.standard_normal((2, g.n_nodes))
    f[g.boundary] = 0.0
    u0[g.boundary] = 0.0
    traj = solve_forward(ops, tg, f, u0)
    assert np.array_equal(traj.states, _reference_forward(ops, tg, f, u0))


def _reference_snapshots(traj, max_snapshots):
    m_full = traj.n_states - 1
    if 2 * m_full + 1 <= max_snapshots:
        idx = np.arange(m_full + 1)
    else:
        idx = np.rint(np.linspace(0, m_full, (max_snapshots - 1) // 2 + 1)).astype(int)
    times = traj.tg.times[idx]
    states = traj.states[idx]
    quotients = np.diff(states, axis=0) / np.diff(times)[:, None]
    return np.vstack([states, quotients]), times


@pytest.mark.parametrize("max_snapshots", [201, 7])
def test_collect_snapshots_matches_copy_diff_vstack(max_snapshots):
    g = build_grid(7, 5)
    ops = assemble_operators(g, CoefficientSet(q=1.0, c=0.0))
    u0 = np.random.default_rng(2).standard_normal(g.n_nodes)
    u0[g.boundary] = 0.0
    traj = solve_forward(ops, TimeGrid(T=0.3, M=10), np.zeros(g.n_nodes), u0)
    snaps = collect_snapshots(traj, ops, max_snapshots=max_snapshots)
    ref, times = _reference_snapshots(traj, max_snapshots)
    assert np.array_equal(snaps.snapshots, ref)
    assert np.array_equal(snaps.times, times)


@pytest.mark.parametrize("kind", sorted(TIMES))
def test_reduced_solve_matches_a_cho_solve_loop(grid, cases, kind):
    model, _ = cases[kind]
    field = _field(grid, seed=5)
    field[grid.boundary] = 0.0
    final, coeffs = reduced_solve(model, field)

    factor = scipy.linalg.cho_factor(np.eye(model.n_pod) + model.tg.dt * model.a_r)
    ref = np.zeros_like(coeffs)
    reduced_input = model.basis.coefficients(field)
    if kind == "source":
        c, forcing = np.zeros(model.n_pod), model.tg.dt * reduced_input
    else:
        c, forcing = reduced_input, np.zeros(model.n_pod)
    ref[0] = c
    for k in range(1, model.tg.M + 1):
        c = scipy.linalg.cho_solve(factor, c + forcing)
        ref[k] = c
    assert np.array_equal(coeffs, ref)
    assert np.array_equal(final, model.basis.expand(ref[-1]))


# ------------------------------------------------------------ trajectories

def test_the_auxiliary_trajectory_is_freed_before_pod_runs(grid, ops, monkeypatch):
    trajectory, alive = [], []
    collect = adjpod.reduced.collect_snapshots
    pod = adjpod.reduced.compute_pod_basis

    def tracked_collect(traj, *args, **kwargs):
        trajectory.append(weakref.ref(traj.states))
        return collect(traj, *args, **kwargs)

    def tracked_pod(*args, **kwargs):
        alive.append(trajectory[-1]() is not None)
        return pod(*args, **kwargs)

    monkeypatch.setattr(adjpod.reduced, "collect_snapshots", tracked_collect)
    monkeypatch.setattr(adjpod.reduced, "compute_pod_basis", tracked_pod)
    build_adjoint_pod("source", _field(grid), ops, TIMES["source"], n_modes=4)
    assert alive == [False]


# ------------------------------------------------------------ denoise memo

def _reference_denoise(ms, grid, alpha):
    """Denoise with a fresh factorization: the memo cleared first."""
    adjpod.inversion._DENOISE_MEMO.clear()
    return denoise(ms, grid, alpha)


def _measurements(grid, nodes, seed):
    return add_noise(grid.coords[nodes], _field(grid)[nodes], 0.2, seed=seed)


def _held_alpha():
    """alpha of the factorization the denoise memo holds, or None."""
    (entry,) = adjpod.inversion._DENOISE_MEMO.values()
    return None if entry is None else entry[0]


def test_denoise_factorizes_once_per_grid_detectors_and_alpha(grid, monkeypatch):
    # a first call on a layout keeps no LU; from the second call on a
    # layout, one LU per alpha is kept
    calls = []
    real = adjpod.inversion._factorize
    monkeypatch.setattr(adjpod.inversion, "_factorize",
                        lambda a: calls.append(a.shape) or real(a))
    adjpod.inversion._DENOISE_MEMO.clear()
    nodes = grid.interior[:40:3]            # the first interior rows
    ms1, ms2 = _measurements(grid, nodes, seed=1), _measurements(grid, nodes, seed=2)

    first = denoise(ms1, grid, 1e-6)
    assert len(calls) == 1 and _held_alpha() is None     # first call: not kept
    second = denoise(ms2, grid, 1e-6)
    assert len(calls) == 2 and _held_alpha() == 1e-6     # layout repeats: kept
    warm = denoise(ms1, grid, 1e-6)
    assert len(calls) == 2                               # hit
    assert np.array_equal(second, _reference_denoise(ms2, grid, 1e-6))
    assert np.array_equal(warm, _reference_denoise(ms1, grid, 1e-6))
    assert np.array_equal(first, _reference_denoise(ms1, grid, 1e-6))
    assert len(calls) == 5

    denoise(ms1, grid, 1e-6)
    assert len(calls) == 6                               # layout repeats: kept
    denoise(ms2, grid, 1e-6)
    assert len(calls) == 6                               # hit
    denoise(ms1, grid, 2e-6)
    assert len(calls) == 7 and _held_alpha() == 2e-6     # alpha changed: kept
    assert len(adjpod.inversion._DENOISE_MEMO) == 1
    other = _measurements(grid, grid.interior[::4], seed=1)
    assert np.array_equal(denoise(other, grid, 2e-6),
                          _reference_denoise(other, grid, 2e-6))
    assert len(calls) == 9 and _held_alpha() is None     # detectors changed
    denoise(ms1, grid, 2e-6)
    assert len(calls) == 10 and _held_alpha() is None
    # the same node indices and alpha on a grid with fewer rows
    shorter = build_grid(grid.nx, grid.ny - 2)
    short = _measurements(shorter, nodes, seed=1)
    assert np.array_equal(denoise(short, shorter, 2e-6),
                          _reference_denoise(short, shorter, 2e-6))
    assert len(calls) == 12 and _held_alpha() is None    # grid changed


# ------------------------------------------------------------ mode table

def test_mode_table_matches_the_sorted_reference():
    # The first L pairs by mu all have j, k <= L (the L pairs (1, k), k <= L,
    # have mu <= 1 + L^2), so one sorted list over 1..201 holds the reference
    # mode_table(L) of every L <= 200 as its first L entries.
    r = 201
    pairs = [(j, k) for j in range(1, r + 1) for k in range(1, r + 1)]
    pairs.sort(key=lambda jk: (eigenvalue(*jk), jk))
    for L in range(1, 201):
        table = mode_table(L)
        assert table == pairs[:L]
        assert all(type(j) is int and type(k) is int for j, k in table)
