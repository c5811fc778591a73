"""The bounded-memory snapshot path: a solve stores only the sampled states,
straight into the first rows of the snapshot matrix, and POD forms its mass
products a block of snapshot rows at a time.

Every result must be the same bits as on the full trajectory with the
one-shot products, the memory of ``build_adjoint_pod`` must not grow with
the number of time steps, and no trajectory-sized buffer may exist besides
the snapshot matrix.
"""

import tracemalloc

import numpy as np
import pytest

import adjpod.reduced
from adjpod import (CoefficientSet, TimeGrid, assemble_operators, build_adjoint_pod,
                    build_grid, build_problem, collect_snapshots, compute_pod_basis,
                    correlation_matrix, drive, make_shape, projection_error_ratio,
                    snapshot_set, solve_forward)
from adjpod import experiment
from adjpod.pod import snapshot_steps


@pytest.fixture(scope="module")
def grid():
    return build_grid(9, 9)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.5))


def _fields(grid, seed=3):
    f, g = np.random.default_rng(seed).standard_normal((2, grid.n_nodes))
    f[grid.boundary] = 0.0
    g[grid.boundary] = 0.0
    return f, g


# ------------------------------------------------------------ snapshot steps

@pytest.mark.parametrize("M", [1, 10, 37, 100, 101, 400])
@pytest.mark.parametrize("budget", [3, 5, 9, 201])
def test_snapshot_steps_keep_the_uniform_subsampling_rule(M, budget):
    if 2 * M + 1 <= budget:
        expected = np.arange(M + 1)
    else:
        expected = np.rint(np.linspace(0, M, (budget - 1) // 2 + 1)).astype(int)
    steps = snapshot_steps(M, budget)
    assert np.array_equal(steps, expected)
    assert steps[0] == 0 and steps[-1] == M and np.all(np.diff(steps) > 0)
    assert 2 * (len(steps) - 1) + 1 <= budget


@pytest.mark.parametrize("budget", [1, 2, 10, 200])
def test_snapshot_steps_reject_an_even_or_tiny_budget(budget):
    with pytest.raises(ValueError, match=f"max_snapshots must be odd and >= 3, got {budget}"):
        snapshot_steps(10, budget)


# ------------------------------------------------------------ stored steps

@pytest.mark.parametrize("M", [10, 37, 400])
@pytest.mark.parametrize("budget", [5, 9, 201])
def test_streamed_states_are_the_rows_of_the_full_path(grid, ops, M, budget):
    tg = TimeGrid(T=0.5, M=M)
    f, g = _fields(grid)
    full = solve_forward(ops, tg, f, g)
    steps = snapshot_steps(M, budget)
    streamed = solve_forward(ops, tg, f, g, steps=steps)
    assert np.array_equal(full.steps, np.arange(M + 1))
    assert np.array_equal(streamed.steps, steps)
    assert streamed.states.shape == (len(steps), grid.n_nodes)
    assert np.array_equal(streamed.states, full.states[steps])
    assert np.array_equal(streamed.final, full.final)


@pytest.mark.parametrize("M", [10, 37, 400])
def test_final_step_only_holds_one_state(grid, ops, M):
    tg = TimeGrid(T=0.5, M=M)
    f, g = _fields(grid)
    last = solve_forward(ops, tg, f, g, steps=[M])
    assert last.n_states == 1 and np.array_equal(last.steps, [M])
    assert np.array_equal(last.final, solve_forward(ops, tg, f, g).final)


@pytest.mark.parametrize("steps", [[0, 5, 3, 10], [0, 3, 3, 10], [-1, 5, 10],
                                   [0, 5, 11], [0, 5, 9], [], [0.0, 10.0],
                                   [[0, 10]]])
def test_bad_steps_are_rejected(grid, ops, steps):
    f, g = _fields(grid)
    with pytest.raises(ValueError, match="steps must"):
        solve_forward(ops, TimeGrid(T=0.5, M=10), f, g, steps=steps)


@pytest.mark.parametrize("M,budget", [(10, 5), (37, 9), (400, 201), (12, 201)])
def test_collect_snapshots_reads_the_same_bits_from_both_paths(grid, ops, M, budget):
    tg = TimeGrid(T=0.5, M=M)
    f, g = _fields(grid, seed=4)
    full = collect_snapshots(solve_forward(ops, tg, f, g), ops, max_snapshots=budget)
    streamed = collect_snapshots(
        solve_forward(ops, tg, f, g, steps=snapshot_steps(M, budget)), ops,
        max_snapshots=budget)
    assert np.array_equal(streamed.snapshots, full.snapshots)
    assert np.array_equal(streamed.times, full.times)
    assert streamed.m_steps == full.m_steps


def test_collect_snapshots_rejects_a_path_without_the_sampled_states(grid, ops):
    tg = TimeGrid(T=0.5, M=40)
    f, g = _fields(grid)
    thin = solve_forward(ops, tg, f, g, steps=snapshot_steps(40, 9))
    with pytest.raises(ValueError, match="does not store the states"):
        collect_snapshots(thin, ops, max_snapshots=21)
    with pytest.raises(ValueError, match="does not store the states"):
        collect_snapshots(solve_forward(ops, tg, f, g, steps=[40]), ops)


# ------------------------------------------------------------ blocked mass products

def _snapshot_matrices():
    """(ops, Y) pairs: random rows at 17x17 in C and F order, with counts
    below, at and across the mass-product block size."""
    grid = build_grid(17, 17)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.3))
    rng = np.random.default_rng(11)
    out = []
    for count in (1, 7, 32, 33, 75, 201):
        Y = rng.standard_normal((count, grid.n_nodes))
        Y[:, grid.boundary] = 0.0
        out.append((ops, Y))
    out.append((ops, np.asfortranarray(out[4][1])))
    return out


def _reference_correlation(Y, mass):
    K = Y @ (mass @ Y.T)
    return 0.5 * (K + K.T)


def _reference_projection_error(Y, basis):
    mass = basis.ops.mass
    MY = (mass @ Y.T).T
    den = float(np.sum(Y * MY))
    C = MY @ basis.psi
    R = Y - C @ basis.psi.T
    num = float(np.sum(R * (mass @ R.T).T))
    return max(num, 0.0) / den, basis.rho


@pytest.mark.parametrize("case", range(7))
def test_correlation_matrix_matches_the_one_shot_product(case):
    ops, Y = _snapshot_matrices()[case]
    assert np.array_equal(correlation_matrix(Y, ops), _reference_correlation(Y, ops.mass))


@pytest.mark.parametrize("case", range(2, 7))
def test_projection_error_ratio_matches_the_one_shot_products(case):
    ops, Y = _snapshot_matrices()[case]
    basis = compute_pod_basis(Y, n_modes=5, ops=ops)
    for n in (1, 3, 5):
        sub = basis.truncated(n)
        assert projection_error_ratio(Y, sub) == _reference_projection_error(Y, sub)


def test_blocked_products_on_a_trajectory_snapshot_set():
    grid = build_grid(33, 33)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    traj = solve_forward(ops, TimeGrid(T=1.0, M=100), make_shape("sin2exp", grid),
                         np.zeros(grid.n_nodes))
    snaps = collect_snapshots(traj, ops)
    Y = snaps.snapshots
    assert np.array_equal(correlation_matrix(Y, ops), _reference_correlation(Y, ops.mass))
    basis = compute_pod_basis(Y, n_modes=9, ops=ops)
    assert projection_error_ratio(Y, basis) == _reference_projection_error(Y, basis)


# ------------------------------------------------------------ memory

def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_adjoint_pod_memory_does_not_grow_with_the_step_count():
    grid = build_grid(33, 33)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    m = make_shape("sin2", grid)
    peaks = {}
    for M in (100, 2000):
        tg = TimeGrid(T=1.0, M=M)
        build_adjoint_pod("source", m, ops, tg, n_modes=9)    # factorizes this dt
        peaks[M] = _traced_peak(lambda: build_adjoint_pod("source", m, ops, tg, n_modes=9))
    assert peaks[2000] <= 1.2 * peaks[100], peaks


# ------------------------------------------------------------ solving into the snapshot matrix

@pytest.mark.parametrize("kind", ["source", "backward"])
@pytest.mark.parametrize("M", [10, 37, 400])
@pytest.mark.parametrize("budget", [5, 9, 201])
def test_the_in_place_snapshot_set_is_the_full_path_snapshot_set(grid, ops, kind, M,
                                                                  budget, monkeypatch):
    tg = TimeGrid(T=0.5, M=M)
    field = _fields(grid)[0]
    reference = collect_snapshots(drive(kind, field, ops, tg), ops, max_snapshots=budget)
    solved = []

    def drive_into_garbage(*args, out, **kwargs):
        out.fill(np.nan)            # every entry must be written, boundary zeros too
        traj = drive(*args, out=out, **kwargs)
        solved.append(traj)
        return traj

    monkeypatch.setattr(adjpod.reduced, "drive", drive_into_garbage)
    snaps = snapshot_set(kind, field, ops, tg, budget)
    traj, = solved
    assert traj.states.base is snaps.snapshots and np.shares_memory(traj.states, snaps.states)
    assert np.array_equal(traj.steps, snapshot_steps(M, budget))
    assert np.array_equal(snaps.snapshots, reference.snapshots)
    assert np.array_equal(snaps.times, reference.times)
    assert snaps.m_steps == reference.m_steps
    assert snaps.max_snapshots == reference.max_snapshots == budget


@pytest.mark.parametrize("M,budget", [(10, 5), (12, 201)])
def test_out_must_already_hold_the_states(grid, ops, M, budget):
    tg = TimeGrid(T=0.5, M=M)
    f, g = _fields(grid, seed=5)
    full = solve_forward(ops, tg, f, g)
    reference = collect_snapshots(full, ops, max_snapshots=budget)
    buffer = np.full(reference.snapshots.shape, np.nan)
    with pytest.raises(ValueError, match="out must hold the trajectory's states"):
        collect_snapshots(full, ops, max_snapshots=budget, out=buffer)
    # a whole path solved into a caller's array, with garbage in it beforehand
    states = np.full((M + 1, grid.n_nodes), np.nan)
    assert solve_forward(ops, tg, f, g, out=states).states is states
    assert np.array_equal(states, full.states)


def _bad_outs(shape):
    rows, cols = shape
    return [np.empty((rows - 1, cols)), np.empty((rows, cols + 1)),
            np.empty(rows * cols), np.empty(shape, dtype=np.float32),
            np.empty(shape, dtype=int), np.empty(shape, order="F"),
            np.empty((rows, 2 * cols))[:, ::2], np.empty(shape).tolist()]


@pytest.mark.parametrize("case", range(8))
def test_solve_forward_rejects_a_wrong_out(grid, ops, case):
    f, g = _fields(grid)
    steps = snapshot_steps(20, 9)
    out = _bad_outs((len(steps), grid.n_nodes))[case]
    with pytest.raises(ValueError, match="out must be a writeable C-contiguous float64"):
        solve_forward(ops, TimeGrid(T=0.5, M=20), f, g, steps=steps, out=out)


@pytest.mark.parametrize("case", range(8))
def test_collect_snapshots_rejects_a_wrong_out(grid, ops, case):
    f, g = _fields(grid)
    traj = solve_forward(ops, TimeGrid(T=0.5, M=20), f, g)
    out = _bad_outs((9, grid.n_nodes))[case]
    with pytest.raises(ValueError, match="out must be a writeable C-contiguous float64"):
        collect_snapshots(traj, ops, max_snapshots=9, out=out)


def test_collect_snapshots_rejects_read_only_and_overlapping_outs(grid, ops):
    tg = TimeGrid(T=0.5, M=20)
    f, g = _fields(grid)
    steps = snapshot_steps(20, 9)
    Y = np.empty((2 * len(steps) - 1, grid.n_nodes))
    Y.flags.writeable = False
    with pytest.raises(ValueError, match="out must be a writeable"):
        solve_forward(ops, tg, f, g, steps=steps, out=Y[:len(steps)])
    # states solved into rows that are not the first ones of out
    Y = np.empty((2 * len(steps) - 1, grid.n_nodes))
    traj = solve_forward(ops, tg, f, g, steps=steps, out=Y[1:len(steps) + 1])
    with pytest.raises(ValueError, match="out must hold the trajectory's states"):
        collect_snapshots(traj, ops, max_snapshots=9, out=Y)


def _peak_until_pod(monkeypatch, call) -> int:
    """Traced peak (bytes above the start) from ``call()`` until it enters
    ``compute_pod_basis``."""
    peaks = []
    pod = adjpod.reduced.compute_pod_basis

    def entered(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return pod(*args, **kwargs)

    monkeypatch.setattr(adjpod.reduced, "compute_pod_basis", entered)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1
    return peaks[0] - base


@pytest.mark.parametrize("kind", ["source", "backward"])
def test_no_trajectory_buffer_besides_the_snapshot_matrix(monkeypatch, kind):
    """Up to POD, the auxiliary and the truth solve hold the snapshot matrix
    and field-sized vectors, not a separate (m+1)-row trajectory (which would
    put the peak near 1.5x the matrix)."""
    problem = build_problem(kind, 33, 33, None, 400, "1.0", "0.0")
    _, grid, ops, tg = problem
    steps = snapshot_steps(tg.M, 201)
    matrix_bytes = (2 * len(steps) - 1) * grid.n_nodes * 8
    m = make_shape("sin2", grid)
    build_adjoint_pod(kind, m, ops, tg, n_modes=9)            # factorizes this dt
    peak = _peak_until_pod(monkeypatch,
                           lambda: build_adjoint_pod(kind, m, ops, tg, n_modes=9))
    assert peak <= 1.15 * matrix_bytes, (peak, matrix_bytes)

    experiment._truth_stage.cache_clear()
    peak = _peak_until_pod(monkeypatch,
                           lambda: experiment._truth_stage(problem, "sin2exp", 201))
    assert peak <= 1.15 * matrix_bytes, (peak, matrix_bytes)
