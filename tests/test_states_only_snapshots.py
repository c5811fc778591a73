"""Above ``fem.PINNED_UNKNOWNS`` a snapshot set stores only its sampled
states, and a solve frees its time-step factors when it returns.

Up to that size nothing changes: the in-place (2m+1)-row layout, the
single correlation GEMM and the cached factors are pinned by
``tests/test_streamed_snapshots.py``, ``tests/test_blocked_correlation.py``
and the golden tests.  Above it, ``reduced.snapshot_set`` holds the m+1
states and ``pod`` forms the m difference quotients a block at a time
where K and the modes read them.  The POD of such a set must agree with
the POD of the materialized (2m+1)-row matrix, which is the matrix the
in-place layout held.  Each bound is about 100 times the drift measured at
53x53, 65x65 and 53x61 varq/varc (one BLAS thread, x86-64 OpenBLAS):

* eigenvalues moved by at most 4.0e-16 of the largest, bounded at 4e-14;
* the retained rank did not move and is pinned exactly;
* the largest principal angle between the two spans of up to 9 modes
  (the retained rank is 8 on the varq/varc set) read at most
  5.8e-8 rad, bounded at 5e-6.  An angle this small sits at the
  resolution of ``arccos`` near 1 (about 1.5e-8 rad).
"""

import functools
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest

import adjpod.inversion
from adjpod import (CoefficientSet, ExperimentConfig, ProblemKind, TimeGrid,
                    assemble_operators, build_grid, collect_snapshots, compute_pod_basis,
                    drive, make_shape, principal_angles, run_experiment, snapshot_set,
                    solve_forward)
from adjpod import experiment, fem, pod
from adjpod.experiment import _NAMED_COEFFS

EIGENVALUE_RTOL = 4e-14     # of the largest eigenvalue
ANGLE_BOUND = 5e-6          # radians
CASES = ["53x53", "65x65", "53x61 varq/varc, M=60"]


def _problem(case):
    """(kind, field, ops, time grid) of the source snapshots of sin2exp."""
    if case.startswith("53x61"):
        grid = build_grid(53, 61)
        coeffs = CoefficientSet(q=_NAMED_COEFFS["varq"], c=_NAMED_COEFFS["varc"])
        tg = TimeGrid(T=1.0, M=60)
    else:
        n = int(case.split("x")[0])
        grid, coeffs, tg = build_grid(n, n), CoefficientSet(q=1.0, c=0.0), TimeGrid(T=1.0, M=100)
    return (ProblemKind.INVERSE_SOURCE, make_shape("sin2exp", grid),
            assemble_operators(grid, coeffs), tg)


@pytest.fixture(scope="module")
def sets():
    """case -> (its snapshot set, the problem), each built once for this module."""
    @functools.lru_cache(maxsize=None)
    def build(case):
        problem = _problem(case)
        return snapshot_set(*problem), problem
    return build


@pytest.mark.parametrize("case", ["53x53", "53x61 varq/varc, M=60"])
def test_above_the_threshold_the_set_holds_only_the_states(sets, case):
    snaps, (kind, field, ops, tg) = sets(case)
    m = snaps.m_steps
    assert ops.interior.size > fem.PINNED_UNKNOWNS
    assert snaps.rows.shape == (m + 1, ops.grid.n_nodes)
    assert len(snaps) == 2 * m + 1
    if case.startswith("53x61"):
        assert len(snaps) % pod._MASS_BLOCK_ROWS    # 121 rows: a partial last block
    # materialized, the set is the snapshot matrix of the full path, bit for bit
    full = collect_snapshots(drive(kind, field, ops, tg), ops)
    assert np.array_equal(snaps.snapshots, full.snapshots)


def test_at_the_threshold_the_set_holds_states_and_quotients():
    grid = build_grid(51, 51)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    snaps = snapshot_set("source", make_shape("sin2exp", grid), ops, TimeGrid(T=1.0, M=20))
    assert ops.interior.size == fem.PINNED_UNKNOWNS
    assert snaps.rows.shape == (41, grid.n_nodes) and snaps.snapshots is snaps.rows


@pytest.mark.parametrize("case", CASES)
def test_the_states_only_pod_agrees_with_the_materialized_matrix(sets, case):
    snaps, (_, _, ops, _) = sets(case)
    got = compute_pod_basis(snaps, n_modes=9, ops=ops)
    want = compute_pod_basis(snaps.snapshots, n_modes=9, ops=ops)
    assert got.retained_rank == want.retained_rank
    assert np.max(np.abs(got.eigenvalues - want.eigenvalues)) <= \
        EIGENVALUE_RTOL * want.eigenvalues[0]
    assert got.n_pod == want.n_pod == min(9, want.retained_rank)
    assert principal_angles(got, want).max() <= ANGLE_BOUND


def _solve_on(n, tg):
    """One solve on a fresh n x n problem; the (ops, field, zero) it used."""
    grid = build_grid(n, n)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    field, zero = make_shape("sin2", grid), np.zeros(grid.n_nodes)
    solve_forward(ops, tg, field, zero)
    return ops, field, zero


def test_an_above_threshold_solve_frees_its_step_factors(monkeypatch):
    tg = TimeGrid(T=0.1, M=3)
    before = fem._stepper.cache_info()
    _solve_on(51, tg)                           # pinned: kept for later solves
    assert fem._stepper.cache_info().misses == before.misses + 1

    held = []
    real = fem._factorize

    def factorize(system, shape):
        factors = real(system, shape)
        held.append(weakref.ref(factors))
        return factors

    monkeypatch.setattr(fem, "_factorize", factorize)
    before = fem._stepper.cache_info()
    ops, field, zero = _solve_on(53, tg)
    after = fem._stepper.cache_info()
    assert after.currsize == before.currsize and after.misses == before.misses
    assert len(held) == 1 and held[0]() is None
    solve_forward(ops, tg, zero, field)         # the next solve factors again
    assert len(held) == 2 and held[1]() is None


def test_a_run_above_the_threshold_peaks_below_1_6_snapshot_matrices():
    cfg = ExperimentConfig(kind="source", truth="sin2exp", nx=65, ny=65, M=100, noise=0.1,
                           seed=7)
    experiment._truth_stage.cache_clear()       # the truth solve and POD run in the window
    adjpod.inversion._DENOISE_MEMO.clear()      # as in a fresh process
    matrix_bytes = 201 * 65 * 65 * 8            # the full (2m+1)-row snapshot matrix
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            run_experiment(cfg, f"{tmp}/run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # storing the quotients and caching the step factors read 1.90
    assert peak < 1.6 * matrix_bytes, peak / matrix_bytes
