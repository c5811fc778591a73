"""The POD correlation matrix follows the same size rule as the SuperLU ordering.

Up to ``fem.PINNED_UNKNOWNS`` interior unknowns (51 x 51) K = Y (M Y^T) is
one GEMM against the whole mass product, so its bits are unchanged.  Above,
K is filled one block of columns at a time: it must match that GEMM to
roundoff, be exactly symmetric, and never allocate an array the size of
the snapshot matrix.
"""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from adjpod import (CoefficientSet, ProblemKind, TimeGrid, assemble_operators, build_grid,
                    make_shape)
from adjpod import fem, pod
from adjpod.reduced import snapshot_set

RTOL = 1e-13        # of max|K|, fixed before measuring (3.4e-19 measured)


def _snapshot_set(n):
    grid = build_grid(n, n)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    return snapshot_set(ProblemKind.INVERSE_SOURCE, make_shape("sin2exp", grid), ops,
                        TimeGrid(T=1.0, M=100))


@pytest.fixture(scope="module")
def snapshots():
    """n -> the 201 source snapshots (M = 100) of sin2exp on an n x n grid,
    each built once for this module."""
    return functools.lru_cache(maxsize=None)(_snapshot_set)


def _single_gemm(snaps):
    Y = snaps.snapshots
    K = Y @ (snaps.ops.mass @ Y.T)
    return 0.5 * (K + K.T)


def _traced_peak(fn) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_threshold_drives_the_ordering_and_the_correlation_matrix(monkeypatch):
    assert pod.PINNED_UNKNOWNS == fem.PINNED_UNKNOWNS == build_grid(51, 51).interior.size
    monkeypatch.setattr(fem, "splu", lambda system, permc_spec: permc_spec)
    pinned, above = (sp.eye(fem.PINNED_UNKNOWNS + d, format="csc") for d in (0, 1))
    assert fem._factorize(pinned, (1, pinned.shape[0])) == "COLAMD"
    assert isinstance(fem._factorize(above, (1, above.shape[0])), fem._BandedCholesky)


def test_at_51x51_k_is_the_single_gemm_bit_for_bit(snapshots):
    snaps = snapshots(51)
    assert snaps.ops.interior.size == fem.PINNED_UNKNOWNS
    assert np.array_equal(pod.correlation_matrix(snaps.snapshots, snaps.ops),
                          _single_gemm(snaps))


@pytest.mark.parametrize("n", [53, 65])
def test_above_the_threshold_k_matches_the_single_gemm_to_roundoff(snapshots, n):
    snaps = snapshots(n)
    K, want = pod.correlation_matrix(snaps.snapshots, snaps.ops), _single_gemm(snaps)
    assert np.max(np.abs(K - want)) <= RTOL * np.max(np.abs(want))
    assert np.array_equal(K, K.T)


def test_above_the_threshold_no_snapshot_sized_array_is_allocated(snapshots, monkeypatch):
    snaps = snapshots(65)
    Y = snaps.snapshots
    assert Y.shape[0] == 201
    assert _traced_peak(lambda: pod.correlation_matrix(Y, snaps.ops)) < 0.5 * Y.nbytes
    # the control: the single GEMM on the same snapshots allocates the mass product
    monkeypatch.setattr(pod, "PINNED_UNKNOWNS", snaps.ops.interior.size)
    assert _traced_peak(lambda: pod.correlation_matrix(Y, snaps.ops)) >= Y.nbytes
