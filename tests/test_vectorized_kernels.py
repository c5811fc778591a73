"""Vectorized kernels against the per-element loops they replace: the
five-point stencil, the CSV writers and the modal projection."""

import numpy as np
import pytest
import scipy.sparse as sp

from adjpod import (CoefficientSet, MeasurementSet, assemble_operators, build_grid,
                    laplacian_stencil, mode_table, project_onto_modes,
                    write_field_csv, write_matrix_csv, write_measurements_csv)
from adjpod.inversion import _quasi_uniformity
from adjpod.spectral import laplace_eigenpair

_FMT = "%.17g"
SPECIAL = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, np.pi])


def _loop_stencil(grid):
    """The interior-node loop that built the stencil before."""
    rows, cols, vals = [], [], []
    ax = 1.0 / grid.hx ** 2
    ay = 1.0 / grid.hy ** 2
    for r, node in enumerate(grid.interior):
        rows.extend([r] * 5)
        cols.extend([node, node - 1, node + 1, node - grid.nx, node + grid.nx])
        vals.extend([-2.0 * (ax + ay), ax, ax, ay, ay])
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(len(grid.interior), grid.n_nodes)).tocsr()


def _rows(matrix):
    """The per-value formatter the writers used before."""
    return "\n".join(",".join(_FMT % v for v in row) for row in matrix)


def _values(rng, n):
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    values[: SPECIAL.size] = SPECIAL
    return rng.permutation(values)


@pytest.mark.parametrize("shape", [(3, 3), (9, 7), (33, 33), (4, 21)])
def test_laplacian_stencil_equals_the_loop(shape):
    grid = build_grid(*shape)
    fast, loop = laplacian_stencil(grid), _loop_stencil(grid)
    assert fast.shape == loop.shape
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(fast, part), getattr(loop, part))
        assert getattr(fast, part).dtype == getattr(loop, part).dtype


def test_field_writer_matches_the_per_value_formatter(tmp_path):
    rng = np.random.default_rng(7)
    grid = build_grid(9, 6)
    values = _values(rng, grid.n_nodes)
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values)
    expected = f"nx,ny,h\n9,6,{_FMT % grid.h}\n" + \
        _rows(values.reshape(grid.ny, grid.nx)) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("shape", [(5, 4), (1, 6), (6, 1), (0, 3), (2, 0)])
def test_matrix_writer_matches_the_per_value_formatter(tmp_path, shape):
    rng = np.random.default_rng(11)
    matrix = _values(rng, max(shape[0] * shape[1], SPECIAL.size))[
        : shape[0] * shape[1]].reshape(shape)
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, matrix)
    assert path.read_bytes() == (_rows(matrix) + "\n").encode()


@pytest.mark.parametrize("n", [0, 1, 12])
def test_measurement_writer_matches_the_per_value_formatter(tmp_path, n):
    rng = np.random.default_rng(13)
    detectors = rng.uniform(0.0, np.pi, (n, 2))
    readings = _values(rng, max(n, SPECIAL.size))[:n]
    ms = MeasurementSet(detectors=detectors, readings=readings, sigma=0.0, p=0.0,
                        seed=None, quasi_uniformity=None)
    path = tmp_path / "meas.csv"
    write_measurements_csv(path, ms)
    lines = ["x,y,reading"] + [f"{_FMT % x},{_FMT % y},{_FMT % r}"
                               for (x, y), r in zip(detectors, readings)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("shape, L", [((33, 33), 64), ((13, 11), 20), ((9, 17), 30)])
def test_projection_matches_the_mode_by_mode_sum(shape, L):
    grid = build_grid(*shape)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    values = np.random.default_rng(3).standard_normal(grid.n_nodes)
    weighted = ops.mass @ values
    reference = np.array([laplace_eigenpair(j, k, grid)[1] @ weighted
                          for j, k in mode_table(L)])
    coeffs = project_onto_modes(values, ops, L)
    assert coeffs.modes == tuple(mode_table(L))
    np.testing.assert_allclose(coeffs.values, reference, rtol=0,
                               atol=1e-14 * np.max(np.abs(reference)))
    # a later call that needs more modes extends the tables
    more = project_onto_modes(values, ops, 2 * L)
    np.testing.assert_allclose(more.values[:L], coeffs.values, rtol=0,
                               atol=1e-14 * np.max(np.abs(reference)))


def test_quasi_uniformity_memo_follows_the_coordinates():
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(5)
    for _ in range(3):
        detectors = rng.uniform(0.0, np.pi, (40, 2))
        tree = cKDTree(detectors)
        side = np.linspace(0.0, np.pi, 101)
        X, Y = np.meshgrid(side, side, indexing="xy")
        d_max = tree.query(np.column_stack([X.ravel(), Y.ravel()]))[0].max()
        d_min = tree.query(detectors, k=2)[0][:, 1].min()
        assert _quasi_uniformity(detectors) == d_max / d_min
