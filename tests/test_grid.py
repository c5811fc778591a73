"""Structured mesh construction."""

import numpy as np
import pytest

from adjpod import DOMAIN_SIDE, build_grid


def test_build_grid_basic_layout():
    grid = build_grid(5, 4)
    assert grid.n_nodes == 20
    assert grid.coords.shape == (20, 2)
    assert grid.triangles.shape == (2 * 4 * 3, 3)
    np.testing.assert_allclose(grid.xs[-1], DOMAIN_SIDE)
    np.testing.assert_allclose(grid.ys[-1], DOMAIN_SIDE)
    np.testing.assert_allclose(grid.hx, DOMAIN_SIDE / 4)
    np.testing.assert_allclose(grid.hy, DOMAIN_SIDE / 3)


def test_build_grid_boundary_mask():
    grid = build_grid(6, 5)
    # perimeter of a 6x5 lattice: 2*6 + 2*5 - 4 corners counted twice
    assert grid.boundary.sum() == 2 * 6 + 2 * 5 - 4
    assert len(grid.interior) == (6 - 2) * (5 - 2)
    inner = grid.coords[grid.interior]
    assert inner[:, 0].min() > 0 and inner[:, 0].max() < DOMAIN_SIDE
    assert inner[:, 1].min() > 0 and inner[:, 1].max() < DOMAIN_SIDE


def test_build_grid_triangles_positively_oriented():
    grid = build_grid(7, 6)
    p = grid.coords[grid.triangles]
    twice_area = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert np.all(twice_area > 0)
    np.testing.assert_allclose(twice_area.sum() / 2.0, DOMAIN_SIDE ** 2)


def test_build_grid_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        build_grid(2, 5)
    with pytest.raises(ValueError):
        build_grid(5, 1)


def test_node_index_round_trip():
    grid = build_grid(9, 7)
    # row-major, y outer: node (ix, iy) = (3, 2) has flat index 2 * nx + 3
    np.testing.assert_allclose(grid.coords[2 * 9 + 3], [grid.xs[3], grid.ys[2]])
