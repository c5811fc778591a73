"""Built-in truth fields: smooth products and letter glyphs."""

import numpy as np
import pytest

from adjpod import build_grid, list_shapes, make_shape


def test_catalog_is_sorted_and_complete():
    names = list_shapes()
    assert names == sorted(names)
    assert set(names) == {"sin1", "sin2", "sin2exp", "glyphA", "glyphZ"}


def test_unknown_shape_lists_the_catalog():
    grid = build_grid(9, 9)
    with pytest.raises(ValueError, match="sin2exp"):
        make_shape("swirl", grid)


def test_all_shapes_vanish_on_the_boundary():
    grid = build_grid(21, 17)
    for name in list_shapes():
        values = make_shape(name, grid)
        np.testing.assert_array_equal(values[grid.boundary], 0.0)
        assert np.all(np.isfinite(values))
        assert np.any(values != 0.0)


def test_smooth_shapes_match_their_formulas():
    grid = build_grid(21, 21)
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    inner = ~grid.boundary
    np.testing.assert_allclose(make_shape("sin1", grid)[inner],
                               (np.sin(x) * np.sin(y))[inner], rtol=1e-15)
    np.testing.assert_allclose(make_shape("sin2", grid)[inner],
                               (np.sin(2 * x) * np.sin(2 * y))[inner], rtol=1e-15)
    expected = (np.sin(2 * x) * np.sin(2 * y) * np.exp((x + y) / np.pi))[inner]
    np.testing.assert_allclose(make_shape("sin2exp", grid)[inner], expected,
                               rtol=1e-15)


def test_sin2_sign_structure():
    grid = build_grid(33, 33)
    values = make_shape("sin2", grid)
    mid = 16 * grid.nx + 16                # (pi/2, pi/2): sin(pi) = 0
    assert values[mid] == pytest.approx(0.0, abs=1e-12)
    quarter = 8 * grid.nx + 8              # (pi/4, pi/4): positive lobe
    three_quarter = 8 * grid.nx + 24       # (3pi/4, pi/4): negative lobe
    assert values[quarter] > 0.9
    assert values[three_quarter] < -0.9


def test_glyphs_are_binary_indicators():
    grid = build_grid(33, 33)
    for name in ("glyphA", "glyphZ"):
        values = make_shape(name, grid)
        assert set(np.unique(values)) == {0.0, 1.0}


@pytest.mark.parametrize("name,nx,count", [
    ("glyphA", 33, 169),
    ("glyphZ", 33, 203),
    ("glyphA", 51, 358),
    ("glyphZ", 51, 459),
])
def test_glyph_coverage_is_frozen(name, nx, count):
    """Node counts pinned so silent geometry drift fails loudly."""
    grid = build_grid(nx, nx)
    values = make_shape(name, grid)
    assert int(values.sum()) == count
    fraction = values.sum() / grid.n_nodes
    assert 0.05 < fraction < 0.40


def test_shapes_are_deterministic():
    grid = build_grid(27, 27)
    for name in list_shapes():
        np.testing.assert_array_equal(make_shape(name, grid),
                                      make_shape(name, grid))
