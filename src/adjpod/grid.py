"""Structured right-triangle meshes on the square [0, pi] x [0, pi].

Nodes are ordered row-major with y outer and x inner: node (ix, iy) has
flat index ``iy * nx + ix``.  Every grid cell is split into two right
triangles along its (+1, +1) diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DOMAIN_SIDE = np.pi


@dataclass(frozen=True, eq=False)
class Grid2D:
    """Structured P1 triangulation of [0, pi]^2."""

    nx: int
    ny: int
    xs: np.ndarray
    ys: np.ndarray
    coords: np.ndarray      # (nx*ny, 2) node coordinates
    triangles: np.ndarray   # (2*(nx-1)*(ny-1), 3) CCW node indices
    boundary: np.ndarray    # bool mask over nodes
    interior: np.ndarray    # indices of interior nodes

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def interior_shape(self) -> tuple:
        """(rows, columns) of the interior node block; ``interior`` is row-major."""
        return (self.ny - 2, self.nx - 2)

    @property
    def hx(self) -> float:
        return DOMAIN_SIDE / (self.nx - 1)

    @property
    def hy(self) -> float:
        return DOMAIN_SIDE / (self.ny - 1)

    @property
    def h(self) -> float:
        """Mesh spacing along x (equals hy on square grids)."""
        return self.hx


def build_grid(nx: int, ny: int) -> Grid2D:
    """Build the structured triangulation with nx*ny nodes.

    Parameters
    ----------
    nx, ny : int
        Node counts per axis; both must be >= 3 so at least one
        interior node exists.
    """
    if nx < 3 or ny < 3:
        raise ValueError(f"need nx, ny >= 3 for an interior node, got ({nx}, {ny})")
    xs = np.linspace(0.0, DOMAIN_SIDE, nx)
    ys = np.linspace(0.0, DOMAIN_SIDE, ny)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    coords = np.column_stack([X.ravel(), Y.ravel()])

    cix, ciy = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="xy")
    n00 = (ciy * nx + cix).ravel()
    n10 = n00 + 1
    n01 = n00 + nx
    n11 = n01 + 1
    # lower triangle (below the cell diagonal) then upper triangle, both CCW
    lower = np.column_stack([n00, n10, n11])
    upper = np.column_stack([n00, n11, n01])
    triangles = np.vstack([lower, upper])

    ix = np.tile(np.arange(nx), ny)
    iy = np.repeat(np.arange(ny), nx)
    boundary = (ix == 0) | (ix == nx - 1) | (iy == 0) | (iy == ny - 1)
    interior = np.flatnonzero(~boundary)

    return Grid2D(nx=nx, ny=ny, xs=xs, ys=ys, coords=coords,
                  triangles=triangles, boundary=boundary, interior=interior)
