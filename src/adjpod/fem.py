"""P1 finite-element operators and backward-Euler time stepping.

Assembles the consistent mass matrix and the stiffness matrix of the
bilinear form a(u, v) = (q grad u, grad v) + (c u, v) on a structured
triangulation, and advances u_t + L u = f with homogeneous Dirichlet
boundary values by the implicit Euler scheme

    (mass + dt * stiffness) U_k = mass * U_{k-1} + dt * mass * f,

with one sparse factorization per (operators, dt), kept on the operators
and reused by every solve with that step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grid import Grid2D

# nodal hat-function values at the three edge midpoints of a triangle,
# rows = midpoints (of edges 01, 12, 20), columns = local basis functions
_PHI_MID = np.array([[0.5, 0.5, 0.0],
                     [0.0, 0.5, 0.5],
                     [0.5, 0.0, 0.5]])

_BOUNDARY_TOL = 1e-9
_STEPPERS_KEPT = 4     # time steps whose factorizations one operators object keeps

CoefficientFn = Union[float, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def _as_callable(spec: CoefficientFn):
    if callable(spec):
        return spec
    value = float(spec)
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), value)


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Diffusion q and reaction c, as constants or callables of (x, y)."""

    q: CoefficientFn = 1.0
    c: CoefficientFn = 0.0

    def q_at(self, x, y):
        return np.asarray(_as_callable(self.q)(x, y), dtype=float)

    def c_at(self, x, y):
        return np.asarray(_as_callable(self.c)(x, y), dtype=float)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform steps t_k = k * T / M on [0, T]."""

    T: float
    M: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got {self.T}")
        if self.M < 1:
            raise ValueError(f"need at least one time step, got M={self.M}")

    @property
    def dt(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)


@dataclass(frozen=True, eq=False)
class DiscreteOperators:
    """Assembled mass/stiffness pair with the Dirichlet bookkeeping.

    ``mass`` and ``stiffness`` must not be changed after the first solve:
    the time-step factorizations cached on the operators depend on them.
    """

    grid: Grid2D
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    # dt -> (splu of interior mass + dt * stiffness, interior mass), oldest first
    _steppers: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def boundary(self) -> np.ndarray:
        return self.grid.boundary

    @property
    def interior(self) -> np.ndarray:
        return self.grid.interior

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """Mass-weighted (L2) inner product of nodal fields."""
        return float(u @ (self.mass @ v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def energy(self, u: np.ndarray, v: np.ndarray) -> float:
        """Value of the bilinear form a(u, v)."""
        return float(u @ (self.stiffness @ v))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Backward-Euler solution path U_0 .. U_M (rows of ``states``)."""

    tg: TimeGrid
    states: np.ndarray

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def assemble_operators(grid: Grid2D, coeffs: CoefficientSet) -> DiscreteOperators:
    """Assemble consistent mass and the stiffness of a(u, v).

    Variable coefficients are integrated with the three-point
    edge-midpoint rule (exact for P1 integrands); the mass matrix is the
    exact consistent P1 mass.
    """
    tris = grid.triangles
    p1 = grid.coords[tris[:, 0]]
    p2 = grid.coords[tris[:, 1]]
    p3 = grid.coords[tris[:, 2]]

    d21 = p2 - p1
    d31 = p3 - p1
    area = 0.5 * (d21[:, 0] * d31[:, 1] - d21[:, 1] * d31[:, 0])
    if np.any(area <= 0):
        raise ValueError("triangulation contains non-positive element areas")

    # gradients of the hat functions: grad phi_i = (b_i, c_i) / (2 A)
    b = np.stack([p2[:, 1] - p3[:, 1], p3[:, 1] - p1[:, 1], p1[:, 1] - p2[:, 1]], axis=1)
    c = np.stack([p3[:, 0] - p2[:, 0], p1[:, 0] - p3[:, 0], p2[:, 0] - p1[:, 0]], axis=1)

    mids = np.stack([(p1 + p2) / 2, (p2 + p3) / 2, (p3 + p1) / 2], axis=1)  # (ntri, 3, 2)
    mx, my = mids[:, :, 0], mids[:, :, 1]
    q_samples = coeffs.q_at(mx, my)
    c_samples = coeffs.c_at(mx, my)
    if np.any(q_samples <= 0):
        raise ValueError("diffusion coefficient q must be strictly positive everywhere")
    if np.any(c_samples < 0):
        raise ValueError("reaction coefficient c must be non-negative everywhere")

    q_bar = q_samples.mean(axis=1)
    # diffusion block: (integral of q) * grad phi_i . grad phi_j
    grads = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    k_local = (q_bar / (4.0 * area))[:, None, None] * grads
    # reaction block via the same midpoint rule
    phi_outer = _PHI_MID[:, :, None] * _PHI_MID[:, None, :]          # (3, 3, 3)
    r_local = (area / 3.0)[:, None, None] * np.einsum("tm,mij->tij", c_samples, phi_outer)
    k_local = k_local + r_local

    m_pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m_local = area[:, None, None] * m_pattern[None, :, :]

    ii = tris[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    jj = tris[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = grid.n_nodes
    stiffness = sp.coo_matrix((k_local.ravel(), (ii, jj)), shape=(n, n)).tocsr()
    mass = sp.coo_matrix((m_local.ravel(), (ii, jj)), shape=(n, n)).tocsr()
    return DiscreteOperators(grid=grid, mass=mass, stiffness=stiffness)


def conform_dirichlet(grid: Grid2D, values: np.ndarray, what: str = "field") -> np.ndarray:
    """Zero roundoff-level boundary values; reject genuinely nonzero ones."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError(f"{what} length does not match node count")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite (found NaN or infinite values)")
    scale = max(1.0, float(np.max(np.abs(values))))
    worst = float(np.max(np.abs(values[grid.boundary]))) if grid.boundary.any() else 0.0
    if worst > _BOUNDARY_TOL * scale:
        raise ValueError(
            f"{what} must vanish on the boundary (max boundary value {worst:.3e})")
    out = values.copy()
    out[grid.boundary] = 0.0
    return out


def _stepper(ops: DiscreteOperators, dt: float):
    """(splu of the interior mass + dt * stiffness, interior mass), built on
    the first solve with this dt and kept on ``ops`` for the last
    ``_STEPPERS_KEPT`` step sizes."""
    cached = ops._steppers.get(dt)
    if cached is None:
        if len(ops._steppers) >= _STEPPERS_KEPT:
            del ops._steppers[next(iter(ops._steppers))]
        idx = ops.interior
        system = (ops.mass + dt * ops.stiffness)[np.ix_(idx, idx)].tocsc()
        try:
            lu = splu(system)
        except RuntimeError as exc:  # pragma: no cover - impossible under invariants
            raise RuntimeError(f"internal error: time-step system is singular ({exc})")
        cached = ops._steppers[dt] = (lu, ops.mass[np.ix_(idx, idx)].tocsr())
    return cached


def solve_forward(ops: DiscreteOperators, tg: TimeGrid,
                  f: np.ndarray, g: np.ndarray) -> Trajectory:
    """Backward-Euler trajectory of u_t + L u = f, u(0) = g, u = 0 on the boundary.

    Parameters
    ----------
    ops : DiscreteOperators
        Assembled operators on the target grid.
    tg : TimeGrid
        Time discretization; the system matrix is factorized once per
        (ops, dt) and reused for all M steps and all later solves.
    f, g : ndarray
        Nodal source term and initial state; both must vanish on the
        boundary (roundoff-level residues are projected to zero).
    """
    grid = ops.grid
    f = conform_dirichlet(grid, f, "source term")
    g = conform_dirichlet(grid, g, "initial state")

    idx = ops.interior
    dt = tg.dt
    lu, mass_ii = _stepper(ops, dt)
    load = dt * (ops.mass @ f)[idx]

    states = np.zeros((tg.M + 1, grid.n_nodes))
    u = g[idx].copy()
    states[0, idx] = u
    for k in range(1, tg.M + 1):
        u = lu.solve(mass_ii @ u + load)
        states[k, idx] = u
    return Trajectory(tg=tg, states=states)
