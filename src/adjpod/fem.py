"""P1 finite-element operators and backward-Euler time stepping.

Assembles the consistent mass matrix and the stiffness matrix of the
bilinear form a(u, v) = (q grad u, grad v) + (c u, v) on a structured
triangulation, and advances u_t + L u = f with homogeneous Dirichlet
boundary values by the implicit Euler scheme

    (mass + dt * stiffness) U_k = mass * U_{k-1} + dt * mass * f,

with one sparse factorization per (operators, dt), kept for the last few
(operators, dt) pairs in the process and reused by every solve with that
step.  SuperLU orders the columns by COLAMD for up to 2,401 interior
unknowns (a 51 x 51 grid) and by minimum degree on A + A^T above: minimum
degree leaves less fill at every size, but its triangular solves are the
faster ones only from about 65 x 65 on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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

# Largest system, in interior unknowns (a 51 x 51 grid), whose results stay
# pinned bit for bit: up to it the time-step and denoise factors are ordered
# by COLAMD and the POD correlation matrix is one GEMM (pod.correlation_matrix).
PINNED_UNKNOWNS = 2401

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


@dataclass(frozen=True)
class TimeGrid:
    """Uniform steps t_k = k * T / M on [0, T]."""

    T: float
    M: int

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"final time must be finite and positive, got {self.T}")
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
    the time-step factorizations cached for the operators depend on them.
    """

    grid: Grid2D
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix

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
    """Backward-Euler states U_k at the time steps k listed in ``steps``.

    Row i of ``states`` is U_{steps[i]}.  ``steps`` is strictly increasing
    and ends at M, so ``final`` is always U_M; a full path has
    ``steps = 0, 1, ..., M``.
    """

    tg: TimeGrid
    states: np.ndarray
    steps: np.ndarray

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
    q_samples = np.asarray(_as_callable(coeffs.q)(mx, my), dtype=float)
    c_samples = np.asarray(_as_callable(coeffs.c)(mx, my), dtype=float)
    for name, samples in (("diffusion coefficient q", q_samples),
                          ("reaction coefficient c", c_samples)):
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{name} must be finite (found NaN or infinite values)")
    if np.any(q_samples <= 0):
        raise ValueError("diffusion coefficient q must be strictly positive everywhere")
    if np.any(c_samples < 0):
        raise ValueError("reaction coefficient c must be non-negative everywhere")

    # diffusion block: (integral of q) * grad phi_i . grad phi_j
    grads = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        q_bar = q_samples.mean(axis=1)
        k_local = (q_bar / (4.0 * area))[:, None, None] * grads
    if not np.all(np.isfinite(k_local)):
        raise ValueError("diffusion coefficient q overflows the stiffness matrix on this grid")
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
    if not np.all(np.isfinite(stiffness.data)):     # the sum at a node overflows
        raise ValueError("diffusion coefficient q and reaction coefficient c overflow "
                         "the assembled stiffness matrix on this grid")
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


def _column_ordering(unknowns: int) -> str:
    """SuperLU ``permc_spec`` for a symmetric positive-definite system with
    ``unknowns`` interior unknowns: COLAMD up to ``PINNED_UNKNOWNS`` (51 x 51
    and every smaller grid), where its solves are the faster ones, and
    minimum degree on A + A^T above, where its sparser factors solve faster."""
    return "COLAMD" if unknowns <= PINNED_UNKNOWNS else "MMD_AT_PLUS_A"


@functools.lru_cache(maxsize=4)
def _stepper(ops: DiscreteOperators, dt: float):
    """(splu of the interior mass + dt * stiffness, interior mass), built on
    the first solve with this (ops, dt) and kept for the last 4 such pairs
    in the process.  The column ordering is ``_column_ordering`` of the
    interior unknown count."""
    idx = ops.interior
    system = (ops.mass + dt * ops.stiffness)[np.ix_(idx, idx)].tocsc()
    try:
        lu = splu(system, permc_spec=_column_ordering(idx.size))
    except RuntimeError as exc:  # pragma: no cover - impossible under invariants
        raise RuntimeError(f"internal error: time-step system is singular ({exc})")
    return lu, ops.mass[np.ix_(idx, idx)].tocsr()


def _stored_steps(tg: TimeGrid, steps: Optional[Sequence[int]]) -> np.ndarray:
    if steps is None:
        return np.arange(tg.M + 1)
    out = np.array(steps)
    if out.ndim != 1 or out.size == 0 or not np.issubdtype(out.dtype, np.integer):
        raise ValueError("steps must be a non-empty list of integer time steps")
    if out[0] < 0 or out[-1] != tg.M or np.any(np.diff(out) <= 0):
        raise ValueError(f"steps must be strictly increasing, lie in [0, {tg.M}] "
                         f"and end at M={tg.M}")
    return out


def out_array(out: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """``out`` when it is a writeable C-contiguous float64 array of
    ``shape``; a new uninitialized one when it is None.

    The writers fill ``out`` through reshaped views and row slices, which
    are views only on a C-contiguous array, so any other layout is
    rejected rather than written into a silent copy.
    """
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.shape == tuple(shape)
            and out.dtype == np.float64 and out.flags.c_contiguous
            and out.flags.writeable):
        got = (f"{out.dtype} array of shape {out.shape}" if isinstance(out, np.ndarray)
               else type(out).__name__)
        raise ValueError(f"out must be a writeable C-contiguous float64 array of "
                         f"shape {tuple(shape)}, got {got}")
    return out


def solve_forward(ops: DiscreteOperators, tg: TimeGrid,
                  f: np.ndarray, g: np.ndarray,
                  steps: Optional[Sequence[int]] = None,
                  out: Optional[np.ndarray] = None) -> Trajectory:
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
    steps : sequence of int, optional
        Time steps k whose states U_k are stored, strictly increasing in
        [0, M] and ending at M; all M steps are taken either way, and the
        stored states are the same bits as the matching rows of the full
        path.  None (the default) stores every state U_0 .. U_M; a short
        list keeps memory at ``len(steps) * n_nodes`` however large M is.
    out : ndarray, optional
        Where to store the states, numpy style: a writeable C-contiguous
        float64 array of shape ``(len(steps), n_nodes)`` (M+1 rows when
        ``steps`` is None).  Every entry is written, the boundary zeros
        included, and the trajectory's ``states`` is ``out`` itself, so a
        row block of a larger matrix (such as the first rows of a snapshot
        matrix) receives the states without a separate buffer.  None (the
        default) allocates a new array.
    """
    grid = ops.grid
    f = conform_dirichlet(grid, f, "source term")
    g = conform_dirichlet(grid, g, "initial state")
    steps = _stored_steps(tg, steps)
    states = out_array(out, (len(steps), grid.n_nodes))

    idx = ops.interior
    dt = tg.dt
    lu, mass_ii = _stepper(ops, dt)
    load = dt * (ops.mass @ f)[idx]

    states[:, grid.boundary] = 0.0
    # grid.interior is the row-major block [1:-1, 1:-1] of the (ny, nx) node
    # array, so a state's interior values are written through this view
    inner = states.reshape(len(steps), grid.ny, grid.nx)[:, 1:-1, 1:-1]
    block = (grid.ny - 2, grid.nx - 2)
    u = g[idx].copy()
    row = 0
    if steps[0] == 0:
        inner[0] = u.reshape(block)
        row = 1
    for k in range(1, tg.M + 1):
        u = lu.solve(mass_ii @ u + load)
        if k == steps[row]:
            inner[row] = u.reshape(block)
            row += 1
    return Trajectory(tg=tg, states=states, steps=steps)
