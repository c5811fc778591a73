"""P1 finite-element operators and backward-Euler time stepping.

Assembles the consistent mass matrix and the stiffness matrix of the
bilinear form a(u, v) = (q grad u, grad v) + (c u, v) on a structured
triangulation, a block of triangles at a time so that the transient stays
near the operators returned, and advances u_t + L u = f with homogeneous
Dirichlet boundary values by the implicit Euler scheme

    (mass + dt * stiffness) U_k = mass * U_{k-1} + dt * mass * f,

with one factorization per solve; up to ``PINNED_UNKNOWNS`` unknowns it
is kept for the last few (operators, dt) pairs in the process and reused
by every solve with that step.  ``_factorize``, which factors the denoise
system too, picks the factorization from the system's size and band,
taking a wide, thin grid's unknowns column by column when that narrows the
band enough.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.linalg
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
# by COLAMD, the time-step factors are kept between solves, and a snapshot set
# stores its quotients, its correlation matrix one GEMM (pod.correlation_matrix).
PINNED_UNKNOWNS = 2401

# Largest band, (bandwidth + 1) x unknowns entries, that _factorize factors
# as a banded Cholesky: the 129 x 129 time step, near which its solves stop
# beating minimum-degree SuperLU's.
BAND_ENTRIES = 129 * 127 ** 2

# Triangles whose element matrices assemble_operators forms at once.
_ASSEMBLY_BLOCK = 2048

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


def _sampled_coefficients(grid: Grid2D, coeffs: CoefficientSet):
    """(area, q's midpoint mean / (4 area), c at the edge midpoints) of every
    triangle, checked over the whole mesh; the rest is freed on return."""
    tris = grid.triangles
    p1 = grid.coords[tris[:, 0]]
    p2 = grid.coords[tris[:, 1]]
    p3 = grid.coords[tris[:, 2]]

    d21 = p2 - p1
    d31 = p3 - p1
    area = 0.5 * (d21[:, 0] * d31[:, 1] - d21[:, 1] * d31[:, 0])
    if np.any(area <= 0):
        raise ValueError("triangulation contains non-positive element areas")

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
    with np.errstate(over="ignore", invalid="ignore"):
        return area, q_samples.mean(axis=1) / (4.0 * area), c_samples


def assemble_operators(grid: Grid2D, coeffs: CoefficientSet) -> DiscreteOperators:
    """Assemble consistent mass and the stiffness of a(u, v).

    Variable coefficients are integrated with the three-point
    edge-midpoint rule (exact for P1 integrands); the mass matrix is the
    exact consistent P1 mass.  q and c are sampled and checked over the
    whole mesh, then the element matrices are formed ``_ASSEMBLY_BLOCK``
    triangles at a time, so no (triangles, 3, 3) temporary outlives its block.
    """
    tris = grid.triangles
    area, q_area, c_samples = _sampled_coefficients(grid, coeffs)
    phi_outer = _PHI_MID[:, :, None] * _PHI_MID[:, None, :]          # (3, 3, 3)
    k_vals = np.empty((tris.shape[0], 3, 3))
    for start in range(0, tris.shape[0], _ASSEMBLY_BLOCK):
        t = slice(start, start + _ASSEMBLY_BLOCK)
        p1, p2, p3 = (grid.coords[tris[t, i]] for i in range(3))
        # gradients of the hat functions: grad phi_i = (b_i, c_i) / (2 A)
        b = np.stack([p2[:, 1] - p3[:, 1], p3[:, 1] - p1[:, 1], p1[:, 1] - p2[:, 1]], axis=1)
        c = np.stack([p3[:, 0] - p2[:, 0], p1[:, 0] - p3[:, 0], p2[:, 0] - p1[:, 0]], axis=1)
        # diffusion block: (integral of q) * grad phi_i . grad phi_j
        grads = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
        with np.errstate(over="ignore", invalid="ignore"):
            k_local = q_area[t, None, None] * grads
        if not np.all(np.isfinite(k_local)):
            raise ValueError("diffusion coefficient q overflows the stiffness matrix "
                             "on this grid")
        # reaction block via the same midpoint rule
        r_local = (area[t] / 3.0)[:, None, None] * np.einsum("tm,mij->tij", c_samples[t],
                                                             phi_outer)
        np.add(k_local, r_local, out=k_vals[t])
    del q_area, c_samples           # gone before the COO conversion, the peak

    m_pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m_vals = area[:, None, None] * m_pattern[None, :, :]

    ii = tris[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    jj = tris[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = grid.n_nodes
    stiffness = sp.coo_matrix((k_vals.ravel(), (ii, jj)), shape=(n, n)).tocsr()
    if not np.all(np.isfinite(stiffness.data)):     # the sum at a node overflows
        raise ValueError("diffusion coefficient q and reaction coefficient c overflow "
                         "the assembled stiffness matrix on this grid")
    mass = sp.coo_matrix((m_vals.ravel(), (ii, jj)), shape=(n, n)).tocsr()
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


class _BandedCholesky:
    """Upper Cholesky factor in LAPACK band storage, unknowns in ``order``
    (None: as given); ``solve`` works as SuperLU's but may overwrite rhs."""

    def __init__(self, factor: np.ndarray, order: Optional[np.ndarray]):
        self.factor = factor
        self.order = order
        self._pbtrs, = scipy.linalg.get_lapack_funcs(("pbtrs",), (factor,))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.order is not None:
            rhs = rhs[self.order]
        x, info = self._pbtrs(self.factor, rhs, overwrite_b=True)
        if info != 0:  # pragma: no cover - arguments are valid by construction
            raise RuntimeError(f"internal error: pbtrs failed (info {info})")
        if self.order is not None:
            x[self.order] = x.copy()
        return x


def _factorize(system: sp.spmatrix, shape: tuple):
    """Factors of the symmetric positive-definite ``system`` on the
    interior node block of ``shape`` (rows, columns), numbered row by row,
    whose ``solve(rhs)`` returns system^-1 rhs: SuperLU ordered by COLAMD
    up to ``PINNED_UNKNOWNS`` unknowns (results pinned bit for bit); above,
    a banded Cholesky while (bandwidth + 1) x unknowns is at most
    ``BAND_ENTRIES``, in the given (row-major) order or else, on a wide,
    thin block, column by column; and SuperLU ordered by minimum degree on
    A + A^T where neither band fits.  A singular system raises
    RuntimeError."""
    n = system.shape[0]
    if n <= PINNED_UNKNOWNS:
        return splu(system.tocsc(), permc_spec="COLAMD")
    columns = (np.arange(n).reshape(shape).T.ravel(),) if shape[1] > shape[0] else ()
    for order in (None,) + columns:
        upper = sp.triu(system if order is None else system[order][:, order], format="coo")
        width = int(np.max(upper.col - upper.row))
        if (width + 1) * n <= BAND_ENTRIES:
            break
    else:
        return splu(system.tocsc(), permc_spec="MMD_AT_PLUS_A")
    band = np.zeros((width + 1, n), order="F")   # Fortran order: factored in place
    band[width + upper.row - upper.col, upper.col] = upper.data
    try:
        factor = scipy.linalg.cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(str(exc)) from None
    return _BandedCholesky(factor, order)


@functools.lru_cache(maxsize=4)
def _stepper(ops: DiscreteOperators, dt: float):
    """(``_factorize`` of the interior mass + dt * stiffness, interior mass),
    kept for the last 4 (ops, dt) pairs in the process; ``solve_forward``
    calls the uncached ``_stepper.__wrapped__`` above ``PINNED_UNKNOWNS``."""
    idx = ops.interior
    try:
        lu = _factorize((ops.mass + dt * ops.stiffness)[np.ix_(idx, idx)],
                        ops.grid.interior_shape)
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
        Time discretization; the system matrix is factorized once for all
        M steps and, up to ``PINNED_UNKNOWNS`` interior unknowns, kept for
        later solves with the same (ops, dt).
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
    lu, mass_ii = (_stepper if idx.size <= PINNED_UNKNOWNS else _stepper.__wrapped__)(ops, dt)
    load = dt * (ops.mass @ f)[idx]

    states[:, grid.boundary] = 0.0
    # grid.interior is the row-major block [1:-1, 1:-1] of the (ny, nx) node
    # array, so a state's interior values are written through this view
    inner = states.reshape(len(steps), grid.ny, grid.nx)[:, 1:-1, 1:-1]
    block = grid.interior_shape
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
