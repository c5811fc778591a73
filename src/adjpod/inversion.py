"""Measurement noise, scattered-data denoising, and Tikhonov inversion.

Noisy point readings are smoothed by a penalized least-squares fit with a
discrete bi-Laplacian penalty; the inversion itself runs in the reduced
POD coordinates, either by gradient descent on

    J(f) = 1/2 ( ||S f - m||^2 + lambda ||f||^2 )

or in closed form.  Both work in the eigenbasis S = Q diag(w) Q^T of the
reduced solution operator, where the minimizer is the spectral filter
f = Q (w / (w^2 + lambda)) Q^T m and each descent step is diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.spatial import cKDTree

from .fem import DiscreteOperators
from .grid import Grid2D
from .reduced import ReducedModel
from .reduced import spod_matrix  # noqa: F401 - traced by perfbench/spans.py

ALPHA_FLOOR = 1e-14
_SNAP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Point detectors with (possibly noisy) readings of the final state."""

    detectors: np.ndarray     # (n, 2) positions inside the closed domain
    readings: np.ndarray      # (n,) measured values
    sigma: float              # absolute noise scale
    p: float                  # nominal relative noise level
    seed: Optional[int]
    quasi_uniformity: Optional[float]   # d_max / d_min fill/separation ratio

    @property
    def n(self) -> int:
        return self.detectors.shape[0]


def _quasi_uniformity(detectors: np.ndarray) -> Optional[float]:
    """Fill-to-separation ratio d_max/d_min, probed on a fixed lattice."""
    if detectors.shape[0] < 2:
        return None
    return _quasi_uniformity_of(detectors.shape[0], detectors.tobytes())


@functools.lru_cache(maxsize=8)
def _quasi_uniformity_of(n: int, coords: bytes) -> Optional[float]:
    """The KD-tree probe, memoized on the detector coordinates' bytes."""
    detectors = np.frombuffer(coords).reshape(n, 2)
    tree = cKDTree(detectors)
    side = np.linspace(0.0, np.pi, 101)
    X, Y = np.meshgrid(side, side, indexing="xy")
    probes = np.column_stack([X.ravel(), Y.ravel()])
    d_max = float(tree.query(probes)[0].max())
    d_min = float(tree.query(detectors, k=2)[0][:, 1].min())
    return d_max / d_min if d_min > 0 else None


def add_noise(detectors: np.ndarray, clean: np.ndarray, p: float,
              seed: Optional[int] = None) -> MeasurementSet:
    """Perturb clean readings by sigma * N(0,1) with sigma = p * max|clean|."""
    if not (np.isfinite(p) and p >= 0):
        raise ValueError(f"noise level must be finite and >= 0, got {p}")
    detectors = np.asarray(detectors, dtype=float).reshape(-1, 2)
    clean = np.asarray(clean, dtype=float)
    if clean.shape != (detectors.shape[0],):
        raise ValueError("one reading per detector required")
    _finite(clean, "clean readings")
    _finite(detectors, "detector coordinates")
    sigma = float(p * np.max(np.abs(clean))) if clean.size else 0.0
    readings = clean.copy()
    if sigma > 0:
        rng = np.random.default_rng(seed)
        readings = readings + sigma * rng.standard_normal(clean.shape)
    return MeasurementSet(detectors=detectors, readings=readings, sigma=sigma,
                          p=float(p), seed=seed,
                          quasi_uniformity=_quasi_uniformity(detectors))


def snap_detectors_to_nodes(grid: Grid2D, detectors: np.ndarray) -> np.ndarray:
    """Node indices of detectors that sit on grid nodes; off-grid is an error."""
    detectors = np.asarray(detectors, dtype=float).reshape(-1, 2)
    jx = np.clip(np.rint(detectors[:, 0] / grid.hx).astype(int), 0, grid.nx - 1)
    jy = np.clip(np.rint(detectors[:, 1] / grid.hy).astype(int), 0, grid.ny - 1)
    nearest = np.column_stack([grid.xs[jx], grid.ys[jy]])
    dist = np.linalg.norm(detectors - nearest, axis=1)
    if np.any(dist > _SNAP_TOL):
        worst = detectors[int(np.argmax(dist))]
        raise ValueError(f"detector {tuple(worst)} does not coincide with a grid node")
    return jy * grid.nx + jx


def laplacian_stencil(grid: Grid2D) -> sp.csr_matrix:
    """Five-point Laplacian rows at interior nodes (one row per interior node)."""
    n = grid.n_nodes
    node = grid.interior[:, None]
    cols = node + np.array([0, -1, 1, -grid.nx, grid.nx])
    ax = 1.0 / grid.hx ** 2
    ay = 1.0 / grid.hy ** 2
    vals = np.tile([-2.0 * (ax + ay), ax, ax, ay, ay], node.size)
    rows = np.repeat(np.arange(node.size), 5)
    return sp.coo_matrix((vals, (rows, cols.ravel())), shape=(node.size, n)).tocsr()


def denoise(ms: MeasurementSet, grid: Grid2D, alpha: float) -> np.ndarray:
    """Penalized least-squares fit of the readings over the grid.

    Minimizes (1/n) sum_i (u(d_i) - m_i)^2 + alpha * ||Lap_h u||^2_{L2}
    with the five-point Laplacian restricted to interior nodes.  The fit
    imposes the known homogeneous boundary values, which makes the
    interior normal system positive-definite for alpha > 0 (a discrete
    harmonic function vanishing on the boundary is zero); readings at
    boundary detectors therefore do not influence the fit.
    """
    if not alpha > 0:
        raise ValueError(f"denoising weight alpha must be positive, got {alpha}")
    nodes = snap_detectors_to_nodes(grid, ms.detectors)
    n = ms.n
    N = grid.n_nodes
    P = sp.coo_matrix((np.ones(n), (np.arange(n), nodes)), shape=(n, N)).tocsr()
    B = laplacian_stencil(grid)
    cell = grid.hx * grid.hy
    H = (P.T @ P) / n + (alpha * cell) * (B.T @ B)
    rhs = P.T @ ms.readings / n
    idx = grid.interior
    u = np.zeros(N)
    try:
        u[idx] = splu(H[np.ix_(idx, idx)].tocsc()).solve(rhs[idx])
    except RuntimeError as exc:  # pragma: no cover - PD by construction
        raise RuntimeError(f"internal error: denoise system not solvable ({exc})")
    return u


def select_alpha(sigma: float, n: int, h2_norm_estimate: float) -> float:
    """Smoothing weight from the noise-per-sample to signal-smoothness ratio.

    alpha = (sigma / sqrt(n) / ||u||_{H2})^(4/3), floored at 1e-14 so the
    noise-free limit still yields a positive-definite denoise system.
    """
    if sigma < 0:
        raise ValueError(f"noise scale must be >= 0, got {sigma}")
    if n < 1:
        raise ValueError(f"need at least one detector, got {n}")
    if not h2_norm_estimate > 0:
        raise ValueError("smoothness-norm estimate must be positive")
    ratio = sigma / np.sqrt(n) / h2_norm_estimate
    return max(float(ratio ** (4.0 / 3.0)), ALPHA_FLOOR)


def h2_norm_estimate(grid: Grid2D, ops: DiscreteOperators, values: np.ndarray) -> float:
    """Discrete surrogate for the H2 norm: L2 + energy + bi-Laplacian terms."""
    values = np.asarray(values, dtype=float)
    l2 = ops.inner(values, values)
    h1 = max(ops.energy(values, values), 0.0)
    lap = laplacian_stencil(grid) @ values
    h2 = grid.hx * grid.hy * float(lap @ lap)
    return float(np.sqrt(l2 + h1 + h2))


def _check_lam(lam: float) -> None:
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"Tikhonov weight must be finite and >= 0, got {lam}")


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise ValueError(f"{what} must be finite, got {values[where]} at index "
                         f"{where[0] if len(where) == 1 else where}")
    return values


@dataclass(frozen=True)
class InverseConfig:
    """Knobs of the reduced-space Tikhonov solve."""

    lam: float = 1e-10
    beta: Optional[float] = None          # step size; default 1/(s_max^2 + lam)
    max_iters: int = 5000
    grad_tol: Optional[float] = None      # default 1e-10 * (initial grad norm + 1)
    mode: str = "direct"                  # "direct" | "gradient"
    initial: Optional[np.ndarray] = None  # reduced-coordinate start, default 0

    def __post_init__(self):
        _check_lam(self.lam)
        if self.beta is not None and not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"step size must be finite and positive, got {self.beta}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.mode not in ("direct", "gradient"):
            raise ValueError(f"unknown solver mode {self.mode!r}")


def tikhonov_objective(model: ReducedModel, f_r: np.ndarray, m_r: np.ndarray,
                       lam: float) -> float:
    """J(f) = 1/2 (||S f - m||^2 + lam ||f||^2) in reduced coordinates."""
    w, Q = model.spectrum
    r = w * (Q.T @ f_r) - Q.T @ m_r
    return 0.5 * (float(r @ r) + lam * float(f_r @ f_r))


def gradient_of_J(model: ReducedModel, f_r: np.ndarray, m_r: np.ndarray,
                  lam: float) -> np.ndarray:
    """Gradient S^T (S f - m) + lam f = Q ((w^2 + lam) Q^T f - w Q^T m)."""
    f_r = np.asarray(f_r, dtype=float)
    m_r = _finite(m_r, "measurement coefficients m_r")
    if f_r.shape != (model.n_pod,) or m_r.shape != (model.n_pod,):
        raise ValueError("coefficient vectors must match the basis size")
    _check_lam(lam)
    w, Q = model.spectrum
    return Q @ ((w * w + lam) * (Q.T @ f_r) - w * (Q.T @ m_r))


def descent_step_bound(model: ReducedModel, lam: float) -> float:
    """Stability bound 2 / (s_max^2 + lam) for the gradient iteration."""
    s_max = float(np.max(model.spectrum[0]))
    return 2.0 / (s_max ** 2 + lam)


def tikhonov_gradient_descent_reduced(model: ReducedModel, m_r: np.ndarray,
                                      cfg: InverseConfig):
    """Gradient iteration in reduced coordinates; returns (f_r, J history).

    The iteration runs on the eigen-coordinates z = Q^T f, where the step
    f <- f - beta grad J is diagonal; the gradient norm, J and hence the
    stopping rule are the same as in the original coordinates.
    """
    w, Q = model.spectrum
    bound = descent_step_bound(model, cfg.lam)
    beta = cfg.beta if cfg.beta is not None else 0.5 * bound
    if not beta < bound:
        raise ValueError(
            f"step size {beta} violates the stability bound: need beta < {bound}")

    f = np.array(cfg.initial, dtype=float) if cfg.initial is not None \
        else np.zeros(model.n_pod)
    if f.shape != (model.n_pod,):
        raise ValueError("initial guess must match the basis size")
    m_r = _finite(m_r, "measurement coefficients m_r")

    z = Q.T @ f
    n = Q.T @ m_r
    curvature = w * w + cfg.lam
    grad = curvature * z - w * n
    tol = cfg.grad_tol if cfg.grad_tol is not None \
        else 1e-10 * (float(np.linalg.norm(grad)) + 1.0)
    history = [tikhonov_objective(model, f, m_r, cfg.lam)]
    for _ in range(cfg.max_iters):
        if np.linalg.norm(grad) <= tol:
            break
        z = z - beta * grad
        history.append(tikhonov_objective(model, Q @ z, m_r, cfg.lam))
        grad = curvature * z - w * n
    return Q @ z, np.asarray(history)


def tikhonov_gradient_descent(model: ReducedModel, m: np.ndarray,
                              cfg: InverseConfig):
    """Recover the unknown from a full measurement field; returns (field, history)."""
    m_r = model.basis.coefficients(np.asarray(m, dtype=float))
    f_r, history = tikhonov_gradient_descent_reduced(model, m_r, cfg)
    return model.basis.expand(f_r), history


def tikhonov_direct_reduced(model: ReducedModel, m_r: np.ndarray,
                            lam: float) -> np.ndarray:
    """Closed-form reduced minimizer: the spectral filter Q (w / (w^2 + lam)) Q^T m."""
    _check_lam(lam)
    m_r = _finite(m_r, "measurement coefficients m_r")
    w, Q = model.spectrum
    if lam == 0.0 and np.min(np.abs(w)) <= 1e-14 * np.max(np.abs(w)):
        raise ValueError("normal matrix is singular: lam = 0 with rank-deficient S")
    return Q @ (w / (w * w + lam) * (Q.T @ m_r))


def tikhonov_direct(model: ReducedModel, m: np.ndarray, lam: float) -> np.ndarray:
    """Direct Tikhonov recovery from a full measurement field."""
    m_r = model.basis.coefficients(np.asarray(m, dtype=float))
    return model.basis.expand(tikhonov_direct_reduced(model, m_r, lam))
