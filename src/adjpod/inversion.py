"""Measurement noise, scattered-data denoising, and Tikhonov inversion.

Noisy point readings are smoothed by a penalized least-squares fit with a
discrete bi-Laplacian penalty; the inversion itself runs in the reduced
POD coordinates, either by gradient descent on

    J(f) = 1/2 ( ||S f - m||^2 + lambda ||f||^2 )

or in closed form.  Both work in the eigenbasis S = Q diag(w) Q^T of the
reduced solution operator, where the minimizer is the spectral filter
f = Q (w / (w^2 + lambda)) Q^T m and each descent step is diagonal: every
eigen-coordinate follows its own scalar recurrence, which the descent runs
in Python floats until the coordinate reaches an exact fixed point.  The
stop test is screened once per chunk of iterations and applied exactly
near the tolerance, so the result is bit for bit that of the loop stepping
the whole vector and testing after every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .fem import DiscreteOperators, _factorize
from .grid import Grid2D
from .reduced import ReducedModel
from .reduced import spod_matrix  # noqa: F401 - traced by perfbench/spans.py

ALPHA_FLOOR = 1e-14
_SNAP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Point detectors with (possibly noisy) readings of the final state.

    Only the readings and their noise: the layout's quasi-uniformity is a
    property of the detector lattice, which ``experiment`` reports."""

    detectors: np.ndarray     # (n, 2) positions inside the closed domain
    readings: np.ndarray      # (n,) measured values
    sigma: float              # absolute noise scale

    @property
    def n(self) -> int:
        return self.detectors.shape[0]


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
    return MeasurementSet(detectors=detectors, readings=readings, sigma=sigma)


def snap_detectors_to_nodes(grid: Grid2D, detectors: np.ndarray) -> np.ndarray:
    """Node indices of detectors that sit on grid nodes; off-grid is an error."""
    detectors = np.asarray(detectors, dtype=float).reshape(-1, 2)
    jx = np.clip(np.rint(detectors[:, 0] / grid.hx).astype(int), 0, grid.nx - 1)
    jy = np.clip(np.rint(detectors[:, 1] / grid.hy).astype(int), 0, grid.ny - 1)
    nearest = np.column_stack([grid.xs[jx], grid.ys[jy]])
    dist = np.linalg.norm(detectors - nearest, axis=1)
    if np.any(dist > _SNAP_TOL):
        x, y = detectors[int(np.argmax(dist))]
        raise ValueError(f"detector ({float(x)!r}, {float(y)!r}) does not coincide with "
                         f"a grid node of the {grid.nx}x{grid.ny} grid")
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
    boundary detectors therefore do not influence the fit.  alpha must be
    finite, and an alpha whose penalty overflows the normal matrix (or
    underflows so that it is singular) is rejected, naming alpha.  The
    factorization is kept for the most recent grid shape, detector layout
    and alpha once the same grid shape and layout come in two calls in a
    row, so later readings that differ only in their values reuse it; the
    first call on a layout keeps no factors.
    """
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"denoising weight alpha must be finite and positive, got {alpha}")
    if ms.n < 1:
        raise ValueError(f"need at least one detector, got {ms.n}")
    nodes = snap_detectors_to_nodes(grid, ms.detectors)
    P, lu = _denoise_factors(grid, nodes, alpha)
    idx = grid.interior
    u = np.zeros(grid.n_nodes)
    u[idx] = lu.solve((P.T @ ms.readings / ms.n)[idx])
    return u


def nonzero_denoise(label: str, ms: MeasurementSet, ops: DiscreteOperators,
                    alpha: float) -> np.ndarray:
    """``denoise(ms, ops.grid, alpha)`` for the weight named ``label`` (a
    config key or a command-line flag); a fit whose mass norm is zero while
    some reading is not fails naming the label and alpha."""
    fitted = denoise(ms, ops.grid, alpha)
    if ops.norm(fitted) == 0.0 and np.any(ms.readings):
        raise ValueError(f"{label}={alpha:.6g} smooths the readings to a zero field; "
                         f"lower it")
    return fitted


# (nx, ny, detector node bytes) of the last call -> (alpha, P, factors of
# the interior normal matrix), or None: factors are kept only once their
# layout repeats, so a process that denoises once (a fine-grid run) does not
# carry megabytes of them through the POD that follows, while a noise study
# on one layout reuses them from its second call on.  At most one entry, and
# not an lru_cache(maxsize=1), which keeps the old factors alive while the
# next ones are built: this dict drops them first.
_DENOISE_MEMO: dict = {}


def _denoise_factors(grid: Grid2D, nodes: np.ndarray, alpha: float):
    """(sampling matrix P, ``fem._factorize`` of the interior normal matrix)
    of ``denoise``, kept for the most recent grid shape, detector layout and
    alpha once that layout has come twice in a row.  The normal matrix is
    built from the interior columns of P and of the stencil, so no
    boundary row or column of it is formed.  A rejected alpha keeps the
    factors held for its layout."""
    layout = (grid.nx, grid.ny, nodes.tobytes())
    repeats = layout in _DENOISE_MEMO
    held = _DENOISE_MEMO.get(layout)
    if held is not None and held[0] == alpha:
        return held[1:]
    n = nodes.size
    P = sp.coo_matrix((np.ones(n), (np.arange(n), nodes)), shape=(n, grid.n_nodes)).tocsr()
    idx = grid.interior
    P_i, B_i = P[:, idx], laplacian_stencil(grid)[:, idx]
    cell = grid.hx * grid.hy
    with np.errstate(over="ignore", invalid="ignore"):
        H = (P_i.T @ P_i) / n + (alpha * cell) * (B_i.T @ B_i)
    if not np.all(np.isfinite(H.data)):
        raise ValueError(f"denoising weight alpha={alpha} overflows the denoise "
                         f"normal matrix on this grid")
    if not repeats:
        _DENOISE_MEMO.clear()   # another layout's factors go before these are built
    try:
        lu = _factorize(H, grid.interior_shape)
    except RuntimeError as exc:     # a penalty that underflows leaves it singular
        raise ValueError(f"denoise system with alpha={alpha} is singular ({exc})") from None
    _DENOISE_MEMO[layout] = (alpha, P, lu) if repeats else None
    return P, lu


def select_alpha(sigma: float, n: int, h2_norm_estimate: float) -> float:
    """Smoothing weight from the noise-per-sample to signal-smoothness ratio.

    alpha = (sigma / sqrt(n) / ||u||_{H2})^(4/3), floored at 1e-14 so the
    noise-free limit still yields a positive-definite denoise system.
    """
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"noise scale sigma must be finite and >= 0, got {sigma}")
    if n < 1:
        raise ValueError(f"need at least one detector, got {n}")
    if not h2_norm_estimate > 0:
        raise ValueError("smoothness-norm estimate must be positive")
    ratio = sigma / np.sqrt(n) / h2_norm_estimate
    with np.errstate(over="ignore"):
        alpha = float(ratio ** (4.0 / 3.0))
    if not np.isfinite(alpha):
        raise ValueError(f"noise scale sigma={sigma} overflows the denoising weight alpha")
    return max(alpha, ALPHA_FLOOR)


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
    """Knobs of the reduced-space Tikhonov solve.

    The default stop test of gradient descent, 1e-10 * (||g_0|| + 1) with
    g_0 the initial gradient, does not scale with the data.  Backward sin2
    at 33 x 33, noise-free, truth scaled by 2^k: k = 0 reaches error
    9.68e-5 after 1,662 iterations, k = -30 stops at 7.46e-2 after 3.  For
    data far from unit scale, set ``grad_tol`` in the data's units or use
    the direct solve.
    """

    lam: float = 1e-10
    beta: Optional[float] = None          # step size; default 1/(s_max^2 + lam)
    max_iters: int = 5000
    grad_tol: Optional[float] = None      # default 1e-10 * (initial grad norm + 1)

    def __post_init__(self):
        _check_lam(self.lam)
        if self.beta is not None and not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"step size must be finite and positive, got {self.beta}")
        if self.grad_tol is not None and not (np.isfinite(self.grad_tol)
                                              and self.grad_tol >= 0):
            raise ValueError(
                f"gradient tolerance must be finite and >= 0, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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

    The iteration starts from f = 0 and runs on the eigen-coordinates
    z = Q^T f, where the step f <- f - beta grad J is diagonal: coordinate i
    follows its own scalar recurrence z <- z - beta (c_i z - b_i), with
    c = w^2 + lam and b = w Q^T m.  The gradient norm, J and hence the
    stopping rule are the same as in the original coordinates.

    Each coordinate advances alone through a chunk of iterations in Python
    floats, which round every product and difference as float64 arrays do;
    once it reaches an exact fixed point of the rounded map the rest of its
    chunk repeats that value.  The stop test ||grad|| <= tol runs once per
    chunk, exactly (as ``np.linalg.norm``) on every iterate whose screened
    norm is near tol, and the first hit ends the descent.  f, the history
    and the iteration count are therefore bit for bit those of the loop that
    steps the whole vector and tests the norm after every step.  J is
    evaluated on the recorded iterates once the descent ends.
    """
    w, Q = model.spectrum
    bound = descent_step_bound(model, cfg.lam)
    beta = cfg.beta if cfg.beta is not None else 0.5 * bound
    if not beta < bound:
        raise ValueError(
            f"step size {beta} violates the stability bound: need beta < {bound}")

    m_r = _finite(m_r, "measurement coefficients m_r")

    n = Q.T @ m_r
    curvature = w * w + cfg.lam
    wn = w * n
    # the gradient at z = 0 is -wn
    tol = cfg.grad_tol if cfg.grad_tol is not None \
        else 1e-10 * (float(np.linalg.norm(wn)) + 1.0)
    steppers = list(zip(curvature.tolist(), wn.tolist()))
    beta = float(beta)
    blocks = []           # the iterates so far, one (rows, n_pod) block per chunk
    z = [0.0] * model.n_pod
    taken, chunk = 0, _FIRST_CHUNK
    while True:
        steps = min(chunk, cfg.max_iters - taken)
        # rows 0..steps: the current iterate and the next `steps`
        block = np.array([_orbit(z_i, c_i, b_i, beta, steps)
                          for z_i, (c_i, b_i) in zip(z, steppers)]).T
        hit = _first_converged(curvature * block[:steps] - wn, tol)
        if hit is not None:
            blocks.append(block[:hit + 1])
            break
        taken += steps
        if taken == cfg.max_iters:
            blocks.append(block)
            break
        blocks.append(block[:steps])
        z = block[steps].tolist()
        chunk = min(2 * chunk, _LAST_CHUNK)
    # J is invariant under the orthogonal Q, so the history is evaluated
    # once, on all iterates together, in the eigen-coordinates; the stack is
    # C-ordered and the last iterate a vector of its own, as the row sums
    # and the product with Q then take the loop's bits
    Z = np.ascontiguousarray(np.concatenate(blocks))
    r = w * Z - n
    history = 0.5 * (np.sum(r * r, axis=1) + cfg.lam * np.sum(Z * Z, axis=1))
    return Q @ Z[-1].copy(), history


# chunk lengths of the descent double from the first to the last: memory
# follows the iterations taken, and each chunk costs a few numpy calls
_FIRST_CHUNK = 32
_LAST_CHUNK = 4096


def _orbit(z: float, c: float, b: float, beta: float, steps: int) -> list:
    """z and its next `steps` iterates under z <- z - beta (c z - b)."""
    out = [z]
    for _ in range(steps):
        z_next = z - beta * (c * z - b)
        if z_next == z:
            # a fixed point of the rounded map returns itself from now on;
            # == cannot confuse 0.0 with -0.0 here: z starts at 0.0, and
            # z - t is -0.0 only for z = -0.0 and t = 0.0
            out += [z] * (steps + 1 - len(out))
            break
        z = z_next
        out.append(z)
    return out


def _first_converged(grads: np.ndarray, tol: float) -> Optional[int]:
    """First row g of `grads` with sqrt(g . g) <= tol, computed as the loop
    did, or None.

    An einsum screens the rows.  It sums the same n squares as the dot
    product in another order, within a relative n 2^-53 of it (1e-150
    absolute covers squares below the normal range), so a row it puts above
    tol (1 + 1e-12) fails the loop's test.  The other rows get that test in
    order, each on a contiguous copy as the loop's vector was."""
    screened = np.sqrt(np.einsum("ij,ij->i", grads, grads))
    for k in np.flatnonzero(screened <= tol * (1.0 + 1e-12) + 1e-150).tolist():
        g = grads[k].copy()
        if math.sqrt(g.dot(g)) <= tol:     # np.linalg.norm(g), bit for bit
            return k
    return None


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
