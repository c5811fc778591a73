"""Span-equality and projection-bound checks on the analytic modal problem.

With q = 1, c = 0 the forward and data-driven snapshot families have exact
factorizations: stacking the first L eigenfunctions as columns of Phi and
writing F = diag(f_k), D = diag(final-time factors), J(i, j) = per-mode
response at t_j = j T / M, the forward snapshots are A = Phi F J and the
data-driven ones are At = Phi D F J.  Because D and F are invertible
diagonals, the two column spaces coincide — these routines instantiate
the matrices numerically and measure how well that survives floating
point, plus how the POD tail ratio of At controls the projection error
of A onto the At-derived basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .grid import Grid2D
from .pod import compute_pod_basis, projection_error_ratio
from .spectral import (ProblemKind, SpectralCoefficients, adjoint_response_factor,
                       distinct_mu_subset, laplace_eigenpair)


@dataclass(frozen=True, eq=False)
class TheoryMatrices:
    """Numeric instances of the snapshot factorizations on one mode set."""

    kind: ProblemKind
    L: int
    M: int
    T: float
    modes: tuple
    mus: np.ndarray
    phi: np.ndarray        # (n_nodes, L) eigenfunction columns
    f: np.ndarray          # coefficients of the unknown on the modes
    d: np.ndarray          # final-time factors per mode
    J: np.ndarray          # (L, M) response profiles at t_j = j T / M
    A: np.ndarray          # forward snapshots, Phi F J
    A_tilde: np.ndarray    # data-driven snapshots, Phi D F J
    grid: Grid2D


def build_theory_matrices(kind: ProblemKind, L: int, M: int, T: float,
                          fcoeffs: SpectralCoefficients, grid: Grid2D) -> TheoryMatrices:
    """Assemble Phi, F, D, J and the snapshot matrices A, A-tilde.

    Modes are taken from ``fcoeffs`` in increasing-eigenvalue order;
    repeated eigenvalues are skipped (the span argument needs them
    distinct) and every selected coefficient must be nonzero.
    """
    kind = ProblemKind.parse(kind)
    if not 1 <= L <= M:
        raise ValueError(f"need 1 <= L <= M snapshot times, got L={L}, M={M}")
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"final time must be finite and positive, got T={T}")
    sel = distinct_mu_subset(fcoeffs, L)
    if np.any(sel.values == 0.0):
        raise ValueError("all selected coefficients must be nonzero")

    mus = sel.mus
    phi = np.column_stack([laplace_eigenpair(j, k, grid)[1] for j, k in sel.modes])
    ts = np.arange(1, M + 1) * (T / M)
    J = adjoint_response_factor(kind, mus[:, None], ts[None, :])
    d = adjoint_response_factor(kind, mus, T)
    A = phi @ (sel.values[:, None] * J)
    A_tilde = phi @ (d[:, None] * sel.values[:, None] * J)
    return TheoryMatrices(kind=kind, L=L, M=M, T=T, modes=sel.modes, mus=mus,
                          phi=phi, f=sel.values, d=d, J=J, A=A, A_tilde=A_tilde,
                          grid=grid)


def _rank(matrix: np.ndarray, tol: float) -> tuple:
    svals = scipy.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(svals > tol * svals[0])) if svals[0] > 0 else 0
    return rank, svals


def verify_span_equality(tm: TheoryMatrices, tol: float = 1e-10) -> dict:
    """Column-space equality report for A and A-tilde.

    Ranks use singular values thresholded at ``tol`` times each matrix's
    largest one; PASS means rank(A) = rank(At) = rank([A | At]).  The
    report also carries both change-of-basis residuals: P_fwd solving
    J P = D J (so A P = At) and P_inv solving J P = D^{-1} J (so At P = A).
    """
    rank_a, sv_a = _rank(tm.A, tol)
    rank_t, sv_t = _rank(tm.A_tilde, tol)
    rank_joint, sv_joint = _rank(np.hstack([tm.A, tm.A_tilde]), tol)

    DJ = tm.d[:, None] * tm.J
    DinvJ = tm.J / tm.d[:, None]
    p_fwd = np.linalg.lstsq(tm.J, DJ, rcond=None)[0]
    p_inv = np.linalg.lstsq(tm.J, DinvJ, rcond=None)[0]

    def rel(x, y):
        return float(np.linalg.norm(x) / np.linalg.norm(y))

    report = {
        "kind": tm.kind.value,
        "L": tm.L,
        "M": tm.M,
        "T": tm.T,
        "tolerance": tol,
        "rank_forward": rank_a,
        "rank_data_driven": rank_t,
        "rank_joint": rank_joint,
        "singular_values_forward": sv_a.tolist(),
        "singular_values_data_driven": sv_t.tolist(),
        "singular_values_joint": sv_joint.tolist(),
        "residual_JP_eq_DJ": rel(tm.J @ p_fwd - DJ, DJ),
        "residual_forward_to_data": rel(tm.A @ p_fwd - tm.A_tilde, tm.A_tilde),
        "residual_data_to_forward": rel(tm.A_tilde @ p_inv - tm.A, tm.A),
        "pass": bool(rank_a == rank_t == rank_joint),
    }
    return report


def verify_pod_bound(kind: ProblemKind, L: int, M: int, T: float,
                     fcoeffs: SpectralCoefficients, grid: Grid2D, *, ops) -> dict:
    """``pod_bound_report`` on the modal problem built from these arguments,
    with ``ops`` the grid's q = 1, c = 0 operators."""
    return pod_bound_report(build_theory_matrices(kind, L, M, T, fcoeffs, grid), ops)


def pod_bound_report(tm: TheoryMatrices, ops) -> dict:
    """Projection of the forward snapshots onto the data-driven basis.

    Builds the POD basis from the columns of A-tilde; for every basis size
    n, ``projection_error_ratio`` of the forward snapshot columns a_i onto
    its leading n modes gives

        lhs(n) = sum_i ||a_i - P_n a_i||^2 / sum_i ||a_i||^2

    and the A-tilde tail ratio rho(n), with the implied constant
    lhs / (L^2 rho) (source kind, d = 2) or lhs / (e^{2 mu_L T} rho)
    (backward kind).  The asserted consequence of span equality is
    lhs <= 1e-6 at full retained rank.
    """
    basis = compute_pod_basis(tm.A_tilde.T, energy_tol=0.0, ops=ops)
    rank = basis.n_pod
    if tm.kind is ProblemKind.INVERSE_SOURCE:
        bound_factor = float(tm.L ** 2)            # L^{4/d} with d = 2
    else:
        bound_factor = float(np.exp(2.0 * tm.mus[-1] * tm.T))

    rows = [(1.0, 1.0)] + [projection_error_ratio(tm.A.T, basis.truncated(n))
                           for n in range(1, rank + 1)]
    table = []
    for n, (lhs, rho) in enumerate(rows):
        table.append({
            "n_pod": n,
            "lhs": lhs,
            "rho": rho,
            "implied_constant": lhs / (bound_factor * rho) if rho > 0 else None,
        })

    full_rank_lhs = table[rank]["lhs"]
    return {
        "kind": tm.kind.value,
        "L": tm.L,
        "M": tm.M,
        "T": tm.T,
        "modes": [list(jk) for jk in tm.modes],
        "bound_factor": bound_factor,
        "retained_rank": rank,
        "full_rank_lhs": full_rank_lhs,
        "table": table,
        "pass": bool(full_rank_lhs <= 1e-6),
    }
