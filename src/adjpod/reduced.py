"""Measurement-driven POD pipeline and the reduced Galerkin propagator.

The basis is built from an auxiliary full-order parabolic solve that is
driven only by the measured final-time data m — with m as the right-hand
side (source recovery) or as the initial state (backward recovery) — so
no knowledge of the unknown truth leaks into the basis.  The reduced
model then realizes the final-time solution operator as a small dense
matrix acting on basis coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from .fem import DiscreteOperators, TimeGrid, Trajectory, conform_dirichlet, solve_forward
from .pod import PodBasis, collect_snapshots, compute_pod_basis
from .spectral import ProblemKind

_ORTHO_TOL = 1e-10


def drive(kind: ProblemKind, field: np.ndarray, ops: DiscreteOperators,
          tg: TimeGrid) -> Trajectory:
    """Full-order trajectory of the heat equation driven by ``field``.

    Source kind: forcing = field, zero initial state.  Backward kind: zero
    forcing, initial state = field.  The field's boundary values are not
    touched, so ``solve_forward`` rejects a field that does not vanish there.
    """
    zero = np.zeros(ops.grid.n_nodes)
    if ProblemKind.parse(kind) is ProblemKind.INVERSE_SOURCE:
        return solve_forward(ops, tg, f=field, g=zero)
    return solve_forward(ops, tg, f=zero, g=field)


def solve_adjoint(kind: ProblemKind, m: np.ndarray, ops: DiscreteOperators,
                  tg: TimeGrid) -> Trajectory:
    """Full-order auxiliary trajectory driven by the measurement field m.

    Boundary residue on m (for example left over from denoising) is
    projected to zero before ``drive``.
    """
    m = np.asarray(m, dtype=float).copy()
    m[ops.grid.boundary] = 0.0
    return drive(kind, m, ops, tg)


def build_adjoint_pod(kind: ProblemKind, m: np.ndarray, ops: DiscreteOperators,
                      tg: TimeGrid, n_modes: Optional[int] = None,
                      energy_tol: Optional[float] = None,
                      max_snapshots: int = 201,
                      states_only: bool = False,
                      driver_label: str = "measured-data") -> PodBasis:
    """Measurement-driven basis: auxiliary solve -> snapshots -> POD."""
    kind = ProblemKind.parse(kind)
    if not np.any(np.asarray(m) != 0.0):
        raise ValueError("measurement field is identically zero: no snapshot energy")
    traj = solve_adjoint(kind, m, ops, tg)
    snaps = collect_snapshots(traj, ops, max_snapshots=max_snapshots)
    provenance = {
        "equation": "data-driven auxiliary parabolic solve",
        "kind": kind.value,
        "driver": driver_label,
        "m_steps": snaps.m_steps,
        "max_snapshots": max_snapshots,
        "states_only": states_only,
        "inverse_crime": False,
    }
    return compute_pod_basis(snaps, n_modes=n_modes, energy_tol=energy_tol,
                             states_only=states_only, provenance=provenance)


def build_traditional_pod(kind: ProblemKind, truth_trajectory: Trajectory,
                          ops: DiscreteOperators, n_modes: Optional[int] = None,
                          energy_tol: Optional[float] = None,
                          max_snapshots: int = 201,
                          states_only: bool = False) -> PodBasis:
    """Truth-driven baseline basis (the inverse-crime comparison point)."""
    kind = ProblemKind.parse(kind)
    snaps = collect_snapshots(truth_trajectory, ops, max_snapshots=max_snapshots)
    provenance = {
        "equation": "forward solve of the true problem",
        "kind": kind.value,
        "driver": "ground-truth data",
        "m_steps": snaps.m_steps,
        "max_snapshots": max_snapshots,
        "states_only": states_only,
        "inverse_crime": True,
    }
    return compute_pod_basis(snaps, n_modes=n_modes, energy_tol=energy_tol,
                             states_only=states_only, provenance=provenance)


@dataclass(eq=False)
class ReducedModel:
    """Galerkin projection of the time stepper onto a POD basis."""

    basis: PodBasis
    tg: TimeGrid
    kind: ProblemKind
    a_r: np.ndarray     # reduced stiffness, a(psi_b, psi_a)
    m_r: np.ndarray     # reduced mass (identity up to orthonormality drift)

    @property
    def n_pod(self) -> int:
        return self.basis.n_pod

    @cached_property
    def spectrum(self):
        """Eigenpairs (w, Q) of the final-time solution operator S = Q diag(w) Q^T.

        With B = (I + dt A_r)^{-1}: backward kind gives S = B^M; source kind
        gives S = dt * sum_{k=1..M} B^k.  Both are functions of the symmetric
        A_r, so Q holds its eigenvectors and w maps its eigenvalues; w > 0.
        """
        lams, Q = scipy.linalg.eigh(0.5 * (self.a_r + self.a_r.T))
        dt = self.tg.dt
        M = self.tg.M
        decay = (1.0 + dt * lams) ** (-M)
        if self.kind is ProblemKind.BACKWARD:
            return decay, Q
        # dt * sum_{k=1..M} b^k collapses to (1 - b^M) / lam, with the
        # lam -> 0 limit dt * M
        safe = np.where(lams == 0.0, 1.0, lams)
        return np.where(lams == 0.0, dt * M, (1.0 - decay) / safe), Q


def build_reduced_model(ops: DiscreteOperators, basis: PodBasis, tg: TimeGrid,
                        kind: ProblemKind) -> ReducedModel:
    """Project mass and stiffness onto the basis; checks orthonormality."""
    kind = ProblemKind.parse(kind)
    psi = basis.psi
    a_r = psi.T @ (ops.stiffness @ psi)
    a_r = 0.5 * (a_r + a_r.T)
    m_r = psi.T @ (ops.mass @ psi)
    drift = np.max(np.abs(m_r - np.eye(basis.n_pod)))
    if drift > _ORTHO_TOL:
        raise ValueError(f"basis is not mass-orthonormal (drift {drift:.3e})")
    return ReducedModel(basis=basis, tg=tg, kind=kind, a_r=a_r, m_r=m_r)


def reduced_solve(model: ReducedModel, input_values: np.ndarray):
    """Reduced backward-Euler solve; returns (final field, coefficient path).

    Source kind: c_0 = 0 and (I + dt A_r) c_k = c_{k-1} + dt f_r with f_r
    the basis coefficients of the input.  Backward kind: c_0 = coefficients
    of the input, zero forcing.
    """
    input_values = conform_dirichlet(model.basis.grid, input_values, "reduced-solve input")
    n = model.n_pod
    dt = model.tg.dt
    step_matrix = np.eye(n) + dt * model.a_r
    factor = scipy.linalg.cho_factor(step_matrix)

    coeffs = np.zeros((model.tg.M + 1, n))
    reduced_input = model.basis.coefficients(input_values)
    if model.kind is ProblemKind.INVERSE_SOURCE:
        c = np.zeros(n)
        forcing = dt * reduced_input
    else:
        c = reduced_input
        forcing = np.zeros(n)
    coeffs[0] = c
    for k in range(1, model.tg.M + 1):
        c = scipy.linalg.cho_solve(factor, c + forcing)
        coeffs[k] = c
    return model.basis.expand(coeffs[-1]), coeffs


def spod_matrix(model: ReducedModel) -> np.ndarray:
    """Final-time solution operator on basis coefficients, as a dense
    (symmetric) matrix assembled from ``model.spectrum``."""
    w, Q = model.spectrum
    S = (Q * w) @ Q.T
    return 0.5 * (S + S.T)
