"""Measurement-driven POD pipeline and the reduced Galerkin propagator.

The basis is built from an auxiliary full-order parabolic solve driven by
the measured final-time data m, as the right-hand side (source recovery)
or the initial state (backward recovery).  The truth reaches the basis only
through m: as a noise-free run's clean final state, or through the denoise
weight that ``alpha = auto`` takes from the truth's smoothness.
``snapshot_set`` runs such a solve for any driving field, the truth
included (the inverse-crime baseline), and is the one place that lays out
the snapshot matrix.  The reduced model then realizes the final-time
solution operator as a small dense matrix acting on basis coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .fem import DiscreteOperators, TimeGrid, Trajectory, conform_dirichlet, solve_forward
from .pod import (MAX_SNAPSHOTS, PodBasis, SnapshotSet, collect_snapshots,
                  compute_pod_basis, snapshot_steps)
from .spectral import ProblemKind

ORTHO_TOL = 1e-10  # largest entry of |Psi^T M Psi - I| a mass-orthonormal basis may show


def drive(kind: ProblemKind, field: np.ndarray, ops: DiscreteOperators,
          tg: TimeGrid, steps: Optional[Sequence[int]] = None,
          out: Optional[np.ndarray] = None) -> Trajectory:
    """Full-order trajectory of the heat equation driven by ``field``.

    Source kind: forcing = field, zero initial state.  Backward kind: zero
    forcing, initial state = field.  The field's boundary values are not
    touched, so ``solve_forward`` rejects a field that does not vanish there.
    ``steps`` and ``out`` select and receive the stored states as in
    ``solve_forward``.
    """
    zero = np.zeros(ops.grid.n_nodes)
    if ProblemKind.parse(kind) is ProblemKind.INVERSE_SOURCE:
        return solve_forward(ops, tg, f=field, g=zero, steps=steps, out=out)
    return solve_forward(ops, tg, f=zero, g=field, steps=steps, out=out)


def _measurement_field(m: np.ndarray, ops: DiscreteOperators) -> np.ndarray:
    """A copy of m with its boundary values set to zero; m must hold one
    finite value per node."""
    m = np.array(m, dtype=float)
    if m.shape != (ops.grid.n_nodes,):
        raise ValueError("measurement field length does not match node count")
    if not np.all(np.isfinite(m)):
        raise ValueError("measurement field must be finite (found NaN or infinite values)")
    m[ops.grid.boundary] = 0.0
    return m


def snapshot_set(kind: ProblemKind, field: np.ndarray, ops: DiscreteOperators,
                 tg: TimeGrid, max_snapshots: int = MAX_SNAPSHOTS) -> SnapshotSet:
    """Snapshot set of the heat equation driven by ``field`` as in ``drive``.

    Allocates the one (2m+1, n_nodes) snapshot matrix Y, m+1 the number of
    ``snapshot_steps(M, max_snapshots)``.  The solve writes the sampled
    states straight into Y's first m+1 rows and the difference quotients
    are formed in place below them, so no trajectory-sized buffer exists
    besides Y.
    """
    steps = snapshot_steps(tg.M, max_snapshots)
    Y = np.empty((2 * len(steps) - 1, ops.grid.n_nodes))
    return collect_snapshots(drive(kind, field, ops, tg, steps=steps, out=Y[:len(steps)]),
                             ops, max_snapshots=max_snapshots, out=Y)


def build_adjoint_pod(kind: ProblemKind, m: np.ndarray, ops: DiscreteOperators,
                      tg: TimeGrid, n_modes: Optional[int] = None,
                      energy_tol: Optional[float] = None,
                      max_snapshots: int = MAX_SNAPSHOTS,
                      driver_label: str = "measured-data") -> PodBasis:
    """Measurement-driven basis: auxiliary solve -> snapshots -> POD.

    A non-finite m is rejected as the measurement field.  Boundary residue
    on m (for example left over from denoising) is projected to zero before
    m drives ``snapshot_set``."""
    field = _measurement_field(m, ops)
    if not np.any(field):
        raise ValueError("measurement field is identically zero: no snapshot energy")
    return _pod_basis(kind, snapshot_set(kind, field, ops, tg, max_snapshots),
                      n_modes, energy_tol, "data-driven auxiliary parabolic solve",
                      driver_label, inverse_crime=False)


def build_traditional_pod(kind: ProblemKind, snapshots: SnapshotSet,
                          n_modes: Optional[int] = None,
                          energy_tol: Optional[float] = None) -> PodBasis:
    """Truth-driven baseline basis (the inverse-crime comparison point) from
    the snapshot set of the truth solve, ``snapshot_set(kind, truth, ...)``."""
    return _pod_basis(kind, snapshots, n_modes, energy_tol,
                      "forward solve of the true problem", "ground-truth data",
                      inverse_crime=True)


def _pod_basis(kind: ProblemKind, snaps: SnapshotSet, n_modes: Optional[int],
               energy_tol: Optional[float], equation: str, driver: str,
               inverse_crime: bool) -> PodBasis:
    """POD of one heat solve's snapshots, with the provenance naming its driver."""
    provenance = {
        "equation": equation,
        "kind": ProblemKind.parse(kind).value,
        "driver": driver,
        "m_steps": snaps.m_steps,
        "max_snapshots": snaps.max_snapshots,
        "inverse_crime": inverse_crime,
    }
    return compute_pod_basis(snaps.snapshots, n_modes=n_modes, energy_tol=energy_tol,
                             ops=snaps.ops, provenance=provenance)


@dataclass(eq=False)
class ReducedModel:
    """Galerkin projection of the time stepper onto a POD basis."""

    basis: PodBasis
    tg: TimeGrid
    kind: ProblemKind
    a_r: np.ndarray     # reduced stiffness, a(psi_b, psi_a)
    m_r: np.ndarray     # reduced mass (identity up to orthonormality drift)
    spectrum: tuple     # (w, Q): S = Q diag(w) Q^T, the final-time solution operator

    @property
    def n_pod(self) -> int:
        return self.basis.n_pod


def build_reduced_model(ops: DiscreteOperators, basis: PodBasis, tg: TimeGrid,
                        kind: ProblemKind) -> ReducedModel:
    """Project mass and stiffness onto the basis; checks orthonormality.

    The spectrum of the final-time solution operator S comes from the
    symmetric A_r.  With B = (I + dt A_r)^{-1}: backward kind gives S = B^M;
    source kind gives S = dt * sum_{k=1..M} B^k.  Both are functions of A_r,
    so Q holds its eigenvectors and w maps its eigenvalues; w > 0.
    """
    kind = ProblemKind.parse(kind)
    psi = basis.psi
    a_r = psi.T @ (ops.stiffness @ psi)
    a_r = 0.5 * (a_r + a_r.T)
    m_r = basis.coefficients(psi)
    drift = np.max(np.abs(m_r - np.eye(basis.n_pod)))
    if drift > ORTHO_TOL:
        raise ValueError(f"basis is not mass-orthonormal (drift {drift:.3e})")
    lams, Q = scipy.linalg.eigh(a_r)
    dt, M = tg.dt, tg.M
    w = (1.0 + dt * lams) ** (-M)
    if kind is ProblemKind.INVERSE_SOURCE:
        # dt * sum_{k=1..M} b^k collapses to (1 - b^M) / lam, with the
        # lam -> 0 limit dt * M
        safe = np.where(lams == 0.0, 1.0, lams)
        w = np.where(lams == 0.0, dt * M, (1.0 - w) / safe)
    return ReducedModel(basis=basis, tg=tg, kind=kind, a_r=a_r, m_r=m_r, spectrum=(w, Q))


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
    factor, lower = scipy.linalg.cho_factor(step_matrix)
    # the LAPACK routine behind cho_solve, without its per-call validation
    potrs, = scipy.linalg.get_lapack_funcs(("potrs",), (factor,))

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
        c, info = potrs(factor, c + forcing, lower=lower, overwrite_b=True)
        if info != 0:  # pragma: no cover - arguments are valid by construction
            raise RuntimeError(f"internal error: potrs failed (info {info})")
        coeffs[k] = c
    return model.basis.expand(coeffs[-1]), coeffs


def spod_matrix(model: ReducedModel) -> np.ndarray:
    """Final-time solution operator on basis coefficients, as a dense
    (symmetric) matrix assembled from ``model.spectrum``."""
    w, Q = model.spectrum
    S = (Q * w) @ Q.T
    return 0.5 * (S + S.T)
