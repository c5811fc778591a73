"""Snapshot POD via the method of snapshots.

Snapshots are collected from a time-stepping trajectory as the M+1 states
plus the M difference quotients (u(t_k) - u(t_{k-1})) / dt.  The basis
comes from the eigendecomposition of the (2M+1) x (2M+1) correlation
matrix K_ij = (y_i, y_j)_{L2} in the mass-weighted inner product — never
from the node-dimension Gram matrix — so the cost is mesh independent.
Only the states at ``snapshot_steps(M, max_snapshots)`` enter, so a solve
can store just those, straight into the first rows of the snapshot matrix
(``reduced.snapshot_set`` does), and the mass products are formed a block
of snapshot rows at a time: the memory of the snapshot path grows with
``max_snapshots * n_nodes``, not with M.  Up to ``fem.PINNED_UNKNOWNS``
interior unknowns K is one GEMM against the whole mass product, which
keeps its bits; above, a snapshot set stores only its states, K and the
modes form the quotients a block at a time into one reused buffer, and K
is filled a block of columns at a time from another, of mass products.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np
import scipy.linalg

from .fem import PINNED_UNKNOWNS, DiscreteOperators, Trajectory, out_array

RANK_CUTOFF = 1e-12  # discard correlation eigenvalues below RANK_CUTOFF * lambda_1
MAX_SNAPSHOTS = 201  # default snapshot budget: states plus difference quotients
_MASS_BLOCK_ROWS = 32  # snapshot rows per sparse mass product


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """States y_1..y_{m+1} followed by difference quotients y_{m+2}..y_{2m+1};
    with m+1 ``rows`` only the states are stored."""

    rows: np.ndarray            # (2m+1 or m+1, n_nodes), states first
    ops: DiscreteOperators
    m_steps: int                # m, the steps of the (possibly subsampled) time grid
    times: np.ndarray           # sample times of the states
    max_snapshots: int          # the budget the states were sampled to

    def __len__(self) -> int:     # snapshots, stored or not
        return 2 * self.m_steps + 1

    @property
    def states(self) -> np.ndarray:
        return self.rows[: self.m_steps + 1]

    @property
    def snapshots(self) -> np.ndarray:
        """The (2m+1, n_nodes) snapshot matrix, ``rows`` or a new array."""
        if len(self.rows) == len(self):
            return self.rows
        quotients = _quotients(self.rows, self.times, 0, np.empty_like(self.rows[1:]))
        return np.concatenate([self.rows, quotients])


@dataclass(frozen=True, eq=False)
class PodBasis:
    """Mass-orthonormal modes with the correlation spectrum they came from;
    ``n_pod`` and ``rho`` are read off the two.  A basis sized by an energy
    tolerance reports a ``rho`` <= it unless it keeps every retained mode."""

    psi: np.ndarray             # (n_nodes, n_pod)
    eigenvalues: np.ndarray     # all correlation eigenvalues, non-increasing
    retained_rank: int          # eigenvalues above the rank cutoff
    ops: DiscreteOperators
    provenance: dict = field(default_factory=dict)

    @property
    def n_pod(self) -> int:
        return self.psi.shape[1]

    @property
    def rho(self) -> float:
        """Tail ratio beyond the n_pod kept modes, the sum ``size`` sizes by."""
        return _tail_ratio(self.eigenvalues, self.n_pod)

    @property
    def grid(self):
        return self.ops.grid

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Mass-weighted coefficients (values, psi_k)."""
        return self.psi.T @ (self.ops.mass @ np.asarray(values, dtype=float))

    def expand(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal field sum_k coeffs_k * psi_k."""
        return self.psi @ np.asarray(coeffs, dtype=float)

    def size(self, n_modes: Optional[int] = None,
             energy_tol: Optional[float] = None) -> int:
        """Modes a basis-size selector keeps: exactly one of ``n_modes`` (a
        count, clipped to the retained rank) and ``energy_tol`` (the fewest
        modes, at most the retained rank, whose tail ratio ``rho`` is <= it)."""
        check_size_selector(n_modes, energy_tol)
        if n_modes is not None:
            return min(n_modes, self.retained_rank)
        return next((n for n in range(1, self.retained_rank)
                     if _tail_ratio(self.eigenvalues, n) <= energy_tol), self.retained_rank)

    def truncated(self, n: int) -> "PodBasis":
        """Leading-n sub-basis; ``n`` is a count in [1, n_pod], as ``size`` picks."""
        if not 1 <= n <= self.n_pod:
            raise ValueError(f"truncation count must lie in [1, {self.n_pod}]")
        return replace(self, psi=self.psi[:, :n])


def check_size_selector(n_modes: Optional[int], energy_tol: Optional[float]) -> None:
    """Reject a basis-size selector ``PodBasis.size`` cannot apply: not exactly
    one of ``n_modes`` and ``energy_tol``, a count below 1, or a negative or
    non-finite tolerance."""
    if (n_modes is None) == (energy_tol is None):
        raise ValueError("select the basis size with exactly one of n_modes / energy_tol")
    if n_modes is not None and n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if energy_tol is not None and not (np.isfinite(energy_tol) and energy_tol >= 0):
        raise ValueError(f"energy_tol must be finite and >= 0, got {energy_tol}")


def snapshot_steps(M: int, max_snapshots: int = MAX_SNAPSHOTS) -> np.ndarray:
    """Time steps k of an M-step path whose states form the snapshot set.

    Every step 0..M when the 2M+1 states and quotients fit
    ``max_snapshots``; otherwise M'+1 steps spread uniformly over [0, M]
    (rounded to the nearest step) with M' = (max_snapshots - 1) // 2, so
    that 2M'+1 <= max_snapshots.  The steps are strictly increasing and
    end at M: ``solve_forward(..., steps=snapshot_steps(M, n))`` stores
    exactly what ``collect_snapshots(..., max_snapshots=n)`` reads.
    """
    if max_snapshots < 3 or max_snapshots % 2 == 0:
        raise ValueError(f"max_snapshots must be odd and >= 3, got {max_snapshots}")
    if 2 * M + 1 <= max_snapshots:
        return np.arange(M + 1)
    return np.rint(np.linspace(0, M, (max_snapshots - 1) // 2 + 1)).astype(int)


def collect_snapshots(traj: Trajectory, ops: DiscreteOperators,
                      max_snapshots: int = MAX_SNAPSHOTS,
                      out: Optional[np.ndarray] = None) -> SnapshotSet:
    """States plus difference quotients, subsampled to fit ``max_snapshots``.

    The states are those at ``snapshot_steps(M, max_snapshots)``; the
    trajectory must store them (a full path, or one solved with exactly
    those ``steps``).  On a thinned grid of M' steps the quotients are
    formed between neighbouring sampled states, scaled by the actual time
    gaps.

    ``out=None`` copies the states from the trajectory into a new
    snapshot matrix.  Otherwise ``out`` (a writeable C-contiguous float64
    array) already holds the trajectory's states as its first M'+1 rows,
    solved into them with ``steps=snapshot_steps(M, max_snapshots),
    out=out[:M'+1]``: with 2M'+1 rows the quotients go below them, with
    M'+1 none is stored.
    """
    idx = snapshot_steps(traj.tg.M, max_snapshots)
    if not np.all(np.isin(idx, traj.steps)):
        raise ValueError("trajectory does not store the states at the snapshot steps")
    times = traj.tg.times[idx]
    m = len(idx) - 1
    count = m + 1 if getattr(out, "shape", ())[:1] == (m + 1,) else 2 * m + 1
    rows = out_array(out, (count, traj.states.shape[1]))
    states = rows[:m + 1]
    if out is None:
        for i, row in enumerate(np.searchsorted(traj.steps, idx)):
            states[i] = traj.states[row]    # row copies: no gathered temporary
    elif not (traj.states.shape == states.shape and traj.states.strides == states.strides
              and traj.states.ctypes.data == states.ctypes.data):
        raise ValueError("out must hold the trajectory's states as its first rows")
    if count > m + 1:
        _quotients(states, times, 0, rows[m + 1:])
    return SnapshotSet(rows=rows, ops=ops, m_steps=m, times=times,
                       max_snapshots=max_snapshots)


def _quotients(states: np.ndarray, times: np.ndarray, first: int, out: np.ndarray):
    """``out`` filled with the quotients (y_{k+1} - y_k) / (t_{k+1} - t_k) of
    the states from k = first on; a row's bits do not depend on its block."""
    stop = first + len(out)
    np.subtract(states[first + 1:stop + 1], states[first:stop], out=out)
    out /= np.diff(times[first:stop + 1])[:, None]
    return out


def _row_blocks(Y, size: Optional[int] = None, out: Optional[np.ndarray] = None,
                stop: Optional[int] = None) -> Iterator[tuple]:
    """(first row, rows) blocks of the snapshot matrix Y (array or set) up
    to row ``stop``: stored rows as views of ``size`` rows (None: one view),
    then a states-only set's quotients, ``_MASS_BLOCK_ROWS`` at a time, in
    ``out`` (None: a new buffer), which each such block overwrites."""
    stored = Y.rows if isinstance(Y, SnapshotSet) else Y
    stop = len(Y) if stop is None else stop
    for start in range(0, min(len(stored), stop), size or len(stored)):
        yield start, stored[start:start + (size or len(stored))]
    if out is None and stop > len(stored):
        out = np.empty((min(_MASS_BLOCK_ROWS, len(Y) - len(stored)), stored.shape[1]))
    for first in range(0, stop - len(stored), _MASS_BLOCK_ROWS):
        yield len(stored) + first, _quotients(stored, Y.times, first,
                                              out[:len(Y) - len(stored) - first])


def _mass_product(mass, Y: np.ndarray) -> np.ndarray:
    """``mass @ Y.T`` as one (n_nodes, count) array, formed a block of
    snapshot rows at a time so that no transposed copy of all of Y is made.
    Each entry is the same sum as in the one-shot product, so the bits are
    equal."""
    out = np.empty((Y.shape[1], Y.shape[0]))
    for start in range(0, Y.shape[0], _MASS_BLOCK_ROWS):
        stop = min(start + _MASS_BLOCK_ROWS, Y.shape[0])
        out[:, start:stop] = mass @ Y[start:stop].T
    return out


def correlation_matrix(Y, ops: DiscreteOperators) -> np.ndarray:
    """Dense symmetric K_ij = (y_i, y_j) of the snapshot matrix Y (an array
    of one snapshot per row, or a ``SnapshotSet``) in the mass inner product.

    Up to ``PINNED_UNKNOWNS`` interior unknowns K = Y (M Y^T) is a single
    GEMM, because splitting it into blocks changes the rounding of its
    entries.  Above, K is filled ``_MASS_BLOCK_ROWS`` columns at a time,
    K[:, a:b] = Y (M Y[a:b]^T), so the (n_nodes, count) mass product is
    never built: the rows M y_i of one block are written, a snapshot at a
    time, into a single (_MASS_BLOCK_ROWS, n_nodes) buffer reused by every
    block, so no block of Y is copied and no block product is allocated.
    A states-only set's quotients enter from one more buffer, only down to
    each block's diagonal, and K's upper triangle is mirrored.  K then
    agrees with the single GEMM to roundoff."""
    if ops.interior.size <= PINNED_UNKNOWNS:
        Y = Y.snapshots if isinstance(Y, SnapshotSet) else Y
        K = Y @ _mass_product(ops.mass, Y)
    else:
        K = np.empty((len(Y), len(Y)))
        buf = np.empty((min(_MASS_BLOCK_ROWS, len(Y)), ops.grid.n_nodes))
        spare = (np.empty_like(buf) if isinstance(Y, SnapshotSet) and len(Y.rows) < len(Y)
                 else None)
        for start, block in _row_blocks(Y, _MASS_BLOCK_ROWS, buf):
            stop = start + len(block)
            for i, y in enumerate(block):
                buf[i] = ops.mass @ y
            for first, rows in _row_blocks(Y, out=spare, stop=stop):
                K[first:first + len(rows), start:stop] = rows @ buf[:len(block)].T
        if spare is not None:
            K = np.triu(K) + np.triu(K, 1).T
    return 0.5 * (K + K.T)


def _tail_ratio(lams: np.ndarray, n: int) -> float:
    """sum_{k > n} lambda_k / sum_k lambda_k of a non-negative spectrum with energy."""
    return float(lams[n:].sum() / lams.sum())


def compute_pod_basis(Y, n_modes: Optional[int] = None,
                      energy_tol: Optional[float] = None, *, ops: DiscreteOperators,
                      provenance: Optional[dict] = None) -> PodBasis:
    """Method-of-snapshots basis of the snapshot matrix Y (one snapshot per
    row), an array or a ``SnapshotSet``.

    Every retained mode is formed; ``PodBasis.size`` keeps ``n_modes`` of them or,
    by ``energy_tol``, the fewest (at most the retained rank) whose rho is <= it.
    """
    K = correlation_matrix(Y, ops)
    lams, vecs = scipy.linalg.eigh(K)
    order = np.argsort(lams)[::-1]
    lams = np.maximum(lams[order], 0.0)
    vecs = vecs[:, order]
    if lams[0] <= 0.0:
        raise ValueError("snapshot set carries no energy (all snapshots zero)")

    rank = int(np.sum(lams >= RANK_CUTOFF * lams[0]))
    weights = vecs[:, :rank] / np.sqrt(lams[:rank])
    blocks = _row_blocks(Y)
    _, stored = next(blocks)
    psi = stored.T @ weights[:len(stored)]
    for first, rows in blocks:
        psi += rows.T @ weights[first:first + len(rows)]

    # one stabilized re-orthonormalization pass (modified Gram-Schmidt in
    # the mass inner product) to repair drift from the small eigenvalues
    mpsi = np.empty_like(psi)
    for a in range(rank):
        v = psi[:, a].copy()
        mv = ops.mass @ v
        for b in range(a):
            coeff = psi[:, b] @ mv
            v -= coeff * psi[:, b]
            mv -= coeff * mpsi[:, b]
        nrm = np.sqrt(max(v @ mv, 0.0))
        if nrm == 0.0:  # pragma: no cover - excluded by the rank cutoff
            raise RuntimeError("internal error: rank-deficient mode survived the cutoff")
        psi[:, a] = v / nrm
        mpsi[:, a] = mv / nrm

    full = PodBasis(psi=psi, eigenvalues=lams, retained_rank=rank, ops=ops,
                    provenance=provenance or {})
    return full.truncated(full.size(n_modes, energy_tol))


def projection_error_ratio(Y: np.ndarray, basis: PodBasis):
    """Both sides of the snapshot-energy error identity.

    lhs = sum_i ||y_i - P y_i||^2 / sum_i ||y_i||^2 over the rows of Y, P
    the projector onto the basis; rhs = the basis tail ratio.  The two agree
    (up to eigensolver noise) exactly when the basis was built from this
    very Y; with a foreign basis only lhs is meaningful.
    """
    mass = basis.ops.mass
    MY = _mass_product(mass, Y).T
    den = float(np.sum(Y * MY))
    if den <= 0:
        raise ValueError("snapshot set carries no energy")
    C = MY @ basis.psi                        # (count, n_pod) coefficients
    R = Y - C @ basis.psi.T
    num = float(np.sum(R * _mass_product(mass, R).T))
    return max(num, 0.0) / den, basis.rho


def principal_angles(a: PodBasis, b: PodBasis) -> np.ndarray:
    """Principal angles (radians, non-decreasing) between the two spans.

    Both bases are mass-orthonormal by construction, so the cosines are
    the singular values of Psi_a^T M Psi_b, the coefficients of b's modes in a.
    """
    if a.grid.n_nodes != b.grid.n_nodes:
        raise ValueError("bases live on different grids")
    G = a.coefficients(b.psi)
    s = scipy.linalg.svd(G, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    return np.sort(np.arccos(s))
