"""Analytic Dirichlet eigenpairs of -Laplace on [0, pi]^2 and modal formulas.

On the square with q = 1, c = 0 the eigenpairs are known in closed form:

    mu_{jk} = j^2 + k^2,   phi_{jk}(x, y) = (2/pi) sin(jx) sin(ky),

and both problem kinds have exact per-mode solution factors.  This module
is the independent oracle the finite-element solvers are tested against.
"""

from __future__ import annotations

import enum
import functools
import weakref
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fem import DiscreteOperators
from .grid import Grid2D


class ProblemKind(enum.Enum):
    """The two recovery problems: unknown source f, or unknown initial state g."""

    INVERSE_SOURCE = "source"
    BACKWARD = "backward"

    @classmethod
    def parse(cls, name) -> "ProblemKind":
        if isinstance(name, cls):
            return name
        for kind in cls:
            if kind.value == str(name).lower():
                return kind
        raise ValueError(f"unknown problem kind {name!r}; use 'source' or 'backward'")


def eigenvalue(j: int, k: int) -> float:
    if j < 1 or k < 1:
        raise ValueError(f"mode indices must be >= 1, got ({j}, {k})")
    return float(j * j + k * k)


def laplace_eigenpair(j: int, k: int, grid: Grid2D) -> Tuple[float, np.ndarray]:
    """Analytic eigenpair (mu, phi) sampled on the grid nodes.

    phi carries the continuum normalization (unit L2 norm on the square),
    so its mass-weighted discrete norm is 1 + O(h^2).
    """
    if j < 1 or k < 1:
        raise ValueError(f"mode indices must be >= 1, got ({j}, {k})")
    x = grid.coords[:, 0]
    y = grid.coords[:, 1]
    phi = (2.0 / np.pi) * np.sin(j * x) * np.sin(k * y)
    phi[grid.boundary] = 0.0
    return eigenvalue(j, k), phi


def mode_table(L: int) -> list:
    """First L mode index pairs ordered by increasing mu, ties by (j, k)."""
    return list(_mode_pairs(L))


@functools.lru_cache(maxsize=8)
def _mode_pairs(L: int) -> tuple:
    if L < 1:
        raise ValueError("need at least one mode")
    r = L + 1
    pairs = [(j, k) for j in range(1, r + 1) for k in range(1, r + 1)]
    pairs.sort(key=lambda jk: (eigenvalue(*jk), jk))
    return tuple(pairs[:L])


@dataclass(frozen=True, eq=False)
class SpectralCoefficients:
    """A finite modal expansion: coefficient values on modes (j, k)."""

    modes: Tuple[Tuple[int, int], ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if len(self.modes) != vals.shape[0]:
            raise ValueError("one coefficient per mode required")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode indices must be distinct")
        if any(j < 1 or k < 1 for j, k in self.modes):
            raise ValueError("mode indices must be >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("coefficients must be finite")

    @property
    def L(self) -> int:
        return len(self.modes)

    @property
    def mus(self) -> np.ndarray:
        return np.array([eigenvalue(j, k) for j, k in self.modes])

    def synthesize(self, grid: Grid2D) -> np.ndarray:
        """Nodal field sum_k value_k * phi_k on the given grid."""
        out = np.zeros(grid.n_nodes)
        for (j, k), v in zip(self.modes, self.values):
            _, phi = laplace_eigenpair(j, k, grid)
            out += v * phi
        return out


def adjoint_response_factor(kind: ProblemKind, mu, t):
    """Per-mode response of the data-driven auxiliary problem at time t.

    Driving the auxiliary parabolic solve with a unit coefficient on an
    eigenmode produces the coefficient path (1 - e^{-mu t}) / mu for the
    source kind (unit forcing, zero start) and e^{-mu t} for the backward
    kind (unit start, zero forcing).
    """
    kind = ProblemKind.parse(kind)
    mu = np.asarray(mu, dtype=float)
    t = np.asarray(t, dtype=float)
    if kind is ProblemKind.INVERSE_SOURCE:
        return (1.0 - np.exp(-mu * t)) / mu
    return np.exp(-mu * t)


def final_time_factor(kind: ProblemKind, mu, T: float):
    """Per-mode map from the unknown's coefficient to the final-time
    coefficient: the auxiliary response at t = T."""
    return adjoint_response_factor(kind, mu, T)


def spectral_solution(kind: ProblemKind, coeffs: SpectralCoefficients,
                      T: float) -> SpectralCoefficients:
    """Exact final-time coefficients for either problem kind."""
    kind = ProblemKind.parse(kind)
    if not T > 0:
        raise ValueError(f"final time must be positive, got {T}")
    alpha = adjoint_response_factor(kind, coeffs.mus, T)
    return SpectralCoefficients(modes=coeffs.modes, values=coeffs.values * alpha)


# grid -> (sin(j x) rows over grid.xs, sin(k y) rows over grid.ys), j, k = 1..n
_SINE_TABLES = weakref.WeakKeyDictionary()


def _sine_rows(axis: np.ndarray, n: int) -> np.ndarray:
    """sin(j * axis) for j = 1..n, zero at both ends of the axis."""
    rows = np.sin(np.arange(1, n + 1)[:, None] * axis[None, :])
    rows[:, [0, -1]] = 0.0
    return rows


def _sine_tables(grid: Grid2D, n: int):
    """The separable factors of phi_jk on the grid, tabulated once per grid
    (and again only if a later call needs more than n rows)."""
    tables = _SINE_TABLES.get(grid)
    if tables is None or tables[0].shape[0] < n:
        tables = (_sine_rows(grid.xs, n), _sine_rows(grid.ys, n))
        _SINE_TABLES[grid] = tables
    return tables


def project_onto_modes(values: np.ndarray, ops: DiscreteOperators,
                       L: int) -> SpectralCoefficients:
    """Mass-weighted coefficients (field, phi_jk) for the first L modes.

    phi_jk(x_a, y_b) = (2/pi) sin(j x_a) sin(k y_b) is separable, so the
    coefficients are (2/pi) (Sy W Sx^T)[k, j] with W the weighted field
    as an ny x nx table.
    """
    modes = _mode_pairs(L)
    grid = ops.grid
    weighted = (ops.mass @ np.asarray(values, dtype=float)).reshape(grid.ny, grid.nx)
    js, ks = np.array(modes).T
    sin_x, sin_y = _sine_tables(grid, int(max(js.max(), ks.max())))
    # only the rows this L needs, so the sums do not depend on earlier calls
    table = (sin_y[: ks.max()] @ weighted) @ sin_x[: js.max()].T
    return SpectralCoefficients(modes=modes, values=(2.0 / np.pi) * table[ks - 1, js - 1])


def distinct_mu_subset(coeffs: SpectralCoefficients, L: int,
                       warn: bool = True) -> SpectralCoefficients:
    """First L entries by increasing mu, skipping repeated eigenvalues.

    Degenerate multiplicities (for example mu(1,2) == mu(2,1)) violate the
    distinct-eigenvalue hypothesis of the span-equality argument, so later
    duplicates are dropped (with a warning when ``warn``).
    """
    order = sorted(range(coeffs.L), key=lambda i: (coeffs.mus[i], coeffs.modes[i]))
    seen = set()
    picked = []
    for i in order:
        mu = coeffs.mus[i]
        if mu in seen:
            if warn:
                import warnings
                warnings.warn(f"skipping mode {coeffs.modes[i]}: repeated eigenvalue {mu}")
            continue
        seen.add(mu)
        picked.append(i)
        if len(picked) == L:
            break
    if len(picked) < L:
        raise ValueError(f"only {len(picked)} distinct-eigenvalue modes available, need {L}")
    return SpectralCoefficients(modes=tuple(coeffs.modes[i] for i in picked),
                                values=coeffs.values[list(picked)])
