"""The SuperLU column ordering follows the size of the factorized system.

Time-step and denoise systems with up to 2,401 interior unknowns (51 x 51
and every smaller grid) keep COLAMD, so their results are unchanged bit
for bit; larger ones are ordered by minimum degree on A + A^T.  Past the
threshold the results must match a COLAMD reference to roundoff, and the
chosen factors must be sparser than COLAMD's, which is what makes their
triangular solves faster.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import adjpod.fem
from adjpod import (CoefficientSet, TimeGrid, add_noise, assemble_operators, build_grid,
                    denoise, make_shape, solve_forward)
from adjpod import inversion
from adjpod.experiment import _NAMED_COEFFS
from adjpod.fem import _column_ordering

RTOL = 1e-10        # fixed before measuring: roundoff of two orderings
ALPHA = 1e-6


def _interior(nx, ny):
    return build_grid(nx, ny).interior.size


@pytest.mark.parametrize("nx, ny, ordering", [
    (33, 33, "COLAMD"),
    (51, 51, "COLAMD"),             # 2,401 unknowns: the largest COLAMD system
    (53, 49, "COLAMD"),             # 2,397 unknowns
    (65, 65, "MMD_AT_PLUS_A"),
    (101, 101, "MMD_AT_PLUS_A"),
    (129, 33, "MMD_AT_PLUS_A"),     # 3,937 unknowns on a thin grid
])
def test_the_ordering_is_keyed_on_the_interior_unknown_count(nx, ny, ordering):
    assert _column_ordering(_interior(nx, ny)) == ordering


def test_the_threshold_sits_at_2401_unknowns():
    assert _interior(51, 51) == 2401
    assert [_column_ordering(n) for n in (2400, 2401, 2402)] == \
        ["COLAMD", "COLAMD", "MMD_AT_PLUS_A"]


@pytest.fixture(scope="module")
def grid65():
    return build_grid(65, 65)


def _ops(grid, q, c):
    return assemble_operators(grid, CoefficientSet(q=_NAMED_COEFFS.get(q, q),
                                                   c=_NAMED_COEFFS.get(c, c)))


def _time_step_system(ops, dt):
    idx = ops.interior
    return (ops.mass + dt * ops.stiffness)[np.ix_(idx, idx)].tocsc()


def _colamd_final_state(ops, tg, f, g):
    """U_M by backward Euler with a COLAMD-ordered factorization."""
    idx = ops.interior
    lu = splu(_time_step_system(ops, tg.dt), permc_spec="COLAMD")
    mass_ii = ops.mass[np.ix_(idx, idx)].tocsr()
    load = tg.dt * (ops.mass @ f)[idx]
    u = g[idx].copy()
    for _ in range(tg.M):
        u = lu.solve(mass_ii @ u + load)
    out = np.zeros(ops.grid.n_nodes)
    out[idx] = u
    return out


def _close(got, want):
    return np.linalg.norm(got - want) <= RTOL * np.linalg.norm(want)


@pytest.mark.parametrize("kind, T, q, c", [
    ("source", 1.0, 1.0, 0.0),
    ("backward", 0.05, 1.0, 0.0),
    ("source", 1.0, "varq", "varc"),
])
def test_minimum_degree_solves_match_a_colamd_reference(grid65, kind, T, q, c):
    ops = _ops(grid65, q, c)
    tg = TimeGrid(T=T, M=20)
    shape, zero = make_shape("sin2exp", grid65), np.zeros(grid65.n_nodes)
    f, g = (shape, zero) if kind == "source" else (zero, shape)
    got = solve_forward(ops, tg, f, g, steps=[tg.M]).final
    assert _close(got, _colamd_final_state(ops, tg, f, g))


def _readings(grid):
    nodes = grid.interior[::7]
    clean = make_shape("sin2", grid)[nodes]
    return add_noise(grid.coords[nodes], clean, 0.1, seed=1)


def test_minimum_degree_denoise_matches_a_colamd_reference(grid65, monkeypatch):
    ms = _readings(grid65)
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    got = denoise(ms, grid65, ALPHA)
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    monkeypatch.setattr(inversion, "_column_ordering", lambda n: "COLAMD")
    assert _close(got, denoise(ms, grid65, ALPHA))


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_the_chosen_factors_have_less_fill_than_colamd_past_the_threshold(grid65,
                                                                          monkeypatch):
    ops = _ops(grid65, 1.0, 0.0)
    dt = 1.0 / 20
    stepper = adjpod.fem._stepper(ops, dt)[0]
    assert _fill(stepper) < _fill(splu(_time_step_system(ops, dt), permc_spec="COLAMD"))

    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    nodes = inversion.snap_detectors_to_nodes(grid65, _readings(grid65).detectors)
    chosen = inversion._denoise_factors(grid65, nodes, ALPHA)[1]
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    monkeypatch.setattr(inversion, "_column_ordering", lambda n: "COLAMD")
    assert _fill(chosen) < _fill(inversion._denoise_factors(grid65, nodes, ALPHA)[1])
