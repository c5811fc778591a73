"""Each time-step and denoise system is factored in the regime its size picks.

``fem._factorize`` keeps SuperLU ordered by COLAMD up to 2,401 interior
unknowns (51 x 51 and every smaller grid), so those results are unchanged
bit for bit.  Above, it factors a banded Cholesky in the grid's natural
order while the band, (bandwidth + 1) x unknowns entries, holds at most
``fem.BAND_ENTRIES`` (the 129 x 129 time step), else in the interior's
column-major order when that band fits (a wide, thin grid), and SuperLU
ordered by minimum degree on A + A^T where neither fits.  Past 2,401
unknowns every regime must match a COLAMD reference to roundoff, and
minimum degree must leave less fill than COLAMD, which is what makes its
triangular solves faster.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import adjpod.fem
from adjpod import (CoefficientSet, TimeGrid, add_noise, assemble_operators, build_grid,
                    denoise, make_shape, solve_forward)
from adjpod import inversion
from adjpod.experiment import _NAMED_COEFFS
from adjpod.fem import PINNED_UNKNOWNS, _BandedCholesky, _factorize

RTOL = 1e-10        # fixed before measuring: roundoff of two orderings
ALPHA = 1e-6
DT = 1.0 / 20


@pytest.fixture
def regime(monkeypatch):
    """The regime ``factor()`` takes: "BAND", or the ``permc_spec`` SuperLU
    is called with (SuperLU is not run)."""
    monkeypatch.setattr(adjpod.fem, "splu", lambda system, permc_spec: permc_spec)
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})

    def chosen(factor):
        factors = factor()
        return "BAND" if isinstance(factors, _BandedCholesky) else factors
    return chosen


def _ops(grid, q=1.0, c=0.0):
    return assemble_operators(grid, CoefficientSet(q=_NAMED_COEFFS.get(q, q),
                                                   c=_NAMED_COEFFS.get(c, c)))


def _time_step_system(ops, dt):
    idx = ops.interior
    return (ops.mass + dt * ops.stiffness)[np.ix_(idx, idx)].tocsc()


def _readings(grid):
    nodes = grid.interior[::7]
    clean = make_shape("sin2", grid)[nodes]
    return add_noise(grid.coords[nodes], clean, 0.1, seed=1)


def _denoise_nodes(grid):
    return inversion.snap_detectors_to_nodes(grid, _readings(grid).detectors)


def _systems(nx, ny):
    """Builders of the time-step and the denoise factors on an nx x ny grid."""
    grid = build_grid(nx, ny)
    ops = _ops(grid)
    return {"step": lambda: adjpod.fem._stepper.__wrapped__(ops, DT)[0],
            "denoise": lambda: inversion._denoise_factors(grid, _denoise_nodes(grid),
                                                          ALPHA)[1]}


def _band_system(unknowns, width):
    """Symmetric positive-definite system with the given bandwidth."""
    return sp.diags([-1.0, 4.0, -1.0], [-width, 0, width], shape=(unknowns, unknowns),
                    format="csc")


@pytest.mark.parametrize("nx, ny, ordering", [
    (33, 33, "COLAMD"),
    (51, 51, "COLAMD"),             # 2,401 unknowns: the largest COLAMD system
    (53, 49, "COLAMD"),             # 2,397 unknowns
    (53, 53, "BAND"),
    (65, 65, "BAND"),
    (101, 101, "BAND"),             # denoise band: 199 x 9,801 entries
])
def test_the_ordering_is_keyed_on_the_interior_unknown_count(regime, nx, ny, ordering):
    assert [regime(factor) for factor in _systems(nx, ny).values()] == [ordering] * 2


def test_the_threshold_sits_at_2401_unknowns(regime):
    assert build_grid(51, 51).interior.size == PINNED_UNKNOWNS == 2401
    assert [regime(lambda: _factorize(_band_system(n, 1), (1, n)))
            for n in (2400, 2401, 2402)] == ["COLAMD", "COLAMD", "BAND"]


@pytest.mark.parametrize("nx, ny, system, ordering", [
    (129, 129, "step", "BAND"),               # band 129 x 16,129: the limit itself
    (130, 130, "step", "MMD_AT_PLUS_A"),      # band 130 x 16,384
    (129, 129, "denoise", "MMD_AT_PLUS_A"),   # band 255 x 16,129
    (129, 33, "step", "BAND"),                # 3,937 unknowns on a thin grid
    (129, 33, "denoise", "BAND"),
    (1025, 33, "step", "BAND"),               # column-major: 33 x 31,713
    (1025, 33, "denoise", "BAND"),            # column-major: 63 x 31,713
    (1025, 65, "step", "MMD_AT_PLUS_A"),      # column-major: 65 x 64,449
])
def test_the_band_limit_is_on_band_entries_not_unknowns(regime, nx, ny, system, ordering):
    assert regime(_systems(nx, ny)[system]) == ordering


@pytest.mark.parametrize("nx, ny", [(1025, 17), (2049, 5)])
def test_a_wide_thin_grid_is_a_band_taken_column_by_column(monkeypatch, nx, ny):
    """The row-major bands, about nx and 2 nx wide, are past the limit; the
    column-major ones are ny - 1 and 2 (ny - 2) wide."""
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    systems = _systems(nx, ny)
    for system, width in (("step", ny - 1), ("denoise", 2 * (ny - 2))):
        factors = systems[system]()
        assert isinstance(factors, _BandedCholesky)
        assert factors.order is not None and factors.factor.shape[0] == width + 1


@pytest.mark.parametrize("nx, ny, ordering, orders_tried", [
    (131, 131, "MMD_AT_PLUS_A", 1),   # square: the column-major band is as wide
    (17, 1025, "BAND", 1),            # tall: the row-major band is the narrow one
    (1025, 65, "MMD_AT_PLUS_A", 2),   # wide: both are tried
])
def test_the_column_order_is_tried_only_on_a_wide_block(monkeypatch, regime, nx, ny,
                                                        ordering, orders_tried):
    triu = sp.triu
    calls = []
    monkeypatch.setattr(adjpod.fem.sp, "triu",
                        lambda *args, **kwargs: calls.append(1) or triu(*args, **kwargs))
    assert regime(_systems(nx, ny)["step"]) == ordering
    assert len(calls) == orders_tried


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


@pytest.fixture(scope="module")
def grid65():
    return build_grid(65, 65)


@pytest.fixture(scope="module")
def grid2049x5():
    """A wide, thin grid: its bands are taken column by column."""
    return build_grid(2049, 5)


@pytest.fixture(scope="module")
def grid131():
    """The smallest square grid whose time step is past the band limit."""
    return build_grid(131, 131)


SOLVES = [("source", 1.0, 1.0, 0.0),
          ("backward", 0.05, 1.0, 0.0),
          ("source", 1.0, "varq", "varc")]


def _matches_colamd(grid, kind, T, q, c):
    ops = _ops(grid, q, c)
    tg = TimeGrid(T=T, M=20)
    shape, zero = make_shape("sin2exp", grid), np.zeros(grid.n_nodes)
    f, g = (shape, zero) if kind == "source" else (zero, shape)
    got = solve_forward(ops, tg, f, g, steps=[tg.M]).final
    return _close(got, _colamd_final_state(ops, tg, f, g))


@pytest.mark.parametrize("kind, T, q, c", SOLVES)
def test_banded_solves_match_a_colamd_reference(grid65, kind, T, q, c):
    assert _matches_colamd(grid65, kind, T, q, c)


@pytest.mark.parametrize("kind, T, q, c", SOLVES)
def test_column_banded_solves_match_a_colamd_reference(grid2049x5, kind, T, q, c):
    assert _matches_colamd(grid2049x5, kind, T, q, c)


@pytest.mark.parametrize("kind, T, q, c", SOLVES)
def test_minimum_degree_solves_match_a_colamd_reference(grid131, kind, T, q, c):
    assert _matches_colamd(grid131, kind, T, q, c)


def _with_colamd(monkeypatch):
    """Let the denoise path factor its next system by COLAMD SuperLU."""
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    monkeypatch.setattr(inversion, "_factorize",
                        lambda system, shape: splu(system.tocsc(), permc_spec="COLAMD"))


def _matches_colamd_denoise(grid, monkeypatch):
    ms = _readings(grid)
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    got = denoise(ms, grid, ALPHA)
    _with_colamd(monkeypatch)
    return _close(got, denoise(ms, grid, ALPHA))


def test_banded_denoise_matches_a_colamd_reference(grid65, monkeypatch):
    assert _matches_colamd_denoise(grid65, monkeypatch)


def test_column_banded_denoise_matches_a_colamd_reference(monkeypatch):
    # not 2049 x 5: there the system's condition number is 2.1e7, and COLAMD,
    # minimum degree and a dense Cholesky already differ by 3e-10 relative
    assert _matches_colamd_denoise(build_grid(1025, 17), monkeypatch)


def test_minimum_degree_denoise_matches_a_colamd_reference(grid131, monkeypatch):
    assert _matches_colamd_denoise(grid131, monkeypatch)


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


def test_the_chosen_factors_have_less_fill_than_colamd_past_the_threshold(grid131,
                                                                          monkeypatch):
    ops = _ops(grid131)
    stepper = adjpod.fem._stepper.__wrapped__(ops, DT)[0]
    assert _fill(stepper) < _fill(splu(_time_step_system(ops, DT), permc_spec="COLAMD"))

    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    nodes = _denoise_nodes(grid131)
    chosen = inversion._denoise_factors(grid131, nodes, ALPHA)[1]
    _with_colamd(monkeypatch)
    assert _fill(chosen) < _fill(inversion._denoise_factors(grid131, nodes, ALPHA)[1])


def test_the_band_is_factored_in_place(grid65):
    """A copy of the band array would double the traced peak."""
    system = _time_step_system(_ops(grid65), DT)
    tracemalloc.start()
    try:
        factors = _factorize(system, grid65.interior_shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(factors, _BandedCholesky)
    assert peak < 1.3 * factors.factor.nbytes
