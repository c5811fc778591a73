"""P1 finite element assembly and the backward-Euler forward solver."""

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

import adjpod.fem

from adjpod import (CoefficientSet, TimeGrid, assemble_operators, build_grid,
                    laplace_eigenpair, parse_coefficient, solve_forward)
from adjpod.fem import DiscreteOperators, conform_dirichlet
from adjpod.grid import DOMAIN_SIDE


@pytest.fixture(scope="module")
def grid():
    return build_grid(17, 15)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


def test_mass_matrix_rows_integrate_to_domain_area(ops):
    total = ops.mass.sum()
    np.testing.assert_allclose(total, DOMAIN_SIDE ** 2, rtol=1e-12)


def test_matrices_are_symmetric(ops):
    assert abs(ops.mass - ops.mass.T).max() == 0.0
    assert abs(ops.stiffness - ops.stiffness.T).max() == 0.0


def test_stiffness_annihilates_constants(grid, ops):
    ones = np.ones(grid.n_nodes)
    np.testing.assert_allclose(ops.stiffness @ ones, 0.0, atol=1e-12)


def test_stiffness_is_positive_semidefinite(grid, ops, rng):
    for _ in range(5):
        v = rng.standard_normal(grid.n_nodes)
        assert ops.energy(v, v) >= -1e-12


def test_diffusion_coefficient_scales_stiffness(grid):
    base = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    double = assemble_operators(grid, CoefficientSet(q=2.0, c=0.0))
    assert abs(double.stiffness - 2.0 * base.stiffness).max() < 1e-12
    assert abs(double.mass - base.mass).max() == 0.0


def test_constant_reaction_term_adds_exact_mass(grid):
    base = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    react = assemble_operators(grid, CoefficientSet(q=1.0, c=3.0))
    # the edge-midpoint rule is exact on quadratics, so the reaction block
    # must equal 3x the consistent mass matrix
    assert abs(react.stiffness - (base.stiffness + 3.0 * base.mass)).max() < 1e-12


def test_variable_coefficients_accepted_and_validated(grid):
    ops = assemble_operators(grid, CoefficientSet(
        q=lambda x, y: 2.0 + np.sin(x) * np.sin(y),
        c=lambda x, y: x * y / DOMAIN_SIDE ** 2))
    assert abs(ops.stiffness - ops.stiffness.T).max() < 1e-12
    with pytest.raises(ValueError):
        assemble_operators(grid, CoefficientSet(q=lambda x, y: x - 2.0))
    with pytest.raises(ValueError):
        assemble_operators(grid, CoefficientSet(q=1.0, c=-0.5))


def test_variable_coefficients_converge_second_order_on_a_manufactured_solution():
    """-div(q grad u) + c u = F with u = sin x sin y and the named profiles
    q = varq = 2 + u and c = varc, so F = 2 (2 + u) u - |grad u|^2 + c u;
    the steady P1 solution converges at order two in L2."""
    q, c = parse_coefficient("varq"), parse_coefficient("varc")

    def rel_error(n):
        g = build_grid(n, n)
        x, y = g.coords.T
        u = np.sin(x) * np.sin(y)
        grad_sq = np.cos(x) ** 2 * np.sin(y) ** 2 + np.sin(x) ** 2 * np.cos(y) ** 2
        F = 2.0 * (2.0 + u) * u - grad_sq + c(x, y) * u
        o = assemble_operators(g, CoefficientSet(q=q, c=c))
        inner = g.interior
        uh = np.zeros(g.n_nodes)
        uh[inner] = spsolve(o.stiffness[inner][:, inner].tocsc(), (o.mass @ F)[inner])
        return o.norm(uh - u) / o.norm(u)

    errors = [rel_error(n) for n in (17, 33, 65)]
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert errors[0] < 0.02
    assert np.all(orders >= 1.9), (errors, orders)


def test_rayleigh_quotient_converges_second_order():
    def rel_error(nx, ny):
        g = build_grid(nx, ny)
        o = assemble_operators(g, CoefficientSet(q=1.0, c=0.0))
        mu, phi = laplace_eigenpair(1, 2, g)
        quotient = o.energy(phi, phi) / o.inner(phi, phi)
        return abs(quotient - mu) / mu

    coarse = rel_error(17, 15)
    fine = rel_error(33, 29)
    assert coarse < 0.05
    # halving h should shrink the consistency error by about four
    assert fine < coarse / 3.0


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, M=10)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, M=0)
    tg = TimeGrid(T=2.0, M=8)
    assert tg.dt == 0.25
    assert tg.times.shape == (9,)
    np.testing.assert_allclose(tg.times[-1], 2.0)


def test_conform_dirichlet_zeroes_roundoff_and_rejects_violations(grid):
    v = np.ones(grid.n_nodes)
    v[grid.boundary] = 1e-12
    out = conform_dirichlet(grid, v)
    assert np.all(out[grid.boundary] == 0.0)
    v[grid.boundary] = 0.5
    with pytest.raises(ValueError):
        conform_dirichlet(grid, v)


def test_solve_forward_zero_data_stays_zero(grid, ops):
    tg = TimeGrid(T=0.5, M=10)
    zero = np.zeros(grid.n_nodes)
    traj = solve_forward(ops, tg, f=zero, g=zero)
    assert traj.states.shape == (11, grid.n_nodes)
    np.testing.assert_array_equal(traj.final, zero)


def test_solve_forward_is_linear_in_the_source(grid, ops, rng):
    tg = TimeGrid(T=0.4, M=12)
    zero = np.zeros(grid.n_nodes)
    f1 = rng.standard_normal(grid.n_nodes)
    f2 = rng.standard_normal(grid.n_nodes)
    f1[grid.boundary] = 0.0
    f2[grid.boundary] = 0.0
    u1 = solve_forward(ops, tg, f=f1, g=zero).final
    u2 = solve_forward(ops, tg, f=f2, g=zero).final
    u12 = solve_forward(ops, tg, f=f1 + 2.0 * f2, g=zero).final
    np.testing.assert_allclose(u12, u1 + 2.0 * u2, rtol=0, atol=1e-12)


def test_solve_forward_decays_without_forcing(grid, ops):
    tg = TimeGrid(T=0.2, M=20)
    g = np.zeros(grid.n_nodes)
    g[grid.interior] = 1.0
    traj = solve_forward(ops, tg, f=np.zeros(grid.n_nodes), g=g)
    norms = [ops.norm(s) for s in traj.states]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_solve_forward_matches_single_mode_decay(grid, ops):
    mu, phi = laplace_eigenpair(1, 1, grid)
    tg = TimeGrid(T=0.1, M=200)
    traj = solve_forward(ops, tg, f=np.zeros(grid.n_nodes), g=phi)
    exact = np.exp(-mu * tg.T)
    ratio = ops.inner(traj.final, phi) / ops.inner(phi, phi)
    # first order in dt plus O(h^2) spatial consistency
    assert abs(ratio - exact) < 5e-3


def test_solve_forward_first_state_is_projected_initial(grid, ops):
    g = np.zeros(grid.n_nodes)
    g[grid.interior] = 2.0
    traj = solve_forward(ops, TimeGrid(T=0.1, M=4), f=np.zeros(grid.n_nodes), g=g)
    np.testing.assert_array_equal(traj.states[0], g)


def test_solve_forward_rejects_boundary_violations(grid, ops):
    tg = TimeGrid(T=0.1, M=4)
    bad = np.ones(grid.n_nodes)
    with pytest.raises(ValueError):
        solve_forward(ops, tg, f=bad, g=np.zeros(grid.n_nodes))
    with pytest.raises(ValueError):
        solve_forward(ops, tg, f=np.zeros(grid.n_nodes), g=bad)


def test_time_step_refinement_converges_first_order(grid, ops):
    """Halving dt roughly halves the time-stepping error (backward Euler).

    Self-convergence against a fine-step reference on the same mesh
    isolates the temporal error from the spatial one.
    """
    _, phi = laplace_eigenpair(1, 1, grid)
    T = 0.2
    zero = np.zeros(grid.n_nodes)
    reference = solve_forward(ops, TimeGrid(T=T, M=640), f=zero, g=phi).final
    errors = [ops.norm(solve_forward(ops, TimeGrid(T=T, M=M), f=zero, g=phi).final
                       - reference)
              for M in (10, 20, 40)]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(r > 0.85 for r in rates), (errors, rates)


def test_a_failed_banded_time_step_factorization_is_an_internal_error():
    # at 53 x 53 the time step is a banded Cholesky; a system that is not
    # positive-definite fails as SuperLU's singular factor does
    grid = build_grid(53, 53)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    indefinite = DiscreteOperators(grid=grid, mass=0 * ops.mass, stiffness=-ops.stiffness)
    with pytest.raises(RuntimeError, match="internal error: time-step system is singular"):
        adjpod.fem._stepper(indefinite, 0.1)
