"""Analytic eigenmode utilities used as the numerical oracle."""

import numpy as np
import pytest

from adjpod import (CoefficientSet, ProblemKind, SpectralCoefficients,
                    adjoint_response_factor, assemble_operators, build_grid,
                    eigenvalue, laplace_eigenpair, mode_table,
                    project_onto_modes, spectral_solution)
from adjpod.spectral import distinct_mu_subset


def test_eigenvalue_is_sum_of_squares():
    assert eigenvalue(1, 1) == 2.0
    assert eigenvalue(2, 3) == 13.0
    with pytest.raises(ValueError):
        eigenvalue(0, 1)


def test_eigenpair_normalization_and_boundary(desk_grid, desk_ops):
    mu, phi = laplace_eigenpair(2, 1, desk_grid)
    assert mu == 5.0
    assert np.all(phi[desk_grid.boundary] == 0.0)
    # continuum-normalized: discrete mass norm is 1 up to O(h^2)
    assert abs(desk_ops.norm(phi) - 1.0) < 5e-3
    with pytest.raises(ValueError, match="mode indices must be >= 1"):
        laplace_eigenpair(0, 1, desk_grid)


def test_mode_table_sorted_and_distinct():
    table = mode_table(8)
    assert len(table) == 8
    assert len(set(table)) == 8
    mus = [eigenvalue(j, k) for j, k in table]
    assert mus == sorted(mus)
    assert table[0] == (1, 1)
    with pytest.raises(ValueError, match="need at least one mode"):
        mode_table(0)


def test_parse_problem_kind():
    assert ProblemKind.parse("source") is ProblemKind.INVERSE_SOURCE
    assert ProblemKind.parse("backward") is ProblemKind.BACKWARD
    assert ProblemKind.parse(ProblemKind.BACKWARD) is ProblemKind.BACKWARD
    with pytest.raises(ValueError):
        ProblemKind.parse("sideways")


def test_adjoint_response_factor_reference_values():
    # (1 - e^{-2}) / 2 for the lowest mode driven by a unit source over T=1
    np.testing.assert_allclose(
        adjoint_response_factor(ProblemKind.INVERSE_SOURCE, 2.0, 1.0),
        0.43233235838169365, rtol=1e-15)
    # e^{-0.1} decay of the lowest mode over T=0.05
    np.testing.assert_allclose(
        adjoint_response_factor(ProblemKind.BACKWARD, 2.0, 0.05),
        0.9048374180359595, rtol=1e-15)


def test_adjoint_response_factor_limits():
    mus = np.array([2.0, 5.0, 8.0])
    early = adjoint_response_factor(ProblemKind.INVERSE_SOURCE, mus, 1e-9)
    np.testing.assert_allclose(early, 1e-9, rtol=1e-6)  # ~ t for small t
    late = adjoint_response_factor(ProblemKind.INVERSE_SOURCE, mus, 50.0)
    np.testing.assert_allclose(late, 1.0 / mus, rtol=1e-12)
    decay = adjoint_response_factor(ProblemKind.BACKWARD, mus, 0.3)
    np.testing.assert_allclose(decay, np.exp(-0.3 * mus), rtol=1e-15)


def test_spectral_solution_scales_coefficients():
    coeffs = SpectralCoefficients(((1, 1), (2, 2)), np.array([3.0, -1.0]))
    out = spectral_solution(ProblemKind.BACKWARD, coeffs, 0.5)
    np.testing.assert_allclose(out.values,
                               [3.0 * np.exp(-1.0), -np.exp(-4.0)], rtol=1e-15)
    with pytest.raises(ValueError):
        spectral_solution(ProblemKind.BACKWARD, coeffs, 0.0)


def test_synthesize_and_project_round_trip(desk_grid, desk_ops):
    coeffs = SpectralCoefficients(((1, 1), (2, 1), (2, 2)),
                                  np.array([1.0, -0.5, 0.25]))
    field = coeffs.synthesize(desk_grid)
    assert np.all(field[desk_grid.boundary] == 0.0)
    recovered = project_onto_modes(field, desk_ops, 6)
    by_mode = dict(zip(recovered.modes, recovered.values))
    np.testing.assert_allclose(by_mode[(1, 1)], 1.0, atol=5e-3)
    np.testing.assert_allclose(by_mode[(2, 1)], -0.5, atol=5e-3)
    np.testing.assert_allclose(by_mode[(2, 2)], 0.25, atol=5e-3)
    np.testing.assert_allclose(by_mode[(1, 2)], 0.0, atol=5e-3)


def test_spectral_coefficients_validation():
    with pytest.raises(ValueError):
        SpectralCoefficients(((1, 1),), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SpectralCoefficients(((1, 0),), np.array([1.0]))
    with pytest.raises(ValueError, match="mode indices must be distinct"):
        SpectralCoefficients(((1, 1), (1, 1)), np.array([1.0, 2.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SpectralCoefficients(((1, 1), (2, 1)), np.array([1.0, bad]))


def test_distinct_mu_subset_skips_degenerate_pairs():
    table = mode_table(12)
    coeffs = SpectralCoefficients(table, np.ones(len(table)))
    with pytest.warns(UserWarning):
        picked = distinct_mu_subset(coeffs, 6)
    mus = picked.mus
    assert len(set(mus.tolist())) == 6
    np.testing.assert_array_equal(mus, [2.0, 5.0, 8.0, 10.0, 13.0, 17.0])
    with pytest.raises(ValueError):
        distinct_mu_subset(SpectralCoefficients(((1, 1),), np.ones(1)), 2,
                           warn=False)


def test_forward_solution_matches_spectral_oracle():
    """Full-order solve vs the exact modal final state (source kind)."""
    grid = build_grid(25, 25)
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    from adjpod import TimeGrid, solve_forward

    coeffs = SpectralCoefficients(((1, 1),), np.array([1.0]))
    f = coeffs.synthesize(grid)
    traj = solve_forward(ops, TimeGrid(T=1.0, M=200), f=f,
                         g=np.zeros(grid.n_nodes))
    exact = spectral_solution(ProblemKind.INVERSE_SOURCE, coeffs, 1.0)
    err = ops.norm(traj.final - exact.synthesize(grid)) / ops.norm(
        exact.synthesize(grid))
    assert err < 0.02
