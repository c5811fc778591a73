"""Data-driven basis construction and the reduced Galerkin propagator."""

import dataclasses

import numpy as np
import pytest

from adjpod import (CoefficientSet, ProblemKind, TimeGrid,
                    assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, build_traditional_pod,
                    collect_snapshots, compute_pod_basis, drive, reduced_solve,
                    snapshot_set, solve_forward, spod_matrix)


@pytest.fixture(scope="module")
def grid():
    return build_grid(15, 15)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def tg():
    return TimeGrid(T=0.4, M=16)


@pytest.fixture(scope="module")
def m_field(grid):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    m = np.sin(x) * np.sin(y) + 0.3 * np.sin(2 * x) * np.sin(y)
    m[grid.boundary] = 0.0
    return m


def test_auxiliary_solve_source_kind_forces_with_data(ops, tg, m_field, grid):
    traj = drive(ProblemKind.INVERSE_SOURCE, m_field, ops, tg)
    direct = solve_forward(ops, tg, f=m_field, g=np.zeros(grid.n_nodes))
    np.testing.assert_array_equal(traj.states, direct.states)
    np.testing.assert_array_equal(traj.states[0], 0.0)


def test_auxiliary_solve_backward_kind_starts_from_data(ops, tg, m_field, grid):
    traj = drive("backward", m_field, ops, tg)
    np.testing.assert_array_equal(traj.states[0], m_field)
    assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(traj.states[0])


def test_auxiliary_solve_zeroes_boundary_residue(ops, tg, m_field, grid):
    dirty = m_field.copy()
    dirty[grid.boundary] = 0.5
    basis = build_adjoint_pod("backward", dirty, ops, tg, n_modes=4)
    clean = build_adjoint_pod("backward", m_field, ops, tg, n_modes=4)
    np.testing.assert_array_equal(basis.psi, clean.psi)


def test_data_driven_basis_provenance(ops, tg, m_field):
    basis = build_adjoint_pod("source", m_field, ops, tg, n_modes=4)
    assert basis.provenance["inverse_crime"] is False
    assert basis.provenance["kind"] == "source"
    assert basis.n_pod == 4
    gram = basis.psi.T @ (ops.mass @ basis.psi)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)


def test_data_driven_basis_rejects_zero_data(ops, tg, grid):
    with pytest.raises(ValueError):
        build_adjoint_pod("source", np.zeros(grid.n_nodes), ops, tg, n_modes=2)


@pytest.mark.parametrize("kind,what", [("source", "source term"),
                                       ("backward", "initial state")])
def test_a_field_of_the_wrong_length_is_rejected(ops, tg, grid, kind, what):
    short = np.ones(grid.n_nodes - 1)
    with pytest.raises(ValueError, match=f"^{what} length does not match node count$"):
        drive(kind, short, ops, tg)
    with pytest.raises(ValueError, match="^measurement field length does not match"):
        build_adjoint_pod(kind, short, ops, tg, n_modes=2)


def test_truth_driven_basis_is_flagged_as_inverse_crime(ops, tg, m_field):
    basis = build_traditional_pod("source", snapshot_set("source", m_field, ops, tg),
                                  n_modes=3)
    assert basis.provenance["inverse_crime"] is True
    assert basis.n_pod == 3


def test_reduced_operator_blocks(ops, tg, m_field):
    basis = build_adjoint_pod("source", m_field, ops, tg, n_modes=5)
    model = build_reduced_model(ops, basis, tg, "source")
    assert model.n_pod == 5
    np.testing.assert_allclose(model.a_r, model.a_r.T, atol=0)
    assert np.all(np.linalg.eigvalsh(model.a_r) > 0)
    np.testing.assert_allclose(model.m_r, np.eye(5), atol=1e-10)


def test_reduced_model_rejects_unnormalized_basis(ops, tg, m_field):
    basis = build_adjoint_pod("source", m_field, ops, tg, n_modes=3)
    broken = dataclasses.replace(basis, psi=2.0 * basis.psi)
    with pytest.raises(ValueError, match="orthonormal"):
        build_reduced_model(ops, broken, tg, "source")


def test_reduced_solve_rejects_boundary_violation(ops, tg, m_field, grid):
    basis = build_adjoint_pod("source", m_field, ops, tg, n_modes=3)
    model = build_reduced_model(ops, basis, tg, "source")
    bad = m_field.copy()
    bad[grid.boundary] = 1.0
    with pytest.raises(ValueError):
        reduced_solve(model, bad)


@pytest.mark.parametrize("kind", ["source", "backward"])
def test_full_span_basis_reproduces_full_solve(ops, tg, m_field, grid, kind):
    """When every full-order state lies in the basis span, the reduced
    stepper satisfies the projected equations exactly, so the two final
    states agree to the rank-cutoff tail."""
    if kind == "source":
        full = solve_forward(ops, tg, f=m_field, g=np.zeros(grid.n_nodes))
    else:
        full = solve_forward(ops, tg, f=np.zeros(grid.n_nodes), g=m_field)
    snaps = collect_snapshots(full, ops)
    basis = compute_pod_basis(snaps.snapshots, energy_tol=0.0, ops=ops)
    model = build_reduced_model(ops, basis, tg, kind)
    final, coeffs = reduced_solve(model, m_field)
    assert coeffs.shape == (tg.M + 1, basis.n_pod)
    gap = np.linalg.norm(final - full.states[-1]) / np.linalg.norm(full.states[-1])
    assert gap < 1e-5


@pytest.mark.parametrize("kind", ["source", "backward"])
def test_solution_operator_matrix_matches_stepping(ops, tg, m_field, kind):
    basis = build_adjoint_pod(kind, m_field, ops, tg, n_modes=6)
    model = build_reduced_model(ops, basis, tg, kind)
    S = spod_matrix(model)
    np.testing.assert_allclose(S, S.T, atol=0)
    reduced_input = basis.coefficients(m_field)
    _, coeffs = reduced_solve(model, m_field)
    np.testing.assert_allclose(S @ reduced_input, coeffs[-1],
                               rtol=1e-10, atol=1e-13)


def test_solution_operator_is_contractive_for_backward_kind(ops, tg, m_field):
    basis = build_adjoint_pod("backward", m_field, ops, tg, n_modes=5)
    model = build_reduced_model(ops, basis, tg, "backward")
    s = np.linalg.svd(spod_matrix(model), compute_uv=False)
    assert np.all(s < 1.0)
    assert np.all(s > 0.0)


def test_problem_kind_parsing():
    assert ProblemKind.parse("SOURCE") is ProblemKind.INVERSE_SOURCE
    assert ProblemKind.parse(ProblemKind.BACKWARD) is ProblemKind.BACKWARD
    with pytest.raises(ValueError):
        ProblemKind.parse("sideways")
