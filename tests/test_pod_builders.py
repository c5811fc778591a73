"""The two POD builders share one recipe: what each records, what each
rejects, and the library pieces the CLI's analytic checks run through."""

import numpy as np
import pytest

import adjpod.experiment
import adjpod.spectral
from adjpod import (CoefficientSet, SpectralCoefficients, TimeGrid,
                    assemble_operators, build_adjoint_pod, build_grid,
                    build_traditional_pod, collect_snapshots, compute_pod_basis,
                    distinct_mu_subset, drive, mode_table, snapshot_set)
from adjpod.cli import main

PROVENANCE_KEYS = {"equation", "kind", "driver", "m_steps", "max_snapshots",
                   "inverse_crime"}


@pytest.fixture(scope="module")
def grid():
    return build_grid(15, 13)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def field(grid):
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    m = np.sin(x) * np.sin(y) + 0.4 * np.sin(3 * x) * np.sin(2 * y)
    m[grid.boundary] = 0.0
    return m


TG = TimeGrid(T=0.3, M=12)


@pytest.mark.parametrize("kind", ["source", "backward"])
@pytest.mark.parametrize("max_snapshots, m_steps", [(201, 12), (9, 4)])
def test_adjoint_basis_provenance_is_pinned(ops, field, kind, max_snapshots, m_steps):
    basis = build_adjoint_pod(kind, field, ops, TG, n_modes=3,
                              max_snapshots=max_snapshots)
    assert basis.provenance == {
        "equation": "data-driven auxiliary parabolic solve",
        "kind": kind,
        "driver": "measured-data",
        "m_steps": m_steps,
        "max_snapshots": max_snapshots,
        "inverse_crime": False,
    }
    labelled = build_adjoint_pod(kind, field, ops, TG, energy_tol=1e-6,
                                 max_snapshots=max_snapshots,
                                 driver_label="foreign shape 'sin1'")
    assert set(labelled.provenance) == PROVENANCE_KEYS
    assert labelled.provenance["driver"] == "foreign shape 'sin1'"


@pytest.mark.parametrize("kind", ["source", "backward"])
@pytest.mark.parametrize("max_snapshots, m_steps", [(201, 12), (9, 4)])
def test_traditional_basis_provenance_is_pinned(ops, field, kind, max_snapshots,
                                                m_steps):
    basis = build_traditional_pod(kind, snapshot_set(kind, field, ops, TG, max_snapshots),
                                  n_modes=3)
    assert basis.provenance == {
        "equation": "forward solve of the true problem",
        "kind": kind,
        "driver": "ground-truth data",
        "m_steps": m_steps,
        "max_snapshots": max_snapshots,
        "inverse_crime": True,
    }


def test_no_builder_takes_a_states_only_switch(ops, field):
    traj = drive("source", field, ops, TG)
    with pytest.raises(TypeError, match="states_only"):
        compute_pod_basis(collect_snapshots(traj, ops), n_modes=2, states_only=True)
    with pytest.raises(TypeError, match="states_only"):
        build_adjoint_pod("source", field, ops, TG, n_modes=2, states_only=True)
    with pytest.raises(TypeError, match="states_only"):
        build_traditional_pod("source", collect_snapshots(traj, ops), n_modes=2,
                              states_only=False)


@pytest.mark.parametrize("kind", ["source", "backward"])
def test_a_field_nonzero_only_on_the_boundary_is_rejected_up_front(grid, ops, kind):
    # the auxiliary solve zeroes the boundary, so this field drives nothing
    rim = np.where(grid.boundary, 0.7, 0.0)
    with pytest.raises(ValueError, match="measurement field is identically zero"):
        build_adjoint_pod(kind, rim, ops, TG, n_modes=2)


def test_distinct_mu_subset_computes_the_eigenvalues_once(monkeypatch):
    table = mode_table(40)
    coeffs = SpectralCoefficients(table, np.arange(1.0, 41.0))
    expected = distinct_mu_subset(coeffs, 12, warn=False)
    calls = []
    real = adjpod.spectral.eigenvalue
    monkeypatch.setattr(adjpod.spectral, "eigenvalue",
                        lambda j, k: calls.append((j, k)) or real(j, k))
    picked = distinct_mu_subset(coeffs, 12, warn=False)
    assert picked.modes == expected.modes
    np.testing.assert_array_equal(picked.values, expected.values)
    assert len(calls) == len(table)


def test_verify_theory_assembles_no_operators_per_kind_and_level(monkeypatch, capsys):
    calls = []
    real = adjpod.experiment.assemble_operators
    monkeypatch.setattr(adjpod.experiment, "assemble_operators",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    adjpod.experiment._problem.cache_clear()      # the operators are built here
    assert main(["verify-theory", "--levels", "2,3", "--nx", "17", "--ny", "17"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 1                 # once per run, not per kind and level
