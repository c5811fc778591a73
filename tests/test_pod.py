"""Snapshot collection, the method of snapshots, and basis diagnostics."""

import numpy as np
import pytest

from adjpod import (CoefficientSet, PodBasis, TimeGrid, assemble_operators, build_grid,
                    collect_snapshots, compute_pod_basis, correlation_matrix,
                    principal_angles, projection_error_ratio, solve_forward)


@pytest.fixture(scope="module")
def grid():
    return build_grid(13, 13)


@pytest.fixture(scope="module")
def ops(grid):
    return assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def trajectory(grid, ops):
    g = np.zeros(grid.n_nodes)
    g[grid.interior] = 1.0
    return solve_forward(ops, TimeGrid(T=0.2, M=12), f=np.zeros(grid.n_nodes), g=g)


def _random_snapshots(rng, grid, count):
    snaps = rng.standard_normal((count, grid.n_nodes))
    snaps[:, grid.boundary] = 0.0
    return snaps


def test_collect_snapshots_counts_states_and_quotients(trajectory, ops):
    snaps = collect_snapshots(trajectory, ops)
    assert snaps.snapshots.shape[0] == 2 * 12 + 1
    assert snaps.states.shape == (13, trajectory.states.shape[1])
    quotients = snaps.snapshots[snaps.m_steps + 1:]
    assert quotients.shape == (12, trajectory.states.shape[1])
    dt = trajectory.tg.dt
    np.testing.assert_allclose(
        quotients[0], (trajectory.states[1] - trajectory.states[0]) / dt)


def test_collect_snapshots_subsamples_to_budget(trajectory, ops):
    snaps = collect_snapshots(trajectory, ops, max_snapshots=9)
    assert snaps.snapshots.shape[0] == 9
    assert snaps.m_steps == 4
    np.testing.assert_allclose(snaps.times[0], 0.0)
    np.testing.assert_allclose(snaps.times[-1], trajectory.tg.T)


def test_collect_snapshots_rejects_even_budget(trajectory, ops):
    with pytest.raises(ValueError):
        collect_snapshots(trajectory, ops, max_snapshots=10)
    with pytest.raises(ValueError):
        collect_snapshots(trajectory, ops, max_snapshots=1)


def test_correlation_matrix_is_mass_gram(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 4)
    K = correlation_matrix(snaps, ops)
    assert K.shape == (4, 4)
    np.testing.assert_allclose(K, K.T, atol=0)
    expected = np.array([[ops.inner(a, b) for b in snaps] for a in snaps])
    np.testing.assert_allclose(K, expected, rtol=1e-12)
    assert np.all(np.linalg.eigvalsh(K) > -1e-10)


def test_basis_is_mass_orthonormal(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 7)
    basis = compute_pod_basis(snaps, n_modes=5, ops=ops)
    gram = basis.psi.T @ (ops.mass @ basis.psi)
    np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)


def test_requested_count_is_clipped_to_rank(ops, grid, rng):
    one = _random_snapshots(rng, grid, 1)
    snaps = np.vstack([one, 2.0 * one, -3.0 * one])
    basis = compute_pod_basis(snaps, n_modes=3, ops=ops)
    assert basis.retained_rank == 1
    assert basis.n_pod == 1
    assert basis.rho <= 1e-12


def test_energy_selector_matches_tail_ratio(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 8)
    basis = compute_pod_basis(snaps, energy_tol=1e-2, ops=ops)
    lams = basis.eigenvalues
    tail = lams[basis.n_pod:].sum() / lams.sum()
    assert tail <= 1e-2
    if basis.n_pod > 1:
        assert lams[basis.n_pod - 1:].sum() / lams.sum() > 1e-2
    np.testing.assert_allclose(basis.rho, tail, rtol=1e-12, atol=1e-15)


def _random_spectrum(rng):
    """A non-increasing spectrum over up to 16 decades, with ties and zeros."""
    lams = np.sort(10.0 ** rng.uniform(-16.0, 0.0, int(rng.integers(1, 41))))[::-1]
    if rng.random() < 0.3:
        lams = np.round(lams, int(rng.integers(1, 8)))   # ties; zeros in the tail
    return lams if lams[0] > 0 else lams + 1.0


def test_energy_size_is_the_fewest_modes_whose_rho_obeys_it(ops, grid):
    """Over seeded random spectra and tolerances 10^U(-15, -1), sizing by
    ``energy_tol`` keeps the fewest modes, at most the retained rank, whose
    truncated basis reports rho <= the tolerance; below the retained rank
    the sized basis's reported rho obeys the tolerance."""
    rng = np.random.default_rng(28)
    for _ in range(2000):
        lams = _random_spectrum(rng)
        rank = int(rng.integers(1, lams.size + 1))
        full = PodBasis(psi=np.zeros((grid.n_nodes, rank)), eigenvalues=lams,
                        retained_rank=rank, ops=ops)
        tol = 10.0 ** rng.uniform(-15.0, -1.0)
        n = full.size(energy_tol=tol)
        fits = [k for k in range(1, rank + 1) if full.truncated(k).rho <= tol]
        assert n == (fits[0] if fits else rank), (lams, rank, tol)
        if n < rank:
            assert full.truncated(n).rho <= tol


def test_selector_arguments_are_exclusive(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 3)
    with pytest.raises(ValueError):
        compute_pod_basis(snaps, ops=ops)
    with pytest.raises(ValueError):
        compute_pod_basis(snaps, n_modes=2, energy_tol=0.5, ops=ops)
    with pytest.raises(ValueError, match="n_modes must be >= 1"):
        compute_pod_basis(snaps, n_modes=0, ops=ops)


def test_zero_snapshots_rejected(ops, grid, rng):
    with pytest.raises(ValueError):
        compute_pod_basis(np.zeros((3, grid.n_nodes)), n_modes=1, ops=ops)
    basis = compute_pod_basis(_random_snapshots(rng, grid, 3), n_modes=1, ops=ops)
    with pytest.raises(ValueError, match="snapshot set carries no energy"):
        projection_error_ratio(np.zeros((3, grid.n_nodes)), basis)


def test_principal_angles_reject_bases_on_different_grids(ops, grid, rng):
    other = assemble_operators(build_grid(9, 9), CoefficientSet(q=1.0, c=0.0))
    a = compute_pod_basis(_random_snapshots(rng, grid, 3), n_modes=2, ops=ops)
    b = compute_pod_basis(_random_snapshots(rng, other.grid, 3), n_modes=2, ops=other)
    with pytest.raises(ValueError, match="bases live on different grids"):
        principal_angles(a, b)


def test_projection_identity_random_sets(ops, grid, rng):
    """Projection error ratio equals the eigenvalue tail ratio exactly."""
    for _ in range(10):
        snaps = _random_snapshots(rng, grid, int(rng.integers(3, 9)))
        basis = compute_pod_basis(snaps, energy_tol=0.0, ops=ops)
        for n in range(1, basis.retained_rank + 1):
            ratio, rho = projection_error_ratio(snaps, basis.truncated(n))
            assert abs(ratio - rho) <= 1e-8 * rho + 1e-12


def test_basis_invariant_under_snapshot_permutation(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 6)
    basis_a = compute_pod_basis(snaps, n_modes=4, ops=ops)
    basis_b = compute_pod_basis(snaps[::-1], n_modes=4, ops=ops)
    angles = principal_angles(basis_a, basis_b)
    np.testing.assert_allclose(angles, 0.0, atol=1e-7)


def test_eigenvalues_scale_quadratically_rho_invariant(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 5)
    basis_a = compute_pod_basis(snaps, n_modes=3, ops=ops)
    basis_b = compute_pod_basis(4.0 * snaps, n_modes=3, ops=ops)
    np.testing.assert_allclose(basis_b.eigenvalues, 16.0 * basis_a.eigenvalues,
                               rtol=1e-10)
    np.testing.assert_allclose(basis_b.rho, basis_a.rho, rtol=1e-10, atol=1e-15)


def test_truncated_recomputes_tail(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 6)
    basis = compute_pod_basis(snaps, energy_tol=0.0, ops=ops)
    short = basis.truncated(2)
    assert short.n_pod == 2
    assert short.psi.shape[1] == 2
    np.testing.assert_array_equal(short.psi, basis.psi[:, :2])
    lams = basis.eigenvalues
    np.testing.assert_allclose(short.rho, lams[2:].sum() / lams.sum(), rtol=1e-12)
    with pytest.raises(ValueError):
        basis.truncated(0)
    with pytest.raises(ValueError):
        basis.truncated(basis.n_pod + 1)


def test_coefficients_expand_round_trip(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 6)
    basis = compute_pod_basis(snaps, n_modes=4, ops=ops)
    c = rng.standard_normal(4)
    np.testing.assert_allclose(basis.coefficients(basis.expand(c)), c,
                               rtol=0, atol=1e-12)


def test_principal_angles_detect_shared_and_new_directions(ops, grid, rng):
    snaps = _random_snapshots(rng, grid, 6)
    basis = compute_pod_basis(snaps, n_modes=3, ops=ops)
    # arccos near 1 resolves angles only to about sqrt(machine eps)
    same = principal_angles(basis, basis)
    np.testing.assert_allclose(same, 0.0, atol=1e-6)
    other = compute_pod_basis(_random_snapshots(rng, grid, 6), n_modes=3, ops=ops)
    angles = principal_angles(basis, other)
    assert angles.shape == (3,)
    assert np.all(np.diff(angles) >= -1e-12)
    assert np.all((angles >= 0.0) & (angles <= np.pi / 2 + 1e-12))


def test_snapshot_set_feeds_pod(trajectory, ops):
    snaps = collect_snapshots(trajectory, ops)
    basis = compute_pod_basis(snaps.snapshots, n_modes=3, ops=snaps.ops)
    assert basis.psi.shape == (trajectory.states.shape[1], 3)
    ratio, rho = projection_error_ratio(snaps.snapshots, basis)
    assert 0.0 <= ratio <= 1.0
    assert abs(ratio - rho) <= 1e-8 * rho + 1e-12
