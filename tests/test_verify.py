"""Structural checks of the modal snapshot factorization machinery."""

import numpy as np
import pytest

import adjpod.cli
import adjpod.verify
from adjpod import (ProblemKind, SpectralCoefficients, adjoint_response_factor,
                    build_theory_matrices, compute_pod_basis, eigenvalue,
                    laplace_eigenpair, verify_pod_bound, verify_span_equality)

# mode pairs with pairwise-distinct eigenvalues 2, 5, 8, 10, 13, 17
_DISTINCT_MODES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4))


def _coeffs(L):
    """Distinct-eigenvalue expansion with amplitudes equal to the eigenvalues
    (keeps every data-driven snapshot column above the POD rank cutoff)."""
    modes = _DISTINCT_MODES[:L]
    return SpectralCoefficients(
        modes=modes, values=np.array([eigenvalue(*jk) for jk in modes]))


@pytest.fixture(scope="module")
def grid(desk_grid):
    return desk_grid


def test_matrix_factorization_by_hand(grid):
    """L = 2: every block of the factorization checked element-wise."""
    tm = build_theory_matrices("source", 2, 4, 0.5, _coeffs(2), grid)
    assert tm.modes == ((1, 1), (1, 2))
    np.testing.assert_allclose(tm.mus, [2.0, 5.0])
    np.testing.assert_allclose(tm.f, [2.0, 5.0])
    np.testing.assert_allclose(
        tm.d, [(1 - np.exp(-2 * 0.5)) / 2.0, (1 - np.exp(-5 * 0.5)) / 5.0],
        rtol=1e-15)
    ts = np.array([0.125, 0.25, 0.375, 0.5])
    expected_J = (1.0 - np.exp(-tm.mus[:, None] * ts[None, :])) / tm.mus[:, None]
    np.testing.assert_allclose(tm.J, expected_J, rtol=1e-15)
    phi0 = laplace_eigenpair(1, 1, grid)[1]
    phi1 = laplace_eigenpair(1, 2, grid)[1]
    manual_A = np.outer(phi0, tm.f[0] * tm.J[0]) + np.outer(phi1, tm.f[1] * tm.J[1])
    np.testing.assert_allclose(tm.A, manual_A, rtol=0, atol=1e-14)
    manual_At = (np.outer(phi0, tm.d[0] * tm.f[0] * tm.J[0])
                 + np.outer(phi1, tm.d[1] * tm.f[1] * tm.J[1]))
    np.testing.assert_allclose(tm.A_tilde, manual_At, rtol=0, atol=1e-14)


def test_matrix_builder_validation(grid):
    coeffs = _coeffs(3)
    with pytest.raises(ValueError, match="L <= M"):
        build_theory_matrices("source", 5, 4, 1.0, coeffs, grid)
    with pytest.raises(ValueError, match="positive"):
        build_theory_matrices("source", 3, 8, 0.0, coeffs, grid)
    zeroed = SpectralCoefficients(modes=((1, 1), (1, 2)),
                                  values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="nonzero"):
        build_theory_matrices("source", 2, 8, 1.0, zeroed, grid)


@pytest.mark.parametrize("L,T,named", [(0, 1.0, "L=0"), (-1, 1.0, "L=-1"),
                                         (2, np.inf, "T=inf"), (2, np.nan, "T=nan")])
def test_matrix_builder_names_a_bad_mode_count_or_final_time(grid, L, T, named):
    with pytest.raises(ValueError, match=named):
        build_theory_matrices("source", L, max(L, 2), T, _coeffs(3), grid)


@pytest.mark.parametrize("kind", ["source", "backward"])
@pytest.mark.parametrize("L", [2, 4, 6])
def test_span_equality_holds_on_modal_problems(grid, kind, L):
    T = 1.0 if kind == "source" else 0.05
    tm = build_theory_matrices(kind, L, L, T, _coeffs(L), grid)
    report = verify_span_equality(tm)
    assert report["pass"]
    assert report["rank_forward"] == L
    assert report["rank_data_driven"] == L
    assert report["rank_joint"] == L
    assert report["residual_forward_to_data"] <= 1e-8
    assert report["residual_data_to_forward"] <= 1e-8
    assert report["residual_JP_eq_DJ"] <= 1e-10


def test_span_equality_detects_a_genuinely_new_direction(grid):
    """Injecting an extra eigenfunction into one family must break the
    rank agreement that the passing report certifies."""
    tm = build_theory_matrices("source", 3, 6, 1.0, _coeffs(3), grid)
    intruder = laplace_eigenpair(4, 3, grid)[1]
    spiked = tm.A_tilde + np.outer(intruder, np.ones(tm.M))
    tampered = type(tm)(kind=tm.kind, L=tm.L, M=tm.M, T=tm.T, modes=tm.modes,
                        mus=tm.mus, phi=tm.phi, f=tm.f, d=tm.d, J=tm.J,
                        A=tm.A, A_tilde=spiked, grid=tm.grid)
    report = verify_span_equality(tampered)
    assert not report["pass"]
    assert report["rank_joint"] > report["rank_forward"]


@pytest.mark.parametrize("kind,T", [("source", 1.0), ("backward", 0.05)])
def test_pod_bound_full_rank_capture(grid, desk_ops, kind, T):
    report = verify_pod_bound(kind, 6, 6, T, _coeffs(6), grid, ops=desk_ops)
    assert report["pass"]
    assert report["full_rank_lhs"] <= 1e-6
    table = report["table"]
    assert table[0]["lhs"] == 1.0 and table[0]["rho"] == pytest.approx(1.0)
    lhs_col = [row["lhs"] for row in table]
    rho_col = [row["rho"] for row in table]
    assert all(a >= b - 1e-12 for a, b in zip(lhs_col, lhs_col[1:]))
    assert all(a >= b for a, b in zip(rho_col, rho_col[1:]))


def _cumsum_bound_table(tm, ops):
    """(lhs, rho) per basis size from the explicit cumsum formulas: captured
    energy of the forward columns and tail sums of the A-tilde spectrum."""
    basis = compute_pod_basis(tm.A_tilde.T, energy_tol=0.0, ops=ops)
    A, mass = tm.A, ops.mass
    total = float(np.sum(A * (mass @ A)))
    captured = np.cumsum((basis.psi.T @ (mass @ A)) ** 2, axis=0).sum(axis=1)
    lams = basis.eigenvalues
    return [(1.0 if n == 0 else max(total - captured[n - 1], 0.0) / total,
             float(lams[n:].sum() / lams.sum()))
            for n in range(basis.n_pod + 1)]


@pytest.mark.parametrize("kind,T", [("source", 1.0), ("backward", 0.05)])
@pytest.mark.parametrize("L", [2, 4])
def test_pod_bound_table_matches_the_cumsum_formula(grid, desk_ops, kind, T, L):
    report = verify_pod_bound(kind, L, L, T, _coeffs(L), grid, ops=desk_ops)
    tm = build_theory_matrices(kind, L, L, T, _coeffs(L), grid)
    expected = _cumsum_bound_table(tm, desk_ops)
    assert len(report["table"]) == len(expected)
    for row, (lhs, rho) in zip(report["table"], expected):
        assert row["lhs"] == pytest.approx(lhs, rel=0, abs=1e-12)
        assert row["rho"] == pytest.approx(rho, rel=0, abs=1e-12)


def test_verify_theory_builds_each_modal_problem_once(monkeypatch, capsys):
    calls = []
    real = adjpod.verify.build_theory_matrices

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(adjpod.verify, "build_theory_matrices", counted)
    monkeypatch.setattr(adjpod.cli, "build_theory_matrices", counted)
    assert adjpod.cli.main(["verify-theory"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 6                 # 2 kinds x levels 2, 4, 6


def test_pod_bound_truncation_row_is_selected(grid, desk_ops):
    report = verify_pod_bound("source", 4, 8, 1.0, _coeffs(4), grid,
                              n_pod=2, ops=desk_ops)
    assert report["n_pod"] == 2
    assert report["lhs"] == report["table"][2]["lhs"]
    assert report["rho"] == report["table"][2]["rho"]


def test_bound_factor_by_kind(grid, desk_ops):
    src = verify_pod_bound("source", 3, 6, 1.0, _coeffs(3), grid, ops=desk_ops)
    assert src["bound_factor"] == 9.0
    back = verify_pod_bound("backward", 3, 6, 0.05, _coeffs(3), grid,
                            ops=desk_ops)
    mu_top = back["modes"][-1][0] ** 2 + back["modes"][-1][1] ** 2
    assert back["bound_factor"] == pytest.approx(np.exp(2 * mu_top * 0.05))


def test_factor_helpers_agree_with_matrix_builder(grid):
    """Response and final-time factors drive the builder; cross-check the
    backward kind where both are pure exponentials."""
    tm = build_theory_matrices(ProblemKind.BACKWARD, 2, 4, 0.2, _coeffs(2), grid)
    ts = np.array([0.05, 0.1, 0.15, 0.2])
    np.testing.assert_allclose(tm.J, np.exp(-tm.mus[:, None] * ts[None, :]),
                               rtol=1e-15)
    np.testing.assert_allclose(tm.d, np.exp(-tm.mus * 0.2), rtol=1e-15)
    np.testing.assert_allclose(
        tm.d, adjoint_response_factor(ProblemKind.BACKWARD, tm.mus, 0.2),
        rtol=0, atol=0)
    np.testing.assert_allclose(
        tm.J[:, -1], adjoint_response_factor(ProblemKind.BACKWARD, tm.mus, 0.2),
        rtol=0, atol=0)
