"""Convergence orders of the full-order solver against a semi-discrete
exact reference.

A dense generalized eigendecomposition K V = M V Lambda (V^T M V = I) of
the interior stiffness and mass matrices solves the semi-discrete heat
equation M u' + K u = M f exactly in time:

    backward kind   u(T) = V e^{-Lambda T} V^T M g
    source kind     u(T) = V Lambda^{-1} (I - e^{-Lambda T}) V^T M f

Against the spectral oracle (q = 1, c = 0) the semi-discrete solution
converges in space at order 2 (Thomee, Galerkin Finite Element Methods for
Parabolic Problems, 2006), and with variable coefficients the semi-discrete
final states of nested grids, compared at the coarsest grid's nodes,
converge to each other at that order; against the semi-discrete solution the
backward-Euler final state converges in time at order 1, for variable
coefficients too.

On noise-free data the reduced model's final state approaches the full
one as the adjoint basis grows: over the first four modes the gap falls
with every mode, as the basis tail ratio rho does.
"""

import functools

import numpy as np
import pytest
import scipy.linalg

from adjpod import (ExperimentConfig, ProblemKind, SpectralCoefficients, build_problem,
                    drive, make_shape, run_experiment, spectral_solution)

SIDES = (9, 17, 33)             # h halves from one grid to the next
STEPS = (25, 50, 100, 200)      # dt halves likewise
TIME_SIDE = 17
# a smooth truth on three modes, one of them a higher harmonic
MODES = SpectralCoefficients(((1, 1), (2, 1), (1, 3)), np.array([1.0, -0.5, 0.3]))


@functools.lru_cache(maxsize=None)
def _eigenpairs(side, q, c):
    """(Lambda, V) of the interior (K, M) pair on a side x side grid."""
    _, _, ops, _ = build_problem("source", side, side, None, 1, q, c)
    i = ops.interior
    return scipy.linalg.eigh(ops.stiffness[i][:, i].toarray(), ops.mass[i][:, i].toarray())


def _semi_discrete(kind, field, ops, T, q, c):
    """Final state of M u' + K u = M f exactly in time, driven by ``field``."""
    lam, V = _eigenpairs(ops.grid.nx, q, c)
    i = ops.interior
    coeffs = V.T @ (ops.mass[i][:, i] @ field[i])
    if kind is ProblemKind.BACKWARD:
        factor = np.exp(-lam * T)
    else:
        factor = -np.expm1(-lam * T) / lam
    u = np.zeros(ops.grid.n_nodes)
    u[i] = V @ (factor * coeffs)
    return u


def _order(errors):
    """Least-squares slope of -log2(error) over halvings of the step."""
    return np.polyfit(np.arange(len(errors)), -np.log2(errors), 1)[0]


@pytest.mark.parametrize("name", ["source", "backward"])
def test_the_semi_discrete_solution_converges_at_order_two_in_space(name):
    errors = []
    for side in SIDES:
        kind, grid, ops, tg = build_problem(name, side, side, None, 1, "1", "0")
        exact = spectral_solution(kind, MODES, tg.T).synthesize(grid)
        u = _semi_discrete(kind, MODES.synthesize(grid), ops, tg.T, "1", "0")
        errors.append(ops.norm(u - exact) / ops.norm(exact))
    assert np.all(np.diff(errors) < 0), errors
    assert abs(_order(errors) - 2.0) <= 0.15, errors


@pytest.mark.parametrize("q,c", [("varq", "0"), ("1", "varc"), ("varq", "varc")])
@pytest.mark.parametrize("name", ["source", "backward"])
def test_variable_coefficient_final_states_self_converge_at_order_two(name, q, c):
    coarse = []
    for side in SIDES:
        kind, grid, ops, tg = build_problem(name, side, side, None, 1, q, c)
        u = _semi_discrete(kind, MODES.synthesize(grid), ops, tg.T, q, c)
        step = (side - 1) // (SIDES[0] - 1)     # every step-th node is a 9 x 9 node
        coarse.append(u.reshape(side, side)[::step, ::step])
    errors = [np.linalg.norm(a - b) / np.linalg.norm(b) for a, b in zip(coarse, coarse[1:])]
    assert errors[1] < errors[0], errors
    assert abs(_order(errors) - 2.0) <= 0.15, errors


@pytest.mark.parametrize("q,c", [("1", "0"), ("varq", "varc")])
@pytest.mark.parametrize("name", ["source", "backward"])
@pytest.mark.parametrize("shape", ["sin2exp", "glyphA"])
def test_backward_euler_converges_at_order_one_in_time(name, q, c, shape):
    errors = []
    for M in STEPS:
        kind, grid, ops, tg = build_problem(name, TIME_SIDE, TIME_SIDE, None, M, q, c)
        field = make_shape(shape, grid)
        reference = _semi_discrete(kind, field, ops, tg.T, q, c)
        u = drive(kind, field, ops, tg, steps=[M]).final
        errors.append(ops.norm(u - reference) / ops.norm(reference))
    assert np.all(np.diff(errors) < 0), errors
    assert abs(_order(errors) - 1.0) <= 0.1, errors


@pytest.mark.parametrize("name", ["source", "backward"])
@pytest.mark.parametrize("shape", ["sin2", "sin2exp"])
def test_the_reduced_final_state_gap_falls_with_the_basis_tail(tmp_path, name, shape):
    gaps, rhos = [], []
    for n_pod in (1, 2, 3, 4):
        cfg = ExperimentConfig(kind=name, truth=shape, nx=17, ny=17, M=50, n_pod=n_pod)
        metrics = run_experiment(cfg, str(tmp_path))
        gaps.append(metrics["reduced_vs_full"]["rel_l2_final_state_gap"])
        rhos.append(metrics["basis"]["rho"])
    assert np.all(np.diff(rhos) < 0), rhos
    assert np.all(np.diff(gaps) < 0), (gaps, rhos)
