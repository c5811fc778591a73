"""Reduction without losing accuracy: the reduced Tikhonov recovery against
the full-order one.

The reference solves the full-order Tikhonov normal equation

    (S^2 + lambda) f = S m

by conjugate gradients in the mass inner product, where S f is the final
state of the heat equation driven by f (``drive(kind, f, ops, tg,
steps=[M])``).  S is self-adjoint in that inner product for both kinds, so
S^2 + lambda is positive definite there.  The reference is an oracle of
this test only: it takes the pipeline's lambda and its denoised (or, noise
free, its exact) data, and the reduced recovery must reach the same error.
"""

from dataclasses import replace

import numpy as np
import pytest

from adjpod import ExperimentConfig, build_problem, read_field_csv, run_experiment
from adjpod.reduced import drive

# the smallest of the 17 x 17, 25 x 25 and 33 x 33 grids (M = 100) on which the
# reduced and full-order errors of the four noisy cases agree to 10 %; they
# agree on the two larger grids too
_SIDE = 17
_RTOL = 1e-12


def _full_order_tikhonov(kind, m, lam, ops, tg):
    """(f, CG iterations) solving (S^2 + lam) f = S m in the mass inner product."""
    def apply_s(f):
        return drive(kind, f, ops, tg, steps=[tg.M]).final

    b = apply_s(m)
    f = np.zeros_like(b)
    r, p = b.copy(), b.copy()
    rr = ops.inner(r, r)
    stop = _RTOL * np.sqrt(rr)
    for iteration in range(1, 1001):
        ap = apply_s(apply_s(p)) + lam * p
        step = rr / ops.inner(p, ap)
        f += step * p
        r -= step * ap
        rr, rr_old = ops.inner(r, r), rr
        if np.sqrt(rr) <= stop:
            return f, iteration
        p = r + (rr / rr_old) * p
    raise AssertionError("the full-order CG did not converge in 1000 iterations")


def _errors(cfg, out):
    """(reduced error, full-order error, CG iterations) of one pipeline run."""
    metrics = run_experiment(cfg, str(out))
    kind, _, ops, tg = build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M, cfg.q, cfg.c)
    data = "denoised.csv" if cfg.noise > 0 else "final_state.csv"
    m = read_field_csv(out / data)[1]
    truth = read_field_csv(out / "truth.csv")[1]
    f, iterations = _full_order_tikhonov(kind, m, metrics["recovery"]["lambda"], ops, tg)
    full = ops.norm(f - truth) / ops.norm(truth)
    return metrics["recovery"]["rel_l2_error"], full, iterations


@pytest.mark.parametrize("kind,truth,noise", [("source", "sin2", 0.10),
                                              ("source", "sin2exp", 0.10),
                                              ("backward", "sin2", 0.10),
                                              ("backward", "sin2exp", 0.25)])
def test_noisy_reduced_recovery_matches_the_full_order_one(tmp_path, kind, truth, noise):
    cfg = ExperimentConfig(kind=kind, truth=truth, nx=_SIDE, ny=_SIDE, noise=noise)
    reduced, full, iterations = _errors(cfg, tmp_path)
    assert abs(reduced - full) <= 0.10 * full, (reduced, full, iterations)


def test_noise_free_gap_to_the_full_order_recovery_falls_with_the_tail(tmp_path):
    base = ExperimentConfig(truth="sin2exp", nx=_SIDE, ny=_SIDE)
    _, full, _ = _errors(base, tmp_path / "reference")
    rhos, gaps = [], []
    for n in (3, 6, 9):
        metrics = run_experiment(replace(base, n_pod=n), str(tmp_path / str(n)))
        rhos.append(metrics["basis"]["rho"])
        gaps.append(abs(metrics["recovery"]["rel_l2_error"] - full))
    assert rhos[0] > rhos[1] > rhos[2], rhos
    assert gaps[0] > gaps[1] > gaps[2], gaps
