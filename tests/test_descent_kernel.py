"""The per-coordinate descent kernel is the vector loop it replaced, bit for
bit, and several times faster.

``tikhonov_gradient_descent_reduced`` advances each eigen-coordinate alone
in Python floats, stops advancing a coordinate at an exact fixed point, and
tests for the stop once per chunk of iterations.  The reference below is
the loop it replaced, verbatim: the whole vector steps, and the gradient
norm is tested, once per iteration.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjpod import (CoefficientSet, InverseConfig, TimeGrid, assemble_operators,
                    build_adjoint_pod, build_grid, build_reduced_model,
                    tikhonov_gradient_descent_reduced)
from adjpod.inversion import _FIRST_CHUNK, _finite, descent_step_bound

TIMES = {"source": TimeGrid(T=0.4, M=30), "backward": TimeGrid(T=0.05, M=30)}
SHAPES = {"source": (17, 15), "backward": (15, 15)}


def _vector_descent(model, m_r, cfg):
    """The descent as the whole-vector loop computed it."""
    w, Q = model.spectrum
    bound = descent_step_bound(model, cfg.lam)
    beta = cfg.beta if cfg.beta is not None else 0.5 * bound
    if not beta < bound:
        raise ValueError(
            f"step size {beta} violates the stability bound: need beta < {bound}")

    m_r = _finite(m_r, "measurement coefficients m_r")

    z = np.zeros(model.n_pod)
    n = Q.T @ m_r
    curvature = w * w + cfg.lam
    wn = w * n
    grad = curvature * z - wn
    tol = cfg.grad_tol if cfg.grad_tol is not None \
        else 1e-10 * (float(np.linalg.norm(grad)) + 1.0)
    iterates = [z]
    for _ in range(cfg.max_iters):
        if math.sqrt(grad.dot(grad)) <= tol:     # np.linalg.norm(grad), bit for bit
            break
        z = z - beta * grad
        iterates.append(z)
        grad = curvature * z - wn
    # J is invariant under the orthogonal Q, so the history is evaluated
    # once, on all iterates together, in the eigen-coordinates
    Z = np.array(iterates)
    r = w * Z - n
    history = 0.5 * (np.sum(r * r, axis=1) + cfg.lam * np.sum(Z * Z, axis=1))
    return Q @ z, history


def _field(grid):
    """49 sine modes: rich enough for a 9-mode basis, whose rows of 8 or
    more entries numpy sums in another order when the stack is not C-ordered."""
    x, y = grid.coords[:, 0], grid.coords[:, 1]
    return sum(np.sin(j * x) * np.sin(k * y) / (j * k)
               for j in range(1, 8) for k in range(1, 8))


@pytest.fixture(scope="module")
def cases():
    """kind -> (reduced model on a 9-mode adjoint basis, its data's m_r)."""
    out = {}
    for kind, tg in TIMES.items():
        grid = build_grid(*SHAPES[kind])
        ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
        m = _field(grid)
        basis = build_adjoint_pod(kind, m, ops, tg, n_modes=9)
        assert basis.n_pod == 9
        out[kind] = build_reduced_model(ops, basis, tg, kind), basis.coefficients(m)
    return out


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(TIMES)),
       lam=st.sampled_from(["0", "1e-10", "1e-4", "10 s_max^2"]),
       step=st.sampled_from(["default", "0.999 bound", "1e-3 bound"]),
       max_iters=st.sampled_from([1, 7, _FIRST_CHUNK, _FIRST_CHUNK + 1, 5000]),
       grad_tol=st.sampled_from([None, 0.0, 1e300]),
       data=st.sampled_from(["measured", "zero", "random"]),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e4]))
def test_the_kernel_is_the_vector_loop_bit_for_bit(cases, kind, lam, step, max_iters,
                                                   grad_tol, data, seed, scale):
    model, measured = cases[kind]
    s_max = float(np.max(model.spectrum[0]))
    lam = 10.0 * s_max ** 2 if lam == "10 s_max^2" else float(lam)
    bound = descent_step_bound(model, lam)
    beta = {"default": None, "0.999 bound": 0.999 * bound, "1e-3 bound": 1e-3 * bound}[step]
    m_r = {"measured": scale * measured, "zero": np.zeros(model.n_pod),
           "random": scale * np.random.default_rng(seed).standard_normal(model.n_pod)}[data]
    cfg = InverseConfig(lam=lam, beta=beta, max_iters=max_iters, grad_tol=grad_tol)
    f_ref, history_ref = _vector_descent(model, m_r, cfg)
    f, history = tikhonov_gradient_descent_reduced(model, m_r, cfg)
    assert np.array_equal(f, f_ref)
    assert np.array_equal(history, history_ref)


def _best_of_3(descent, model, m_r, cfg):
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        descent(model, m_r, cfg)
        best = min(best, time.perf_counter() - start)
    return best


def test_the_kernel_takes_at_most_half_the_vector_loops_time(cases):
    model, m_r = cases["source"]
    cfg = InverseConfig(lam=1e-10, max_iters=5000)
    assert len(tikhonov_gradient_descent_reduced(model, m_r, cfg)[1]) == 5001
    vector = _best_of_3(_vector_descent, model, m_r, cfg)
    kernel = _best_of_3(tikhonov_gradient_descent_reduced, model, m_r, cfg)
    assert kernel <= 0.5 * vector, (kernel, vector)
