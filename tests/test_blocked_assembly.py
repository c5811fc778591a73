"""Fine-grid setup keeps only what it returns, bit for bit.

``fem.assemble_operators`` samples and checks q and c over the whole mesh,
then forms the element matrices ``fem._ASSEMBLY_BLOCK`` triangles at a time
into the COO value arrays; ``inversion._denoise_factors`` builds the normal
matrix on the interior columns only.  Both must give the bits of the
one-shot, full-node builds they replaced, which are copied here, while the
assembly's traced peak stays near the operators it returns.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from adjpod import (CoefficientSet, add_noise, assemble_operators, build_grid, denoise,
                    fem, inversion, make_shape)
from adjpod.experiment import _NAMED_COEFFS, detector_nodes

MIB = 2 ** 20

COEFFS = [(1.0, 0.0), ("varq", "varc"), (2.5, 0.3)]


def _coeffs(q, c):
    return CoefficientSet(q=_NAMED_COEFFS.get(q, q), c=_NAMED_COEFFS.get(c, c))


def _one_shot_assembly(grid, coeffs):
    """(mass, stiffness) as assembled before the blocks: every element
    matrix of the mesh at once."""
    tris = grid.triangles
    p1, p2, p3 = (grid.coords[tris[:, i]] for i in range(3))
    d21, d31 = p2 - p1, p3 - p1
    area = 0.5 * (d21[:, 0] * d31[:, 1] - d21[:, 1] * d31[:, 0])
    if np.any(area <= 0):
        raise ValueError("triangulation contains non-positive element areas")
    b = np.stack([p2[:, 1] - p3[:, 1], p3[:, 1] - p1[:, 1], p1[:, 1] - p2[:, 1]], axis=1)
    c = np.stack([p3[:, 0] - p2[:, 0], p1[:, 0] - p3[:, 0], p2[:, 0] - p1[:, 0]], axis=1)
    mids = np.stack([(p1 + p2) / 2, (p2 + p3) / 2, (p3 + p1) / 2], axis=1)
    mx, my = mids[:, :, 0], mids[:, :, 1]
    q_samples = np.asarray(fem._as_callable(coeffs.q)(mx, my), dtype=float)
    c_samples = np.asarray(fem._as_callable(coeffs.c)(mx, my), dtype=float)
    for name, samples in (("diffusion coefficient q", q_samples),
                          ("reaction coefficient c", c_samples)):
        if not np.all(np.isfinite(samples)):
            raise ValueError(f"{name} must be finite (found NaN or infinite values)")
    if np.any(q_samples <= 0):
        raise ValueError("diffusion coefficient q must be strictly positive everywhere")
    if np.any(c_samples < 0):
        raise ValueError("reaction coefficient c must be non-negative everywhere")
    grads = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        q_bar = q_samples.mean(axis=1)
        k_local = (q_bar / (4.0 * area))[:, None, None] * grads
    if not np.all(np.isfinite(k_local)):
        raise ValueError("diffusion coefficient q overflows the stiffness matrix on this grid")
    phi_outer = fem._PHI_MID[:, :, None] * fem._PHI_MID[:, None, :]
    r_local = (area / 3.0)[:, None, None] * np.einsum("tm,mij->tij", c_samples, phi_outer)
    k_local = k_local + r_local
    m_pattern = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    m_local = area[:, None, None] * m_pattern[None, :, :]
    ii = tris[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]].ravel()
    jj = tris[:, [0, 1, 2, 0, 1, 2, 0, 1, 2]].ravel()
    n = grid.n_nodes
    stiffness = sp.coo_matrix((k_local.ravel(), (ii, jj)), shape=(n, n)).tocsr()
    if not np.all(np.isfinite(stiffness.data)):
        raise ValueError("diffusion coefficient q and reaction coefficient c overflow "
                         "the assembled stiffness matrix on this grid")
    mass = sp.coo_matrix((m_local.ravel(), (ii, jj)), shape=(n, n)).tocsr()
    return mass, stiffness


def _same_csr(got, want):
    return all(np.array_equal(getattr(got, part), getattr(want, part))
               and getattr(got, part).dtype == getattr(want, part).dtype
               for part in ("data", "indices", "indptr"))


def _assembles_as_one_shot(grid, coeffs):
    ops = assemble_operators(grid, coeffs)
    mass, stiffness = _one_shot_assembly(grid, coeffs)
    return _same_csr(ops.mass, mass) and _same_csr(ops.stiffness, stiffness)


@pytest.mark.parametrize("q, c", COEFFS)
@pytest.mark.parametrize("nx, ny", [(3, 3), (13, 11), (41, 17), (33, 33),
                                    (101, 101),     # 20,000 triangles: a partial last block
                                    (65, 33)])      # 4,096 triangles: exactly two blocks
def test_blocked_assembly_gives_the_one_shot_bits(nx, ny, q, c):
    assert _assembles_as_one_shot(build_grid(nx, ny), _coeffs(q, c))


@pytest.mark.parametrize("q, c", COEFFS)
def test_blocks_of_seven_triangles_give_the_one_shot_bits(monkeypatch, q, c):
    monkeypatch.setattr(fem, "_ASSEMBLY_BLOCK", 7)              # 240 = 34 x 7 + 2
    assert _assembles_as_one_shot(build_grid(13, 11), _coeffs(q, c))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, bound_mib", [(101, 12), (201, 45)])
def test_the_assembly_peak_stays_near_the_operators(n, bound_mib):
    """The one-shot assembly peaked at 18.0 and 71.8 MiB on these grids."""
    grid = build_grid(n, n)
    peak = _traced_peak(lambda: assemble_operators(grid, _coeffs("varq", "varc")))
    assert peak <= bound_mib * MIB


def _late(value):
    """A coefficient that is 1 except on the top row of cells of a 9 x 9
    grid, whose triangles close each half of the triangle list."""
    return lambda x, y: np.where(y > 2.9, value, 1.0)


@pytest.mark.parametrize("q, c, message", [
    (_late(-1.0), 0.0, "q must be strictly positive everywhere"),
    (1.0, _late(np.nan), "c must be finite"),
    (_late(1e308), 0.0, "q overflows the stiffness matrix on this grid"),
    (5e307, 0.0, "q and reaction coefficient c overflow the assembled stiffness"),
])
def test_a_bad_coefficient_on_a_multi_block_mesh_keeps_its_message(monkeypatch, q, c,
                                                                   message):
    monkeypatch.setattr(fem, "_ASSEMBLY_BLOCK", 7)              # 128 = 18 x 7 + 2
    grid = build_grid(9, 9)
    coeffs = CoefficientSet(q=q, c=c)
    with pytest.raises(ValueError) as one_shot, np.errstate(all="ignore"):
        _one_shot_assembly(grid, coeffs)
    with pytest.raises(ValueError, match=message) as blocked, np.errstate(all="ignore"):
        assemble_operators(grid, coeffs)
    assert str(blocked.value) == str(one_shot.value)


def _full_node_denoise(ms, grid, alpha):
    """``denoise`` with the normal matrix built over every node and then
    restricted to the interior, as before."""
    nodes = inversion.sampling(grid, ms.detectors).nodes
    n = nodes.size
    P = sp.coo_matrix((np.ones(n), (np.arange(n), nodes)), shape=(n, grid.n_nodes)).tocsr()
    B = inversion.laplacian_stencil(grid)
    H = (P.T @ P) / n + (alpha * grid.hx * grid.hy) * (B.T @ B)
    idx = grid.interior
    factors = fem._factorize(H[np.ix_(idx, idx)], grid.interior_shape)
    u = np.zeros(grid.n_nodes)
    u[idx] = factors.solve((P.T @ ms.readings / n)[idx])
    return u


@pytest.mark.parametrize("alpha", [1e-6, 3e-3])
@pytest.mark.parametrize("n, spec", [(17, "7x5"), (33, "50x50"), (51, "20x30")])
def test_interior_first_denoise_gives_the_full_node_bits(monkeypatch, n, spec, alpha):
    monkeypatch.setattr(inversion, "_DENOISE_MEMO", {})
    grid = build_grid(n, n)
    nodes = detector_nodes(grid, spec)
    ms = add_noise(grid.coords[nodes], make_shape("sin2", grid)[nodes], 0.1, seed=7)
    assert np.array_equal(denoise(ms, inversion.sampling(grid, ms.detectors), alpha),
                          _full_node_denoise(ms, grid, alpha))
