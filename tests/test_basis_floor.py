"""Each run's basis floor bounds its recovery error from below.

Every recovery is a combination of the basis modes, and
``PodBasis.coefficients`` is the mass-orthogonal projection onto their
span, so the floor ||f - Pi f||_M / ||f||_M that ``metrics.json`` reports
as ``recovery.rel_l2_basis_floor`` is at most ``recovery.rel_l2_error``
for every basis, noise level, weight and solver.  On noise-free data the
direct solve with lambda = 1e-10 on the adjoint basis nearly reaches it.
That closeness is not a property of the other bases: the inverse-crime
basis can hold the truth to roundoff while the weight still biases the
recovery, and a foreign basis can miss the data the inversion fits.
"""

import itertools

import pytest

from adjpod import ExperimentConfig, run_experiment

BASES = ("adjoint", "traditional", "foreign:sin1")
NOISES = (0.0, 0.1, 0.5)
MODES = ("direct", "gradient")
ADJOINT_NOISE_FREE_DIRECT = 1.05    # error / floor


@pytest.mark.parametrize("kind", ["source", "backward"])
@pytest.mark.parametrize("truth", ["sin2", "sin2exp", "glyphA"])
def test_the_basis_floor_bounds_the_recovery_error(tmp_path, kind, truth):
    for i, (basis, noise, mode) in enumerate(itertools.product(BASES, NOISES, MODES)):
        cfg = ExperimentConfig(kind=kind, truth=truth, nx=17, ny=17, M=50, n_pod=9,
                               max_iters=2000, basis=basis, noise=noise, mode=mode)
        recovery = run_experiment(cfg, str(tmp_path / str(i)))["recovery"]
        floor, error = recovery["rel_l2_basis_floor"], recovery["rel_l2_error"]
        case = (basis, noise, mode, floor, error)
        assert 0.0 <= floor <= error * (1 + 1e-9), case
        if (basis, noise, mode) == ("adjoint", 0.0, "direct"):
            assert error <= ADJOINT_NOISE_FREE_DIRECT * floor, case
