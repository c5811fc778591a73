"""The denoiser converges at the thin-plate spline rate.

With ``alpha = select_alpha(sigma, n, ||u||_H2)`` the relative L2 error of
``denoise`` against the clean final state should scale like
``(sigma / sqrt(n))^(2/3)`` (Wahba, *Spline Models for Observational Data*,
1990): a log-log slope of 2/3 against the noise level and of -1/3 against
the detector count.  Each error is the median over noise seeds 0-2.

Measured (one BLAS thread, x86-64): slopes 0.769 (source sin2exp) and
0.735 (backward sin2) against the noise level at 33x33, and -0.357 and
-0.339 against the detector count at 65x65.  The bands are wide enough for
that and narrow enough to fail a weight rule that is off: a fixed alpha
gives slopes of 1.00 and -0.28, a weight ``ratio^2`` or ``ratio^1`` in
place of ``ratio^(4/3)`` gives 0.84-0.90 against the noise level, and one
that ignores n gives -0.02 against the detector count.
"""

import statistics

import numpy as np
import pytest

from adjpod import (add_noise, build_problem, denoise, detector_nodes, drive,
                    h2_norm_estimate, make_shape, relative_l2_error, select_alpha)

CASES = (("source", "sin2exp"), ("backward", "sin2"))
SEEDS = (0, 1, 2)
NOISE_SLOPE_BAND = (0.60, 0.82)         # theory 2/3
DETECTOR_SLOPE_BAND = (-0.42, -0.30)    # theory -1/3


def _median_errors(kind, truth, n, layouts, levels):
    """(detector count, noise level) -> median denoise error over SEEDS."""
    kind, grid, ops, tg = build_problem(kind, n, n, None, 100, "1.0", "0.0")
    final = drive(kind, make_shape(truth, grid), ops, tg, steps=[tg.M]).final
    smoothness = h2_norm_estimate(grid, ops, final)
    out = {}
    for layout in layouts:
        nodes = detector_nodes(grid, layout)
        for p in levels:
            errors = []
            for seed in SEEDS:
                ms = add_noise(grid.coords[nodes], final[nodes], p, seed)
                fitted = denoise(ms, grid, select_alpha(ms.sigma, ms.n, smoothness))
                errors.append(relative_l2_error(ops, fitted, final))
            out[nodes.size, p] = statistics.median(errors)
    return out


def _slope(x, y) -> float:
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


@pytest.mark.parametrize("kind, truth", CASES)
def test_the_error_falls_like_the_noise_level_to_the_two_thirds(kind, truth):
    levels = (0.01, 0.03, 0.1, 0.3)
    errors = _median_errors(kind, truth, 33, ("50x50",), levels)
    slope = _slope(levels, [errors[961, p] for p in levels])
    assert NOISE_SLOPE_BAND[0] <= slope <= NOISE_SLOPE_BAND[1], slope


@pytest.mark.parametrize("kind, truth", CASES)
def test_the_error_falls_like_the_detector_count_to_the_minus_one_third(kind, truth):
    errors = _median_errors(kind, truth, 65, ("8x8", "16x16", "32x32", "63x63"), (0.1,))
    counts = sorted(count for count, _ in errors)
    assert counts == [64, 256, 1024, 3969]
    slope = _slope(counts, [errors[count, 0.1] for count in counts])
    assert DETECTOR_SLOPE_BAND[0] <= slope <= DETECTOR_SLOPE_BAND[1], slope
