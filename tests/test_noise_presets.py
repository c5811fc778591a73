"""Studies 4.3 and 4.6 assert what acceptance criterion 8 asserts of its
medians: finite errors, at most 1 at 50% noise, and no larger at 10% than
at 50%."""

import numpy as np
import pytest


@pytest.mark.parametrize("label", ["4.3", "4.6"])
def test_noise_preset_checks_bound_and_order(label, tmp_path, sweep_study):
    runs = sweep_study(label, tmp_path)
    assert {tag: metrics["config"]["noise"] for tag, metrics in runs.items()} == {
        "noise_10": 0.10, "noise_25": 0.25, "noise_50": 0.50}
    errors = {tag: metrics["recovery"]["rel_l2_error"] for tag, metrics in runs.items()}
    assert all(np.isfinite(error) for error in errors.values())
    assert errors["noise_50"] <= 1.0
    assert errors["noise_10"] <= errors["noise_50"]
