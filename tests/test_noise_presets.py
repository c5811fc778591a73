"""Presets 4.3 and 4.6 assert what acceptance criterion 8 asserts of its
medians: finite errors, at most 1 at 50% noise, and no larger at 10% than
at 50%."""

import pytest

from adjpod import run_example

CHECKS = ("recovery errors finite at every noise level",
          "recovery error at 50% noise at most 1",
          "recovery error at 10% noise at most the error at 50%")


@pytest.mark.parametrize("label", ["4.3", "4.6"])
def test_noise_preset_checks_bound_and_order(label, tmp_path):
    summary = run_example(label, str(tmp_path / label))
    checks = {c["name"]: c for c in summary["checks"]}
    assert tuple(checks) == CHECKS
    assert summary["passed"] is True
    errors = summary["errors"]
    assert errors["0.50"] <= 1.0
    assert errors["0.10"] <= errors["0.50"]
    assert checks[CHECKS[2]]["detail"] == {"10%": errors["0.10"], "50%": errors["0.50"]}
