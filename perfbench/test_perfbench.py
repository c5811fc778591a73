"""Tests of the benchmark's own span accounting and checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import os
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import adjpod  # noqa: E402
from spans import ROOT_SPAN, SPANS, Tracer, TraceError  # noqa: E402
from workloads import WORKLOADS, acceptance8_check  # noqa: E402


@pytest.fixture
def fake_layers(monkeypatch):
    """Two fake modules: ``top.outer`` calls ``low.inner`` twice, which
    calls ``low.leaf``; each sleeps for a known time of its own."""
    low = types.ModuleType("fake_low")
    top = types.ModuleType("fake_top")

    def leaf():
        time.sleep(0.002)

    def inner():
        time.sleep(0.003)
        low.leaf()

    def outer():
        time.sleep(0.004)
        low.inner()
        low.inner()

    low.leaf, low.inner, top.outer = leaf, inner, outer
    monkeypatch.setitem(sys.modules, "fake_low", low)
    monkeypatch.setitem(sys.modules, "fake_top", top)
    spans = {
        "top.outer": ("fake_top", ("outer",), ("fake_top.outer",)),
        "low.work": ("fake_low", ("inner", "leaf"), ("fake_low.inner", "fake_low.leaf")),
    }
    return top, low, spans


def test_nested_self_times_sum_to_the_root(fake_layers):
    top, low, spans = fake_layers
    originals = (top.outer, low.inner, low.leaf)
    with Tracer(spans, root="top.outer") as tracer:
        top.outer()
        top.outer()
        metrics = tracer.metrics()
    assert (top.outer, low.inner, low.leaf) == originals
    assert metrics["top.outer.calls"] == 2
    assert metrics["low.work.calls"] == 8          # inner and leaf, aggregated
    own = tracer.self_s
    assert own["top.outer"] >= 2 * 0.004
    assert own["low.work"] >= 4 * (0.003 + 0.002)
    assert math.isclose(own["top.outer"] + own["low.work"], metrics["top.outer.s"],
                        rel_tol=1e-12)


def test_missing_or_rebound_names_fail_loudly(fake_layers, monkeypatch):
    top, low, spans = fake_layers
    inner = low.inner
    monkeypatch.delattr(low, "leaf")
    with pytest.raises(TraceError, match="fake_low.leaf is missing"):
        Tracer(spans, root="top.outer").install()
    assert low.inner is inner                    # partial install rolled back

    monkeypatch.setattr(low, "leaf", lambda: None, raising=False)
    rebound = dict(spans, **{"low.work": ("fake_low", ("inner",),
                                          ("fake_low.inner", "fake_low.leaf"))})
    with pytest.raises(TraceError, match="no longer refers"):
        Tracer(rebound, root="top.outer").install()


def test_declared_span_without_calls_fails(fake_layers):
    top, _, spans = fake_layers
    with Tracer(spans, root="top.outer") as tracer:
        with pytest.raises(TraceError, match="low.work"):
            tracer.check_active(idle_spans=frozenset())
        top.outer()
        tracer.check_active(idle_spans=frozenset())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_spans_account_for_every_run(name, tmp_path):
    workload = WORKLOADS[name]
    with Tracer() as tracer:
        for i, raw in enumerate(workload.make_configs(0)):
            adjpod.run_experiment(adjpod.ExperimentConfig(**raw), str(tmp_path / str(i)))
        tracer.check_active(workload.idle_spans)
        metrics = tracer.metrics()
    children = sum(metrics[f"{span}.s"] for span in SPANS if span != ROOT_SPAN)
    assert math.isclose(children + metrics["experiment.self_s"],
                        metrics[f"{ROOT_SPAN}.s"], rel_tol=1e-9)
    assert metrics["experiment.self_s"] > 0
    for span in workload.idle_spans:
        assert metrics[f"{span}.calls"] == 0


def test_acceptance8_check_flags_the_kind_that_fails():
    configs = WORKLOADS["noise_study"].make_configs(0)
    errors = [{0.10: 0.2, 0.25: 0.3, 0.50: 0.4}[c["noise"]] for c in configs]
    assert all(acceptance8_check(configs, errors))
    # non-monotone backward medians: only the backward runs fail
    descending = {0.10: 0.9, 0.25: 0.5, 0.50: 0.4}
    errors = [e if c["kind"] == "source" else descending[c["noise"]]
              for c, e in zip(configs, errors)]
    verdict = acceptance8_check(configs, errors)
    assert verdict == [c["kind"] == "source" for c in configs]
