"""The benchmark's layer trace still fits the library.

``perfbench/spans.py`` wraps each layer function at the module attributes
through which the pipeline looks it up, and raises ``TraceError`` when one
of them is gone (for example an import deleted as unused).  Installing and
uninstalling the tracer here keeps that breakage inside the fast suite.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import adjpod
import adjpod.experiment

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


def test_tracer_installs_on_every_site_and_uninstalls():
    spans = _load_spans()
    sites = [site for _, _, span_sites in spans.SPANS.values() for site in span_sites]
    originals = {site: getattr(*spans._resolve(site)) for site in sites}
    tracer = spans.Tracer().install()
    try:
        wrapped = {site: getattr(*spans._resolve(site)) for site in sites}
    finally:
        tracer.uninstall()
    assert all(wrapped[site] is not originals[site] for site in sites)
    assert all(getattr(*spans._resolve(site)) is originals[site] for site in sites)


def test_traced_run_counts_every_step_and_digests_each_driver(tmp_path):
    """Solves that store only some states still count all M steps, and each
    solve's digest still binds its source term and initial state."""
    spans = _load_spans()
    cfg = adjpod.ExperimentConfig(nx=9, ny=9, M=5, truth="sin2exp", n_pod=3,
                                  detectors="7x7")
    adjpod.experiment._truth_stage.cache_clear()      # the truth solve must run here
    with spans.Tracer() as tracer:
        adjpod.run_experiment(cfg, str(tmp_path))
    layers = tracer.metrics()
    solves = layers["fem.solve_forward.calls"]
    assert solves == 2                          # the truth and the auxiliary solve
    assert layers["fem.steps"] == solves * cfg.M
    # both solves share operators, dt and M: only f and g tell them apart
    assert len(tracer.solve_digests) == solves
    _, grid, ops, tg = adjpod.build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M,
                                            cfg.q, cfg.c)
    truth_solve = spans._digest(spans._operators_digest(ops), tg.dt, tg.M,
                                adjpod.make_shape(cfg.truth, grid),
                                np.zeros(grid.n_nodes))
    assert truth_solve in tracer.solve_digests


def test_a_noisy_direct_run_enters_every_span_the_benchmark_declares(tmp_path):
    """A lookup site that the pipeline bypasses records zero calls, which
    ``check_active`` reports as the benchmark would."""
    spans = _load_spans()
    direct_idle = _load("workloads")._DIRECT_IDLE
    cfg = adjpod.ExperimentConfig(nx=9, ny=9, M=5, truth="sin2exp", n_pod=3,
                                  detectors="7x7", noise=0.1, seed=2)
    adjpod.experiment._problem.cache_clear()      # grid and operators are built here
    adjpod.experiment._truth_stage.cache_clear()  # and the truth solve runs here
    with spans.Tracer() as tracer:
        adjpod.run_experiment(cfg, str(tmp_path / "cold"))
        adjpod.run_experiment(cfg, str(tmp_path / "warm"))
    tracer.check_active(direct_idle)
    layers = tracer.metrics()
    assert layers["fem.solve_forward.calls"] == 3     # one truth, two auxiliary
    assert layers["fem.steps"] == 3 * cfg.M
    assert layers["inversion.h2_norm_estimate.calls"] == 1   # once per final state
