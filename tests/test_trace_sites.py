"""The benchmark's layer trace still fits the library.

``perfbench/spans.py`` wraps each layer function at the module attributes
through which the pipeline looks it up, and raises ``TraceError`` when one
of them is gone (for example an import deleted as unused).  Installing and
uninstalling the tracer here keeps that breakage inside the fast suite.
"""

import importlib.util
import pathlib

import numpy as np

import adjpod
import adjpod.experiment

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
