"""The benchmark's layer trace still fits the library.

``perfbench/spans.py`` wraps each layer function at the module attributes
through which the pipeline looks it up, and raises ``TraceError`` when one
of them is gone (for example an import deleted as unused).  Installing and
uninstalling the tracer here keeps that breakage inside the fast suite.
"""

import importlib.util
import pathlib

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
