"""Outside-in layer trace: wraps adjpod's layer functions where their
callers look them up and accounts self time per span.

Each span is wrapped at every module attribute through which the pipeline
reaches it (``adjpod.experiment.solve_forward`` and
``adjpod.reduced.solve_forward`` both feed ``fem.solve_forward``).  A
binding that has disappeared, or that no longer points at the expected
function, raises ``TraceError`` instead of silently zeroing a layer.

Time accounting: a span's self time is its duration minus the duration of
the spans it called.  The tracer's own bookkeeping (argument digests and
counters) is measured and removed from every enclosing span, so for each
root span the self times of all spans below it plus its own self time add
up to its duration.  The root, ``experiment.run_experiment``, reports its
duration as ``.s``; its self time (glue not covered by any child) is
``experiment.self_s``.  Every other ``.s`` is self time.

Metric -> end-to-end map (what each layer metric should move, and where)
------------------------------------------------------------------------
* ``fem.step_us`` and ``fem.solve_forward.s`` move ``runs_per_s`` on
  stretch_source, less on noise_study, barely on gradient_backward.
* ``fem.distinct_solve_ratio``, ``reduced.useful_basis_ratio``,
  ``pod.compute_pod_basis.calls``, ``spectral.project_onto_modes.s``,
  ``inversion.add_noise.s`` and ``serialize.write.s`` move ``runs_per_s``
  on noise_study; stretch_source should not move.
* ``reduced.spod_matrix.calls``,
  ``inversion.tikhonov_gradient_descent_reduced.s`` and
  ``inversion.gd_iterations`` move ``run_s_p50`` on gradient_backward only.
* ``inversion.denoise.s`` moves stretch_source and noise_study, not
  gradient_backward.
* Any memo shows in ``peak_rss_mb`` on all three workloads.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from typing import Dict, List, Tuple

import numpy as np

ROOT_SPAN = "experiment.run_experiment"

# (defining module, function names, lookup sites "module.attr")
SpanSites = Tuple[str, Tuple[str, ...], Tuple[str, ...]]

SPANS: Dict[str, SpanSites] = {
    "grid.build_grid": ("adjpod.grid", ("build_grid",),
                        ("adjpod.experiment.build_grid",)),
    "shapes.make_shape": ("adjpod.shapes", ("make_shape",),
                          ("adjpod.experiment.make_shape",)),
    "fem.assemble_operators": ("adjpod.fem", ("assemble_operators",),
                               ("adjpod.experiment.assemble_operators",)),
    "fem.solve_forward": ("adjpod.fem", ("solve_forward",),
                          ("adjpod.experiment.solve_forward",
                           "adjpod.reduced.solve_forward")),
    "pod.collect_snapshots": ("adjpod.pod", ("collect_snapshots",),
                              ("adjpod.reduced.collect_snapshots",)),
    "pod.compute_pod_basis": ("adjpod.pod", ("compute_pod_basis",),
                              ("adjpod.reduced.compute_pod_basis",)),
    "pod.principal_angles": ("adjpod.pod", ("principal_angles",),
                             ("adjpod.experiment.principal_angles",)),
    "reduced.build_adjoint_pod": ("adjpod.reduced", ("build_adjoint_pod",),
                                  ("adjpod.experiment.build_adjoint_pod",)),
    "reduced.build_traditional_pod": ("adjpod.reduced", ("build_traditional_pod",),
                                      ("adjpod.experiment.build_traditional_pod",)),
    "reduced.build_reduced_model": ("adjpod.reduced", ("build_reduced_model",),
                                    ("adjpod.experiment.build_reduced_model",)),
    "reduced.reduced_solve": ("adjpod.reduced", ("reduced_solve",),
                              ("adjpod.experiment.reduced_solve",)),
    "reduced.spod_matrix": ("adjpod.reduced", ("spod_matrix",),
                            ("adjpod.experiment.spod_matrix",
                             "adjpod.inversion.spod_matrix",
                             "adjpod.reduced.spod_matrix")),
    "inversion.add_noise": ("adjpod.inversion", ("add_noise",),
                            ("adjpod.inversion.add_noise",)),
    "inversion.h2_norm_estimate": ("adjpod.inversion", ("h2_norm_estimate",),
                                   ("adjpod.inversion.h2_norm_estimate",)),
    "inversion.denoise": ("adjpod.inversion", ("denoise",),
                          ("adjpod.inversion.denoise",)),
    "inversion.tikhonov_direct_reduced": (
        "adjpod.inversion", ("tikhonov_direct_reduced",),
        ("adjpod.inversion.tikhonov_direct_reduced",)),
    "inversion.tikhonov_gradient_descent_reduced": (
        "adjpod.inversion", ("tikhonov_gradient_descent_reduced",),
        ("adjpod.inversion.tikhonov_gradient_descent_reduced",)),
    "spectral.project_onto_modes": ("adjpod.spectral", ("project_onto_modes",),
                                    ("adjpod.experiment.project_onto_modes",)),
    ROOT_SPAN: ("adjpod.experiment", ("run_experiment",),
                ("adjpod.run_experiment",)),
    "experiment.auto_lambda": ("adjpod.experiment", ("auto_lambda",),
                               ("adjpod.experiment.auto_lambda",)),
    "experiment.hminus1_surrogate_error": (
        "adjpod.experiment", ("hminus1_surrogate_error",),
        ("adjpod.experiment.hminus1_surrogate_error",)),
    "serialize.write": ("adjpod.serialize",
                        ("write_field_csv", "write_json", "write_matrix_csv",
                         "write_measurements_csv", "write_pod_basis",
                         "write_reduced_model"),
                        tuple(f"adjpod.serialize.{name}" for name in
                              ("write_field_csv", "write_json", "write_matrix_csv",
                               "write_measurements_csv", "write_pod_basis",
                               "write_reduced_model"))),
}

class TraceError(RuntimeError):
    """The trace no longer matches the program it wraps."""


def _resolve(site: str):
    module_name, attr = site.rsplit(".", 1)
    module = importlib.import_module(module_name)
    if not hasattr(module, attr):
        raise TraceError(f"traced name {site} is missing")
    return module, attr


def _digest(*parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.digest()


def _operators_digest(ops) -> bytes:
    return _digest(*(getattr(mat, field) for mat in (ops.mass, ops.stiffness)
                     for field in ("data", "indices", "indptr")))


class _Frame:
    __slots__ = ("child", "excluded")

    def __init__(self):
        self.child = 0.0      # duration of the spans called from this one
        self.excluded = 0.0   # tracer bookkeeping inside this span


class Tracer:
    """Installs span wrappers; ``uninstall`` restores the original bindings."""

    def __init__(self, spans: Dict[str, SpanSites] = SPANS, root: str = ROOT_SPAN):
        self.spans = spans
        self.root = root
        self._stack: List[_Frame] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._signatures: Dict[str, inspect.Signature] = {}
        self.self_s = {name: 0.0 for name in spans}
        self.calls = {name: 0 for name in spans}
        self.root_s = 0.0
        self.steps = 0
        self.solve_digests = set()
        self.bases_used = 0
        self._run_bases: Dict[int, object] = {}
        self.gd_iterations = 0

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        try:
            for name, (home, functions, sites) in self.spans.items():
                home_module = importlib.import_module(home)
                expected = [getattr(home_module, fn, None) for fn in functions]
                for site in sites:
                    module, attr = _resolve(site)
                    original = getattr(module, attr)
                    if original not in expected:
                        raise TraceError(
                            f"traced name {site} no longer refers to "
                            f"{home}.{'/'.join(functions)}")
                    self._signatures[site] = inspect.signature(original)
                    setattr(module, attr, self._wrap(name, site, original))
                    self._patched.append((module, attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, site: str, fn):
        clock = time.perf_counter

        def span(*args, **kwargs):
            enter = clock()
            frame = _Frame()
            if name == self.root and not self._stack:
                self._run_bases.clear()
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, enter, start, clock())
                raise
            end = clock()
            self._observe(name, site, args, kwargs, result)
            self._close(name, frame, enter, start, end)
            return result

        return functools.wraps(fn)(span)

    def _close(self, name: str, frame: _Frame, enter: float, start: float,
               end: float) -> None:
        """Book one finished span and hand its cost to the enclosing one."""
        self._stack.pop()
        duration = (end - start) - frame.excluded
        self.calls[name] += 1
        self.self_s[name] += duration - frame.child
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            parent.excluded += frame.excluded + (start - enter) + \
                (time.perf_counter() - end)
        elif name == self.root:
            self.root_s += duration
            self._run_bases.clear()

    # -- counters ----------------------------------------------------------

    def _observe(self, name, site, args, kwargs, result) -> None:
        if name == "fem.solve_forward":
            bound = self._signatures[site].bind(*args, **kwargs).arguments
            ops, tg = bound["ops"], bound["tg"]
            self.steps += tg.M
            self.solve_digests.add(_digest(_operators_digest(ops), tg.dt, tg.M,
                                           np.asarray(bound["f"], dtype=float),
                                           np.asarray(bound["g"], dtype=float)))
        elif name == "pod.compute_pod_basis":
            self._run_bases[id(result)] = result
        elif name == "reduced.build_reduced_model":
            basis = self._signatures[site].bind(*args, **kwargs).arguments["basis"]
            if self._run_bases.pop(id(basis), None) is basis:
                self.bases_used += 1
        elif name == "inversion.tikhonov_gradient_descent_reduced":
            self.gd_iterations += len(result[1]) - 1

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics accumulated since ``install``."""
        out: Dict[str, float] = {}
        for name in self.spans:
            out[f"{name}.s"] = self.root_s if name == self.root else self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        solve_s = self.self_s.get("fem.solve_forward", 0.0)
        out["fem.steps"] = self.steps
        out["fem.step_us"] = 1e6 * solve_s / self.steps if self.steps else 0.0
        solves = self.calls.get("fem.solve_forward", 0)
        built = self.calls.get("pod.compute_pod_basis", 0)
        out["fem.distinct_solve_ratio"] = (len(self.solve_digests) / solves
                                           if solves else 0.0)
        out["reduced.useful_basis_ratio"] = self.bases_used / built if built else 0.0
        out["inversion.gd_iterations"] = self.gd_iterations
        out["experiment.self_s"] = self.self_s.get(self.root, 0.0)
        return out

    def check_active(self, idle_spans) -> None:
        """Raise if a span this workload must enter recorded no call."""
        silent = sorted(name for name in self.spans
                        if name not in idle_spans and self.calls[name] == 0)
        if silent:
            raise TraceError("declared spans recorded zero calls: " + ", ".join(silent))
