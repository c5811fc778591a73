"""End-to-end experiment pipeline and its flat-file configuration.

A run synthesizes the truth, solves the full-order problem, samples
detectors, adds noise, denoises, builds the requested POD basis, reduces,
inverts, and emits plain-text artifacts (fields as CSV, metrics as JSON)
into one output directory.  Failures are tagged with the pipeline stage;
artifacts written before the failure are kept.

Work that does not depend on the measurement noise is done once per
process: ``build_problem`` keeps the last few problems (grid, operators
with their time-step factorizations, time grid), and the truth stage
(truth field, its final state and solve time, the inverse-crime basis) is
kept for the most recent key.  Both keys hold every input of the result.
"""

from __future__ import annotations

import configparser
import functools
import os
import time
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np

from . import inversion, serialize
from .fem import CoefficientSet, TimeGrid, assemble_operators
from .fem import solve_forward  # noqa: F401 - traced by perfbench/spans.py
from .grid import Grid2D, build_grid
from .pod import PodBasis, principal_angles
from .reduced import (build_adjoint_pod, build_reduced_model, build_traditional_pod,
                      drive, reduced_solve)
from .reduced import spod_matrix  # noqa: F401 - traced by perfbench/spans.py
from .shapes import make_shape
from .spectral import ProblemKind, project_onto_modes

DESK_NX = 33
DESK_M = 100
FULL_NX = 51
FULL_M = 400
DEFAULT_T = {ProblemKind.INVERSE_SOURCE: 1.0, ProblemKind.BACKWARD: 0.05}

_NAMED_COEFFS = {
    "varq": lambda x, y: 2.0 + np.sin(x) * np.sin(y),
    "varc": lambda x, y: x * y / np.pi ** 2,
}


class StageError(RuntimeError):
    """A pipeline failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage '{stage}' failed: {original}")
        self.stage = stage
        self.original = original


def parse_coefficient(spec: str):
    """A coefficient spec is a float literal or a named profile."""
    try:
        return float(spec)
    except (TypeError, ValueError):
        pass
    if spec in _NAMED_COEFFS:
        return _NAMED_COEFFS[spec]
    raise ValueError(f"unknown coefficient spec {spec!r}; "
                     f"use a number or one of: {', '.join(sorted(_NAMED_COEFFS))}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one pipeline run."""

    kind: str = "source"
    truth: str = "sin2"
    nx: int = DESK_NX
    ny: int = DESK_NX
    T: Optional[float] = None          # default depends on the problem kind
    M: int = DESK_M
    q: str = "1.0"
    c: str = "0.0"
    noise: float = 0.0
    seed: int = 0
    detectors: str = "50x50"
    alpha: str = "auto"
    basis: str = "adjoint"             # adjoint | traditional | foreign:<shape>
    n_pod: int = 9
    energy: Optional[float] = None     # overrides n_pod when set
    max_snapshots: int = 201
    lam: str = "auto"
    beta: Optional[float] = None
    max_iters: int = 5000
    grad_tol: Optional[float] = None
    mode: str = "direct"
    out_dir: str = "artifacts"

    def __post_init__(self):
        ProblemKind.parse(self.kind)
        if self.nx < 3 or self.ny < 3:
            raise ValueError("grid must have nx, ny >= 3")
        if self.M < 1:
            raise ValueError("need at least one time step")
        if self.noise < 0:
            raise ValueError("noise level must be >= 0")
        if self.mode not in ("direct", "gradient"):
            raise ValueError(f"unknown inversion mode {self.mode!r}")
        if self.basis not in ("adjoint", "traditional") and \
                not self.basis.startswith("foreign:"):
            raise ValueError(f"unknown basis source {self.basis!r}; "
                             "use adjoint, traditional, or foreign:<shape>")
        parse_detector_spec(self.detectors)
        parse_coefficient(self.q)
        parse_coefficient(self.c)
        for name in ("lam", "alpha"):
            raw = getattr(self, name)
            if raw != "auto" and not np.isfinite(float(raw)):
                raise ValueError(f"{name} must be 'auto' or a finite number, got {raw!r}")

    @property
    def problem_kind(self) -> ProblemKind:
        return ProblemKind.parse(self.kind)

    @property
    def final_time(self) -> float:
        return self.T if self.T is not None else DEFAULT_T[self.problem_kind]

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        out["T"] = self.final_time
        return out


# (section, key) -> (config field, parser); keys are lowercase (INI style)
_CONFIG_SCHEMA = {
    ("problem", "kind"): ("kind", str),
    ("problem", "truth"): ("truth", str),
    ("grid", "nx"): ("nx", int),
    ("grid", "ny"): ("ny", int),
    ("time", "t"): ("T", float),
    ("time", "m"): ("M", int),
    ("coefficients", "q"): ("q", str),
    ("coefficients", "c"): ("c", str),
    ("measurement", "noise"): ("noise", float),
    ("measurement", "seed"): ("seed", int),
    ("measurement", "detectors"): ("detectors", str),
    ("measurement", "alpha"): ("alpha", str),
    ("pod", "basis"): ("basis", str),
    ("pod", "n_pod"): ("n_pod", int),
    ("pod", "energy"): ("energy", float),
    ("pod", "max_snapshots"): ("max_snapshots", int),
    ("inverse", "lambda"): ("lam", str),
    ("inverse", "beta"): ("beta", float),
    ("inverse", "max_iters"): ("max_iters", int),
    ("inverse", "grad_tol"): ("grad_tol", float),
    ("inverse", "mode"): ("mode", str),
    ("output", "dir"): ("out_dir", str),
}


def load_config(path: Optional[str] = None, overrides: Tuple[str, ...] = (),
                base: Optional[ExperimentConfig] = None) -> ExperimentConfig:
    """Config from an INI-style file plus ``section.key=value`` overrides.

    Unknown sections or keys fail fast rather than being ignored.
    """
    entries = []    # (section, key, raw value); overrides come last and win
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path) as fh:
            parser.read_file(fh)
        entries = [(section, key, raw) for section in parser.sections()
                   for key, raw in parser.items(section)]
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(f"override {item!r} must look like section.key=value")
        spot, raw = item.split("=", 1)
        entries.append((*spot.split(".", 1), raw))
    updates = {}
    for section, key, raw in entries:
        spot = (section.lower(), key.lower())
        if spot not in _CONFIG_SCHEMA:
            raise ValueError(f"unknown config key [{section}] {key}")
        name, cast = _CONFIG_SCHEMA[spot]
        updates[name] = cast(raw)
    base = base if base is not None else ExperimentConfig()
    return replace(base, **updates) if updates else base


def parse_detector_spec(spec: str) -> Tuple[int, int]:
    parts = str(spec).lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"detector spec {spec!r} must look like '50x50'")
    rows, cols = int(parts[0]), int(parts[1])
    if rows < 1 or cols < 1:
        raise ValueError("detector counts must be >= 1")
    return rows, cols


def detector_nodes(grid: Grid2D, spec: str) -> np.ndarray:
    """Node indices of a uniform interior subgrid, clipped to the mesh."""
    want_y, want_x = parse_detector_spec(spec)
    iy = np.unique(np.rint(np.linspace(1, grid.ny - 2, min(want_y, grid.ny - 2))).astype(int))
    ix = np.unique(np.rint(np.linspace(1, grid.nx - 2, min(want_x, grid.nx - 2))).astype(int))
    return (iy[:, None] * grid.nx + ix[None, :]).ravel()


def relative_l2_error(ops, recovered: np.ndarray, truth: np.ndarray) -> float:
    return ops.norm(recovered - truth) / ops.norm(truth)


def auto_lambda(ms, model) -> float:
    """A-priori Tikhonov weight: squared relative noise level, scaled by
    the reduced solution operator's norm so the induced bias is relative
    to the data scale.  Floored at 1e-10 for noise-free data."""
    scale = float(np.max(np.abs(ms.readings))) if ms.readings.size else 0.0
    if ms.sigma <= 0.0 or scale <= 0.0:
        return 1e-10
    rel_noise = ms.sigma / scale
    s_max = float(np.max(model.spectrum[0]))
    return max(rel_noise ** 2 * s_max ** 2, 1e-10)


def hminus1_surrogate_error(ops, recovered: np.ndarray, truth: np.ndarray,
                            n_modes: int = 64) -> float:
    """Spectrally weighted (1/sqrt(mu)) relative error — a smoothing-norm
    surrogate, meaningful on the q=1, c=0 oracle problem and labeled as
    such in the metrics."""
    err = project_onto_modes(recovered - truth, ops, n_modes)
    ref = project_onto_modes(truth, ops, n_modes)
    w = 1.0 / np.sqrt(err.mus)
    den = np.linalg.norm(ref.values * w)
    return float(np.linalg.norm(err.values * w) / den) if den > 0 else np.inf


def build_problem(kind, nx: int, ny: int, T: Optional[float], M: int,
                  q: str, c: str) -> tuple:
    """(kind, grid, ops, tg) of one problem: the parsed kind, the grid, the
    operators assembled with coefficient specs q and c, and the time grid.
    T = None picks the kind's default final time.

    Memoized per process on these arguments (with T resolved) for the last
    few problems, so equal problems share one grid, one ``ops`` (and the
    time-step factorizations cached on it) and one ``tg``; their arrays are
    read-only."""
    kind = ProblemKind.parse(kind)
    return _problem(kind, nx, ny, T if T is not None else DEFAULT_T[kind], M, q, c)


@functools.lru_cache(maxsize=4)
def _problem(kind: ProblemKind, nx: int, ny: int, T: float, M: int,
             q: str, c: str) -> tuple:
    grid = build_grid(nx, ny)
    coeffs = CoefficientSet(q=parse_coefficient(q), c=parse_coefficient(c))
    ops = assemble_operators(grid, coeffs)
    _read_only(grid.xs, grid.ys, grid.coords, grid.triangles, grid.boundary,
               grid.interior, *(getattr(matrix, part) for matrix in (ops.mass, ops.stiffness)
                                for part in ("data", "indices", "indptr")))
    return kind, grid, ops, TimeGrid(T=T, M=M)


def _read_only(*arrays) -> None:
    for array in arrays:
        array.flags.writeable = False


def _pod_size(cfg: ExperimentConfig) -> dict:
    return {"energy_tol": cfg.energy} if cfg.energy is not None \
        else {"n_modes": cfg.n_pod}


# truth-stage key -> (truth, final state, solve seconds, inverse-crime basis);
# at most one entry
_TRUTH_MEMO: dict = {}


def _truth_stage(cfg: ExperimentConfig, kind: ProblemKind, grid: Grid2D, ops,
                 tg: TimeGrid) -> Tuple[np.ndarray, np.ndarray, float, PodBasis, bool]:
    """(truth, final state, wall time of the forward solve, inverse-crime
    basis, reused): what a run derives from the truth alone, identical for
    every noise level, seed, detector layout and inversion setting.

    Kept for the most recent key (the problem key plus truth, max_snapshots,
    n_pod and energy); its arrays are read-only.  Of the trajectory only the
    final state is kept: the inverse-crime basis holds what later stages
    need of the rest.  ``reused`` is True on a hit, and the solve time is
    then the one measured when it was built.  Failures are tagged with the
    stage that raised.
    """
    key = (kind, cfg.nx, cfg.ny, tg.T, cfg.M, cfg.q, cfg.c,
           cfg.truth, cfg.max_snapshots, cfg.n_pod, cfg.energy)
    held = _TRUTH_MEMO.get(key)
    if held is not None:
        return (*held, True)
    _TRUTH_MEMO.clear()     # one entry at most, also while the next is built
    stage = "truth"
    try:
        truth = make_shape(cfg.truth, grid)
        stage = "forward"
        t0 = time.perf_counter()
        traj = drive(kind, truth, ops, tg)
        solve_s = time.perf_counter() - t0
        stage = "basis"
        traditional = build_traditional_pod(kind, traj, ops,
                                            max_snapshots=cfg.max_snapshots,
                                            **_pod_size(cfg))
    except Exception as exc:
        raise StageError(stage, exc) from exc
    final = traj.final.copy()
    _read_only(truth, final, traditional.psi, traditional.eigenvalues)
    _TRUTH_MEMO[key] = (truth, final, solve_s, traditional)
    return truth, final, solve_s, traditional, False


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Run the full pipeline; returns the metrics record it also writes."""
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    stage = "setup"
    try:
        kind, grid, ops, tg = build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M,
                                            cfg.q, cfg.c)
        truth, u_final, full_solve_s, traditional, forward_reused = _truth_stage(
            cfg, kind, grid, ops, tg)

        stage = "truth"
        serialize.write_field_csv(os.path.join(out, "truth.csv"), grid, truth)

        stage = "forward"
        serialize.write_field_csv(os.path.join(out, "final_state.csv"), grid, u_final)

        stage = "measure"
        det_idx = detector_nodes(grid, cfg.detectors)
        det_pts = grid.coords[det_idx]
        clean = u_final[det_idx]
        ms = inversion.add_noise(det_pts, clean, cfg.noise, cfg.seed)
        serialize.write_measurements_csv(os.path.join(out, "measurements.csv"), ms)
        serialize.write_json(os.path.join(out, "measurements.json"), {
            "n_detectors": ms.n,
            "noise_level": ms.p,
            "sigma": ms.sigma,
            "seed": ms.seed,
            "quasi_uniformity": ms.quasi_uniformity,
            "noise_convention": "sigma = p * max|clean readings|",
        })

        stage = "denoise"
        denoise_info = {"skipped": cfg.noise == 0.0}
        if cfg.noise == 0.0:
            m_field = u_final.copy()
            alpha_used = None
        else:
            if cfg.alpha == "auto":
                smoothness = inversion.h2_norm_estimate(grid, ops, u_final)
                alpha_used = inversion.select_alpha(ms.sigma, ms.n, smoothness)
            else:
                alpha_used = float(cfg.alpha)
            m_field = inversion.denoise(ms, grid, alpha_used)
            denoise_info["rel_l2_error_vs_clean_state"] = relative_l2_error(
                ops, m_field, u_final)
            serialize.write_field_csv(os.path.join(out, "denoised.csv"), grid, m_field)
        m_field[grid.boundary] = 0.0
        denoise_info["alpha"] = alpha_used

        stage = "basis"
        selector = _pod_size(cfg)
        if cfg.basis == "adjoint":
            basis = build_adjoint_pod(kind, m_field, ops, tg,
                                      max_snapshots=cfg.max_snapshots, **selector)
        elif cfg.basis == "traditional":
            basis = traditional
        else:
            shape_name = cfg.basis.split(":", 1)[1]
            driver = make_shape(shape_name, grid)
            basis = build_adjoint_pod(kind, driver, ops, tg,
                                      max_snapshots=cfg.max_snapshots,
                                      driver_label=f"foreign shape {shape_name!r}",
                                      **selector)
        serialize.write_pod_basis(os.path.join(out, "basis"), basis)
        angles = principal_angles(basis, traditional)

        stage = "reduce"
        model = build_reduced_model(ops, basis, tg, kind)
        t0 = time.perf_counter()
        reduced_final, _ = reduced_solve(model, truth)
        reduced_solve_s = time.perf_counter() - t0
        serialize.write_reduced_model(os.path.join(out, "reduced_model"), model)

        stage = "invert"
        if cfg.lam == "auto":
            lam = auto_lambda(ms, model)
        else:
            lam = float(cfg.lam)
        m_r = basis.coefficients(m_field)
        if cfg.mode == "direct":
            f_r = inversion.tikhonov_direct_reduced(model, m_r, lam)
            iterations = 0
        else:
            icfg = inversion.InverseConfig(lam=lam, beta=cfg.beta,
                                           max_iters=cfg.max_iters,
                                           grad_tol=cfg.grad_tol, mode="gradient")
            f_r, history = inversion.tikhonov_gradient_descent_reduced(model, m_r, icfg)
            iterations = len(history) - 1
        recovered = basis.expand(f_r)
        serialize.write_field_csv(os.path.join(out, "recovered.csv"), grid, recovered)

        stage = "metrics"
        metrics = {
            "config": cfg.to_dict(),
            "kind": kind.value,
            "denoise": denoise_info,
            "basis": {
                "source": cfg.basis,
                "n_pod": basis.n_pod,
                "retained_rank": basis.retained_rank,
                "rho": basis.rho,
                "principal_angles_vs_traditional": angles,
                "largest_angle_vs_traditional": float(angles[-1]) if angles.size else 0.0,
            },
            "recovery": {
                "lambda": lam,
                "mode": cfg.mode,
                "iterations": iterations,
                "final_objective": inversion.tikhonov_objective(model, f_r, m_r, lam),
                "rel_l2_error": relative_l2_error(ops, recovered, truth),
                "rel_hminus1_surrogate_error": hminus1_surrogate_error(
                    ops, recovered, truth),
                "error_norm_note": "hminus1 surrogate weights modal coefficients "
                                   "by 1/sqrt(mu) on the analytic mode set",
            },
            "reduced_vs_full": {
                "rel_l2_final_state_gap": relative_l2_error(ops, reduced_final, u_final),
            },
            "timings": {
                "full_solve_s": full_solve_s,
                "forward_reused": forward_reused,
                "reduced_solve_s": reduced_solve_s,
                "speedup": full_solve_s / reduced_solve_s if reduced_solve_s > 0
                           else np.inf,
            },
        }
        serialize.write_json(os.path.join(out, "metrics.json"), metrics)
        return metrics
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


# ---------------------------------------------------------------------------
# Named experiment presets.
#
# Each preset composes one or more pipeline runs, writes per-run artifacts
# under the output root, and returns a summary with explicit pass/fail
# checks.  Labels follow the study numbering used across this project's
# notebooks: 4.1-4.3 are inverse-source studies, 4.4-4.6 are backward
# studies, 4.7 reuses a source-pipeline basis on the backward problem.
# ---------------------------------------------------------------------------

NOISE_PRESETS = (0.10, 0.25, 0.50)


def _check(name: str, passed, detail) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _run(base: ExperimentConfig, out_root: str, tag: str, **changes) -> dict:
    cfg = replace(base, **changes) if changes else base
    return run_experiment(cfg, os.path.join(out_root, tag))


def _recovery_error(metrics: dict) -> float:
    return metrics["recovery"]["rel_l2_error"]


def _example_basis_importance(base, out_root, kind, adjoint_tol):
    """Same data, three bases: adjoint, and two deliberately wrong drivers."""
    common = dict(kind=kind, truth="sin2exp", noise=0.0)
    adj = _run(base, out_root, "adjoint", basis="adjoint", **common)
    sin1 = _run(base, out_root, "foreign_sin1", basis="foreign:sin1", **common)
    glyph = _run(base, out_root, "foreign_glyphA", basis="foreign:glyphA", **common)
    e_adj, e_sin1, e_glyph = map(_recovery_error, (adj, sin1, glyph))
    checks = [
        _check("adjoint-basis recovery error within tolerance",
               e_adj <= adjoint_tol, {"error": e_adj, "tolerance": adjoint_tol}),
        _check("sin1-driven foreign basis at least 5x worse",
               e_sin1 >= 5.0 * e_adj, {"foreign": e_sin1, "adjoint": e_adj}),
    ]
    return {"checks": checks,
            "errors": {"adjoint": e_adj, "foreign_sin1": e_sin1,
                       "foreign_glyphA": e_glyph}}


def _example_basis_comparison(base, out_root, kind, smooth_truth, glyph_truth,
                              smooth_tol, angle_tol):
    """Adjoint basis vs the inverse-crime baseline on a smooth and a glyph
    truth; the smooth case carries the quantitative checks."""
    results = {}
    for truth in (smooth_truth, glyph_truth):
        adj = _run(base, out_root, f"{truth}_adjoint",
                   kind=kind, truth=truth, basis="adjoint", noise=0.0)
        trad = _run(base, out_root, f"{truth}_traditional",
                    kind=kind, truth=truth, basis="traditional", noise=0.0)
        results[truth] = {
            "adjoint_error": _recovery_error(adj),
            "traditional_error": _recovery_error(trad),
            "largest_principal_angle": adj["basis"]["largest_angle_vs_traditional"],
        }
    smooth = results[smooth_truth]
    checks = [
        _check("adjoint-basis recovery error within tolerance",
               smooth["adjoint_error"] <= smooth_tol,
               {"error": smooth["adjoint_error"], "tolerance": smooth_tol}),
        _check("inverse-crime baseline recovery error within tolerance",
               smooth["traditional_error"] <= smooth_tol,
               {"error": smooth["traditional_error"], "tolerance": smooth_tol}),
        _check("glyph-truth recoveries are finite",
               np.isfinite(results[glyph_truth]["adjoint_error"]) and
               np.isfinite(results[glyph_truth]["traditional_error"]),
               results[glyph_truth]),
    ]
    if angle_tol is not None:
        # Compared at the dominant-energy rank; trailing near-degenerate
        # modes are numerically arbitrary and excluded from the assertion.
        probe = _run(base, out_root, f"{smooth_truth}_angle_probe",
                     kind=kind, truth=smooth_truth, basis="adjoint",
                     noise=0.0, energy=1e-10)
        angle = probe["basis"]["largest_angle_vs_traditional"]
        checks.append(_check(
            "largest principal angle vs traditional basis is small",
            angle <= angle_tol, {"angle_rad": angle, "tolerance": angle_tol}))
    return {"checks": checks, "results": results}


def _example_noise_robustness(base, out_root, kind, truth):
    """Recovery under increasing measurement noise with auto-selected
    denoising; asserts what acceptance criterion 8 asserts of its medians:
    finite errors, at most 1 at 50% noise, and no larger at 10% than at
    50%."""
    errors = {}
    for p in NOISE_PRESETS:
        tag = f"noise_{int(round(100 * p)):02d}"
        metrics = _run(base, out_root, tag, kind=kind, truth=truth,
                       basis="adjoint", noise=p, lam="auto")
        errors[f"{p:.2f}"] = _recovery_error(metrics)
    low, high = errors["0.10"], errors["0.50"]
    checks = [
        _check("recovery errors finite at every noise level",
               all(np.isfinite(v) for v in errors.values()), errors),
        _check("recovery error at 50% noise at most 1",
               high <= 1.0, {"error": high, "tolerance": 1.0}),
        _check("recovery error at 10% noise at most the error at 50%",
               low <= high, {"10%": low, "50%": high}),
    ]
    return {"checks": checks, "errors": errors}


def _example_cross_basis(base, out_root):
    """Backward recovery using the basis built by the source-kind
    auxiliary pipeline on the same measured data."""
    cfg = replace(base, kind="backward", truth="glyphA", basis="adjoint",
                  noise=0.0)
    native = run_experiment(cfg, os.path.join(out_root, "native_backward"))

    kind, grid, ops, tg = build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M,
                                        cfg.q, cfg.c)
    truth, m, *_ = _truth_stage(cfg, kind, grid, ops, tg)   # m is zero on the boundary

    source_tg = TimeGrid(T=DEFAULT_T[ProblemKind.INVERSE_SOURCE], M=cfg.M)
    basis = build_adjoint_pod(ProblemKind.INVERSE_SOURCE, m, ops, source_tg,
                              n_modes=cfg.n_pod, max_snapshots=cfg.max_snapshots)
    model = build_reduced_model(ops, basis, tg, kind)
    f_r = inversion.tikhonov_direct_reduced(model, basis.coefficients(m), 1e-10)
    recovered = basis.expand(f_r)
    serialize.write_field_csv(os.path.join(out_root, "cross_recovered.csv"),
                              grid, recovered)

    err_cross = relative_l2_error(ops, recovered, truth)
    err_native = _recovery_error(native)
    checks = [
        _check("source-pipeline basis recovers within 2x of the native basis",
               err_cross <= 2.0 * err_native,
               {"cross": err_cross, "native": err_native}),
    ]
    return {"checks": checks,
            "errors": {"native_backward": err_native,
                       "source_basis_on_backward": err_cross}}


# label -> (preset, its arguments)
_EXAMPLES = {
    "4.1": (_example_basis_importance, dict(kind="source", adjoint_tol=0.10)),
    "4.2": (_example_basis_comparison,
            dict(kind="source", smooth_truth="sin2", glyph_truth="glyphZ",
                 smooth_tol=0.05, angle_tol=0.2)),
    "4.3": (_example_noise_robustness, dict(kind="source", truth="sin2exp")),
    "4.4": (_example_basis_importance, dict(kind="backward", adjoint_tol=0.10)),
    # No angle assertion: backward-kind adjoint snapshots live one
    # propagation interval deeper than the truth trajectory, so even
    # energy-significant modes legitimately drift from the
    # inverse-crime baseline; angles are reported, not asserted.
    "4.5": (_example_basis_comparison,
            dict(kind="backward", smooth_truth="sin2exp", glyph_truth="glyphA",
                 smooth_tol=0.10, angle_tol=None)),
    "4.6": (_example_noise_robustness, dict(kind="backward", truth="sin2")),
    "4.7": (_example_cross_basis, {}),
}
EXAMPLE_LABELS = tuple(_EXAMPLES)


def run_example(label: str, out_root: str,
                base: Optional[ExperimentConfig] = None) -> dict:
    """Run one named preset; returns (and writes) its check summary."""
    if label not in EXAMPLE_LABELS:
        raise ValueError(f"unknown example {label!r}; "
                         f"choose from {', '.join(EXAMPLE_LABELS)}")
    base = base if base is not None else ExperimentConfig()
    os.makedirs(out_root, exist_ok=True)
    preset, kwargs = _EXAMPLES[label]
    summary = preset(base, out_root, **kwargs)
    summary["label"] = label
    summary["passed"] = all(c["passed"] for c in summary["checks"])
    serialize.write_json(os.path.join(out_root, "summary.json"), summary)
    return summary
