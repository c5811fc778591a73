"""End-to-end experiment pipeline and its flat-file configuration.

A run synthesizes the truth, solves the full-order problem, samples
detectors, adds noise, denoises, builds the requested POD basis, reduces,
inverts, and emits plain-text artifacts (fields as CSV, metrics as JSON)
into one output directory.  Failures are tagged with the pipeline stage;
artifacts written before the failure are kept.

Work that does not depend on the measurement noise is done once per
process: ``build_problem`` keeps the last few problems (grid, operators,
time grid), ``fem`` keeps the time-step factorizations of the last few
(operators, dt) pairs, and the truth stage (truth field, its final state,
the inverse-crime basis, and once a run has asked for them the two
fields' CSV texts and the final state's smoothness estimate) is kept for
the most recent arguments, and so is the detector layout (its nodes,
quasi-uniformity and ``measurements.csv`` template).  Each key holds every
input of its result.  Both POD bases come from ``reduced``: the truth
stage passes the truth's ``snapshot_set`` to ``build_traditional_pod``, and
the basis stage calls ``build_adjoint_pod`` on the measured (or a foreign)
field.
"""

from __future__ import annotations

import configparser
import contextlib
import functools
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

import numpy as np

from . import inversion, serialize
from .fem import CoefficientSet, TimeGrid, assemble_operators
from .fem import solve_forward  # noqa: F401 - traced by perfbench/spans.py
from .grid import DOMAIN_SIDE, Grid2D, build_grid
from .pod import MAX_SNAPSHOTS, PodBasis, principal_angles
from .reduced import (build_adjoint_pod, build_reduced_model, build_traditional_pod,
                      reduced_solve, snapshot_set)
from .reduced import spod_matrix  # noqa: F401 - traced by perfbench/spans.py
from .shapes import list_shapes, make_shape
from .spectral import ProblemKind, project_onto_modes

_DESK_SIDE = 33     # grid nodes per side at the default (desk) scale
# the larger scale of the CLI's --full-scale, as ExperimentConfig fields
STUDY_SCALE = {"nx": 51, "ny": 51, "M": 400}
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


@contextlib.contextmanager
def _stage(name: str, clock: Optional[dict] = None):
    """Tag a failure inside the block with stage ``name``; a failure that
    already carries its stage passes through.  When the block succeeds,
    its wall time in seconds goes to ``clock[name]`` if a clock is given."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    if clock is not None:
        clock[name] = time.perf_counter() - start


def _parsed(parse, raw, failed=None):
    """parse(raw), or ``failed`` when raw does not parse."""
    try:
        return parse(raw)
    except (TypeError, ValueError):
        return failed


def parse_coefficient(spec: str):
    """A coefficient spec is a float literal or a named profile."""
    value = _NAMED_COEFFS.get(spec, _parsed(float, spec))
    if value is None:
        raise ValueError(f"unknown coefficient spec {spec!r}; "
                         f"use a number or one of: {', '.join(sorted(_NAMED_COEFFS))}")
    return value


def _positive(raw) -> bool:
    value = _parsed(float, raw, np.nan)
    return bool(np.isfinite(value) and value > 0)


def _penalty_fits(raw, nx: int, ny: int) -> bool:
    """Whether the denoise penalty of weight ``raw`` stays finite on an
    nx x ny grid: alpha * hx*hy * max|B^T B|, its largest entry, with B the
    five-point Laplacian and max|B^T B| = (2/hx^2 + 2/hy^2)^2 + 2/hx^4 + 2/hy^4.
    A weight that is no positive number, or a grid under 3 x 3, fails its
    own rule and passes this one."""
    if not _positive(raw) or min(nx, ny) < 3:
        return True
    hx, hy = DOMAIN_SIDE / (nx - 1), DOMAIN_SIDE / (ny - 1)
    ax, ay = 1.0 / (hx * hx), 1.0 / (hy * hy)
    centre = 2.0 * (ax + ay)
    largest = centre * centre + 2.0 * (ax * ax + ay * ay)
    return bool(np.isfinite(float(raw) * hx * hy * largest))


def _stiffness_fits(raw, nx: int, ny: int) -> bool:
    """Whether the stiffness matrix of a constant diffusion coefficient
    ``raw`` stays finite on an nx x ny grid.  Assembly forms the element
    scale q / (4 * area) = q / (2 hx hy), and the largest assembled entry is
    the diagonal 2 q (hx/hy + hy/hx) at an interior node.  A coefficient
    that is no positive number, or a grid under 3 x 3, fails its own rule
    and passes this one."""
    if not _positive(raw) or min(nx, ny) < 3:
        return True
    hx, hy = DOMAIN_SIDE / (nx - 1), DOMAIN_SIDE / (ny - 1)
    largest = max(0.5, 2.0 * (hx * hx + hy * hy)) / (hx * hy)
    return bool(np.isfinite(float(raw) * largest))


def _non_negative(raw) -> bool:
    value = _parsed(float, raw, np.nan)
    return bool(np.isfinite(value) and value >= 0)


def _ini(address: str, default):
    """A config field that the INI key ``address`` (``section.key``) sets."""
    return field(default=default, metadata={"ini": address})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one pipeline run; each field carries its INI
    ``section.key`` address, from which the config schema is built."""

    kind: str = _ini("problem.kind", "source")
    truth: str = _ini("problem.truth", "sin2")
    nx: int = _ini("grid.nx", _DESK_SIDE)
    ny: int = _ini("grid.ny", _DESK_SIDE)
    T: Optional[float] = _ini("time.t", None)   # default depends on the problem kind
    M: int = _ini("time.m", 100)
    q: str = _ini("coefficients.q", "1.0")
    c: str = _ini("coefficients.c", "0.0")
    noise: float = _ini("measurement.noise", 0.0)
    seed: int = _ini("measurement.seed", 0)
    detectors: str = _ini("measurement.detectors", "50x50")
    alpha: str = _ini("measurement.alpha", "auto")
    basis: str = _ini("pod.basis", "adjoint")  # adjoint | traditional | foreign:<shape>
    n_pod: int = _ini("pod.n_pod", 9)
    energy: Optional[float] = _ini("pod.energy", None)  # overrides n_pod when set
    max_snapshots: int = _ini("pod.max_snapshots", MAX_SNAPSHOTS)
    lam: str = _ini("inverse.lambda", "auto")
    beta: Optional[float] = _ini("inverse.beta", inversion.InverseConfig.beta)
    max_iters: int = _ini("inverse.max_iters", inversion.InverseConfig.max_iters)
    grad_tol: Optional[float] = _ini("inverse.grad_tol", inversion.InverseConfig.grad_tol)
    mode: str = _ini("inverse.mode", "direct")
    out_dir: str = _ini("output.dir", "artifacts")

    def __post_init__(self):
        profiles, shapes = ", ".join(sorted(_NAMED_COEFFS)), ", ".join(list_shapes())
        # (field, holds, rule); a failure names the field's INI key
        for name, holds, rule in (
            ("kind", _parsed(ProblemKind.parse, self.kind) is not None,
             "problem kind must be 'source' or 'backward'"),
            ("truth", self.truth in list_shapes(), f"shape must be one of: {shapes}"),
            ("nx", self.nx >= 3, "grid needs at least 3 points along x"),
            ("ny", self.ny >= 3, "grid needs at least 3 points along y"),
            ("M", self.M >= 1, "number of time steps must be >= 1"),
            ("T", self.T is None or _positive(self.T),
             "final time must be finite and positive"),
            ("q", self.q in _NAMED_COEFFS or _positive(self.q),
             f"diffusion coefficient q must be a finite number > 0 or one of: {profiles}"),
            ("q", self.q in _NAMED_COEFFS or _stiffness_fits(self.q, self.nx, self.ny),
             f"diffusion coefficient q overflows the stiffness matrix on a "
             f"{self.nx}x{self.ny} grid"),
            ("c", self.c in _NAMED_COEFFS or _non_negative(self.c),
             f"reaction coefficient c must be a finite number >= 0 or one of: {profiles}"),
            ("noise", _non_negative(self.noise), "noise level must be finite and >= 0"),
            ("detectors", _parsed(parse_detector_spec, self.detectors) is not None,
             "detector layout must look like '50x50', with counts >= 1"),
            ("n_pod", self.n_pod >= 1, "POD mode count must be >= 1"),
            ("energy", self.energy is None or _non_negative(self.energy),
             "energy tolerance must be finite and >= 0"),
            ("max_snapshots", self.max_snapshots >= 3 and self.max_snapshots % 2 == 1,
             "snapshot budget must be odd and >= 3"),
            ("basis", self.basis in ["adjoint", "traditional"] +
             [f"foreign:{shape}" for shape in list_shapes()],
             f"basis source must be adjoint, traditional or foreign:<shape> with "
             f"<shape> one of: {shapes}"),
            ("beta", self.beta is None or _positive(self.beta),
             "step size must be finite and positive"),
            ("max_iters", self.max_iters >= 1, "iteration cap must be >= 1"),
            ("grad_tol", self.grad_tol is None or _non_negative(self.grad_tol),
             "gradient tolerance must be finite and >= 0"),
            ("mode", self.mode in ("direct", "gradient"),
             "inversion mode must be direct or gradient"),
            ("seed", self.seed >= 0, "noise seed must be >= 0"),
            ("lam", self.lam == "auto" or _non_negative(self.lam),
             "Tikhonov weight lam must be 'auto' or a finite number >= 0"),
            ("alpha", self.alpha == "auto" or _positive(self.alpha),
             "denoising weight alpha must be 'auto' or a finite number > 0"),
            ("alpha", self.alpha == "auto" or _penalty_fits(self.alpha, self.nx, self.ny),
             f"denoising weight alpha overflows the denoise normal matrix on a "
             f"{self.nx}x{self.ny} grid"),
        ):
            if not holds:
                raise ValueError(f"{_CONFIG_KEYS[name]}: {rule}, got {getattr(self, name)}")

    @property
    def final_time(self) -> float:
        return self.T if self.T is not None else DEFAULT_T[ProblemKind.parse(self.kind)]

    def to_dict(self) -> dict:
        """The fields that affect a result (all but ``out_dir``), T resolved."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        out["T"] = self.final_time
        return out


# parser of an INI value by the annotation of the field it sets
_PARSERS = {"str": str, "int": int, "float": float, "Optional[float]": float}
# (section, key) -> (config field, parser); keys are lowercase (INI style)
_CONFIG_SCHEMA = {tuple(f.metadata["ini"].split(".")): (f.name, _PARSERS[f.type])
                  for f in fields(ExperimentConfig)}
# config field -> its "section.key" name, for error messages
_CONFIG_KEYS = {f.name: f.metadata["ini"] for f in fields(ExperimentConfig)}


def load_config(path: Optional[str] = None,
                overrides: Tuple[str, ...] = ()) -> ExperimentConfig:
    """Config from an INI-style file plus ``section.key=value`` overrides.

    Unknown sections or keys fail fast rather than being ignored, and a
    file that is no valid INI or sets a key under ``[DEFAULT]`` fails with a
    ValueError naming it.  Values are taken literally: ``%`` has no
    interpolation meaning.
    """
    entries = []    # (section, key, raw value); overrides come last and win
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc
        # configparser folds [DEFAULT] into every section, where its keys
        # would apply or fail under a section they were never written in
        if parser.defaults():
            key = next(iter(parser.defaults()))
            raise ValueError(f"{path}: unknown config key [DEFAULT] {key}")
        entries = [(section, key, raw) for section in parser.sections()
                   for key, raw in parser.items(section)]
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ValueError(f"override {item!r} must look like section.key=value")
        spot, raw = item.split("=", 1)
        # stripped as configparser strips the keys and values of an INI line
        entries.append((*(part.strip() for part in spot.split(".", 1)), raw.strip()))
    updates = {}
    for section, key, raw in entries:
        spot = (section.lower(), key.lower())
        if spot not in _CONFIG_SCHEMA:
            raise ValueError(f"unknown config key [{section}] {key}")
        name, cast = _CONFIG_SCHEMA[spot]
        try:
            updates[name] = cast(raw)
        except ValueError as exc:
            raise ValueError(f"{_CONFIG_KEYS[name]}: {exc}") from exc
    return ExperimentConfig(**updates)


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


def _quasi_uniformity(xs: np.ndarray, ys: np.ndarray) -> Optional[float]:
    """Fill-to-separation ratio d_max / d_min of the detector lattice xs x ys
    (the sorted columns' x and rows' y values); None below two detectors.

    d_max is the largest distance from a point of the 101 x 101 probe lattice
    on the domain to its nearest detector, d_min the least distance between
    two detectors.  On a product lattice both split by axis, with p the probe
    line:

        d_max^2 = max_p min_i (p - xs_i)^2 + max_p min_j (p - ys_j)^2
        d_min^2 = min of diff(a)^2 over the axes a with two or more entries

    This is exact in floating point, not only in exact arithmetic: rounding
    is monotone, so the least fl(dx^2 + dy^2) over a product set is
    fl(min dx^2 + min dy^2) and its largest value over the probes is the sum
    of the per-axis maxima, and along one sorted axis an adjacent difference
    is the shortest.  A nearest-neighbour query over every probe and
    detector gives the same ratio bit for bit.
    """
    probes = np.linspace(0.0, DOMAIN_SIDE, 101)
    d_max = math.sqrt(sum(float(((probes[:, None] - a) ** 2).min(1).max())
                          for a in (xs, ys)))
    gaps = [float((np.diff(a) ** 2).min()) for a in (xs, ys) if a.size > 1]
    return d_max / math.sqrt(min(gaps)) if gaps else None


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


def hminus1_surrogate_error(ops, recovered: np.ndarray, truth: np.ndarray) -> float:
    """Spectrally weighted (1/sqrt(mu)) relative error over the 64 lowest
    analytic modes — a smoothing-norm surrogate, meaningful on the q=1, c=0
    oracle problem and labeled as such in the metrics."""
    err = project_onto_modes(recovered - truth, ops, 64)
    ref = project_onto_modes(truth, ops, 64)
    w = 1.0 / np.sqrt(err.mus)
    den = np.linalg.norm(ref.values * w)
    return float(np.linalg.norm(err.values * w) / den) if den > 0 else np.inf


def build_problem(kind, nx: int, ny: int, T: Optional[float], M: int,
                  q: str, c: str) -> tuple:
    """(kind, grid, ops, tg) of one problem: the parsed kind, the grid, the
    operators assembled with coefficient specs q and c, and the time grid.
    T = None picks the kind's default final time.

    Memoized per process on these arguments (with T resolved) for the last
    few problems, so equal problems share one grid, one ``ops`` (and so the
    time-step factorizations cached for it) and one ``tg``; their arrays are
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


def _pod_size(n_pod: int, energy: Optional[float]) -> dict:
    """Basis-size selector: the energy tolerance when set, else n_pod modes."""
    return {"energy_tol": energy} if energy is not None else {"n_modes": n_pod}


@dataclass(frozen=True, eq=False)
class TruthStage:
    """What a run derives from the truth alone, the same for every noise
    level, seed, detector layout and inversion setting: the truth field,
    its final state and the inverse-crime basis.

    The CSV texts of the two fields and the smoothness estimate of the
    final state are derived on first use and then kept with the entry, so
    a run that needs none of them pays for none.
    """

    field: np.ndarray
    final: np.ndarray
    traditional: PodBasis

    @functools.cached_property
    def field_csv(self) -> str:
        """The text of ``truth.csv``."""
        return serialize.field_csv(self.traditional.grid, self.field)

    @functools.cached_property
    def final_csv(self) -> str:
        """The text of ``final_state.csv``."""
        return serialize.field_csv(self.traditional.grid, self.final)

    @functools.cached_property
    def smoothness(self) -> float:
        """H2-norm estimate of the final state, read by ``alpha = auto``."""
        return inversion.h2_norm_estimate(self.traditional.grid, self.traditional.ops,
                                          self.final)


def _nonzero_shape(name: str, shape: str, grid: Grid2D) -> np.ndarray:
    """``make_shape(shape, grid)`` for the config field ``name``; a shape
    that is zero at every node of the grid fails naming the field's key."""
    values = make_shape(shape, grid)
    if not np.any(values):
        raise ValueError(f"{_CONFIG_KEYS[name]}: shape {shape!r} is zero at every "
                         f"node of the {grid.nx}x{grid.ny} grid; refine the grid")
    return values


@functools.lru_cache(maxsize=1)
def _truth_stage(problem: tuple, truth: str, max_snapshots: int, n_pod: int,
                 energy: Optional[float]) -> TruthStage:
    """The ``TruthStage`` of the named truth on ``problem`` (the
    ``build_problem`` tuple).

    Kept for the most recent arguments; its arrays are read-only.  The
    forward solve is the truth's ``snapshot_set``, and of its snapshot
    matrix only a copy of the final state outlives this call.  Failures are
    tagged with the stage that raised; the time of a miss falls in the
    run's ``setup``.
    """
    kind, grid, ops, tg = problem
    with _stage("truth"):
        field = _nonzero_shape("truth", truth, grid)
    with _stage("forward"):
        snapshots = snapshot_set(kind, field, ops, tg, max_snapshots)
        if ops.norm(snapshots.states[-1]) == 0.0:
            raise ValueError("the truth's final state underflows to zero: {c}, {q} or {T} "
                             "decay it too far".format(**_CONFIG_KEYS))
    with _stage("basis"):
        traditional = build_traditional_pod(kind, snapshots, **_pod_size(n_pod, energy))
    final = snapshots.states[-1].copy()
    _read_only(field, final, traditional.psi, traditional.eigenvalues)
    return TruthStage(field, final, traditional)


@functools.lru_cache(maxsize=1)
def _detector_layout(grid: Grid2D, spec: str) -> tuple:
    """(nodes, points, quasi-uniformity, measurements CSV template) of the
    detector layout ``spec`` on ``grid``, a ``build_problem`` grid: what a
    run derives from the layout alone.  Kept for the most recent arguments;
    its arrays are read-only."""
    nodes = detector_nodes(grid, spec)
    iy, ix = np.divmod(nodes, grid.nx)
    points = grid.coords[nodes]
    _read_only(nodes, points)
    return (nodes, points,
            _quasi_uniformity(grid.xs[np.unique(ix)], grid.ys[np.unique(iy)]),
            serialize.measurements_template(points))


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Run the full pipeline; returns the metrics record it also writes to
    ``metrics.json``, a function of ``cfg`` alone.  The wall time of each
    stage goes to ``timings.json`` beside it."""
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    stage_s = {}
    with _stage("setup", stage_s):
        problem = build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M, cfg.q, cfg.c)
        hits = _truth_stage.cache_info().hits
        truth_stage = _truth_stage(problem, cfg.truth, cfg.max_snapshots, cfg.n_pod,
                                   cfg.energy)
        forward_reused = _truth_stage.cache_info().hits > hits
    kind, grid, ops, tg = problem
    truth, u_final = truth_stage.field, truth_stage.final
    traditional = truth_stage.traditional

    with _stage("truth", stage_s):
        serialize.write_text(os.path.join(out, "truth.csv"), truth_stage.field_csv)

    with _stage("forward", stage_s):
        serialize.write_text(os.path.join(out, "final_state.csv"), truth_stage.final_csv)

    with _stage("measure", stage_s):
        det_idx, det_pts, quasi_uniformity, csv_template = _detector_layout(
            grid, cfg.detectors)
        ms = inversion.add_noise(det_pts, u_final[det_idx], cfg.noise, cfg.seed)
        serialize.write_measurements_csv(os.path.join(out, "measurements.csv"), ms,
                                         csv_template)
        measurement = {
            "n_detectors": ms.n,
            "noise_level": float(cfg.noise),
            "sigma": ms.sigma,
            "seed": cfg.seed,
            "quasi_uniformity": quasi_uniformity,
            "noise_convention": "sigma = p * max|clean readings|",
        }

    with _stage("denoise", stage_s):
        denoise_info = {"skipped": cfg.noise == 0.0}
        if cfg.noise == 0.0:
            m_field = u_final
            alpha_used = None
        else:
            if cfg.alpha == "auto":
                alpha_used = inversion.select_alpha(ms.sigma, ms.n,
                                                    truth_stage.smoothness)
            else:
                alpha_used = float(cfg.alpha)
            m_field = inversion.denoise(ms, grid, alpha_used)
            if ops.norm(m_field) == 0.0 and np.any(ms.readings):
                raise ValueError(f"{_CONFIG_KEYS['alpha']}={alpha_used:.6g} smooths the "
                                 f"readings to a zero field; lower it")
            denoise_info["rel_l2_error_vs_clean_state"] = relative_l2_error(
                ops, m_field, u_final)
            serialize.write_field_csv(os.path.join(out, "denoised.csv"), grid, m_field)
        denoise_info["alpha"] = alpha_used

    with _stage("basis", stage_s):
        selector = _pod_size(cfg.n_pod, cfg.energy)
        if cfg.basis == "adjoint":
            basis = build_adjoint_pod(kind, m_field, ops, tg,
                                      max_snapshots=cfg.max_snapshots, **selector)
        elif cfg.basis == "traditional":
            basis = traditional
        else:
            shape_name = cfg.basis.split(":", 1)[1]
            driver = _nonzero_shape("basis", shape_name, grid)
            basis = build_adjoint_pod(kind, driver, ops, tg,
                                      max_snapshots=cfg.max_snapshots,
                                      driver_label=f"foreign shape {shape_name!r}",
                                      **selector)
        serialize.write_pod_basis(out, basis)
        angles = principal_angles(basis, traditional)

    with _stage("reduce", stage_s):
        model = build_reduced_model(ops, basis, tg, kind)
        reduced_final, _ = reduced_solve(model, truth)
        serialize.write_reduced_model(os.path.join(out, "reduced_model.csv"), model)

    with _stage("invert", stage_s):
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
                                           grad_tol=cfg.grad_tol)
            f_r, history = inversion.tikhonov_gradient_descent_reduced(model, m_r, icfg)
            iterations = len(history) - 1
        recovered = basis.expand(f_r)
        serialize.write_field_csv(os.path.join(out, "recovered.csv"), grid, recovered)

    with _stage("metrics", stage_s):
        metrics = {
            "config": cfg.to_dict(),
            "kind": kind.value,
            "measurement": measurement,
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
        }
        serialize.write_json(os.path.join(out, "metrics.json"), metrics)
    serialize.write_json(os.path.join(out, "timings.json"),
                         {"forward_reused": forward_reused, "stage_s": stage_s})
    return metrics


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

    problem = build_problem(cfg.kind, cfg.nx, cfg.ny, cfg.T, cfg.M, cfg.q, cfg.c)
    kind, grid, ops, tg = problem
    truth_stage = _truth_stage(problem, cfg.truth, cfg.max_snapshots, cfg.n_pod,
                               cfg.energy)
    truth, m = truth_stage.field, truth_stage.final     # m is zero on the boundary

    source_tg = TimeGrid(T=DEFAULT_T[ProblemKind.INVERSE_SOURCE], M=cfg.M)
    basis = build_adjoint_pod(ProblemKind.INVERSE_SOURCE, m, ops, source_tg,
                              n_modes=cfg.n_pod, max_snapshots=cfg.max_snapshots)
    model = build_reduced_model(ops, basis, tg, kind)
    recovered = inversion.tikhonov_direct(model, m, 1e-10)
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
