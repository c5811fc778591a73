"""Command-line front end.

Subcommands cover the individual pipeline pieces (``forward``,
``adjoint-pod``, ``denoise``, ``invert``), the analytic cross-checks
(``verify-theory``), the named experiment presets (``run-example``), and a
parallel configuration sweep (``sweep``).  Every command exits 0 exactly
when the checks it asserts all pass.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

import numpy as np

from . import inversion, serialize
from .experiment import (_CONFIG_KEYS, DEFAULT_T, EXAMPLE_LABELS, STUDY_SCALE,
                         ExperimentConfig, StageError, _nonzero_shape, _pod_size,
                         _parsed, build_problem, load_config, run_example,
                         run_experiment)
from .reduced import ORTHO_TOL, build_adjoint_pod, drive
from .shapes import list_shapes
from .spectral import ProblemKind, SpectralCoefficients, distinct_mu_subset, mode_table
from .verify import build_theory_matrices, pod_bound_report, verify_span_equality

_PASS = "PASS"
_FAIL = "FAIL"


def _report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"{_PASS if ok else _FAIL}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _add_full_scale_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--full-scale", action="store_true",
                   help="use the {nx}x{ny}, M={M} study scale instead of the "
                        "{desk.nx}x{desk.ny}, M={desk.M} default".format(
                            desk=ExperimentConfig, **STUDY_SCALE))


def _add_coefficient_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", default=ExperimentConfig.q, help="diffusion coefficient spec")
    p.add_argument("--c", default=ExperimentConfig.c, help="reaction coefficient spec")


def _add_grid_time_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nx", type=int, default=None, help="grid points along x")
    p.add_argument("--ny", type=int, default=None, help="grid points along y")
    p.add_argument("--T", type=float, default=None, help="final time")
    p.add_argument("--M", type=int, default=None, help="number of time steps")
    _add_coefficient_flags(p)
    _add_full_scale_flag(p)


def _scale(args) -> dict:
    """The config fields ``--full-scale`` sets: the study scale, or none."""
    return STUDY_SCALE if args.full_scale else {}


def _grid_time_from(args) -> tuple:
    # an explicit size wins over the scale, the scale over the config default
    nx, ny, m = (getattr(args, name) if getattr(args, name) is not None
                 else _scale(args).get(name, getattr(ExperimentConfig, name))
                 for name in ("nx", "ny", "M"))
    return build_problem(args.kind, nx, ny, args.T, m, args.q, args.c)


def _field_from(spec: str, grid, flag: str, what: str):
    """A field argument is a shape name or a path to a field CSV; ``what``
    names the field's role in the error raised for an unreadable file, and
    ``flag`` the option in the error raised for a shape that is zero on
    the grid."""
    if os.path.isfile(spec):
        try:
            file_grid, values = serialize.read_field_csv(spec)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from exc
        if file_grid.nx != grid.nx or file_grid.ny != grid.ny:
            raise ValueError(
                f"field file {spec!r} is {file_grid.nx}x{file_grid.ny} "
                f"but the requested grid is {grid.nx}x{grid.ny}")
        return values
    return _nonzero_shape(flag, spec, grid)


# --------------------------------------------------------------------------
# forward
# --------------------------------------------------------------------------

def _cmd_forward(args) -> int:
    kind, grid, ops, tg = _grid_time_from(args)
    data = _field_from(args.input, grid, "--input",
                       "source term" if kind is ProblemKind.INVERSE_SOURCE
                       else "initial state")
    traj = drive(kind, data, ops, tg, steps=[tg.M])
    os.makedirs(args.out, exist_ok=True)
    serialize.write_field_csv(os.path.join(args.out, "input.csv"), grid, data)
    serialize.write_field_csv(os.path.join(args.out, "final_state.csv"),
                              grid, traj.final)
    serialize.write_json(os.path.join(args.out, "forward.json"), {
        "kind": kind.value, "nx": grid.nx, "ny": grid.ny,
        "T": tg.T, "M": tg.M,
        "input_l2_norm": ops.norm(data),
        "final_l2_norm": ops.norm(traj.final),
    })
    ok = _report("forward solve produced a finite final state",
                 bool(np.all(np.isfinite(traj.final))),
                 f"final L2 norm {ops.norm(traj.final):.6g}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# adjoint-pod
# --------------------------------------------------------------------------

def _cmd_adjoint_pod(args) -> int:
    kind, grid, ops, tg = _grid_time_from(args)
    data = _field_from(args.data, grid, "--data", "measurement field")
    basis = build_adjoint_pod(kind, data, ops, tg, max_snapshots=args.max_snapshots,
                              **_pod_size(args.n_pod, args.energy))
    os.makedirs(args.out, exist_ok=True)
    serialize.write_pod_basis(args.out, basis)
    gram = basis.coefficients(basis.psi)
    drift = float(np.max(np.abs(gram - np.eye(basis.n_pod))))
    ok = _report("basis is orthonormal in the mass inner product",
                 drift <= ORTHO_TOL, f"max Gram drift {drift:.3e}")
    ok &= _report("tail energy ratio is finite and in [0, 1]",
                  0.0 <= basis.rho <= 1.0, f"rho {basis.rho:.3e}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# denoise
# --------------------------------------------------------------------------

def _cmd_denoise(args) -> int:
    # denoising is stationary: the kind and time grid go unused
    _, grid, ops, _ = build_problem("source", args.nx, args.ny, None, 1, args.q, args.c)
    detectors, readings = serialize.read_measurements_csv(args.measurements)
    if not readings.size:
        raise ValueError(f"{args.measurements}: need at least one detector")
    ms = inversion.MeasurementSet(
        detectors=detectors, readings=readings,
        sigma=args.sigma if args.sigma is not None else 0.0)
    if args.alpha == "auto":
        if args.sigma is None:
            raise ValueError("--alpha auto needs --sigma (the noise scale)")
        pilot = inversion.denoise(ms, grid, 1e-6)
        smoothness = inversion.h2_norm_estimate(grid, ops, pilot)
        alpha = inversion.select_alpha(args.sigma, ms.n, smoothness)
    else:
        alpha = _parsed(float, args.alpha)
        if alpha is None or alpha <= 0:
            raise ValueError(f"--alpha takes 'auto' or a positive number, got {args.alpha!r}")
    fitted = inversion.nonzero_denoise("--alpha", ms, ops, alpha)
    os.makedirs(args.out, exist_ok=True)
    serialize.write_field_csv(os.path.join(args.out, "denoised.csv"), grid, fitted)
    serialize.write_json(os.path.join(args.out, "denoise.json"), {
        "alpha": alpha, "n_detectors": ms.n,
        "fitted_min": float(fitted.min()), "fitted_max": float(fitted.max()),
    })
    ok = _report("denoised field is finite", bool(np.all(np.isfinite(fitted))),
                 f"alpha {alpha:.6g}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# invert
# --------------------------------------------------------------------------

def _cmd_invert(args) -> int:
    # the scale comes first, so the user's --set overrides win over it
    overrides = [f"{_CONFIG_KEYS[name]}={value}" for name, value in _scale(args).items()]
    overrides += args.set or []
    cfg = load_config(args.config, tuple(overrides))
    out = args.out if args.out is not None else cfg.out_dir
    metrics = run_experiment(cfg, out)
    err = metrics["recovery"]["rel_l2_error"]
    ok = _report("pipeline completed with a finite recovery error",
                 bool(np.isfinite(err)), f"relative L2 error {err:.6g}")
    print(f"artifacts in {out}")
    return 0 if ok else 1


# --------------------------------------------------------------------------
# verify-theory
# --------------------------------------------------------------------------

def _cmd_verify_theory(args) -> int:
    kinds = ([ProblemKind.INVERSE_SOURCE, ProblemKind.BACKWARD]
             if args.kind == "both" else [ProblemKind.parse(args.kind)])
    try:
        levels = [int(tok) for tok in args.levels.split(",")]
    except ValueError:
        raise ValueError(f"--levels must be comma-separated positive integers, "
                         f"got {args.levels!r}") from None
    # the analytic oracle problem (q = 1, c = 0); kind and time grid go unused
    _, grid, ops, _ = build_problem("source", args.nx, args.ny, None, 1, "1.0", "0.0")
    all_ok = True
    records = []
    for kind in kinds:
        t_final = args.T if args.T is not None else DEFAULT_T[kind]
        for level in levels:
            # the first distinct-eigenvalue modes, with amplitudes mu_k
            table = mode_table(2 * level + 8)
            subset = distinct_mu_subset(SpectralCoefficients(table, np.ones(len(table))),
                                        level, warn=False)
            coeffs = SpectralCoefficients(subset.modes, subset.mus)
            tm = build_theory_matrices(kind, level, level, t_final, coeffs, grid)
            span = verify_span_equality(tm)
            bound = pod_bound_report(tm, ops)
            label = f"kind={kind.value} L=M={level}"
            all_ok &= _report(
                f"span equality holds ({label})",
                span["pass"] and span["residual_data_to_forward"] <= 1e-8,
                f"ranks {span['rank_forward']}/{span['rank_data_driven']}/"
                f"{span['rank_joint']}, residual "
                f"{span['residual_data_to_forward']:.3e}")
            all_ok &= _report(
                f"full-rank basis captures forward snapshots ({label})",
                bound["pass"], f"projection error {bound['full_rank_lhs']:.3e}")
            records.append({"kind": kind.value, "level": level, "T": t_final,
                            "span": span, "bound": {
                                "full_rank_lhs": bound["full_rank_lhs"],
                                "bound_factor": bound["bound_factor"],
                                "table": bound["table"]}})
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        serialize.write_json(os.path.join(args.out, "verify_theory.json"),
                             {"records": records, "passed": bool(all_ok)})
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# run-example
# --------------------------------------------------------------------------

def _cmd_run_example(args) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    base = ExperimentConfig(**_scale(args), **seed)
    out = args.out if args.out is not None else f"example_{args.label}"
    summary = run_example(args.label, out, base)
    for check in summary["checks"]:
        _report(f"example {args.label}: {check['name']}", check["passed"],
                str(check["detail"]))
    print(f"artifacts in {out}")
    return 0 if summary["passed"] else 1


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _sweep_one(job) -> tuple:
    path, overrides, out_dir = job
    try:
        cfg = load_config(path, overrides)
        metrics = run_experiment(cfg, out_dir)
        return (path, True, metrics["recovery"]["rel_l2_error"], "")
    except Exception as exc:          # noqa: BLE001 - reported to the caller
        return (path, False, float("nan"), f"{type(exc).__name__}: {exc}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one (``taskset`` narrows it), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    overrides = tuple(args.set or [])
    jobs, owner = [], {}
    for path in args.configs:
        out_dir = os.path.join(args.out, os.path.splitext(os.path.basename(path))[0])
        if out_dir in owner:
            raise ValueError(f"configs {owner[out_dir]} and {path} share output {out_dir}")
        owner[out_dir] = path
        jobs.append((path, overrides, out_dir))
    workers = min(args.jobs, len(jobs))
    if workers == 1:
        results = [_sweep_one(job) for job in jobs]
    else:
        # a forked pool starts all its workers at the first submit: one per config
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    all_ok = True
    rows = []
    for path, ok, err, message in results:
        all_ok &= _report(f"sweep config {path}", ok,
                          f"error {err:.6g}" if ok else message)
        rows.append({"config": path, "ok": ok, "rel_l2_error": err,
                     "message": message})
    os.makedirs(args.out, exist_ok=True)
    serialize.write_json(os.path.join(args.out, "sweep.json"),
                         {"runs": rows, "passed": bool(all_ok)})
    return 0 if all_ok else 1


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjpod",
        description="Data-driven POD reduction for parabolic inverse problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="full-order forward solve")
    p.add_argument("--kind", default=ExperimentConfig.kind,
                   choices=["source", "backward"])
    p.add_argument("--input", required=True,
                   help=f"shape name ({', '.join(list_shapes())}) or field CSV")
    p.add_argument("--out", default="forward_out")
    _add_grid_time_flags(p)
    p.set_defaults(handler=_cmd_forward)

    p = sub.add_parser("adjoint-pod", help="build a data-driven POD basis")
    p.add_argument("--kind", default=ExperimentConfig.kind,
                   choices=["source", "backward"])
    p.add_argument("--data", required=True, help="measured field CSV or shape name")
    p.add_argument("--n-pod", type=int, default=ExperimentConfig.n_pod)
    p.add_argument("--energy", type=float, default=None,
                   help="tail-energy tolerance (overrides --n-pod)")
    p.add_argument("--max-snapshots", type=int, default=ExperimentConfig.max_snapshots)
    p.add_argument("--out", default="adjoint_pod_out")
    _add_grid_time_flags(p)
    p.set_defaults(handler=_cmd_adjoint_pod)

    p = sub.add_parser("denoise", help="fit a smooth field to noisy detectors")
    p.add_argument("--measurements", required=True, help="detector CSV")
    p.add_argument("--nx", type=int, default=ExperimentConfig.nx)
    p.add_argument("--ny", type=int, default=ExperimentConfig.ny)
    _add_coefficient_flags(p)
    p.add_argument("--alpha", default=ExperimentConfig.alpha,
                   help="smoothing weight, or 'auto' (needs --sigma)")
    p.add_argument("--sigma", type=float, default=None,
                   help="noise scale used by the automatic alpha rule")
    p.add_argument("--out", default="denoise_out")
    p.set_defaults(handler=_cmd_denoise)

    p = sub.add_parser("invert", help="full measurement-to-recovery pipeline")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--out", default=None)
    _add_full_scale_flag(p)
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("verify-theory", help="analytic span/bound cross-checks")
    p.add_argument("--kind", default="both", choices=["source", "backward", "both"])
    p.add_argument("--levels", default="2,4,6",
                   help="comma-separated mode counts (L=M)")
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--nx", type=int, default=ExperimentConfig.nx)
    p.add_argument("--ny", type=int, default=ExperimentConfig.ny)
    p.add_argument("--out", default=None, help="directory for the JSON report")
    p.set_defaults(handler=_cmd_verify_theory)

    p = sub.add_parser("run-example", help="named experiment preset")
    p.add_argument("label", choices=list(EXAMPLE_LABELS))
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_full_scale_flag(p)
    p.set_defaults(handler=_cmd_run_example)

    p = sub.add_parser("sweep", help="run several configs in parallel")
    p.add_argument("configs", nargs="+", help="INI config files")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override applied to every config (repeatable)")
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--jobs", type=int, default=_usable_cpus(),
                   help="worker processes, at most one per config "
                        "(default: the CPUs this process may use)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (StageError, ValueError, OSError) as exc:
        print(f"{_FAIL}  {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
