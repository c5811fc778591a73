"""One benchmark process: set up, run one batch of a workload, check it.

Started by ``run.py`` with BLAS and OpenMP already pinned to one thread in
its environment.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --root <checkout> --workload <name>
        --seed <n> --spawned-at <monotonic time of the spawn>
        [--setup-only] [--trace] [--out <scratch dir>]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time


def _parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    return ap.parse_args(argv)


def _import_adjpod(root: str):
    """Import the package from the checkout's ``src``, and only from there."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import adjpod
    where = os.path.realpath(adjpod.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"adjpod imported from {where}, not from {src}")
    return adjpod


def _openblas_libraries():
    """(path, threads, config) of every OpenBLAS loaded into this process."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        threads = config = None
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if getter is not None and threads is None:
                    getter.restype = ctypes.c_int
                    threads = getter()
                describe = getattr(lib, f"{prefix}get_config{suffix}", None)
                if describe is not None and config is None:
                    describe.restype = ctypes.c_char_p
                    config = describe().decode()
        found.append({"library": os.path.basename(path), "threads": threads,
                      "config": config})
    return found


def environment(adjpod) -> dict:
    """Machine and library facts recorded next to every result."""
    import platform

    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = _openblas_libraries()
    unpinned = [b for b in blas if b["threads"] not in (None, 1)]
    if unpinned:
        raise RuntimeError(f"BLAS not pinned to one thread: {unpinned}")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "adjpod": adjpod.__version__,
        "openblas": blas,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _tree_size(path: str):
    files = size = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(base, name))
    return files, size


def run_batch(adjpod, workload, raw_configs, configs, out: str, tracer=None) -> dict:
    """Run every config once, in order; a run that raises counts as failed."""
    import resource
    import shutil

    from workloads import error_within_reference, load_references

    references = load_references()
    os.makedirs(out, exist_ok=True)
    run_s, errors, raised = [], [], []
    try:
        start = time.perf_counter()
        for i, cfg in enumerate(configs):
            t0 = time.perf_counter()
            try:
                metrics = adjpod.run_experiment(cfg, os.path.join(out, f"run{i:03d}"))
            except Exception as exc:  # a failed run is counted, not fatal
                raised.append(f"run {i}: {type(exc).__name__}: {exc}")
                errors.append(math.nan)
                continue
            run_s.append(time.perf_counter() - t0)
            errors.append(float(metrics["recovery"]["rel_l2_error"]))
        wall_s = time.perf_counter() - start
        files, size = _tree_size(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    ok = [error_within_reference(raw, e, references)
          for raw, e in zip(raw_configs, errors)]
    if workload.batch_check is not None:
        ok = [a and b for a, b in zip(ok, workload.batch_check(raw_configs, errors))]
    result = {
        "attempted": len(configs),
        "failed": sum(not good for good in ok),
        "completed": len(run_s),
        "wall_s": wall_s,
        "run_s": run_s,
        "errors": [e if math.isfinite(e) else None for e in errors],
        "raised": raised,
        "rejected": [i for i, good in enumerate(ok) if not good],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["serialize.files"] = files
        layers["serialize.bytes"] = size
        result["layers"] = layers
        tracer.check_active(workload.idle_spans)
    return result


def main(argv=None) -> None:
    args = _parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    adjpod = _import_adjpod(args.root)
    raw_configs = workload.make_configs(args.seed)
    configs = [adjpod.ExperimentConfig(**raw) for raw in raw_configs]
    setup_s = time.monotonic() - args.spawned_at

    if args.setup_only:
        result = {"setup_s": setup_s, "environment": environment(adjpod)}
    elif args.trace:
        from spans import Tracer

        with Tracer() as tracer:
            result = run_batch(adjpod, workload, raw_configs, configs, args.out, tracer)
        result["setup_s"] = setup_s
    else:
        result = run_batch(adjpod, workload, raw_configs, configs, args.out)
        result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
