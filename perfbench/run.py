"""adjpod benchmark: whole-pipeline workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the package is imported from
``src/``).  Each batch of a workload runs in a fresh worker process with
BLAS and OpenMP pinned to one thread, one batch after the other (closed
loop, one client) for as long as the next batch still fits in
``--seconds``.  Before that, a few set-up-only processes time
``import adjpod`` plus config generation.

``--trace 0`` prints the end-to-end metrics:

* ``runs_per_s``  completed runs / summed batch wall time (set-up excluded)
* ``run_s_p50``   median seconds per ``run_experiment`` call
* ``setup_s``     median seconds from process spawn to ``import adjpod`` and
  config generation done, over every process of the invocation
* ``peak_rss_mb`` median over batches of the worker's ``ru_maxrss``
* ``rel_l2_error_p50`` median recovery error (deterministic per seed)
* ``ok_ratio``    runs that completed and passed their checks / attempted

``--trace 1`` spends half of ``--seconds`` untraced and half traced, and
prints the per-layer metrics of ``spans.py`` (medians over traced batches,
per batch) plus the trace overhead.  Counts must repeat exactly between
batches.  The last stdout line is the JSON result; the line before it
records the machine, library versions and BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

# counters that must read the same in every traced batch of one invocation
EXACT_LAYER_METRICS = ("fem.steps", "fem.distinct_solve_ratio",
                       "reduced.useful_basis_ratio", "inversion.gd_iterations",
                       "serialize.files")


def _spawn(args, *extra) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workload", args.workload, "--seed", str(args.seed), *extra]
    spawned_at = time.monotonic()
    done = subprocess.run(command + ["--spawned-at", repr(spawned_at)], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _batches(args, scratch: str, seconds: float, trace: bool) -> list:
    """Closed loop: run batches back to back while the next one, at the
    median length of those so far, still ends within ``seconds`` (at least
    one batch)."""
    results, lengths = [], []
    start = time.monotonic()
    while not results or \
            time.monotonic() + statistics.median(lengths) <= start + seconds:
        out = os.path.join(scratch, f"batch{len(results):03d}")
        began = time.monotonic()
        results.append(_spawn(args, "--out", out, *(["--trace"] if trace else [])))
        lengths.append(time.monotonic() - began)
    return results


def _runs_per_s(batches) -> float:
    return sum(b["completed"] for b in batches) / sum(b["wall_s"] for b in batches)


def _end_to_end(batches, setup_s) -> dict:
    run_s = [t for b in batches for t in b["run_s"]]
    errors = [e for b in batches for e in b["errors"] if e is not None]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    values = {
        "runs_per_s": (_runs_per_s(batches), "1/s"),
        "run_s_p50": (statistics.median(run_s) if run_s else float("inf"), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (statistics.median(b["peak_rss_mb"] for b in batches), "MB"),
        "rel_l2_error_p50": (statistics.median(errors) if errors else float("inf"),
                             "ratio"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("fem.steps", "inversion.gd_iterations",
                                           "serialize.files"):
        return "count"
    if name.endswith(".s") or name == "experiment.self_s":
        return "s"
    return {"fem.step_us": "us", "serialize.bytes": "B"}.get(name, "ratio")


def _per_layer(untraced, traced) -> dict:
    layers = [b["layers"] for b in traced]
    out = {}
    for name in layers[0]:
        seen = [layer[name] for layer in layers]
        exact = name.endswith(".calls") or name in EXACT_LAYER_METRICS
        if exact and len(set(seen)) != 1:
            raise RuntimeError(f"layer count {name} differs between batches: {seen}")
        out[name] = {"value": statistics.median(seen), "unit": _layer_unit(name)}
    plain, with_trace = _runs_per_s(untraced), _runs_per_s(traced)
    out["trace.untraced_runs_per_s"] = {"value": plain, "unit": "1/s"}
    out["trace.runs_per_s"] = {"value": with_trace, "unit": "1/s"}
    out["trace.slowdown"] = {"value": plain / with_trace, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "adjpod", "__init__.py")):
        print(f"no adjpod sources under {ROOT}/src", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        probes = [_spawn(args, "--setup-only") for _ in range(SETUP_PROBES)]
        if args.trace:
            untraced = _batches(args, scratch, args.seconds / 2, trace=False)
            traced = _batches(args, scratch, args.seconds / 2, trace=True)
            batches = untraced + traced
            metrics = _per_layer(untraced, traced)
        else:
            batches = _batches(args, scratch, args.seconds, trace=False)
            setup_s = [p["setup_s"] for p in probes] + [b["setup_s"] for b in batches]
            metrics = _end_to_end(batches, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    problems = [msg for b in batches for msg in b["raised"]]
    for msg in problems[:10]:
        print(f"run failed: {msg}", file=sys.stderr)
    print("environment: " + json.dumps(dict(probes[0]["environment"],
                                            workload=args.workload,
                                            seed=args.seed,
                                            batches=len(batches))))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
