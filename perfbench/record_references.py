"""Record the reference recovery errors that every benchmark run is checked
against, at the current commit.

    python3 perfbench/record_references.py [--seeds 40]

For each case (a workload config minus its noise seed) the reference is the
median ``rel_l2_error`` over ``--seeds`` workload seeds.  Noise-free cases
are deterministic and get ``NOISE_FREE_RTOL``.  Noisy cases get a relative
tolerance of ``NOISY_MARGIN`` times the largest deviation seen over those
seeds, so that any other noise seed passes while a changed result does
not.  Writes ``references.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import SINGLE_THREAD_ENV  # noqa: E402

os.environ.update(SINGLE_THREAD_ENV)  # before NumPy loads its BLAS
import adjpod  # noqa: E402
from workloads import (NOISE_FREE_RTOL, REFERENCES_PATH, WORKLOADS,  # noqa: E402
                       case_key)

NOISY_MARGIN = 2.0


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=40)
    args = ap.parse_args(argv)

    errors = defaultdict(list)
    noisy = {}
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    out = tempfile.mkdtemp(dir=scratch)
    try:
        for workload in WORKLOADS.values():
            seen = set()
            for seed in range(args.seeds):
                for raw in workload.make_configs(seed):
                    key = case_key(raw)
                    noisy[key] = raw["noise"] > 0
                    if not noisy[key] and key in seen:
                        continue
                    seen.add(key)
                    metrics = adjpod.run_experiment(adjpod.ExperimentConfig(**raw),
                                                    os.path.join(out, "run"))
                    errors[key].append(metrics["recovery"]["rel_l2_error"])
                print(f"{workload.name} seed {seed} done", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    references = {}
    for key, errs in sorted(errors.items()):
        ref = statistics.median(errs)
        if noisy[key]:
            spread = max(abs(e - ref) for e in errs) / ref
            rtol = math.ceil(100 * NOISY_MARGIN * spread) / 100
        else:
            rtol = NOISE_FREE_RTOL
        references[key] = {"rel_l2_error": ref, "rtol": rtol, "samples": len(errs),
                           "min": min(errs), "max": max(errs)}
    with open(REFERENCES_PATH, "w") as fh:
        json.dump(references, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
