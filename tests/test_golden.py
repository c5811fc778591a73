"""Golden desk metrics: four frozen pipeline runs at 33x33, M=100.

Refactors that reorder floating-point work must reproduce these numbers to
a relative tolerance of 1e-10, and gradient-descent iteration counts
exactly.  The runs happen in a child process with BLAS and OpenMP pinned
to one thread: the POD tail-energy ratio and near-zero principal angles
sit at roundoff level and move with the BLAS thread count (by up to 1e-4
and 40 % respectively between one and two threads), so the values are
reproducible only at a fixed count.  They were recorded with one thread
on an x86-64 OpenBLAS build; another BLAS kernel may need a re-recording.
"""

import json
import os
import subprocess
import sys

import pytest

import adjpod

RTOL = 1e-10

# name -> (ExperimentConfig changes, recorded metrics)
GOLDEN = {
    "source_sin2exp_direct": (
        {"kind": "source", "truth": "sin2exp"},
        {"rel_l2_error": 0.001086425042980093,
         "rel_hminus1_surrogate_error": 0.00023371312901389525,
         "lambda": 1e-10, "rho": 6.859506555114322e-13,
         "largest_angle": 0.3491708403079577, "iterations": 0}),
    "backward_sin2_gradient": (
        {"kind": "backward", "truth": "sin2", "mode": "gradient"},
        {"rel_l2_error": 9.680714378557945e-05,
         "rel_hminus1_surrogate_error": 2.2380401484259035e-05,
         "lambda": 1e-10, "rho": 1.1183145895602537e-14,
         "largest_angle": 1.0801275337537934, "iterations": 1662}),
    "source_glyphA_noise25_seed3": (
        {"kind": "source", "truth": "glyphA", "noise": 0.25, "seed": 3},
        {"rel_l2_error": 0.7332511563337822,
         "rel_hminus1_surrogate_error": 0.21456850019721438,
         "lambda": 0.005201057831865545, "rho": 3.378494233015562e-13,
         "largest_angle": 1.5625592554016758, "iterations": 0}),
    "source_sin2_traditional": (
        {"kind": "source", "truth": "sin2", "basis": "traditional"},
        {"rel_l2_error": 1.7689158168112833e-05,
         "rel_hminus1_surrogate_error": 3.594418302646006e-06,
         "lambda": 1e-10, "rho": 6.024586362297494e-13,
         "largest_angle": 4.2146848510894035e-08, "iterations": 0}),
}

_CHILD = """
import json, sys, tempfile
from adjpod import ExperimentConfig, run_experiment
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, changes in json.loads(sys.argv[1]).items():
        m = run_experiment(ExperimentConfig(**changes), f"{tmp}/{name}")
        rec, basis = m["recovery"], m["basis"]
        out[name] = {
            "rel_l2_error": rec["rel_l2_error"],
            "rel_hminus1_surrogate_error": rec["rel_hminus1_surrogate_error"],
            "lambda": rec["lambda"],
            "rho": basis["rho"],
            "largest_angle": basis["largest_angle_vs_traditional"],
            "iterations": rec["iterations"],
        }
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def measured():
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjpod.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    configs = json.dumps({name: changes for name, (changes, _) in GOLDEN.items()})
    done = subprocess.run([sys.executable, "-c", _CHILD, configs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_desk_metrics(measured, name):
    expected = GOLDEN[name][1]
    got = measured[name]
    assert got["iterations"] == expected["iterations"]
    for key, value in expected.items():
        if key != "iterations":
            assert got[key] == pytest.approx(value, rel=RTOL, abs=0.0), key
