"""Golden metrics above ``fem.PINNED_UNKNOWNS``: four frozen runs at 53x53
and 65x65, M=100.

Above 2,401 interior unknowns the time-step and denoise factors are
ordered by minimum degree and the POD correlation matrix is filled a
block of columns at a time, so results there may move by roundoff, not
more.  Each bound is about 100 times the drift measured when COLAMD and
the single correlation GEMM were forced at these sizes (one BLAS thread,
x86-64 OpenBLAS):

* source, 10 % noise, direct: ``rel_l2_error`` moved by at most 1.4e-12
  relative and lambda by 8.3e-13, so both are bounded at 1e-10;
* backward, noise-free, gradient descent: ``rel_l2_error`` sits near the
  basis floor and moved by at most 9.8e-9 relative, bounded at 1e-6;
  lambda is the noise-free floor; the iteration count did not move and is
  pinned exactly.

A 1e-6 relative change of dt or of the diffusion coefficient moves the
source errors by 2.8e-7 and the backward errors by 1.3e-6, past every
bound.  The POD tail ratio and the principal angles sit at roundoff level
and are not pinned.  The runs happen in a child process with BLAS and
OpenMP pinned to one thread, as in ``tests/test_golden.py``.
"""

import json
import os
import subprocess
import sys

import pytest

import adjpod

# name -> (ExperimentConfig changes, recorded metrics, relative bound)
GOLDEN = {
    "source_sin2exp_53_noise10": (
        {"kind": "source", "truth": "sin2exp", "nx": 53, "ny": 53, "noise": 0.10},
        {"rel_l2_error": 0.11175681022564583, "lambda": 0.0013453938389547484,
         "iterations": 0},
        1e-10),
    "backward_sin2_53_gradient": (
        {"kind": "backward", "truth": "sin2", "nx": 53, "ny": 53, "mode": "gradient"},
        {"rel_l2_error": 5.655041998922194e-05, "lambda": 1e-10, "iterations": 237},
        1e-6),
    "source_sin2exp_65_noise10": (
        {"kind": "source", "truth": "sin2exp", "nx": 65, "ny": 65, "noise": 0.10},
        {"rel_l2_error": 0.11152815643701908, "lambda": 0.0013326433961157974,
         "iterations": 0},
        1e-10),
    "backward_sin2_65_gradient": (
        {"kind": "backward", "truth": "sin2", "nx": 65, "ny": 65, "mode": "gradient"},
        {"rel_l2_error": 3.734842055637365e-05, "lambda": 1e-10, "iterations": 229},
        1e-6),
}

_CHILD = """
import json, sys, tempfile
from adjpod import ExperimentConfig, run_experiment
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, changes in json.loads(sys.argv[1]).items():
        rec = run_experiment(ExperimentConfig(**changes), f"{tmp}/{name}")["recovery"]
        out[name] = {key: rec[key] for key in ("rel_l2_error", "lambda", "iterations")}
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def measured():
    src = os.path.dirname(os.path.dirname(os.path.abspath(adjpod.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    configs = json.dumps({name: changes for name, (changes, _, _) in GOLDEN.items()})
    done = subprocess.run([sys.executable, "-c", _CHILD, configs], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_unpinned_golden_metrics(measured, name):
    _, expected, rtol = GOLDEN[name]
    got = measured[name]
    assert got["iterations"] == expected["iterations"]
    for key in ("rel_l2_error", "lambda"):
        assert got[key] == pytest.approx(expected[key], rel=rtol, abs=0.0), key
