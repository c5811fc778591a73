"""``import adjpod`` loads only the scipy subpackages the pipeline calls.

The detector quasi-uniformity is a closed form on the detector lattice's
axes, with no nearest-neighbour search, so neither ``scipy.spatial`` nor
``scipy.special`` (which ``scipy.spatial`` pulls in) belongs in a fresh
process that imported the library and its CLI.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("scipy.spatial", "scipy.special")


def test_import_loads_no_spatial_or_special_scipy():
    probe = ("import sys, adjpod, adjpod.cli; "
             f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
