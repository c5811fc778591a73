"""Shared fixtures for the test suite."""

import os
from pathlib import Path

# One BLAS thread, as perfbench runs; set before numpy loads its BLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from adjpod import CoefficientSet, assemble_operators, build_grid, read_json
from adjpod.cli import main

STUDIES = Path(__file__).resolve().parents[1] / "studies"


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def small_grid():
    return build_grid(13, 11)


@pytest.fixture(scope="session")
def small_ops(small_grid):
    return assemble_operators(small_grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="session")
def desk_grid():
    return build_grid(33, 33)


@pytest.fixture(scope="session")
def desk_ops(desk_grid):
    return assemble_operators(desk_grid, CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="session")
def artifact_tree():
    """path -> {relative name: bytes} of every file under it but
    ``timings.json``, the one file in which two runs of one config differ."""
    def tree(path) -> dict:
        root = Path(path)
        return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "timings.json"}
    return tree


@pytest.fixture(scope="session")
def sweep_study():
    """``sweep_study(label, out, *overrides)`` runs ``adjpod sweep
    studies/<label>/*.ini --out out --jobs 1``, each override a ``--set``,
    and returns {run directory name: its metrics.json}."""
    def sweep(label, out, *overrides) -> dict:
        configs = sorted((STUDIES / label).glob("*.ini"))
        argv = ["sweep", *map(str, configs), "--out", str(out), "--jobs", "1"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        return {path.stem: read_json(Path(out) / path.stem / "metrics.json")
                for path in configs}
    return sweep
