"""Plain-text artifact formats: CSV fields/matrices and JSON manifests.

Nodal fields use a three-part CSV layout — a literal header line
``nx,ny,h``, one line with those three values, then ny rows of nx nodal
values (y outer, x inner) at 17 significant digits, which round-trips
IEEE doubles exactly.
"""

from __future__ import annotations

import json
import os
from typing import Tuple

import numpy as np

from .grid import Grid2D, build_grid
from .pod import PodBasis

_FMT = "%.17g"


def _table(matrix: np.ndarray) -> str:
    """Rows of comma-separated values, newline-separated, no trailing
    newline; one ``%`` operation for the whole table."""
    rows, cols = matrix.shape
    return "\n".join([",".join([_FMT] * cols)] * rows) % tuple(matrix.ravel().tolist())


def _content_lines(path):
    """(line number, stripped text) of the non-blank lines of a file."""
    with open(path) as fh:
        return [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]


def _parse_row(path, no: int, line: str) -> np.ndarray:
    row = np.array([float(tok) for tok in line.split(",")])
    if not np.all(np.isfinite(row)):
        bad = row[~np.isfinite(row)][0]
        raise ValueError(f"{path}:{no}: non-finite value {bad}")
    return row


def write_field_csv(path, grid: Grid2D, values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError("field length does not match node count")
    header = f"nx,ny,h\n{grid.nx},{grid.ny},{_FMT % grid.h}\n"
    with open(path, "w") as fh:
        fh.write(header + _table(values.reshape(grid.ny, grid.nx)) + "\n")


def read_field_csv(path) -> Tuple[Grid2D, np.ndarray]:
    lines = _content_lines(path)
    if not lines or lines[0][1] != "nx,ny,h":
        raise ValueError(f"{path}: missing 'nx,ny,h' header line")
    nx_s, ny_s, h_s = lines[1][1].split(",")
    nx, ny, h = int(nx_s), int(ny_s), float(h_s)
    grid = build_grid(nx, ny)
    if not np.isclose(h, grid.h, rtol=1e-12):
        raise ValueError(f"{path}: header spacing {h} inconsistent with nx={nx}")
    rows = [_parse_row(path, no, ln) for no, ln in lines[2:]]
    if len(rows) != ny or any(r.size != nx for r in rows):
        raise ValueError(f"{path}: expected {ny} rows of {nx} values")
    return grid, np.concatenate(rows)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        fh.write(_table(matrix) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    return np.vstack([_parse_row(path, no, ln) for no, ln in _content_lines(path)])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_pod_basis(dirpath, basis: PodBasis) -> None:
    """One field CSV per mode plus a manifest with the spectrum and provenance."""
    os.makedirs(dirpath, exist_ok=True)
    grid = basis.grid
    for k in range(basis.n_pod):
        write_field_csv(os.path.join(dirpath, f"mode_{k:03d}.csv"), grid, basis.psi[:, k])
    write_json(os.path.join(dirpath, "manifest.json"), {
        "n_pod": basis.n_pod,
        "retained_rank": basis.retained_rank,
        "rho": basis.rho,
        "eigenvalues": basis.eigenvalues,
        "provenance": basis.provenance,
    })


def write_reduced_model(dirpath, model) -> None:
    """Reduced operators as dense CSV next to a small manifest."""
    from .reduced import spod_matrix  # local import avoids a cycle

    os.makedirs(dirpath, exist_ok=True)
    write_matrix_csv(os.path.join(dirpath, "reduced_stiffness.csv"), model.a_r)
    write_matrix_csv(os.path.join(dirpath, "solution_operator.csv"), spod_matrix(model))
    write_json(os.path.join(dirpath, "manifest.json"), {
        "kind": model.kind.value,
        "n_pod": model.n_pod,
        "T": model.tg.T,
        "M": model.tg.M,
        "dt": model.tg.dt,
    })


def write_measurements_csv(path, ms) -> None:
    body = _table(np.column_stack([ms.detectors, ms.readings]))
    with open(path, "w") as fh:
        fh.write("x,y,reading\n" + (body + "\n" if body else ""))


def read_measurements_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    lines = _content_lines(path)
    if not lines or lines[0][1] != "x,y,reading":
        raise ValueError(f"{path}: missing 'x,y,reading' header")
    data = np.array([_parse_row(path, no, ln) for no, ln in lines[1:]])
    return data[:, :2], data[:, 2]
