"""Plain-text artifact formats: CSV fields/matrices and JSON reports.

Nodal fields use a three-part CSV layout — a literal header line
``nx,ny,h``, one line with those three values, then ny rows of nx nodal
values (y outer, x inner) at 17 significant digits, which round-trips
IEEE doubles exactly.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Tuple

import numpy as np

from . import reduced
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


def _number(path, no: int, token: str, parse=float, what: str = "not a number"):
    """parse(token), or a ValueError naming the file, the line and the token."""
    try:
        return parse(token)
    except ValueError:
        raise ValueError(f"{path}:{no}: {what}: {token!r}") from None


def _parse_row(path, no: int, line: str, width: Optional[int] = None) -> np.ndarray:
    row = np.array([_number(path, no, tok) for tok in line.split(",")])
    if width is not None and row.size != width:
        raise ValueError(f"{path}:{no}: expected {width} values, got {row.size}")
    if not np.all(np.isfinite(row)):
        bad = row[~np.isfinite(row)][0]
        raise ValueError(f"{path}:{no}: non-finite value {bad}")
    return row


def field_csv(grid: Grid2D, values: np.ndarray) -> str:
    """The text ``write_field_csv`` writes for ``values``."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_nodes,):
        raise ValueError("field length does not match node count")
    header = f"nx,ny,h\n{grid.nx},{grid.ny},{_FMT % grid.h}\n"
    return header + _table(values.reshape(grid.ny, grid.nx)) + "\n"


def write_text(path, text: str) -> None:
    """Write already formatted artifact text, such as a ``field_csv``."""
    with open(path, "w") as fh:
        fh.write(text)


def write_field_csv(path, grid: Grid2D, values: np.ndarray) -> None:
    write_text(path, field_csv(grid, values))


def read_field_csv(path) -> Tuple[Grid2D, np.ndarray]:
    lines = _content_lines(path)
    if len(lines) < 2 or lines[0][1] != "nx,ny,h" or lines[1][1].count(",") != 2:
        raise ValueError(f"{path}: missing 'nx,ny,h' header line or its 3 values")
    no, values = lines[1]
    nx_s, ny_s, h_s = values.split(",")
    nx = _number(path, no, nx_s, int, "nx is not an integer")
    ny = _number(path, no, ny_s, int, "ny is not an integer")
    h = _number(path, no, h_s, float, "h is not a number")
    # checked against the table first, so a corrupt header cannot size a grid
    if nx < 3 or ny < 3:
        raise ValueError(f"{path}: need nx, ny >= 3, got ({nx}, {ny})")
    rows = [_parse_row(path, no, ln) for no, ln in lines[2:]]
    if len(rows) != ny or any(r.size != nx for r in rows):
        raise ValueError(f"{path}: expected {ny} rows of {nx} values")
    grid = build_grid(nx, ny)
    if not np.isclose(h, grid.h, rtol=1e-12):
        raise ValueError(f"{path}: header spacing {h} inconsistent with nx={nx}")
    return grid, np.concatenate(rows)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    write_text(path, _table(matrix) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """The rows of a matrix CSV; every row must be as wide as the first."""
    lines = _content_lines(path)
    if not lines:
        raise ValueError(f"{path}: no rows")
    first = _parse_row(path, *lines[0])
    return np.vstack([first] + [_parse_row(path, no, ln, first.size) for no, ln in lines[1:]])


def _json_leaf(obj):
    """The plain Python value of a numpy array or scalar, for ``json``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON in one ``write``; ``json.dump``
    with an indent makes one call per token.  The text is encoded before
    the file is opened, so a payload that cannot be encoded leaves no file."""
    write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_leaf) + "\n")


def read_json(path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def write_pod_basis(dirpath, basis: PodBasis) -> None:
    """``basis.csv`` in ``dirpath``, one row of nodal values per mode in
    field order, formatted a mode at a time, and ``basis.json`` with the
    spectrum, the provenance and the grid size."""
    grid = basis.grid
    with open(os.path.join(dirpath, "basis.csv"), "w") as fh:
        for k in range(basis.n_pod):
            fh.write(_table(basis.psi[None, :, k]) + "\n")
    write_json(os.path.join(dirpath, "basis.json"), {
        "n_pod": basis.n_pod,
        "retained_rank": basis.retained_rank,
        "rho": basis.rho,
        "eigenvalues": basis.eigenvalues,
        "provenance": basis.provenance,
        "nx": grid.nx,
        "ny": grid.ny,
    })


def write_reduced_model(path, model) -> None:
    """One matrix CSV: the rows of the reduced stiffness ``a_r``, then the
    rows of the final-time solution operator."""
    write_matrix_csv(path, np.vstack([model.a_r, reduced.spod_matrix(model)]))


def measurements_template(detectors: np.ndarray) -> str:
    """Measurements CSV text over ``detectors`` with a ``%.17g`` placeholder
    for each reading: ``template % tuple(readings)`` is the file."""
    rows = _table(np.reshape(detectors, (-1, 2))).splitlines()
    return "x,y,reading\n" + "".join(f"{row},{_FMT}\n" for row in rows)


def write_measurements_csv(path, ms, template: Optional[str] = None) -> None:
    """``template``, when given, is ``measurements_template(ms.detectors)``,
    kept by a caller that writes many readings on one layout."""
    if template is None:
        template = measurements_template(ms.detectors)
    write_text(path, template % tuple(ms.readings.tolist()))


def read_measurements_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    lines = _content_lines(path)
    if not lines or lines[0][1] != "x,y,reading":
        raise ValueError(f"{path}: missing 'x,y,reading' header")
    data = np.array([_parse_row(path, no, ln, 3) for no, ln in lines[1:]]).reshape(-1, 3)
    return data[:, :2], data[:, 2]
