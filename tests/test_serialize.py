"""Artifact formats: CSV round-trips and JSON reports."""

import io
import json
import re

import numpy as np
import pytest

from adjpod import (CoefficientSet, ExperimentConfig, TimeGrid, add_noise,
                    assemble_operators, build_adjoint_pod, build_grid,
                    build_reduced_model, make_shape, read_field_csv, read_json,
                    read_matrix_csv, read_measurements_csv, run_experiment,
                    spod_matrix, write_field_csv, write_json, write_matrix_csv,
                    write_measurements_csv, write_pod_basis, write_reduced_model)
from adjpod import serialize


@pytest.fixture(scope="module")
def grid():
    return build_grid(11, 9)


def test_field_round_trip_is_bit_exact(tmp_path, grid, rng):
    values = rng.standard_normal(grid.n_nodes)
    values[3] = 1.0 / 3.0
    values[4] = 1e-300
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values)
    grid_back, values_back = read_field_csv(path)
    assert (grid_back.nx, grid_back.ny) == (grid.nx, grid.ny)
    np.testing.assert_array_equal(values_back, values)


def test_field_rejects_wrong_length(tmp_path, grid):
    with pytest.raises(ValueError):
        write_field_csv(tmp_path / "bad.csv", grid, np.zeros(grid.n_nodes - 1))


def test_field_header_validation(tmp_path):
    path = tmp_path / "nohead.csv"
    path.write_text("1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="nx,ny,h"):
        read_field_csv(path)
    path = tmp_path / "badh.csv"
    path.write_text("nx,ny,h\n3,3,0.5\n0,0,0\n0,0,0\n0,0,0\n")
    with pytest.raises(ValueError, match="spacing"):
        read_field_csv(path)
    path = tmp_path / "short.csv"
    grid = build_grid(3, 3)
    write_field_csv(path, grid, np.zeros(9))
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")
    with pytest.raises(ValueError, match="rows"):
        read_field_csv(path)


@pytest.mark.parametrize("text, message", [
    ("nx,ny,h\n100000000,100000000,3e-8\n0,0,0\n", "expected 100000000 rows"),
    ("nx,ny,h\n2,3,3.14\n0,0\n0,0\n0,0\n", r"need nx, ny >= 3, got \(2, 3\)"),
])
def test_field_header_is_checked_before_a_grid_is_built(tmp_path, monkeypatch, text, message):
    def no_grid(nx, ny):
        raise AssertionError(f"build_grid({nx}, {ny}) called")

    monkeypatch.setattr(serialize, "build_grid", no_grid)
    path = tmp_path / "header.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"header.csv: {message}"):
        read_field_csv(path)


def test_matrix_round_trip(tmp_path, rng):
    mat = rng.standard_normal((4, 7))
    path = tmp_path / "mat.csv"
    write_matrix_csv(path, mat)
    np.testing.assert_array_equal(read_matrix_csv(path), mat)
    write_matrix_csv(path, np.array([1.5, 2.5]))
    assert read_matrix_csv(path).shape == (1, 2)


def test_json_text_is_what_json_dump_streams(tmp_path):
    payload = {"b": [1.5, -0.0, 1e-300, 2 ** 53 + 1], "a": {"z": None, "y": "text\u00e9"},
               "c": True, "d": 0.1 + 0.2, "e": []}
    path = tmp_path / "report.json"
    write_json(path, payload)
    streamed = io.StringIO()
    json.dump(payload, streamed, indent=2, sort_keys=True)
    assert path.read_bytes() == (streamed.getvalue() + "\n").encode()


def test_json_handles_numpy_scalars_and_arrays(tmp_path):
    payload = {
        "count": np.int64(7),
        "value": np.float64(0.125),
        "vector": np.arange(3.0),
        "nested": {"flag": True, "items": (np.float32(1.0), 2)},
    }
    path = tmp_path / "report.json"
    write_json(path, payload)
    back = read_json(path)
    assert back["count"] == 7
    assert back["value"] == 0.125
    assert back["vector"] == [0.0, 1.0, 2.0]
    assert back["nested"]["items"] == [1.0, 2]
    text = path.read_text()
    assert text.endswith("\n")
    keys = list(json.loads(text).keys())
    assert keys == sorted(keys)


def test_measurements_round_trip(tmp_path, grid, rng):
    det = grid.coords[grid.interior][:10]
    ms = add_noise(det, rng.standard_normal(10), p=0.0)
    path = tmp_path / "meas.csv"
    write_measurements_csv(path, ms)
    det_back, readings_back = read_measurements_csv(path)
    np.testing.assert_array_equal(det_back, det)
    np.testing.assert_array_equal(readings_back, ms.readings)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="x,y,reading"):
        read_measurements_csv(bad)


def test_pod_basis_directory_layout(tmp_path, grid):
    """``basis.csv`` holds one row per mode, each the 17-digit text of the
    mode's field CSV rows joined into one line, next to ``basis.json``."""
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    m = make_shape("sin1", grid)
    basis = build_adjoint_pod("source", m, ops, TimeGrid(T=0.3, M=8),
                              n_modes=3)
    write_pod_basis(tmp_path, basis)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["basis.csv", "basis.json"]
    meta = read_json(tmp_path / "basis.json")
    assert meta["n_pod"] == 3
    assert (meta["nx"], meta["ny"]) == (grid.nx, grid.ny)
    assert meta["provenance"]["inverse_crime"] is False
    assert meta["eigenvalues"] == basis.eigenvalues.tolist()
    rows = (tmp_path / "basis.csv").read_text().split("\n")
    assert rows.pop() == ""
    assert len(rows) == 3
    for k, row in enumerate(rows):
        assert row == ",".join(serialize.field_csv(grid, basis.psi[:, k]).splitlines()[2:])
    np.testing.assert_array_equal(read_matrix_csv(tmp_path / "basis.csv"), basis.psi.T)


def test_reduced_model_directory_layout(tmp_path, grid):
    """``reduced_model.csv`` holds the rows of ``a_r``, then those of the
    solution operator, bit for bit."""
    ops = assemble_operators(grid, CoefficientSet(q=1.0, c=0.0))
    m = make_shape("sin1", grid)
    tg = TimeGrid(T=0.3, M=8)
    basis = build_adjoint_pod("backward", m, ops, tg, n_modes=3)
    model = build_reduced_model(ops, basis, tg, "backward")
    path = tmp_path / "reduced_model.csv"
    write_reduced_model(path, model)
    assert [p.name for p in tmp_path.iterdir()] == ["reduced_model.csv"]
    stacked = read_matrix_csv(path)
    assert stacked.shape == (6, 3)
    np.testing.assert_array_equal(stacked[:3], model.a_r)
    np.testing.assert_array_equal(stacked[3:], spod_matrix(model))
    blocks = tmp_path / "a_r.csv", tmp_path / "S.csv"
    write_matrix_csv(blocks[0], model.a_r)
    write_matrix_csv(blocks[1], spod_matrix(model))
    assert path.read_text() == blocks[0].read_text() + blocks[1].read_text()


@pytest.mark.parametrize("noise", [0.0, 0.25])
def test_the_measurements_template_formats_what_the_table_does(tmp_path, noise):
    """A run's ``measurements.csv``, written from the cached template, is
    the text of one ``_table`` over detectors and readings."""
    cfg = ExperimentConfig(nx=13, ny=11, M=6, detectors="4x5", max_snapshots=7,
                           n_pod=3, noise=noise, seed=4)
    run_experiment(cfg, str(tmp_path))
    detectors, readings = read_measurements_csv(tmp_path / "measurements.csv")
    table = serialize._table(np.column_stack([detectors, readings]))
    assert (tmp_path / "measurements.csv").read_text() == "x,y,reading\n" + table + "\n"
    assert serialize.measurements_template(detectors) % tuple(readings.tolist()) == \
        "x,y,reading\n" + table + "\n"
    assert serialize.measurements_template(np.empty((0, 2))) == "x,y,reading\n"


def test_json_that_cannot_be_encoded_names_the_type_and_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(TypeError, match="cannot write a set as JSON"):
        write_json(path, {"a": {1, 2}})
    assert not path.exists()


def test_an_empty_matrix_csv_fails_naming_the_file(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("\n  \n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no rows$"):
        read_matrix_csv(path)


def test_a_ragged_matrix_row_fails_naming_the_file_and_line(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("1,2,3\n4,5,6\n\n7,8\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: expected 3 values, got 2$"):
        read_matrix_csv(path)


def test_malformed_json_fails_naming_the_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"n_pod": 9,')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not valid JSON: ") as info:
        read_json(path)
    assert not isinstance(info.value, json.JSONDecodeError)
