"""Non-finite readings and noise levels, and non-finite or non-numeric
values in the CSV readers, are rejected with a message that names the value
or the file and line."""

import math

import numpy as np
import pytest

from adjpod import (MeasurementSet, add_noise, build_grid, read_field_csv,
                    read_matrix_csv, read_measurements_csv, write_field_csv,
                    write_matrix_csv, write_measurements_csv)
from adjpod.cli import main

BAD = (math.nan, math.inf, -math.inf)


def _detectors(n=4):
    return np.column_stack([np.linspace(0.5, 2.5, n), np.full(n, 1.0)])


@pytest.mark.parametrize("bad", BAD)
def test_add_noise_rejects_a_non_finite_reading(bad):
    clean = np.array([0.1, 0.2, bad, 0.4])
    with pytest.raises(ValueError, match=f"clean readings must be finite, got {bad} at index 2"):
        add_noise(_detectors(), clean, 0.1, seed=0)


@pytest.mark.parametrize("bad", BAD)
def test_add_noise_rejects_a_non_finite_noise_level(bad):
    with pytest.raises(ValueError, match=f"noise level must be finite and >= 0, got {bad}"):
        add_noise(_detectors(), np.ones(4), bad, seed=0)


def test_add_noise_rejects_a_non_finite_detector():
    detectors = _detectors()
    detectors[1, 1] = math.nan
    with pytest.raises(ValueError, match="detector coordinates must be finite, got nan"):
        add_noise(detectors, np.ones(4), 0.1, seed=0)


@pytest.mark.parametrize("bad", BAD)
def test_read_field_csv_names_the_file_and_line(tmp_path, bad):
    grid = build_grid(5, 4)
    values = np.zeros(grid.n_nodes)
    values[2 * grid.nx + 1] = bad        # third table row: line 5 of the file
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values)
    with pytest.raises(ValueError, match=f"field.csv:5: non-finite value {bad}"):
        read_field_csv(path)


@pytest.mark.parametrize("bad", BAD)
def test_read_matrix_csv_names_the_file_and_line(tmp_path, bad):
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, np.array([[1.0, 2.0], [3.0, bad]]))
    with pytest.raises(ValueError, match=f"matrix.csv:2: non-finite value {bad}"):
        read_matrix_csv(path)


def test_read_matrix_csv_counts_blank_lines(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("1,2\n\n3,nan\n")
    with pytest.raises(ValueError, match="matrix.csv:3: non-finite value nan"):
        read_matrix_csv(path)


def test_read_matrix_csv_names_a_token_that_is_not_a_number(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("1,2\n3,0x1p3\n")
    with pytest.raises(ValueError, match="matrix.csv:2: not a number: '0x1p3'$"):
        read_matrix_csv(path)


@pytest.mark.parametrize("bad", BAD)
def test_read_measurements_csv_names_the_file_and_line(tmp_path, bad):
    readings = np.array([0.1, bad, 0.3, 0.4])
    ms = MeasurementSet(detectors=_detectors(), readings=readings, sigma=0.0)
    path = tmp_path / "meas.csv"
    write_measurements_csv(path, ms)
    with pytest.raises(ValueError, match=f"meas.csv:3: non-finite value {bad}"):
        read_measurements_csv(path)


# -------------------------------------------- malformed CSVs through the CLI

_MEASUREMENT_ROW = "0.39269908169872414,0.39269908169872414"


@pytest.mark.parametrize("command,text,named", [
    ("denoise", "x,y,reading\n", "need at least one detector"),
    ("denoise", f"x,y,reading\n{_MEASUREMENT_ROW}\n", ":2: expected 3 values, got 2"),
    ("denoise", f"x,y,reading\n{_MEASUREMENT_ROW},1,5\n", ":2: expected 3 values, got 4"),
    ("forward", "nx,ny,h\n", "missing 'nx,ny,h' header line or its 3 values"),
    ("forward", "nx,ny,h\n9,9\n", "missing 'nx,ny,h' header line or its 3 values"),
    ("denoise", f"x,y,reading\n{_MEASUREMENT_ROW},\n", ":2: not a number: ''"),
    ("denoise", f"x,y,reading\n\n{_MEASUREMENT_ROW},abc\n", ":3: not a number: 'abc'"),
    ("forward", "nx,ny,h\n9.5,9,0.39269908169872414\n",
     ":2: nx is not an integer: '9.5'"),
    ("forward", "nx,ny,h\n9,9,wide\n", ":2: h is not a number: 'wide'"),
], ids=["header-only-readings", "short-row", "long-row", "header-only-field",
        "two-value-header", "empty-reading", "word-reading", "fractional-nx",
        "word-spacing"])
def test_cli_names_a_malformed_csv(tmp_path, capsys, command, text, named):
    path = tmp_path / "malformed.csv"
    path.write_text(text)
    flag = "--measurements" if command == "denoise" else "--input"
    code = main([command, flag, str(path), "--nx", "9", "--ny", "9",
                 "--out", str(tmp_path / "out")]
                + (["--alpha", "1e-3"] if command == "denoise" else ["--M", "5"]))
    assert code == 1
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and str(path) in fails[0] and named in fails[0]
    assert "Traceback" not in text


def test_a_header_only_measurements_file_reads_as_zero_detectors(tmp_path):
    ms = MeasurementSet(detectors=np.empty((0, 2)), readings=np.empty(0), sigma=0.0)
    path = tmp_path / "meas.csv"
    write_measurements_csv(path, ms)
    assert path.read_text() == "x,y,reading\n"
    detectors, readings = read_measurements_csv(path)
    assert detectors.shape == (0, 2) and readings.shape == (0,)
