"""Every config key, set to each of a grid of awkward values, either runs or
fails with one FAIL line: never a traceback, an internal error or a
RuntimeWarning.

The grid is every ``_CONFIG_SCHEMA`` key times the values below, run through
``adjpod invert`` on a 9 x 9 grid with M = 10.  1e308 is left out for the
size keys, where it would ask for a huge grid, time path or loop.

A key under ``[DEFAULT]``, which configparser would fold into every other
section, is rejected as an unknown key of ``[DEFAULT]``, naming the file.
"""

import warnings

import pytest

from adjpod.cli import main
from adjpod.experiment import _CONFIG_SCHEMA, load_config

VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "", "abc", "2", "3")
SIZE_KEYS = {"grid.nx", "grid.ny", "time.m", "pod.n_pod", "pod.max_snapshots",
             "inverse.max_iters"}
CASES = [(f"{section}.{key}", value) for section, key in _CONFIG_SCHEMA
         for value in VALUES
         if not (value == "1e308" and f"{section}.{key}" in SIZE_KEYS)]


def test_every_size_key_is_a_config_key():
    assert SIZE_KEYS <= {f"{section}.{key}" for section, key in _CONFIG_SCHEMA}


@pytest.mark.parametrize("key,value", CASES, ids=[f"{k}={v}" for k, v in CASES])
def test_a_config_value_runs_or_fails_with_one_line(tmp_path, capsys, key, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["invert", "--set", "grid.nx=9", "--set", "grid.ny=9",
                     "--set", "time.m=10", "--set", f"{key}={value}",
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    text = captured.out + captured.err
    fails = [line for line in text.splitlines() if line.startswith("FAIL")]
    assert (code, len(fails)) in ((0, 0), (1, 1)), text
    assert "Traceback" not in text and "internal error" not in text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


DEFAULT_SECTION_FILES = {
    "alone": "[DEFAULT]\nnx = 5\n",
    "beside-its-own-section": "[DEFAULT]\nnx = 5\n[grid]\nny = 9\n",
    "beside-another-section": "[DEFAULT]\nnx = 5\n[problem]\nkind = source\n",
}


@pytest.mark.parametrize("text", DEFAULT_SECTION_FILES.values(), ids=DEFAULT_SECTION_FILES)
def test_a_default_section_key_is_rejected_naming_the_file(tmp_path, capsys, text):
    path = tmp_path / "defaults.ini"
    path.write_text(text)
    with pytest.raises(ValueError) as caught:
        load_config(str(path))
    assert str(caught.value) == f"{path}: unknown config key [DEFAULT] nx"
    code = main(["invert", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    fails = [line for line in (captured.out + captured.err).splitlines()
             if line.startswith("FAIL")]
    assert code == 1 and len(fails) == 1 and str(path) in fails[0]
    assert not (tmp_path / "out").exists()
