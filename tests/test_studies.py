"""The paper's studies, ``studies/<label>/<run>.ini``, are minimal configs:
each loads, each key it sets changes the default config, and README's
*Studies* table lists every study directory."""

import configparser
import re
from pathlib import Path

import pytest

from adjpod import ExperimentConfig, load_config

ROOT = Path(__file__).resolve().parents[1]
STUDIES = ROOT / "studies"
LABELS = sorted(path.name for path in STUDIES.iterdir() if path.is_dir())
CONFIGS = sorted(STUDIES.glob("*/*.ini"))


def test_the_studies_are_found():
    assert LABELS == ["4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7"]
    assert sorted(STUDIES.glob("*/*")) == CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: f"{path.parent.name}/{path.stem}")
def test_a_study_config_sets_only_keys_that_differ_from_the_defaults(path):
    load_config(str(path))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path)
    for section in parser.sections():
        for key, raw in parser.items(section):
            assert load_config(overrides=(f"{section}.{key}={raw}",)) != ExperimentConfig(), \
                f"{path}: [{section}] {key} = {raw} is the default"


def test_the_readme_lists_every_study():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Studies\n"):]
    section = section[:section.index("\n## ", 1)]
    listed = re.findall(r"^\| (\S+) \|", section, re.MULTILINE)
    assert [label for label in listed if label in LABELS] == LABELS
