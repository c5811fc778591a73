"""The config schema is built from ``ExperimentConfig``'s fields, and the
README's *Config file format* block is a faithful copy of it.

Each field carries its INI ``section.key`` address, so the schema has one
entry per field unless two fields claim one address, which a dict built
from the fields would silently collapse.  The README block names every
address once (a commented line such as ``; energy = ...`` counts) and shows
each default that is not None as the field holds it.
"""

import collections
import re
from dataclasses import fields
from pathlib import Path

from adjpod.experiment import _CONFIG_KEYS, _CONFIG_SCHEMA, ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_settings() -> list:
    """("section.key", value text) of every line, commented or not, of the
    INI block under *Config file format*."""
    text = README.read_text()
    section = text[text.index("## Config file format"):]
    block = re.search(r"```ini\n(.*?)```", section, re.DOTALL)
    assert block, "no ini block under 'Config file format'"
    settings, header = [], None
    for line in block.group(1).splitlines():
        line = line.strip().lstrip(";").strip()
        if line.startswith("["):
            header = line.strip("[]")
        elif "=" in line:
            key, value = line.split("=", 1)
            settings.append((f"{header}.{key.strip()}", value.split(";")[0].strip()))
    return settings


def test_the_schema_has_one_address_per_field():
    addresses = [f.metadata["ini"] for f in fields(ExperimentConfig)]
    assert len(set(addresses)) == len(addresses)
    assert len(_CONFIG_SCHEMA) == len(fields(ExperimentConfig))
    assert {name for name, _ in _CONFIG_SCHEMA.values()} == set(_CONFIG_KEYS)


def test_the_readme_names_every_address_once():
    named = collections.Counter(address for address, _ in _readme_settings())
    assert named == collections.Counter(
        f"{section}.{key}" for section, key in _CONFIG_SCHEMA)


def test_the_readme_shows_each_default_as_the_field_holds_it():
    shown = dict(_readme_settings())
    for f in fields(ExperimentConfig):
        if f.default is not None:
            assert shown[f.metadata["ini"]] == str(f.default), f.name
