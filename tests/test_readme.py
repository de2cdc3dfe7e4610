"""The README's config section names exactly the keys riskfed reads:
the required keys in its prose, the optional keys in its table."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

from riskfed.federation import CONFIG_SCHEMA, ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def config_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config format")
    return text[start:text.index("\n### ", start)]


def test_readme_config_section_names_exactly_the_schema_keys():
    section = config_section()
    prose = section[section.index("Required:"):section.index("Optional keys")]
    required = re.findall(r"`(\w+)`", prose)
    optional = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
    no_default = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    assert required == [key for key, (attr, *_) in CONFIG_SCHEMA.items()
                        if attr in no_default]
    assert optional == [key for key in CONFIG_SCHEMA if key not in required]
