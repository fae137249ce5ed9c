"""The README's Python examples name only what the package exports, so a
removed public name cannot linger in the docs."""

import re
from pathlib import Path

import drauc

README = Path(__file__).resolve().parents[1] / "README.md"


def referenced_names(text):
    """Every name x of a `drauc.x` in the ```python blocks of ``text``."""
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    return {name for block in blocks for name in re.findall(r"\bdrauc\.(\w+)", block)}


def test_python_blocks_reference_only_drauc_attributes():
    names = referenced_names(README.read_text(encoding="utf-8"))
    assert {"train", "evaluate"} <= names  # the Library example is read
    assert sorted(name for name in names if not hasattr(drauc, name)) == []


def test_a_name_drauc_lacks_is_caught():
    text = "```python\nimport drauc\nprint(drauc.retired_name(model))\n```\n```\ndrauc.cli\n```\n"
    assert referenced_names(text) == {"retired_name"}  # python blocks only
    assert not hasattr(drauc, "retired_name")
