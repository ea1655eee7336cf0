"""The README's library example and the package's public names."""

import argparse
import importlib
import re
from pathlib import Path

import concate
from concate.bands import METHODS
from concate.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "55.0 positive"


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from concate import *", namespace)
    assert len(set(concate.__all__)) == len(concate.__all__)
    missing = [name for name in concate.__all__ if name not in namespace]
    assert missing == []


def test_public_names_paragraph_lists_exactly_the_exports():
    text = README.read_text()
    section = text[text.index("## Public names"):text.index("## Library quickstart")]
    paragraph = section.split("\n\n")[1]
    listed = paragraph[:paragraph.index("Everything else")]
    assert set(re.findall(r"`(\w+)`", listed)) == set(concate.__all__)


def test_box_bullets_name_exactly_the_modules():
    """One bullet per module, and every backticked identifier under them is a
    module attribute, a band method, a subcommand or one of a few outside names."""
    text = README.read_text()
    section = text[text.index("## What is in the box"):text.index("## Install")]
    modules = {p.stem for p in Path(concate.__file__).parent.glob("*.py")} - {"__init__"}
    assert set(re.findall(r"^- `concate\.(\w+)`", section, re.MULTILINE)) == modules
    attributes = set().union(*(dir(importlib.import_module(f"concate.{m}")) for m in modules))
    subcommands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    known = attributes | set(METHODS) | set(subcommands)
    known |= {"PCG64", "SeedSequence", "kendalltau", "concate"}
    assert set(re.findall(r"`(\w+)`", section)) - known == set()
