"""The README's library example runs as written, its option table names
the options of each command, and its file-format examples read."""

import argparse
import json
import re
from pathlib import Path

import pytest

from freetop import cli, serialize as ser
from freetop.scenario import scenario_from_doc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})


def test_option_table_matches_parser():
    text = README.read_text(encoding="utf-8")
    table = text.split("Each command takes only the options it reads:\n\n", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", table.split("\n\n", 1)[0], re.M)
    # A remark in parentheses, such as "(`--probe` only)", lists no option.
    documented = {command: re.findall(r"`(--[a-z-]+)`", re.sub(r"\(.*?\)", "", cell))
                  for command, cell in rows}
    # The stability row notes the one mode that reads each option of cli.MODE_OF.
    modes = re.findall(r"`(--[a-z-]+)` \(`--([a-z]+)` only\)", dict(rows)["stability"])
    assert dict(modes) == cli.MODE_OF and len(modes) == len(cli.MODE_OF)
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)
    for command, parser in sub.choices.items():
        options = [o for a in parser._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"]
        assert sorted(documented[command]) == sorted(options), command


def _file_formats():
    text = README.read_text(encoding="utf-8")
    return text.split("\n### File formats\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("lead, reader", [
    ("Matrix (", ser.matrix_from_doc),
    ("Recipe (", ser.recipe_from_doc),
    ("Classification output", ser.structure_from_doc),
    ("Scenario:", scenario_from_doc),
], ids=["matrix", "recipe", "structure", "scenario"])
def test_file_format_example_reads(lead, reader):
    # The first JSON block after the paragraph that starts with lead; every
    # reader refuses a field it does not name, so the example lists only
    # fields the reader knows.
    after = _file_formats().split("\n" + lead, 1)[1]
    reader(json.loads(re.search(r"```json\n(.*?)```", after, re.S).group(1)))


def test_eigenvalue_body_example_reads():
    doc = re.search(r'`(\{"spec_version": "1", "eigenvalues": .*?\})`', _file_formats()).group(1)
    assert ser.body_from_doc(json.loads(doc)).n == 3
