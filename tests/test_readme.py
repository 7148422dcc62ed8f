"""The README's library example runs as written, and its option table
names the options of each command."""

import argparse
import re
from pathlib import Path

from freetop import cli

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
    # A remark in parentheses, such as "(with `--probe` only)", lists no option.
    documented = {command: re.findall(r"`(--[a-z-]+)`", re.sub(r"\(.*?\)", "", cell))
                  for command, cell in rows}
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)
    for command, parser in sub.choices.items():
        options = [o for a in parser._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"]
        assert sorted(documented[command]) == sorted(options), command
