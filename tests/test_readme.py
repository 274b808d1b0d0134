"""The README's library example runs as shown, and its module list and its
list of command-line flags are complete."""

import argparse
import re
from pathlib import Path

from oreelim.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_python_block(heading):
    """The first ```python block after the given section heading."""
    lines = README.read_text().splitlines()
    at = lines.index(heading)
    start = lines.index("```python", at) + 1
    return "\n".join(lines[start : lines.index("```", start)])


def test_library_quick_tour_runs(capsys):
    code = readme_python_block("## Library quick tour")
    assert "assert direct.rep == modular.rep" in code
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith(" False\n")


def test_module_list_names_every_module():
    # the bullets under "Modules:", up to the next blank line
    lines = README.read_text().splitlines()
    at = lines.index("Modules:") + 2
    end = lines.index("", at)
    listed = set(re.findall(r"`oreelim\.(\w+)`", "\n".join(lines[at:end])))
    # the package's __init__ only re-exports; every other file is a module
    on_disk = {
        p.stem for p in (ROOT / "src" / "oreelim").glob("*.py") if p.stem != "__init__"
    }
    assert listed == on_disk


def test_flags_paragraph_names_every_option():
    # the paragraph from "Flags:" up to the next blank line
    text = README.read_text()
    at = text.index("Flags:")
    named = set(re.findall(r"--[a-z][a-z0-9-]*", text[at : text.index("\n\n", at)]))
    commands = next(
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        opt
        for sub in commands.values()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--")
    }
    assert named == options - {"--help"}
