"""The README's library example runs as shown, and its module list is
complete."""

import re
from pathlib import Path

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
