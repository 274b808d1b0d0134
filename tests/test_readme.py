"""The README's library example runs as shown."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


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
