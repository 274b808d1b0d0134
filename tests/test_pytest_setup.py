"""The test setup itself: a failing hypothesis property is reported as a
failure and the tests after it still run, under the repository's
`filterwarnings = ["error"]`."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_after_the_property():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    # the repository's own conftest and pytest settings, one tiny test file
    shutil.copy(ROOT / "conftest.py", tmp_path)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_meta.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_meta.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
