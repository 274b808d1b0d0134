"""Pytest bootstrap for both test paths (tests/ and perfbench/).

When a hypothesis property fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` inside its report hook, and that import (via
libcst) raises a DeprecationWarning, which `filterwarnings = ["error"]` turns
into an INTERNALERROR that ends the session.  Importing the module once here,
with the warning ignored, makes the hook's import a no-op, so a failing
property is reported like any other failure and the rest of the suite runs.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst missing: nothing to pre-import
        pass
