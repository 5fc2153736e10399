"""Load Hypothesis's failure-report module before any test runs.

When a @given test fails, Hypothesis's report hook imports
hypothesis.extra._patching, which imports libcst, whose use of
mypy_extensions.TypedDict raises a DeprecationWarning.  Under the
project's filterwarnings = error, and CI's -W error, that warning escapes
the hook and pytest stops with INTERNALERROR instead of reporting the
failure.  Imported once here with DeprecationWarning ignored, the module
is already loaded when the hook asks for it.  Without libcst Hypothesis
skips the patch itself, so there is nothing to load.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass
