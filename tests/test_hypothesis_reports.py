"""A failing @given test is reported, not turned into an INTERNALERROR:
Hypothesis's report hook imports hypothesis.extra._patching, and that
import must raise no warning, since every warning is an error here (see
conftest.py)."""

import importlib
import importlib.util
import warnings

import pytest


def test_failure_report_module_imports_without_a_warning():
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("no libcst: Hypothesis reports failures without the patching module")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        importlib.import_module("hypothesis.extra._patching")
