"""The test run's own setup: Hypothesis can report a failure."""

import importlib.util
import warnings

import pytest


def test_failure_report_module_imports_with_warnings_as_errors():
    # Hypothesis imports this module only when a property fails; a warning
    # raised on that import would abort the whole run instead.  The module
    # needs libcst; find_spec looks for it without importing it, where
    # importorskip would import it with warnings silenced.
    if importlib.util.find_spec("libcst") is None:
        pytest.skip("libcst is not installed")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        import hypothesis.extra._patching  # noqa: F401
