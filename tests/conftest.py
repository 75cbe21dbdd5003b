"""Shared fixtures and deterministic hypothesis configuration."""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from structlab.descsys import load_system

settings.register_profile(
    "structlab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("structlab")

# Hypothesis's failure report imports this module, and one of its
# dependencies warns on import; under ``filterwarnings = ["error"]`` that
# warning would end the run with INTERNALERROR and hide the falsifying
# example.  It needs libcst, which the test extra does not install.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixa():
    """The tiny 2-bit reference system used throughout the suite."""
    return load_system(FIXTURES / "fixa.tsv")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES
