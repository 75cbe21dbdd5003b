"""Exception hierarchy shared by all structlab modules.

Every domain-level failure (malformed descriptor, precondition violation,
invalid fixture, refused query) derives from :class:`StructLabError` so the
command-line layer can map "your input is wrong" to a single exit code while
letting genuine bugs escape loudly.
"""

from __future__ import annotations


class StructLabError(ValueError):
    """Base class for all domain errors raised by this package."""


class CodecError(StructLabError):
    """Malformed self-delimiting code or bit-string input."""


class DescriptorError(StructLabError):
    """A description-system descriptor failed validation.

    Raised for grammar errors, prefix-free violations, out-of-universe
    outputs, empty set outputs, or uncovered universe elements.
    """


class FixtureError(StructLabError):
    """An input file other than a descriptor is malformed.

    Synth streams, cover records and the pmf, fn table, strategy, codebook
    and enumeration fixtures.
    """


class RefusalError(StructLabError):
    """A theorem-backed operation refused because its precondition fails.

    Carries a human-readable reason; used e.g. when a requested index block
    does not exist because the corresponding bit of the enumeration count
    is zero.
    """
