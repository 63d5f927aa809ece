"""Shared test setup.

Hypothesis reports a failing example through its patch writer, which
imports `libcst`, and `libcst` trips `mypy_extensions.TypedDict`'s
DeprecationWarning at import time.  Under `-W error::DeprecationWarning`
that warning would end a failing `@given` test in an INTERNALERROR
instead of its report, so the writer is imported once here with that
warning ignored for this import only."""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without the patch writer, or no libcst
        pass
