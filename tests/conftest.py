"""Shared test setup.

Hypothesis reports a failing example through its patch writer, which
imports `libcst`, and `libcst` trips `mypy_extensions.TypedDict`'s
DeprecationWarning at import time.  Under `-W error::DeprecationWarning`
that warning would end a failing `@given` test in an INTERNALERROR
instead of its report, so the writer is imported once here with that
warning ignored for this import only.

`record_builds` counts the degrees the tower engines build."""

import warnings

import pytest

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis without the patch writer, or no libcst
        pass


@pytest.fixture
def record_builds(monkeypatch):
    """`record_builds(owner)` wraps the degree builder
    `owner._build_degree(self, m)` of a tower engine (`verlinde._Degrees`,
    `graded.QuotientDegrees`) from then on, and returns the list of
    (degree data, m) of its calls for m >= 2: degree 1 is X itself."""

    def record(owner) -> list:
        calls = []
        build = owner._build_degree

        def counted(self, m):
            if m >= 2:
                calls.append((self, m))
            return build(self, m)

        monkeypatch.setattr(owner, "_build_degree", counted)
        return calls

    return record
