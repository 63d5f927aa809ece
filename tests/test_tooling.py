"""Checks on the source tree itself.

The benchmark tracer (`perfbench/tracer.py`) wraps vercat functions and
methods by attribute name; a rename in the package must fail here rather
than silently break `perfbench/run.py --trace 1`.  The package's own
correctness checks raise AssertionError explicitly, so `python -O` keeps
them.  A failing hypothesis test must report its example under CI's
warning flags."""

import ast
import glob
import importlib.util
import os
import subprocess
import sys

import vercat.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, owner, attr, _ in tracer.LAYERS:
        assert callable(getattr(owner, attr, None)), name
    for suite, attr in tracer.SUITES.items():
        assert callable(getattr(vercat.cli, attr, None)), suite


def test_package_has_no_assert_statements():
    # `python -O` compiles assert statements out; a check that guards an
    # answer must survive it
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "vercat", "*.py")))
    assert paths
    found = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_failing_property_reports_under_ci_warning_flags(tmp_path):
    # the patch writer's `libcst` import would raise DeprecationWarning as
    # an error inside pytest's reporting; tests/conftest.py imports it first
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "tests"))
    flags = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest"]
    done = subprocess.run(
        [*argv, *flags, "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed" in out and "n=5" in out, out
