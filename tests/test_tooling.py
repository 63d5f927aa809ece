"""Checks on the source tree itself.

The benchmark tracer (`perfbench/tracer.py`) wraps vercat functions and
methods by attribute name; a rename in the package must fail here rather
than silently break `perfbench/run.py --trace 1`.  The package's own
correctness checks raise AssertionError explicitly, so `python -O` keeps
them.  Every product of residue arrays goes through
`exactlin.matmul_mod` or `exactlin.contract_mod`, apart from the sites
listed in `PLAIN_PRODUCTS`, and the package computes on residue arrays:
only `exactlin` names its checked wrapper `Mat`.  A failing hypothesis
test must report its example under CI's warning flags."""

import ast
import glob
import importlib.util
import os
import subprocess
import sys
from collections import Counter

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


# functions whose products are formed by plain numpy: qualified name ->
# (number of product sites, why the site stays off `matmul_mod`)
FIRST_ROW = "the first-row anchor route keeps plain numpy until ROADMAP item 2 deletes it"
PLAIN_PRODUCTS = {
    "verlinde._matpow": (1, FIRST_ROW),
    "verlinde._HomClasses.__init__": (4, FIRST_ROW),
    "verlinde._HomClasses.reduce": (1, FIRST_ROW),
    "verlinde._ver_cokernel": (2, FIRST_ROW),
    "cli.suite_fusion": (2, "einsum over integer fusion tables, not residues mod p"),
}
# the product kernels themselves
KERNELS = {"exactlin.matmul_mod", "exactlin.contract_mod"}
PRODUCT_CALLS = {"dot", "matmul", "tensordot", "einsum"}


def _product_sites(tree, module):
    """(qualified name of the enclosing function, line) of every `@` and
    every call of a numpy product in `tree`."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        is_product = (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRODUCT_CALLS
        )
        if is_product:
            sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return sites


def test_residue_products_go_through_the_kernels():
    found, where = Counter(), {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "vercat", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = os.path.basename(path)[:-3]
        for scope, line in _product_sites(tree, module):
            if scope not in KERNELS:
                found[scope] += 1
                where.setdefault(scope, []).append(f"{module}.py:{line}")
    allowed = {name: count for name, (count, _) in PLAIN_PRODUCTS.items()}
    extra = {name: where.get(name) for name in set(found) | set(allowed)
             if found[name] != allowed.get(name, 0)}
    assert extra == {}


def test_only_exactlin_names_mat():
    # modules, maps and braidings are int64 residue arrays; `Mat` stays the
    # public checked wrapper for tests and users
    found = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "vercat", "*.py"))):
        if os.path.basename(path) == "exactlin.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            if "Mat" in names:
                found.append(f"{os.path.basename(path)}:{node.lineno}")
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
