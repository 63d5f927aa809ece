"""The benchmark tracer (`perfbench/tracer.py`) wraps vercat functions and
methods by attribute name; a rename in the package must fail here rather
than silently break `perfbench/run.py --trace 1`."""

import importlib.util
import os

import vercat.cli

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def test_tracer_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for name, owner, attr, _ in tracer.LAYERS:
        assert callable(getattr(owner, attr, None)), name
    for suite, attr in tracer.SUITES.items():
        assert callable(getattr(vercat.cli, attr, None)), suite
