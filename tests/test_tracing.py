"""The benchmark's tracer wraps functions by name; each one must still
exist, or ``bench/run.py --trace 1`` cannot install."""

import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, func_name in tracing.TRACED:
        module = importlib.import_module(f"aspsubcount.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
