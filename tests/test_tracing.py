"""The benchmark's tracer wraps functions by name; each one must still
exist, or ``bench/run.py --trace 1`` cannot install. A short traced run
checks the rest: the tracer reads sizes off the encoders' results."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py")
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    tracing = load_tracing()
    assert tracing.TRACED
    for module_name, func_name in tracing.TRACED:
        module = importlib.import_module(f"aspsubcount.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_traced_run_reads_formula_sizes():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "loops-split",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["completion.phi1_vars"]["value"] > 0
    assert metrics["copyenc.phi2_vars"]["value"] > 0


def test_analysis_spans_are_siblings(monkeypatch, tmp_path):
    # the tracer sums every depgraph span into depgraph.analysis_s, so the
    # graph is built and its loop atoms found one after the other, never
    # one inside the other, and once per command
    import aspsubcount.cli

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "aspsubcount":
            for attr, value in list(vars(module).items()):
                if callable(value):  # restored when the test ends
                    monkeypatch.setattr(module, attr, value)
    tracer = load_tracing().Tracer()
    tracer.install()
    path = tmp_path / "program.lp"
    path.write_text("a :- b.\nb :- a.\na | c.\nx :- y.\ny :- x.\nx | z.\n")
    for command in (
        ["count", str(path)],
        ["count", str(path), "--mode", "hybrid"],
        ["analyze", str(path)],
        ["encode", str(path), "--emit-cnf", str(tmp_path / "enc")],
        ["check", str(path), "--model", "c,z"],
    ):
        assert aspsubcount.cli.main(command) == 0
        spans = tracer.take()
        names = [span[0] for span in spans]
        assert names.count("depgraph.build_dependency_graph") == 1, command
        assert names.count("depgraph.loop_atoms") == 1, command
        for name, parent, *_ in spans:
            if parent >= 0 and name.startswith("depgraph."):
                assert not spans[parent][0].startswith("depgraph."), command
