"""Spans around the public functions of each aspsubcount module.

The tracer replaces each traced function, in every aspsubcount module that
holds a reference to it, with a wrapper that records a span: name, parent
span, start, end and a few sizes taken from the result. Spans stay in
memory; ``layer_metrics`` turns one operation's spans into per-layer
numbers, and the caller writes the spans out when the run ends. Nothing in
the program changes, and nothing is patched unless ``install`` is called.
"""

import sys
import time

# (module, function) pairs wrapped by the tracer; the span is named
# "<module>.<function>".
TRACED = [
    ("program", "parse_program"),
    ("depgraph", "build_dependency_graph"),
    ("depgraph", "loop_atoms"),
    ("completion", "clark_completion"),
    ("copyenc", "surplus_formula"),
    ("sat", "count_models"),
    ("sat", "projected_count"),
    ("sat", "solve_clauses"),
    ("oracle", "copy_check"),
    ("counting", "subtractive_count"),
    ("counting", "enumerate_count"),
    ("counting", "hybrid_count"),
]

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        # each span: [name, parent index or -1, start, end, info]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, info=None):
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[4] = info
        self._stack.pop()

    def take(self) -> list[list]:
        """The spans recorded since the last call, parents indexed within
        that list; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, func):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                tracer.end(index, _info(name, result))

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Wrap every TRACED function wherever a loaded aspsubcount module
        refers to it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "aspsubcount"]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"aspsubcount.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _info(name: str, result):
    """Sizes worth keeping from a traced call's result."""
    if result is None:
        return None
    if name in ("completion.clark_completion", "copyenc.surplus_formula"):
        return [result.cnf.num_vars, len(result.cnf.clauses)]
    if name == "oracle.copy_check":
        return bool(result)
    return None


def layer_metrics(spans: list[list], scale: float) -> dict:
    """Per-layer numbers for one operation's spans (the first span is the
    ROOT_SPAN around the whole CLI call). Times are multiplied by
    ``scale``, the operation's reference-loop factor."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]

    def duration(i):
        return (spans[i][3] - spans[i][2]) * scale

    def self_time(i):
        return (spans[i][3] - spans[i][2] - child_time[i]) * scale

    out = {
        "program.parse_s": 0.0,
        "depgraph.analysis_s": 0.0,
        "depgraph.loop_atoms_calls": 0,
        "completion.encode_s": 0.0,
        "completion.calls": 0,
        "completion.phi1_vars": 0,
        "completion.phi1_clauses": 0,
        "copyenc.encode_s": 0.0,
        "copyenc.phi2_vars": 0,
        "copyenc.phi2_clauses": 0,
        "sat.overcount_s": 0.0,
        "sat.surplus_s": 0.0,
        "sat.leaf_solve_calls": 0,
        "sat.solve_s": 0.0,
        "oracle.copy_check_s": 0.0,
        "oracle.copy_check_calls": 0,
        "counting.enum_models": 0,
        "counting.enum_answers": 0,
        "counting.self_s": 0.0,
        "cli.self_s": 0.0,
    }
    for i, (name, parent, _, _, info) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == ROOT_SPAN:
            out["cli.self_s"] += self_time(i)
        elif name == "program.parse_program":
            out["program.parse_s"] += duration(i)
        elif name.startswith("depgraph."):
            out["depgraph.analysis_s"] += duration(i)
            if name == "depgraph.loop_atoms":
                out["depgraph.loop_atoms_calls"] += 1
        elif name == "completion.clark_completion":
            out["completion.encode_s"] += duration(i)
            out["completion.calls"] += 1
            # sizes of the formula counted, not summed over rebuilds
            out["completion.phi1_vars"] = max(out["completion.phi1_vars"], info[0])
            out["completion.phi1_clauses"] = max(out["completion.phi1_clauses"], info[1])
        elif name == "copyenc.surplus_formula":
            out["copyenc.encode_s"] += duration(i)
            out["copyenc.phi2_vars"] = max(out["copyenc.phi2_vars"], info[0])
            out["copyenc.phi2_clauses"] = max(out["copyenc.phi2_clauses"], info[1])
        elif name == "sat.count_models":
            out["sat.overcount_s"] += duration(i)
        elif name == "sat.projected_count":
            out["sat.surplus_s"] += duration(i)
        elif name == "sat.solve_clauses":
            if parent_name == "sat.projected_count":
                out["sat.leaf_solve_calls"] += 1
            elif parent_name == "counting.enumerate_count":
                out["sat.solve_s"] += duration(i)
        elif name == "oracle.copy_check":
            out["oracle.copy_check_s"] += duration(i)
            out["oracle.copy_check_calls"] += 1
            if parent_name == "counting.enumerate_count":
                out["counting.enum_models"] += 1
                out["counting.enum_answers"] += not info
        elif name.startswith("counting."):
            out["counting.self_s"] += self_time(i)
    return out
