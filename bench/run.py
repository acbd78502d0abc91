"""aspsubcount benchmark: four workloads of `aspsubcount count --json` calls.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. One process, one thread, closed loop: each operation is one
in-process call of ``aspsubcount.cli.main(["count", FILE, "--json", ...])``
whose JSON output is parsed and checked against counts computed apart from
the program (closed forms, and the definition scans of bench/oracle.py).
The run repeats whole rounds over the workload's programs until S seconds
have passed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Timings are reference-scaled (bench/refclock.py): every operation is timed
between two runs of a fixed pure-Python reference and reported as the time
it would take on a host where the reference takes REF_SECONDS.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import programs  # noqa: E402
import tracing  # noqa: E402
from refclock import ScaledClock  # noqa: E402

SETUP_REPEATS = 5


def oracle_blocks(workload: str, seed: int) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise SystemExit(f"oracle failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)["blocks"]


def set_up(workload: str, seed: int, blocks: list[dict], workdir: str):
    """Import aspsubcount afresh, build the workload's programs and write
    them. Returns the CLI module and [(case, path)]."""
    for name in [m for m in sys.modules if m.split(".")[0] == "aspsubcount"]:
        del sys.modules[name]
    cli = importlib.import_module("aspsubcount.cli")
    cases = []
    for case in programs.workload(workload, seed, blocks):
        path = os.path.join(workdir, case.name + ".lp")
        with open(path, "w") as handle:
            handle.write(case.text)
        cases.append((case, path))
    return cli, cases


def run_case(cli, case, path, tracer=None) -> tuple[dict | None, str]:
    """One operation. Returns (parsed JSON report or None, error text)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    root = tracer.begin(tracing.ROOT_SPAN) if tracer else None
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["count", path, "--json", *case.argv])
    except Exception as exc:  # an uncaught error is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.end(root)
    if code != 0:
        return None, f"exit {code}: {stderr.getvalue().strip()[:200]}"
    try:
        return json.loads(stdout.getvalue()), ""
    except json.JSONDecodeError:
        return None, "output is not JSON"


def check(case, report: dict) -> list[str]:
    """Mismatches between a report and the independently known values."""
    problems = []
    if report.get("answer_sets") != case.answers:
        problems.append(f"answer_sets {report.get('answer_sets')} != {case.answers}")
    if report.get("mode") != case.mode:
        problems.append(f"mode {report.get('mode')!r} != {case.mode!r}")
    over, surplus = report.get("overcount"), report.get("surplus")
    if not (isinstance(over, int) and isinstance(surplus, int)) or (
        over - surplus != report.get("answer_sets") or surplus < 0
    ):
        problems.append(f"overcount {over} - surplus {surplus} != answer_sets")
    if case.mode == "enumeration" and surplus != 0:
        problems.append(f"enumeration reports surplus {surplus}")
    if case.overcount is not None and case.mode != "enumeration" and over != case.overcount:
        problems.append(f"overcount {over} != {case.overcount}")
    return problems


def measure(cli, cases, seconds: float, tracer):
    """Whole rounds over ``cases`` until ``seconds`` have passed."""
    clock = ScaledClock()
    samples = {case.name: [] for case, _ in cases}
    raw_samples = {case.name: [] for case, _ in cases}
    layers = {case.name: [] for case, _ in cases}
    recorded = []
    attempted = 0
    failures, mismatches = [], []
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        rounds += 1
        for case, path in cases:
            # a full collection between operations, untimed, so that each
            # operation's own collections depend on its allocations alone
            # and not on which earlier operation left the heap half full
            gc.collect()
            (report, error), raw, factor = clock.measure(
                lambda: run_case(cli, case, path, tracer)
            )
            if tracer:
                spans = tracer.take()
                layers[case.name].append(tracing.layer_metrics(spans, factor))
                recorded.append({"case": case.name, "round": rounds, "factor": factor,
                                 "spans": spans})
            attempted += 1
            samples[case.name].append(raw * factor)
            raw_samples[case.name].append(raw)
            if report is None:
                failures.append(f"{case.name}: {error}")
            else:
                mismatches.extend(f"{case.name}: {p}" for p in check(case, report))
    return {
        "samples": samples,
        "raw_samples": raw_samples,
        "layers": layers,
        "recorded": recorded,
        "attempted": attempted,
        "failures": failures,
        "mismatches": mismatches,
    }


def end_to_end(result, setup_times, peak_rss_mb):
    samples = result["samples"]
    every = [x for xs in samples.values() for x in xs]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "suite_s": (sum(statistics.median(xs) for xs in samples.values()), "s"),
        "count_p50_s": (statistics.median(every), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(result):
    """Per-layer metrics of one round: times are per-case medians over the
    rounds, summed over cases; counts repeat exactly between rounds and are
    summed over cases."""
    totals = {}
    for rows in result["layers"].values():
        for key in rows[0]:
            if key.endswith("_s"):
                value = statistics.median(row[key] for row in rows)
            else:
                value = rows[0][key]
            totals[key] = totals.get(key, 0) + value
    models = totals.pop("counting.enum_models")
    answers = totals.pop("counting.enum_answers")
    metrics = {}
    for key, value in totals.items():
        metrics[key] = (value, "s" if key.endswith("_s") else "count")
    metrics["counting.enum_models"] = (models, "count")
    # answer sets per completion model checked; 0 when nothing was enumerated
    metrics["counting.enum_yield"] = (answers / models if models else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aspsubcount benchmark")
    parser.add_argument("--workload", required=True, choices=programs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(SRC, "aspsubcount", "cli.py"),
                   os.path.join(ROOT, "tests", "helpers.py")):
        if not os.path.isfile(needed):
            sys.stderr.write(f"bench: {needed} not found; run from a source checkout\n")
            return 2
    sys.path.insert(0, SRC)

    blocks = oracle_blocks(args.workload, args.seed)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        clock = ScaledClock()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            (cli, cases), raw, factor = clock.measure(
                lambda: set_up(args.workload, args.seed, blocks, workdir)
            )
            setup_times.append(raw * factor)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        result = measure(cli, cases, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, xs in result["samples"].items():
        raw = statistics.median(result["raw_samples"][name])
        print(f"# {name}: median {statistics.median(xs):.4f} s scaled, "
              f"{raw:.4f} s raw, over {len(xs)} operations")
    for line in (result["failures"] + result["mismatches"])[:20]:
        print(f"# error: {line}")
    if tracer:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "parent", "start", "end", "info"],
                       "operations": result["recorded"]}, handle)
        print(f"# trace written to {os.path.relpath(path, ROOT)}")
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, setup_times, peak_rss_mb)
    print(json.dumps({
        "correct": not result["mismatches"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
