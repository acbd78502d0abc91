"""Command-line interface.

Subcommands: analyze, encode, count, oracle, check. Programs are read from
a file path or from standard input when the path is ``-``. Exit codes:
0 success, 1 usage/input/backend failure (also recursion too deep or out of
memory), 2 counter timeout (external or builtin), 3 integrity failure
(surplus exceeded overcount).
"""

import argparse
import functools
import gc
import json
import math
import os
import sys

from .completion import clark_completion, completion_model_check
from .copyenc import surplus_formula
from .counting import (
    BackendTimeout,
    BackendError,
    HYBRID_THRESHOLD,
    IntegrityError,
    enumerate_count,
    hybrid_count,
    subtractive_count,
    write_formulas,
)
from .oracle import (
    BRUTE_FORCE_ATOM_LIMIT,
    answer_sets_bruteforce,
    copy_check,
    justification_check_all,
    justification_check_loops,
)
from .program import ParseError, lint, parse_program, satisfies_program
from .sat import SearchTimeout, time_limit

ENV_BACKEND = "ASPSUBCOUNT_BACKEND"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors (2 is reserved for
    counter timeouts)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(prog="aspsubcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("path", help="program file, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    add_common(sub.add_parser("analyze", help="program statistics and tightness"))

    p_encode = sub.add_parser("encode", help="write DIMACS for both formulas")
    add_common(p_encode)
    p_encode.add_argument(
        "--emit-cnf", metavar="DIR", required=True, help="output directory"
    )

    p_count = sub.add_parser("count", help="count answer sets")
    add_common(p_count)
    p_count.add_argument(
        "--mode",
        choices=["subtractive", "enumerate", "hybrid"],
        default="subtractive",
    )
    p_count.add_argument(
        "--threshold",
        type=_positive_int,
        default=None,
        help=f"completion models that hybrid walks in a loop part before it counts the "
        f"part (default {HYBRID_THRESHOLD}); cap on answer sets for --mode enumerate",
    )
    p_count.add_argument(
        "--backend",
        default=None,
        help=f"builtin or exec:PATH (default: ${ENV_BACKEND} or builtin)",
    )
    p_count.add_argument(
        "--timeout",
        type=_positive_seconds,
        metavar="S",
        help="give up S seconds after the command starts, on parsing, encoding, "
        "every search and every counter call (exit 2)",
    )
    p_count.add_argument("--emit-cnf", metavar="DIR", default=None)

    add_common(sub.add_parser("oracle", help="brute-force answer sets (small programs only)"))

    p_check = sub.add_parser("check", help="judge one interpretation")
    add_common(p_check)
    p_check.add_argument(
        "--model",
        required=True,
        help="comma-separated atom names ('' for the empty interpretation)",
    )
    return parser


def _read_program(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path!r}: {exc.strerror}"))
    except UnicodeDecodeError as exc:
        raise SystemExit(_usage_error(f"cannot read {path!r}: not {exc.encoding} text"))
    return parse_program(text)


def _backend_config(args) -> str | None:
    """The external counter's path, or None for the builtin counter."""
    spec = args.backend or os.environ.get(ENV_BACKEND) or "builtin"
    if spec == "builtin":
        return None
    if spec.startswith("exec:"):
        exe = spec[len("exec:") :]
        if not exe:
            raise SystemExit(_usage_error("empty executable in --backend"))
        return exe
    raise SystemExit(_usage_error(f"unknown backend {spec!r}"))


def _usage_error(message: str) -> int:
    sys.stderr.write(f"aspsubcount: error: {message}\n")
    return 1


def _report(args, payload: dict, lines: list[str]) -> int:
    """Every subcommand's output: ``payload`` as one JSON object, after
    ``"schema": 1``, under --json, and ``lines`` otherwise. Returns the
    exit status, 0."""
    print(json.dumps({"schema": 1, **payload}) if args.json else "\n".join(lines))
    return 0


def _cmd_analyze(args) -> int:
    program = _read_program(args.path)
    loops = sorted(map(program.name_of, program.loop_atoms))
    warnings = lint(program)
    payload = {
        "atoms": program.num_atoms,
        "rules": len(program.rules),
        "loop_atoms": loops,
        "tight": not loops,
        "disjunctive": program.is_disjunctive,
        "warnings": warnings,
    }
    listed = f" ({', '.join(loops)})" if loops else ""
    _report(args, payload, [
        f"atoms: {program.num_atoms}",
        f"rules: {len(program.rules)}",
        f"loop atoms: {len(loops)}{listed}",
        f"tight: {'no' if loops else 'yes'}",
        f"disjunctive: {'yes' if program.is_disjunctive else 'no'}",
    ])
    if not args.json:
        sys.stderr.writelines(f"warning: {warning}\n" for warning in warnings)
    return 0


def _emit(program, directory: str) -> dict:
    """Write the whole program's formulas into ``directory``; return encode's payload."""
    surplus = surplus_formula(program)
    paths = write_formulas(directory, surplus)
    return {
        **dict(zip(["phi1", "phi2", "map"], paths)),
        "atoms": program.num_atoms,
        "phi1_vars": surplus.completion.cnf.num_vars,
        "phi2_vars": surplus.cnf.num_vars,
    }


def _cmd_encode(args) -> int:
    payload = _emit(_read_program(args.path), args.emit_cnf)
    return _report(args, payload, [f"wrote {payload[k]}" for k in ("phi1", "phi2", "map")])


def _cmd_count(args) -> int:
    with time_limit(args.timeout):
        program = _read_program(args.path)
        counter = _backend_config(args)
        if args.mode == "enumerate" and args.backend and counter:
            return _usage_error("--mode enumerate runs no model counter; drop --backend")
        if args.mode == "subtractive" and args.threshold is not None:
            return _usage_error("--mode subtractive takes no --threshold")
        if args.emit_cnf is not None:  # the whole program; the count reuses its analysis
            _emit(program, args.emit_cnf)
        if args.mode == "enumerate":
            report = enumerate_count(program, args.threshold)
        elif args.mode == "hybrid":
            report = hybrid_count(program, args.threshold or HYBRID_THRESHOLD, counter)
        else:
            report = subtractive_count(program, counter)
    if report.exhausted is False:
        sys.stderr.write(f"note: stopped at limit {args.threshold}; count is a lower bound\n")
    if args.mode == "enumerate":
        lines = [f"mode: enumeration ({'exhausted' if report.exhausted else 'capped'})"]
    else:
        lines = [
            f"mode: {report.mode}",
            f"backend: {report.backend}",
            f"loop atoms: {report.loop_atom_count}",
            f"overcount: {report.overcount}",
            f"surplus: {report.surplus}",
        ]
    lines.append(f"answer sets: {report.answer_sets}")
    return _report(args, report.to_json_dict(), lines)


def _cmd_oracle(args) -> int:
    program = _read_program(args.path)
    if program.num_atoms > BRUTE_FORCE_ATOM_LIMIT:
        return _usage_error(
            f"oracle is capped at {BRUTE_FORCE_ATOM_LIMIT} atoms "
            f"(program has {program.num_atoms})"
        )
    sets = [program.atom_names(interp) for interp in answer_sets_bruteforce(program)]
    lines = ["{" + ", ".join(names) + "}" for names in sets]
    lines.append(f"answer sets: {len(sets)}")
    return _report(args, {"answer_sets": len(sets), "sets": sets}, lines)


def _cmd_check(args) -> int:
    program = _read_program(args.path)
    names = [n.strip() for n in args.model.split(",") if n.strip()]
    try:
        interp = program.interpretation(names)
    except KeyError as exc:
        return _usage_error(f"unknown atom {exc.args[0]!r} in --model")
    completion = clark_completion(program)
    models_program = satisfies_program(interp, program)
    models_completion = completion_model_check(completion, interp)

    just_all = justification_check_all(program, interp) if models_program else None
    just_loops = copy_sat = None
    if models_completion:
        just_loops = justification_check_loops(program, interp, completion)
        copy_sat = copy_check(program, interp, completion)
    answer = models_program and just_all is None

    def justification(checked, witness, why):
        """A justification check's JSON verdict and its text."""
        if not checked:
            return None, f"skipped (not {why})"
        if witness is None:
            return {"sat": False, "witness": None}, "UNSAT"
        names = program.atom_names(witness)
        return {"sat": True, "witness": names}, "SAT (witness: {" + ", ".join(names) + "})"

    all_json, all_text = justification(models_program, just_all, "a model")
    loops_json, loops_text = justification(models_completion, just_loops, "a completion model")
    copy_text = {True: "SAT", False: "UNSAT", None: "skipped (not a completion model)"}
    payload = {
        "model_of_program": models_program,
        "model_of_completion": models_completion,
        "justification_all": all_json,
        "justification_loops": loops_json,
        "copy_check": copy_sat,
        "answer_set": answer,
    }
    return _report(args, payload, [
        f"model of program: {'yes' if models_program else 'no'}",
        f"model of completion: {'yes' if models_completion else 'no'}",
        f"justification (all atoms): {all_text}",
        f"justification (loop atoms): {loops_text}",
        f"copy check: {copy_text[copy_sat]}",
        f"answer set: {'yes' if answer else 'no'}",
    ])


_COMMANDS = {
    "analyze": _cmd_analyze,
    "encode": _cmd_encode,
    "count": _cmd_count,
    "oracle": _cmd_oracle,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # counts are exact, and can run past Python's default 4300 digits
        sys.set_int_max_str_digits(0)
    # no command makes reference cycles (tests/test_cli.py checks), so the
    # collector would only rescan what it builds; the caller's setting returns
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OSError as exc:
        # the program was read already, so this is one of the files written
        target = f" {exc.filename!r}" if exc.filename else ""
        return _usage_error(f"cannot write{target}: {exc.strerror or exc}")
    except ParseError as exc:
        sys.stderr.write(f"aspsubcount: parse error: {exc}\n")
        return 1
    except (BackendTimeout, SearchTimeout) as exc:
        sys.stderr.write(f"aspsubcount: {exc}\n")
        return 2
    except IntegrityError as exc:
        sys.stderr.write(f"aspsubcount: integrity error: {exc}\n")
        return 3
    except BackendError as exc:
        sys.stderr.write(f"aspsubcount: backend error: {exc}\n")
        return 1
    except RecursionError:
        sys.stderr.write("aspsubcount: recursion too deep for the builtin counter\n")
        return 1
    except MemoryError:
        sys.stderr.write("aspsubcount: out of memory\n")
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main(None))
