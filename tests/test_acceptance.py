"""End-to-end acceptance gate.

Each test prints one [acceptance N] PASS/FAIL line (run with -s to see them
all); the asserts behind the line carry the details on failure.
"""

import os
import random
import shutil
import sys
import time

import pytest

from aspsubcount import (
    build_dependency_graph,
    clark_completion,
    completion_model_check,
    copy_check,
    copy_operation,
    count_answer_sets_bruteforce,
    count_models,
    dimacs,
    external_projected_count,
    hybrid_count,
    is_answer_set,
    justification_check_all,
    justification_check_loops,
    loop_atoms,
    parse_program,
    projected_count,
    subtractive_count,
    surplus_formula,
)
from aspsubcount.sat import time_limit

from helpers import (
    all_interpretations,
    random_program_text,
    random_tight_program_text,
)


# one line per criterion; conftest echoes these in the terminal summary so
# they are visible even when pytest captures test output
REPORT_LINES = []


def report(number, name, ok, extra=""):
    suffix = f" ({extra})" if extra else ""
    line = f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'}{suffix}"
    REPORT_LINES.append(line)
    print(line)


def test_acceptance_1_oracle_agreement():
    """500 random programs, half with positive cycles: the subtractive
    pipeline must match brute force exactly, and quickly."""
    rng = random.Random(1001)
    t0 = time.perf_counter()
    nontight = 0
    mismatches = []
    for i in range(500):
        program = parse_program(random_program_text(rng))
        if loop_atoms(build_dependency_graph(program)):
            nontight += 1
        got = subtractive_count(program).answer_sets
        want = count_answer_sets_bruteforce(program)
        if got != want:
            mismatches.append((i, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 300 and nontight >= 200
    report(
        1,
        "subtractive count equals brute force on 500 random programs",
        ok,
        f"{elapsed:.1f}s, {nontight} non-tight",
    )
    assert mismatches == []
    assert nontight >= 200
    assert elapsed < 300


def test_acceptance_2_worked_example(example1):
    """The five-atom walkthrough program, end to end: loop atoms, copy
    clauses, both candidate models, final count."""
    loops = loop_atoms(build_dependency_graph(example1))
    loop_names = sorted(example1.name_of(x) for x in loops)

    type1 = [(-7, 4), (-8, 5)]
    type2 = [(3, 7), (7, -8), (-1, 8), (-2, -7, 8)]
    copy_ok = copy_operation(example1, {3: 7, 4: 8}) == type1 + type2

    m1 = example1.interpretation(["p0", "q0", "q1", "w"])
    m2 = example1.interpretation(["p1", "q0", "q1", "w"])
    m1_ok = copy_check(example1, m1) is False and is_answer_set(example1, m1)
    witness = justification_check_all(example1, m2)
    m2_ok = (
        copy_check(example1, m2) is True
        and not is_answer_set(example1, m2)
        and witness is not None
        and example1.atom_names(witness) == ["p1", "q0"]
    )
    count = subtractive_count(example1).answer_sets

    ok = loop_names == ["q1", "w"] and copy_ok and m1_ok and m2_ok and count == 1
    report(2, "worked example: loops, copies, both models, count", ok)
    assert loop_names == ["q1", "w"]
    assert copy_ok
    assert m1_ok
    assert m2_ok
    assert count == 1


def test_acceptance_3_check_equivalence(fixture_programs):
    """On every completion model of every fixture, the three justification
    checks and the answer-set decision must agree."""
    programs = {
        name: p for name, p in fixture_programs.items() if p.num_atoms <= 12
    }
    rng = random.Random(1003)
    for i in range(200):
        programs[f"random{i}"] = parse_program(
            random_program_text(rng, max_atoms=8)
        )
    violations = []
    models_seen = 0
    for name, program in programs.items():
        completion = clark_completion(program)
        for interp in all_interpretations(program.num_atoms):
            if not completion_model_check(completion, interp):
                continue
            models_seen += 1
            answer = is_answer_set(program, interp)
            via_all = justification_check_all(program, interp) is None
            via_loops = (
                justification_check_loops(program, interp, completion)
                is None
            )
            via_copy = not copy_check(program, interp, completion)
            if not (answer == via_all == via_loops == via_copy):
                violations.append((name, sorted(interp)))
    ok = not violations and models_seen > 250
    report(
        3,
        "justification checks agree on every completion model",
        ok,
        f"{models_seen} models checked",
    )
    assert violations == []
    assert models_seen > 250


def test_acceptance_4_tight_identity():
    """For tight programs the completion count is already the answer: the
    surplus, counted for real, must be zero."""
    rng = random.Random(1004)
    bad = []
    for i in range(100):
        program = parse_program(random_tight_program_text(rng))
        report_obj = subtractive_count(program)
        completion = clark_completion(program)
        completion_count = count_models(completion.cnf)
        sur = surplus_formula(program, completion)
        if not (
            projected_count(sur.cnf, sur.projection_out) == 0
            and report_obj.surplus == 0
            and report_obj.loop_atom_count == 0
            and report_obj.answer_sets == completion_count
            and report_obj.answer_sets == count_answer_sets_bruteforce(program)
        ):
            bad.append(i)
    ok = not bad
    report(4, "tight programs: count equals completion count, surplus 0", ok)
    assert bad == []


def test_acceptance_5_astronomical_counts():
    """127 independent binary choices: exactly 2^127 answer sets, fast,
    with the construction validated against brute force at small sizes."""
    for k in range(1, 5):
        text = "".join(f"a{i} | b{i}.\n" for i in range(k))
        program = parse_program(text)
        assert subtractive_count(program).answer_sets == 2**k
        assert count_answer_sets_bruteforce(program) == 2**k

    text = "".join(f"a{i} | b{i}.\n" for i in range(127))
    program = parse_program(text)
    t0 = time.perf_counter()
    got = subtractive_count(program).answer_sets
    elapsed = time.perf_counter() - t0
    ok = got == 2**127 and elapsed < 10
    report(
        5,
        "127 independent pairs count to 2**127",
        ok,
        f"{elapsed:.2f}s",
    )
    assert got == 2**127
    assert elapsed < 10


def test_acceptance_6_encoding_size():
    """The subtraction formula stays linear in program size: clause count
    at most 12x the literal occurrences, variable count exact."""
    rng = random.Random(1006)
    max_ratio = 0.0
    exact_vars = True
    for _ in range(300):
        program = parse_program(random_program_text(rng))
        literals = sum(
            len(r.head) + len(r.pos_body) + len(r.neg_body)
            for r in program.rules
        )
        sur = surplus_formula(program)
        max_ratio = max(max_ratio, sur.cnf.num_clauses / literals)
        loops = loop_atoms(build_dependency_graph(program))
        if sur.cnf.num_vars != clark_completion(program).cnf.num_vars + 2 * len(loops):
            exact_vars = False
    ok = max_ratio <= 12 and exact_vars
    report(
        6,
        "surplus encoding stays within 12 clauses per program literal",
        ok,
        f"max ratio {max_ratio:.2f}",
    )
    assert max_ratio <= 12
    assert exact_vars


def test_acceptance_7_hybrid_consistency(fixture_programs):
    """hybrid_count agrees with subtractive_count at every threshold, and
    its mode field records which path produced the number."""
    programs = {
        name: p for name, p in fixture_programs.items() if p.num_atoms <= 12
    }
    rng = random.Random(1007)
    for i in range(20):
        programs[f"random{i}"] = parse_program(random_program_text(rng, max_atoms=8))
    bad = []
    for name, program in programs.items():
        expected = subtractive_count(program).answer_sets
        for threshold in (1, 10, 10_000):
            rep = hybrid_count(program, threshold=threshold)
            wanted_mode = "enumeration" if expected < threshold else "hybrid"
            if rep.answer_sets != expected or rep.mode != wanted_mode:
                bad.append((name, threshold, rep.answer_sets, rep.mode))
    ok = not bad
    report(7, "hybrid strategy agrees with subtraction at all thresholds", ok)
    assert bad == []


def _find_external_counter():
    spec = os.environ.get("ASPSUBCOUNT_BACKEND", "")
    if spec.startswith("exec:"):
        return spec[len("exec:") :]
    if spec and spec != "builtin":
        return spec
    for candidate in ("ganak", "gpmc", "d4", "sharpsat", "sharpSAT"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def test_acceptance_8_external_differential(fixture_programs, tmp_path):
    """Builtin projected counts vs a real external counter on the emitted
    surplus formulas. Skipped when no counter is installed."""
    exe = _find_external_counter()
    if exe is None:
        line = (
            "[acceptance 8] external counter differential: SKIP "
            "(no external counter on PATH and ASPSUBCOUNT_BACKEND unset)"
        )
        REPORT_LINES.append(line)
        print(line)
        pytest.skip("no external counter available")
    bad = []
    for name, program in fixture_programs.items():
        if program.num_atoms > 12 or not loop_atoms(
            build_dependency_graph(program)
        ):
            continue
        sur = surplus_formula(program)
        path = tmp_path / f"{name}.cnf"
        path.write_text(sur.to_dimacs())
        builtin = projected_count(sur.cnf, sur.projection_out)
        with time_limit(60):
            external = external_projected_count(str(path), exe)
        if builtin != external:
            bad.append((name, builtin, external))
    ok = not bad
    report(8, "external counter matches builtin projected counts", ok)
    assert bad == []
