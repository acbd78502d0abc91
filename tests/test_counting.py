import inspect
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import aspsubcount.counting
import aspsubcount.oracle
from aspsubcount import (
    BackendFailure,
    BackendOutputError,
    BackendTimeout,
    IntegrityError,
    clark_completion,
    count_answer_sets_bruteforce,
    enumerate_count,
    external_projected_count,
    hybrid_count,
    parse_counter_output,
    parse_program,
    sat,
    subtractive_count,
    surplus_formula,
    write_formulas,
)

from aspsubcount.cli import main
from aspsubcount.program import GroundProgram

from conftest import EXAMPLE1, FIXTURES
from helpers import (
    answer_sets_by_definition,
    chain_text,
    cycles_text,
    distinct_cycles_text,
    qbf_count,
    qbf_saturation_text,
    random_program_text,
    random_qbf,
    random_tight_program_text,
    reach_text,
    ring_text,
    self_supporting_pairs_text,
)


def enumerated(program, limit=None):
    report = enumerate_count(program, limit)
    return report.answer_sets, report.exhausted


class TestSubtractive:
    def test_worked_example(self, example1):
        report = subtractive_count(example1)
        assert report.overcount == 2
        assert report.surplus == 1
        assert report.answer_sets == 1
        assert report.mode == "subtractive"
        assert report.backend == "builtin"
        assert report.loop_atom_count == 2
        assert report.encode_time >= 0.0 and report.count_time >= 0.0
        # in every mode, on several parts, both times are sums within the call
        several = parse_program(distinct_cycles_text(3) + EXAMPLE1)
        for count in (subtractive_count, enumerate_count, hybrid_count):
            start = time.perf_counter()
            timed = count(several)
            wall = time.perf_counter() - start
            assert timed.encode_time > 0.0 and timed.count_time > 0.0
            assert timed.encode_time + timed.count_time <= wall

    def test_tight_program_skips_surplus(self, fixture_programs):
        report = subtractive_count(fixture_programs["two_pairs"])
        assert (report.overcount, report.surplus, report.answer_sets) == (4, 0, 4)
        assert report.loop_atom_count == 0

    def test_degenerate_programs(self, fixture_programs):
        assert subtractive_count(fixture_programs["empty"]).answer_sets == 1
        assert subtractive_count(fixture_programs["constraint_unsat"]).answer_sets == 0

    def test_fixture_counts_match_brute_force(self, fixture_programs):
        for name, program in fixture_programs.items():
            if program.num_atoms > 12:
                continue
            assert (
                subtractive_count(program).answer_sets
                == count_answer_sets_bruteforce(program)
            ), name

    def test_random_programs_match_brute_force(self):
        rng = random.Random(51)
        for i in range(120):
            program = parse_program(random_program_text(rng, max_atoms=8))
            assert (
                subtractive_count(program).answer_sets
                == count_answer_sets_bruteforce(program)
            ), f"program {i}"

    def test_json_payload(self, example1):
        payload = subtractive_count(example1).to_json_dict()
        assert payload["schema"] == 1
        assert payload["answer_sets"] == 1
        assert payload["overcount"] == 2 and payload["surplus"] == 1
        assert payload["mode"] == "subtractive"
        json.dumps(payload)  # must be serializable as-is

    def test_deep_search_needs_no_recursion(self, monkeypatch):
        # with no component large enough to be ranked, the count branches
        # about n/2 levels deep on a chain; with the limit a hundred frames
        # above the caller's, a search that recursed per level would raise
        # RecursionError
        n = 400
        monkeypatch.setattr(sat, "WIDTH_RATIO", 10 * n)
        program = parse_program(chain_text(n))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            report = subtractive_count(program)
        finally:
            sys.setrecursionlimit(limit)
        assert report.answer_sets == report.overcount == n + 2

    def test_deterministic_counts(self, example1):
        a = subtractive_count(example1)
        b = subtractive_count(example1)
        assert (a.overcount, a.surplus, a.answer_sets) == (
            b.overcount,
            b.surplus,
            b.answer_sets,
        )


def emit_cnf(tmp_path, text, *flags):
    """Run ``count --emit-cnf`` on ``text``; returns the output directory."""
    path = tmp_path / "program.lp"
    path.write_text(text)
    out = tmp_path / "enc"
    assert main(["count", str(path), *flags, "--emit-cnf", str(out)]) == 0
    return out


# A program built through the library, whose atom names need escaping in
# JSON: quotes, backslashes, control characters and non-ASCII letters. Two
# positive loops put names among the primed copies too.
ESCAPED_NAMES = GroundProgram(
    ['say "hi"', "back\\slash", "tab\tin", "caf\u00e9", "\u2028", "B", "\x00", "line\nbreak"],
    [
        ([0], [1], []), ([1], [0], []), ([0, 2], [], []), ([3], [], [4]),
        ([4], [], [3]), ([5, 6], [], []), ([6], [7], []), ([7], [6], []),
    ],
)


class TestEmittedFiles:
    def test_nontight_writes_both_formulas(self, example1, tmp_path):
        out = emit_cnf(tmp_path, EXAMPLE1)
        assert sorted(os.listdir(out)) == ["phi1.cnf", "phi2.cnf", "phi2.map.json"]
        phi2 = (out / "phi2.cnf").read_text()
        assert "c p show 1 2 3 4 5 0" in phi2
        assert "p cnf 10 24" in phi2
        assert "c p show" not in (out / "phi1.cnf").read_text()
        mapping = json.loads((out / "phi2.map.json").read_text())
        assert mapping == surplus_formula(example1).variable_map(example1)

    def test_no_file_is_written_past_the_deadline(self, tmp_path):
        program = parse_program(ring_text(10000))
        completion = clark_completion(program)
        surplus = surplus_formula(program, completion)
        out = tmp_path / "enc"
        with pytest.raises(sat.SearchTimeout), sat.time_limit(0):
            write_formulas(str(out), program, completion, surplus)
        assert os.listdir(out) == []

    def test_no_file_is_written_when_the_map_runs_out_of_time(
        self, example1, tmp_path, monkeypatch
    ):
        # the formulas are built; the deadline passes while the map's text is
        def expired(items):
            raise sat.SearchTimeout("builtin counter timed out after 1s")

        completion = clark_completion(example1)
        surplus = surplus_formula(example1, completion)
        monkeypatch.setattr(aspsubcount.counting, "_clocked", expired)
        out = tmp_path / "enc"
        with pytest.raises(sat.SearchTimeout):
            write_formulas(str(out), example1, completion, surplus)
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "program",
        [parse_program(text) for text in FIXTURES.values()] + [ESCAPED_NAMES],
        ids=[*FIXTURES, "escaped-names"],
    )
    def test_map_is_the_text_of_json_dumps(self, tmp_path, program):
        completion = clark_completion(program)
        surplus = surplus_formula(program, completion)
        write_formulas(str(tmp_path), program, completion, surplus)
        var_map = surplus.variable_map(program)
        expected = json.dumps(var_map, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "phi2.map.json").read_text() == expected

    def test_tight_writes_both_formulas(self, tmp_path):
        # phi2 of a tight program is unsatisfiable: its witness disjunction is empty
        out = emit_cnf(tmp_path, FIXTURES["two_pairs"])
        assert sorted(os.listdir(out)) == ["phi1.cnf", "phi2.cnf", "phi2.map.json"]
        assert (out / "phi2.cnf").read_text().endswith("\n 0\n")


class TestEnumerate:
    def test_worked_example(self, example1):
        assert enumerated(example1) == (1, True)
        assert enumerated(example1, limit=1) == (1, False)
        report = enumerate_count(example1)
        assert (report.mode, report.overcount, report.surplus) == ("enumeration", 1, 0)
        assert report.backend == "builtin"

    def test_limit_cuts_off(self, fixture_programs):
        two_pairs = fixture_programs["two_pairs"]
        assert enumerated(two_pairs, limit=2) == (2, False)
        assert enumerated(two_pairs, limit=4) == (4, False)
        assert enumerated(two_pairs, limit=5) == (4, True)
        assert enumerated(two_pairs) == (4, True)

    def test_degenerate_programs(self, fixture_programs):
        assert enumerated(fixture_programs["empty"]) == (1, True)
        assert enumerated(fixture_programs["constraint_unsat"]) == (0, True)

    def test_limit_validation(self, example1):
        with pytest.raises(ValueError):
            enumerate_count(example1, limit=0)

    def test_random_programs_match_brute_force(self):
        rng = random.Random(52)
        for _ in range(80):
            program = parse_program(random_program_text(rng, max_atoms=7))
            expected = count_answer_sets_bruteforce(program)
            assert enumerated(program) == (expected, True)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        self_loop=st.booleans(),
        limit=st.integers(1, 4),
    )
    def test_limits_match_definition(self, seed, self_loop, limit):
        # an atom in a self-loop only, like zz, is in no completion clause
        # and must be enumerated both ways
        text = random_program_text(random.Random(seed), max_atoms=6)
        program = parse_program(text + ("zz :- zz.\n" if self_loop else ""))
        expected = len(answer_sets_by_definition(program))
        assert enumerated(program, limit) == (min(limit, expected), expected < limit)
        assert enumerated(program) == (expected, True)


class TestHybrid:
    def test_switches_modes_at_threshold(self, example1):
        low = hybrid_count(example1, threshold=1)
        assert low.mode == "hybrid" and low.answer_sets == 1
        assert low.surplus == 1
        high = hybrid_count(example1, threshold=10)
        assert high.mode == "enumeration" and high.answer_sets == 1
        assert high.overcount == 1 and high.surplus == 0
        assert high.backend == "builtin"
        assert high.encode_time > 0.0 and high.count_time > 0.0

    def test_threshold_validation(self, example1):
        with pytest.raises(ValueError, match="hybrid limit must be at least 1"):
            hybrid_count(example1, threshold=0)
        # no threshold is no valid threshold either, not a TypeError
        with pytest.raises(ValueError, match="hybrid limit must be at least 1"):
            hybrid_count(example1, threshold=None)

    def test_agreement_across_thresholds(self, fixture_programs):
        for name, program in fixture_programs.items():
            if program.num_atoms > 12:
                continue
            expected = count_answer_sets_bruteforce(program)
            for threshold in (1, 3, 10_000):
                report = hybrid_count(program, threshold=threshold)
                assert report.answer_sets == expected, (name, threshold)
                wanted = "enumeration" if expected < threshold else "hybrid"
                assert report.mode == wanted, (name, threshold)


class TestQbfSaturation:
    """Disjunctive programs with head cycles: the saturation encoding of
    exists-forall QBFs, whose answer sets are counted by evaluating the QBF
    directly."""

    def test_every_mode_counts_the_qbf(self):
        rng = random.Random(1995)
        counts = []
        for _ in range(40):
            qbf = random_qbf(rng, num_x=5, num_y=3, num_terms=14, width=3)
            expected = qbf_count(qbf)
            counts.append(expected)
            program = parse_program(qbf_saturation_text(qbf))
            assert subtractive_count(program).answer_sets == expected
            assert enumerate_count(program).answer_sets == expected
            assert hybrid_count(program).answer_sets == expected
            assert hybrid_count(program, threshold=4).answer_sets == expected
        # neither every X assignment nor none of them succeeds
        assert min(counts) < 12 and max(counts) > 20


class TestReachability:
    """Disjunctive programs over one connected graph, whose positive cycles
    leave nothing to split: every choice of edges has one answer set."""

    def test_every_mode_counts_two_to_the_edges(self):
        surpluses = []
        for seed in range(3):
            program = parse_program(reach_text(random.Random(seed), 6, 9))
            report = subtractive_count(program)
            assert report.answer_sets == report.overcount - report.surplus == 2**9
            surpluses.append(report.surplus)
            assert enumerated(program) == (2**9, True)
            assert hybrid_count(program).answer_sets == 2**9
            assert hybrid_count(program, threshold=64).answer_sets == 2**9
        # some graph has a directed cycle, so a surplus is counted
        assert max(surpluses) > 0


class TestChains:
    """Tight programs whose completion is one long, thin component, which
    the count ranks by breadth-first layers once it has more than
    ``sat.WIDTH_RATIO`` variables: chain-n has n + 2 answer sets."""

    def test_every_length_counts_in_every_mode(self):
        for n in range(1, 301):
            program = parse_program(chain_text(n))
            report = subtractive_count(program)
            assert report.answer_sets == report.overcount == n + 2
            # enumeration walks every model, and hybrid counts a tight part
            # as subtraction does: both run on the shorter chains and on
            # every hundredth length
            if n <= 40 or n % 100 == 0:
                assert enumerated(program) == (n + 2, True)
                assert hybrid_count(program).answer_sets == n + 2
                assert hybrid_count(program, threshold=n).answer_sets == n + 2


class TestOutputParsing:
    def test_standard_count_line(self):
        assert parse_counter_output("c solver says hi\ns mc 42\n") == 42
        assert parse_counter_output("s mc 0") == 0

    def test_arbitrary_precision_line(self):
        text = "c o hello\nc s exact arb int 123456789012345678901234567890\n"
        assert parse_counter_output(text) == 123456789012345678901234567890

    def test_bare_integer(self):
        assert parse_counter_output("7\n") == 7
        assert parse_counter_output("12\n34\n") == 34  # last bare line wins

    def test_priority_order(self):
        assert parse_counter_output("99\nc s exact arb int 5\ns mc 3\n") == 3
        assert parse_counter_output("99\nc s exact arb int 5\n") == 5

    def test_malformed_lines_are_skipped(self):
        assert parse_counter_output("s mc nope\n8\n") == 8
        assert parse_counter_output("c s exact arb int x\n8\n") == 8
        assert parse_counter_output("c s exact arb int 5 extra\n8\n") == 8

    @pytest.mark.parametrize("token", ["-4", "+5", "\uff15", "1_000"])
    def test_counts_are_ascii_digits_only(self, token):
        for line in (f"s mc {token}", f"c s exact arb int {token}", token):
            with pytest.raises(BackendOutputError):
                parse_counter_output(line + "\n")
            assert parse_counter_output(f"{line}\n8\n") == 8
        assert parse_counter_output(f"3\ns mc {token}\n") == 3

    def test_no_count_anywhere(self):
        with pytest.raises(BackendOutputError):
            parse_counter_output("words only\n")
        with pytest.raises(BackendOutputError):
            parse_counter_output("")


class TestExternalBackend:
    def test_matches_builtin_on_fixtures(self, fixture_programs, wrapper_factory):
        counter = wrapper_factory()
        for name in ("worked", "two_pairs", "mixloop", "constraint_unsat"):
            program = fixture_programs[name]
            builtin = subtractive_count(program)
            external = subtractive_count(program, counter)
            assert external.answer_sets == builtin.answer_sets, name
            assert external.overcount == builtin.overcount, name
            assert external.surplus == builtin.surplus, name
            assert external.backend == f"exec:{counter}"

    def test_alternative_wire_formats(self, example1, wrapper_factory):
        for fmt in ("arbint", "bare"):
            report = subtractive_count(example1, wrapper_factory("--format", fmt))
            assert (report.overcount, report.surplus) == (2, 1)

    def test_timeout(self, example1, wrapper_factory):
        with pytest.raises(BackendTimeout), sat.time_limit(0.5):
            subtractive_count(example1, wrapper_factory("--sleep", "5"))

    def test_huge_time_limit(self, example1, wrapper_factory):
        with sat.time_limit(1e9):
            assert subtractive_count(example1, wrapper_factory()).answer_sets == 1

    def test_time_limit_bounds_every_call_together(self, wrapper_factory):
        # six loop parts make twelve counter calls of 0.4 s each; one
        # deadline covers them all, not 1 s per call
        program = parse_program(distinct_cycles_text(6))
        start = time.monotonic()
        with pytest.raises(BackendTimeout), sat.time_limit(1):
            subtractive_count(program, wrapper_factory("--sleep", "0.4"))
        assert time.monotonic() - start < 3
        assert subtractive_count(program, wrapper_factory()).answer_sets == 64

    def test_copies_share_their_counter_calls(self, tmp_path, wrapper_factory):
        # six copies of one loop part: one completion call and one surplus
        # call, both on the first copy's formulas
        log = tmp_path / "listing"
        log.write_text("")
        counter = wrapper_factory("--list-dir", str(log))
        report = subtractive_count(parse_program(cycles_text(6)), counter)
        assert (report.overcount, report.answer_sets) == (3**6, 2**6)
        assert log.read_text().splitlines() == ["phi1.cnf phi2.cnf"] * 2

    def test_no_call_starts_after_the_deadline(self, tmp_path, wrapper_factory):
        log = tmp_path / "listing"
        log.write_text("")
        counter = wrapper_factory("--list-dir", str(log))
        with pytest.raises(BackendTimeout), sat.time_limit(1e-9):
            time.sleep(0.01)
            external_projected_count(str(tmp_path / "phi1.cnf"), counter)
        assert log.read_text() == ""

    def test_timeout_ends_what_the_counter_started(self, tmp_path, wrapper_factory):
        # the shell runs the stub as its child; killing the shell alone
        # would leave the stub sleeping for 30 s
        wrapper = wrapper_factory("--sleep", "30", exec_stub=False)
        cnf = tmp_path / "phi1.cnf"
        cnf.write_text("p cnf 1 0\n")
        with pytest.raises(BackendTimeout), sat.time_limit(0.5):
            external_projected_count(str(cnf), wrapper)

        def running():
            table = subprocess.run(
                ["ps", "-ww", "-eo", "stat=,args="], capture_output=True, text=True, check=True
            ).stdout
            return [
                line for line in table.splitlines()
                if str(cnf) in line and not line.lstrip().startswith("Z")
            ]

        end = time.monotonic() + 1
        while running() and time.monotonic() < end:
            time.sleep(0.05)
        assert running() == []

    def test_nonzero_exit(self, example1, wrapper_factory):
        with pytest.raises(BackendFailure):
            subtractive_count(example1, wrapper_factory("--fail"))

    def test_missing_executable(self, example1):
        with pytest.raises(BackendFailure):
            subtractive_count(example1, "/nonexistent/counter-binary")

    def test_unparseable_output(self, example1, wrapper_factory):
        with pytest.raises(BackendOutputError):
            subtractive_count(example1, wrapper_factory("--garbage"))

    def test_inconsistent_counts_are_caught(self, example1, wrapper_factory):
        # force surplus 5 against overcount 1: the subtraction would go
        # negative, which the pipeline must refuse to report
        counter = wrapper_factory("--plain-value", "1", "--projected-value", "5")
        with pytest.raises(IntegrityError):
            subtractive_count(example1, counter)

    def test_report_names_the_backend(self, example1, fixture_programs, wrapper_factory):
        counter = wrapper_factory()
        tight = fixture_programs["two_pairs"]
        assert subtractive_count(example1).backend == "builtin"
        assert hybrid_count(tight).backend == "builtin"
        assert subtractive_count(example1, counter).backend == f"exec:{counter}"
        assert hybrid_count(tight, counter=counter).backend == f"exec:{counter}"
        # hybrid enumerates the worked example's one loop part: no part is
        # counted, so no counter ran
        report = hybrid_count(example1, counter=counter)
        assert (report.mode, report.backend) == ("enumeration", "builtin")

    def test_hybrid_counter_calls(self, example1, tmp_path, wrapper_factory):
        # a loop part with fewer completion models than the threshold is
        # walked, and no counter starts; one with more is counted by the
        # counter, one call per formula
        log = tmp_path / "listing"
        log.write_text("")
        counter = wrapper_factory("--list-dir", str(log))
        assert hybrid_count(example1, counter=counter).backend == "builtin"
        assert log.read_text() == ""
        program = parse_program(self_supporting_pairs_text(10))
        report = hybrid_count(program, threshold=8, counter=counter)
        assert (report.answer_sets, report.backend) == (1, f"exec:{counter}")
        assert log.read_text().splitlines() == ["phi1.cnf phi2.cnf"] * 2

    def test_no_directory_outlives_a_count(
        self, example1, tmp_path, monkeypatch, wrapper_factory
    ):
        # the counter's formulas go to a directory under tempfile's, which
        # is gone once the count ends: by success, failure or the deadline
        flags = [(), ("--fail",), ("--sleep", "5")]
        counters = [wrapper_factory(*f) for f in flags]
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert subtractive_count(example1, counters[0]).answer_sets == 1
        with pytest.raises(BackendFailure):
            subtractive_count(example1, counters[1])
        with pytest.raises(BackendTimeout), sat.time_limit(0.5):
            subtractive_count(example1, counters[2])
        assert list(tmp_path.iterdir()) == []
        # with no tempfile directory to make one in, a count that counts a
        # part fails, and a hybrid count that counts none does not
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        with pytest.raises(FileNotFoundError):
            subtractive_count(example1, counters[0])
        report = hybrid_count(example1, counter=counters[0])
        assert (report.answer_sets, report.backend) == (1, "builtin")

    def test_counter_sees_only_the_cnf_files(self, tmp_path, wrapper_factory):
        # a loop part (two calls), then a tight program (one call)
        log = tmp_path / "listing"
        for text, listing in (
            ("a :- b.\nb :- a.\na | c.\n", ["phi1.cnf phi2.cnf"] * 2),
            (FIXTURES["two_pairs"], ["phi1.cnf"]),
        ):
            log.write_text("")
            counter = wrapper_factory("--list-dir", str(log))
            subtractive_count(parse_program(text), counter)
            assert log.read_text().splitlines() == listing

    def test_tight_programs_skip_the_surplus_call(self, wrapper_factory):
        # a stub that lies about projected counts is never consulted on a
        # tight program, so the lie cannot reach the report
        rng = random.Random(53)
        program = parse_program(random_tight_program_text(rng))
        counter = wrapper_factory("--projected-value", "999")
        report = subtractive_count(program, counter)
        assert report.surplus == 0
        assert report.answer_sets == subtractive_count(program).answer_sets


def test_counting_does_not_use_the_oracle():
    # the counting paths decide answer sets with the surplus formula's own
    # clauses; the brute-force and reduct checks stay an independent route
    assert "oracle" not in inspect.getsource(aspsubcount.counting)
    for name, value in vars(aspsubcount.counting).items():
        assert value is not aspsubcount.oracle, name
        assert getattr(value, "__module__", None) != "aspsubcount.oracle", name
