"""Counting by atom-disjoint parts: the split itself, and counts of split
programs against brute force, the completion by definition and closed
forms."""

import importlib.util
import json
import os
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import aspsubcount.counting
import aspsubcount.depgraph
import aspsubcount.sat
from aspsubcount import (
    BackendFailure,
    GroundProgram,
    IntegrityError,
    build_dependency_graph,
    clark_completion,
    count_answer_sets_bruteforce,
    count_models,
    enumerate_count,
    hybrid_count,
    loop_atoms,
    parse_program,
    projected_count,
    split,
    subtractive_count,
    surplus_formula,
)
from aspsubcount.cli import main

from conftest import EXAMPLE1
from test_counting import emit_cnf, enumerated
from helpers import (
    chain_text,
    completion_models_by_definition,
    cycles_text,
    distinct_cycles_text,
    pairs_text,
    prefixed,
    random_program_text,
    random_tight_program_text,
    self_supporting_pairs_text,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
_spec = importlib.util.spec_from_file_location(
    "bench_programs", os.path.join(BENCH, "programs.py")
)
BENCH_PROGRAMS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(BENCH_PROGRAMS)

# two loop blocks that are not the same program up to atom names
LOOPS_TWICE = "a :- b.\nb :- a.\na | c.\nx :- y.\ny :- x.\nx | z.\n:- z.\n"


def parts_of(program):
    return [(part, part.loop_atoms, copies) for part, copies in split(program)]


class TestSplit:
    def test_tight_program_is_one_part(self):
        program = parse_program(pairs_text(3) + "c :- a0, not b1.\n")
        assert parts_of(program) == [(program, frozenset(), 1)]

    def test_one_component_is_the_program_itself(self, example1):
        [(part, loops, copies)] = parts_of(example1)
        assert part is example1 and copies == 1
        assert loops == loop_atoms(build_dependency_graph(example1))

    def test_loop_components_then_remainder(self):
        program = parse_program("p | q.\n" + LOOPS_TWICE + ":- .\nr :- not p.\n")
        parts = parts_of(program)
        assert [part.atoms for part, _, _ in parts] == [
            ["a", "b", "c"],
            ["x", "y", "z"],
            ["p", "q", "r"],
        ]
        assert [sorted(loops) for _, loops, _ in parts] == [[0, 1], [0, 1], []]
        assert [copies for _, _, copies in parts] == [1, 1, 1]
        remainder = parts[2][0]
        # rules keep their order; the atomless constraint stays in the remainder
        assert [len(r.head) for r in remainder.rules] == [2, 0, 1]
        assert sum(len(part.rules) for part, _, _ in parts) == len(program.rules)

    def test_parts_renumber_in_original_order(self):
        program = parse_program("c | z.\nx :- y.\ny :- x.\nx :- c.\n")
        [(part, loops, copies)] = parts_of(program)
        assert part is program and copies == 1
        program = parse_program("z.\nx :- y.\ny :- x.\nx :- c.\n")
        parts = parts_of(program)
        assert [part.atoms for part, _, _ in parts] == [["x", "y", "c"], ["z"]]
        assert parts[0][1] == frozenset({0, 1})

    def test_components_of_unmentioned_atoms(self):
        # linked atoms share a part; an atom in no rule joins the remainder
        program = parse_program("a | b.\nc :- d.\nd :- c.\ne :- a.\n")
        program = GroundProgram(program.atoms + ["u"], program.rules)
        parts = parts_of(program)
        assert [part.atoms for part, _, _ in parts] == [["c", "d"], ["a", "b", "e", "u"]]
        assert [len(part.rules) for part, _, _ in parts] == [2, 2]

    def test_copies_are_returned_once(self):
        # three copies of one loop block: the first, renumbered, with the
        # number of copies, then the tight rest
        parts = parts_of(parse_program(cycles_text(3) + pairs_text(2, "t")))
        [(block, loops, copies), (rest, no_loops, once)] = parts
        assert block.atoms == ["a0", "b0", "x0", "y0"]
        assert block.rules == parse_program(cycles_text(1)).rules
        assert (loops, copies) == (frozenset({2, 3}), 3)
        assert (rest.atoms, no_loops, once) == (["ta0", "tb0", "ta1", "tb1"], frozenset(), 1)

    def test_rules_in_another_order_make_another_part(self):
        # the second block is the first up to atom names and rule order
        program = parse_program("a :- b.\nb :- a.\na | c.\nx :- y.\nx | z.\ny :- x.\n")
        parts = parts_of(program)
        assert [(part.atoms, copies) for part, _, copies in parts] == [
            (["a", "b", "c"], 1),
            (["x", "y", "z"], 1),
        ]
        report = subtractive_count(program)
        assert report.answer_sets == count_answer_sets_bruteforce(program) == 4
        assert report.overcount == completion_models_by_definition(program)
        assert enumerated(program) == (4, True)
        assert hybrid_count(program, threshold=2).answer_sets == 4

    def test_repeated_pairs_are_one_part(self):
        [(part, loops, copies)] = parts_of(parse_program(pairs_text(1000)))
        assert (part.atoms, part.rules) == (["a0", "b0"], [((0, 1), (), ())])
        assert (loops, copies) == (frozenset(), 1000)

    @pytest.mark.parametrize(
        "text",
        [chain_text(50) + pairs_text(10, "p"), pairs_text(2)],
        ids=["9-of-111-rules", "1-of-2-rules"],
    )
    def test_repeats_within_the_share_leave_the_program_whole(self, text):
        # the extra copies of a pair hold no more than half of the rules
        program = parse_program(text)
        [(part, loops, copies)] = parts_of(program)
        assert part is program and (loops, copies) == (frozenset(), 1)


class TestSplitCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.booleans(), min_size=2, max_size=3),
        threshold=st.integers(1, 64),
    )
    def test_union_counts_are_products(self, seed, kinds, threshold):
        rng = random.Random(seed)
        texts = []
        answers = completions = 1
        for i, loopy in enumerate(kinds):
            if loopy:
                block = random_program_text(rng, max_atoms=5, max_rules=7)
            else:
                block = random_tight_program_text(rng, max_atoms=5, max_rules=7)
            program = parse_program(block)
            answers *= count_answer_sets_bruteforce(program)
            completions *= completion_models_by_definition(program)
            texts.append(prefixed(block, f"p{i}"))
        union = parse_program("".join(texts))
        report = subtractive_count(union)
        assert report.answer_sets == answers
        assert report.overcount == completions
        assert report.surplus == completions - answers
        # the same subtraction on the unsplit formulas
        completion = clark_completion(union)
        surplus = surplus_formula(union, completion)
        assert count_models(completion.cnf) == completions
        assert projected_count(surplus.cnf, surplus.projection_out) == report.surplus
        # enumeration and hybrid, part by part
        assert enumerated(union) == (answers, True)
        hybrid = hybrid_count(union, threshold=threshold)
        assert hybrid.answer_sets == answers
        if answers < threshold:
            assert hybrid.mode == "enumeration" and hybrid.exhausted is True
            assert (hybrid.overcount, hybrid.surplus) == (answers, 0)
        else:
            assert hybrid.mode == "hybrid"
            assert hybrid.overcount == completions

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        copies=st.integers(2, 4),
        loopy=st.booleans(),
        threshold=st.integers(1, 64),
    )
    def test_copies_count_as_powers(self, seed, copies, loopy, threshold):
        rng = random.Random(seed)
        block = random_program_text(rng, max_atoms=5, max_rules=7, force_loop=True)
        if loopy:
            other = random_program_text(rng, max_atoms=5, max_rules=7)
        else:
            other = random_tight_program_text(rng, max_atoms=5, max_rules=7)
        alone = [(parse_program(block), copies), (parse_program(other), 1)]
        answers = completions = 1
        expected = Counter()
        for program, times in alone:
            answers *= count_answer_sets_bruteforce(program) ** times
            completions *= completion_models_by_definition(program) ** times
            for part, loops, n in parts_of(program):
                if loops:
                    expected[part.num_atoms, tuple(part.rules)] += n * times
        texts = [prefixed(block, f"c{i}") for i in range(copies)]
        union = parse_program("".join(texts) + prefixed(other, "o"))
        # each loop part of the block comes back once, with its copies in
        # every renamed block counted
        parts = parts_of(union)
        assert {(p.num_atoms, tuple(p.rules)): n for p, loops, n in parts if loops} == expected
        assert parts[0][2] >= copies
        report = subtractive_count(union)
        assert report.answer_sets == answers
        assert report.overcount == completions
        assert report.surplus == completions - answers
        assert enumerated(union) == (answers, True)
        hybrid = hybrid_count(union, threshold=threshold)
        assert hybrid.answer_sets == answers
        if answers < threshold:
            assert hybrid.mode == "enumeration" and hybrid.exhausted is True
            assert (hybrid.overcount, hybrid.surplus) == (answers, 0)
        else:
            assert hybrid.mode == "hybrid"
            assert (hybrid.overcount, hybrid.surplus) == (completions, completions - answers)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.lists(st.tuples(st.booleans(), st.integers(1, 6)), min_size=1, max_size=3),
        threshold=st.integers(1, 64),
    )
    def test_repeated_blocks_in_any_rule_order(self, seed, blocks, threshold):
        # tight and loop blocks, each repeated under fresh prefixes, with
        # the rules of all copies shuffled
        rng = random.Random(seed)
        lines = []
        answers = completions = 1
        for i, (loopy, copies) in enumerate(blocks):
            if loopy:
                block = random_program_text(rng, max_atoms=4, max_rules=5, force_loop=True)
            else:
                block = random_tight_program_text(rng, max_atoms=4, max_rules=5)
            program = parse_program(block)
            answers *= count_answer_sets_bruteforce(program) ** copies
            completions *= completion_models_by_definition(program) ** copies
            for c in range(copies):
                lines += prefixed(block, f"p{i}c{c}").splitlines(keepends=True)
        rng.shuffle(lines)
        union = parse_program("".join(lines))
        # the parts, with their copies, partition the rules and the atoms
        parts = parts_of(union)
        assert sum(n * len(part.rules) for part, _, n in parts) == len(union.rules)
        assert sum(n * part.num_atoms for part, _, n in parts) == union.num_atoms
        report = subtractive_count(union)
        assert (report.overcount, report.answer_sets) == (completions, answers)
        limit = 256
        assert enumerated(union, limit) == (min(answers, limit), answers < limit)
        hybrid = hybrid_count(union, threshold=threshold)
        assert hybrid.answer_sets == answers
        assert hybrid.mode == ("enumeration" if answers < threshold else "hybrid")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.lists(st.tuples(st.booleans(), st.integers(1, 4)), min_size=1, max_size=3),
    )
    def test_parts_carry_their_own_loop_atoms(self, seed, blocks):
        # the blocks of test_repeated_blocks_in_any_rule_order: each part's
        # loop atoms, set by split, are the ones its own graph gives
        rng = random.Random(seed)
        lines = []
        for i, (loopy, copies) in enumerate(blocks):
            if loopy:
                block = random_program_text(rng, max_atoms=4, max_rules=5, force_loop=True)
            else:
                block = random_tight_program_text(rng, max_atoms=4, max_rules=5)
            for c in range(copies):
                lines += prefixed(block, f"p{i}c{c}").splitlines(keepends=True)
        rng.shuffle(lines)
        program = parse_program("".join(lines))
        parts = split(program)
        assert program.loop_atoms == loop_atoms(build_dependency_graph(program))
        for part, _ in parts:
            assert part.loop_atoms == loop_atoms(build_dependency_graph(part))

    def test_always_false_constraint(self):
        assert subtractive_count(parse_program(":- .\n")).answer_sets == 0
        program = parse_program(":- .\n" + LOOPS_TWICE)
        report = subtractive_count(program)
        # the loop parts are counted too, so the overcount is the
        # completion's: zero, as the empty constraint holds in no model
        assert (report.overcount, report.surplus, report.answer_sets) == (0, 0, 0)
        assert report.loop_atom_count == 4

    def test_atom_only_in_a_constraint(self):
        program = parse_program("b.\n:- not a.\n")
        assert subtractive_count(program).answer_sets == 0
        for text in ("b.\n:- not a.\n" + LOOPS_TWICE, ":- a.\n" + LOOPS_TWICE):
            program = parse_program(text)
            report = subtractive_count(program)
            assert report.answer_sets == count_answer_sets_bruteforce(program), text
            assert report.overcount == completion_models_by_definition(program), text

    def test_count_surplus_anyway(self):
        # the surplus of a tight part, which counting skips, counted for real
        program = parse_program(pairs_text(2, "t") + LOOPS_TWICE)
        [tight] = [part for part, loops, _ in parts_of(program) if not loops]
        surplus = surplus_formula(tight, clark_completion(tight))
        assert projected_count(surplus.cnf, surplus.projection_out) == 0
        assert subtractive_count(program).answer_sets == count_answer_sets_bruteforce(program)

    def test_external_stub_on_two_components(self, wrapper_factory):
        program = parse_program(LOOPS_TWICE)
        builtin = subtractive_count(program)
        counter = wrapper_factory()
        external = subtractive_count(program, counter)
        assert (external.overcount, external.surplus, external.answer_sets) == (
            builtin.overcount,
            builtin.surplus,
            builtin.answer_sets,
        )
        assert builtin.answer_sets == count_answer_sets_bruteforce(program)
        assert external.backend == f"exec:{counter}"

    def test_lying_stub_on_many_parts(self, wrapper_factory):
        program = parse_program(LOOPS_TWICE + pairs_text(2, "t"))
        counter = wrapper_factory("--plain-value", "1", "--projected-value", "5")
        with pytest.raises(IntegrityError, match="in part 1 of 3"):
            subtractive_count(program, counter)

    def test_one_component_keeps_formula_sizes(self, example1, tmp_path):
        completion = clark_completion(example1)
        surplus = surplus_formula(example1, completion)
        assert (completion.cnf.num_vars, completion.cnf.num_clauses) == (6, 13)
        assert (surplus.cnf.num_vars, surplus.cnf.num_clauses) == (10, 24)
        out = emit_cnf(tmp_path, EXAMPLE1)
        assert (out / "phi1.cnf").read_text() == completion.to_dimacs()
        assert (out / "phi2.cnf").read_text() == surplus.to_dimacs()

    def test_emitted_files_hold_the_whole_program(self, tmp_path):
        text = LOOPS_TWICE + pairs_text(1, "t")
        program = parse_program(text)
        out = emit_cnf(tmp_path, text)
        completion = clark_completion(program)
        assert (out / "phi1.cnf").read_text() == completion.to_dimacs()
        phi2 = surplus_formula(program, completion).to_dimacs()
        assert (out / "phi2.cnf").read_text() == phi2

    def test_many_cycles(self):
        report = subtractive_count(parse_program(cycles_text(200)))
        assert report.answer_sets == 2**200
        assert report.overcount == 3**200
        assert report.loop_atom_count == 400

    def test_enumeration_agrees(self):
        program = parse_program(EXAMPLE1 + cycles_text(2) + pairs_text(1, "t"))
        expected = subtractive_count(program).answer_sets
        assert expected == 4 * 2
        assert enumerated(program) == (expected, True)
        assert hybrid_count(program, threshold=3).answer_sets == expected


class TestAnalysisOnce:
    @pytest.fixture
    def loop_atoms_calls(self, monkeypatch):
        calls = []
        original = aspsubcount.depgraph.loop_atoms

        def counted(graph):
            calls.append(graph)
            return original(graph)

        # every module that refers to loop_atoms, so no call goes uncounted;
        # the others read a program's own, which it finds through depgraph
        users = [m for name, m in sys.modules.items() if name.startswith("aspsubcount")]
        users = [m for m in users if getattr(m, "loop_atoms", None) is original]
        assert {m.__name__ for m in users}.isdisjoint({
            "aspsubcount.cli",
            "aspsubcount.copyenc",
            "aspsubcount.counting",
            "aspsubcount.oracle",
        })
        assert "aspsubcount.depgraph" in {m.__name__ for m in users}
        for module in users:
            monkeypatch.setattr(module, "loop_atoms", counted)
        return calls

    def test_subtractive(self, loop_atoms_calls):
        subtractive_count(parse_program(cycles_text(3) + EXAMPLE1))
        assert len(loop_atoms_calls) == 1

    def test_hybrid_both_paths(self, loop_atoms_calls):
        program = parse_program(cycles_text(2))
        assert hybrid_count(program, threshold=100).mode == "enumeration"
        assert len(loop_atoms_calls) == 1
        assert hybrid_count(program, threshold=2).mode == "hybrid"
        assert len(loop_atoms_calls) == 1  # kept on the program object

    @pytest.mark.parametrize(
        "flags",
        [[], ["--mode", "enumerate"], ["--mode", "hybrid", "--threshold", "2"],
         ["--mode", "hybrid", "--threshold", "50"]],
    )
    def test_count_command(self, loop_atoms_calls, tmp_path, flags):
        path = tmp_path / "program.lp"
        path.write_text(cycles_text(2) + EXAMPLE1)
        assert main(["count", str(path), *flags]) == 0
        assert len(loop_atoms_calls) == 1
        # the emitted files and the count share the program's analysis
        out = tmp_path / "enc"
        assert main(["count", str(path), *flags, "--emit-cnf", str(out)]) == 0
        assert len(loop_atoms_calls) == 2

    def test_encode_command(self, loop_atoms_calls, tmp_path):
        path = tmp_path / "program.lp"
        path.write_text(cycles_text(2) + EXAMPLE1)
        assert main(["encode", str(path), "--emit-cnf", str(tmp_path / "enc")]) == 0
        assert len(loop_atoms_calls) == 1

    def test_check_command(self, loop_atoms_calls, tmp_path, capsys):
        # a completion model that is no answer set: both loop checks run
        path = tmp_path / "program.lp"
        path.write_text(EXAMPLE1)
        assert main(["check", str(path), "--model", "p1,q0,q1,w", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["copy_check"] is True and verdict["justification_loops"]["sat"]
        assert len(loop_atoms_calls) == 1


ZERO_LOOP = "zx :- zy.\nzy :- zx.\n:- not zx.\n"


class TestPerPart:
    """Which parts are enumerated: every completion model that the
    enumeration walks is counted, with no timing involved."""

    @pytest.fixture
    def walked(self, monkeypatch):
        calls = [0]
        original = aspsubcount.counting.models

        def counted(*args):
            for model in original(*args):
                calls[0] += 1
                yield model

        monkeypatch.setattr(aspsubcount.counting, "models", counted)
        return calls

    @pytest.fixture
    def completions(self, monkeypatch):
        calls = [0]
        original = aspsubcount.counting.clark_completion

        def counted(part):
            calls[0] += 1
            return original(part)

        monkeypatch.setattr(aspsubcount.counting, "clark_completion", counted)
        return calls

    def test_hybrid_enumerates_loop_parts_one_by_one(self, walked):
        report = hybrid_count(parse_program(distinct_cycles_text(12)))
        assert (report.mode, report.answer_sets) == ("enumeration", 2**12)
        assert walked[0] == 12 * 3

    def test_hybrid_counts_a_tight_program(self, walked):
        report = hybrid_count(parse_program(pairs_text(14)))
        assert (report.mode, report.answer_sets) == ("hybrid", 2**14)
        assert report.overcount == 2**14
        assert walked[0] == 0

    def test_zero_part_starts_no_counter(self, walked, wrapper_factory):
        # below the threshold the cycle part (3 models) and the loop part
        # with no answer set (1 model) are both walked, and no counter runs
        program = parse_program(cycles_text(3) + ZERO_LOOP)
        failing = wrapper_factory("--fail")
        report = hybrid_count(program, threshold=4, counter=failing)
        assert (report.mode, report.answer_sets, report.overcount) == ("enumeration", 0, 0)
        assert report.backend == "builtin"
        assert walked[0] == 3 + 1
        # at threshold 2 the cycle part is counted in its place, before the
        # zero part is reached
        with pytest.raises(BackendFailure):
            hybrid_count(program, threshold=2, counter=failing)

    def test_hybrid_walk_stops_at_the_threshold(self, walked):
        # 2**10 completion models and one answer set: the walk stops after
        # 8 models, and the part is counted in its place
        report = hybrid_count(parse_program(self_supporting_pairs_text(10)), threshold=8)
        assert (report.mode, report.answer_sets) == ("enumeration", 1)
        assert report.overcount == 1
        assert walked[0] <= 8 + 1

    @pytest.mark.parametrize("count", [subtractive_count, hybrid_count, enumerate_count])
    def test_zero_first_part_builds_no_other_part(self, count, completions):
        # the first part is a loop with no completion model; the 50 cycle
        # parts after it are never built
        text = "za :- zb.\nzb :- za.\n:- za.\n:- not za.\n" + distinct_cycles_text(50)
        assert count(parse_program(text)).answer_sets == 0
        assert completions[0] == 1

    @pytest.mark.parametrize("count", [subtractive_count, hybrid_count, enumerate_count])
    def test_copies_are_built_once(self, count, completions):
        report = count(parse_program(cycles_text(200)))
        assert report.answer_sets == 2**200
        assert completions[0] == 1

    def test_repeated_pairs_build_one_engine_of_one_pair(self, monkeypatch):
        # one engine over the pair's two clauses, not one over 40000
        # variables (whose clauses the merge of equal variables empties)
        engines = []

        class Counted(aspsubcount.sat._Trail):
            __slots__ = ()

            def __init__(self, clauses, num_vars):
                engines.append((len(clauses), num_vars))
                super().__init__(clauses, num_vars)

        monkeypatch.setattr(aspsubcount.sat, "_Trail", Counted)
        report = subtractive_count(parse_program(pairs_text(20000)))
        assert report.answer_sets == 2**20000
        assert engines == [(2, 2)], engines[:3]

    @pytest.mark.parametrize(
        "text",
        [BENCH_PROGRAMS.reach(5, 6, 1, 1), distinct_cycles_text(4)],
        ids=["reach-5-6", "cycles-4"],
    )
    def test_hybrid_builds_two_engines_per_loop_part(self, text, monkeypatch):
        # one engine walks a loop part's completion models and one copy-
        # checks them all; none is built per model
        program = parse_program(text)
        loop_parts = sum(1 for _, loops, _ in parts_of(program) if loops)
        engines = [0]

        class Counted(aspsubcount.sat._Trail):
            __slots__ = ()

            def __init__(self, *args):
                engines[0] += 1
                super().__init__(*args)

        monkeypatch.setattr(aspsubcount.sat, "_Trail", Counted)
        report = hybrid_count(program)
        assert report.mode == "enumeration"
        assert loop_parts >= 1
        assert engines[0] <= 2 * loop_parts, (engines[0], loop_parts)
        monkeypatch.undo()
        assert report.answer_sets == subtractive_count(program).answer_sets


class TestDecisions:
    """The number of decisions a count makes, on benchmark programs: a
    change to the decision rule or the ranks that grows a search fails
    here before it shows as time."""

    @pytest.fixture
    def splits(self, monkeypatch):
        calls = [0]
        original = aspsubcount.sat._Trail.split

        def counted(engine, *args):
            calls[0] += 1
            return original(engine, *args)

        monkeypatch.setattr(aspsubcount.sat._Trail, "split", counted)
        return calls

    @pytest.mark.parametrize("n", [17, 150, 1000])
    def test_chains_are_cut_in_halves(self, n, splits):
        # under one split per answer set: each decision on x_i sets every
        # later x or every earlier one, ranking adds a second split of the
        # whole formula, and a one-clause component needs none
        report = subtractive_count(parse_program(BENCH_PROGRAMS.chain(n)))
        assert report.answer_sets == n + 2
        assert splits[0] <= {17: 16, 150: 128, 1000: 980}[n]

    @pytest.mark.parametrize("n", [150, 1000, 2000])
    def test_chains_are_searched_to_logarithmic_depth(self, n, monkeypatch):
        # a count that decides along a chain from one end makes as many
        # splits as one that cuts it in halves, but goes n / 2 decisions
        # deep: each decision is the assign of one literal at a trail mark,
        # and undoing to a mark closes every decision made at or after it
        marks, depth = [], [0]

        class Deepest(aspsubcount.sat._Trail):
            __slots__ = ()

            def assign(self, queue):
                if len(queue) == 1:
                    marks.append(len(self.trail))
                    depth[0] = max(depth[0], len(marks))
                return super().assign(queue)

            def undo(self, mark):
                while marks and marks[-1] >= mark:
                    marks.pop()
                super().undo(mark)

        monkeypatch.setattr(aspsubcount.sat, "_Trail", Deepest)
        report = subtractive_count(parse_program(BENCH_PROGRAMS.chain(n)))
        assert report.answer_sets == n + 2
        assert depth[0] <= 2 * n.bit_length(), depth[0]

    def test_fan_in_is_linear(self, splits):
        # goal :- x_i. x_i | y_i.: each y_i is not x_i, and once goal is
        # decided one clause over every x_i is left, counted in closed form
        calls = {}
        for n in (1000, 2000, 4000):
            text = "".join(f"goal :- x{i}.\nx{i} | y{i}.\n" for i in range(n))
            program = parse_program(text)
            splits[0] = 0
            start = time.monotonic()
            assert subtractive_count(program).answer_sets == 2**n
            if n == 2000:
                assert time.monotonic() - start < 1
            calls[n] = splits[0]
        assert calls[4000] <= 4 * calls[1000], calls

    def test_reach_pool(self, splits):
        for g in BENCH_PROGRAMS.REACH_POOL:
            report = subtractive_count(parse_program(BENCH_PROGRAMS.reach(10, 20, g, 23)))
            assert report.answer_sets == 2**20
        assert splits[0] <= 1968
