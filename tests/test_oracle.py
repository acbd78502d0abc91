import random

import pytest

from aspsubcount import (
    answer_sets_bruteforce,
    clark_completion,
    completion_model_check,
    copy_check,
    count_answer_sets_bruteforce,
    gl_reduct,
    is_answer_set,
    justification_check_all,
    justification_check_loops,
    parse_program,
    Rule,
    satisfies_program,
)

from helpers import (
    all_interpretations,
    answer_sets_by_definition,
    random_program_text,
    reduct_satisfied,
)


M1_NAMES = ["p0", "q0", "q1", "w"]
M2_NAMES = ["p1", "q0", "q1", "w"]


class TestGlReduct:
    def test_drops_only_rules_blocked_by_interp(self, example1):
        m2 = example1.interpretation(M2_NAMES)
        reduct = gl_reduct(example1, m2)
        # only the constraint has a negative body, and w is true
        assert len(reduct.rules) == 6
        assert all(isinstance(r, Rule) for r in reduct.rules)
        a = example1.atom_id
        assert reduct.rules[0] == Rule((a("p0"), a("p1")), (), ())
        assert reduct.rules[5] == Rule((a("w"),), (a("p1"), a("q1")), ())

    def test_empty_interp_keeps_everything(self, example1):
        reduct = gl_reduct(example1, frozenset())
        assert len(reduct.rules) == 7
        assert reduct.rules[-1] == Rule((), (), ())

    def test_negative_cycle(self):
        p = parse_program("a :- not b.\nb :- not a.\n")
        reduct = gl_reduct(p, p.interpretation(["a"]))
        assert reduct.rules == [Rule((0,), (), ())]

    def test_num_atoms_carried(self, example1):
        assert gl_reduct(example1, frozenset()).num_atoms == 5


class TestJustificationAll:
    def test_worked_example(self, example1):
        m1 = example1.interpretation(M1_NAMES)
        m2 = example1.interpretation(M2_NAMES)
        assert justification_check_all(example1, m1) is None
        witness = justification_check_all(example1, m2)
        assert example1.atom_names(witness) == ["p1", "q0"]

    def test_requires_a_model(self, example1):
        with pytest.raises(ValueError):
            justification_check_all(example1, frozenset())

    def test_witness_is_proper_and_satisfies_reduct(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(150):
            program = parse_program(random_program_text(rng, max_atoms=7))
            for interp in all_interpretations(program.num_atoms):
                if not satisfies_program(interp, program):
                    continue
                witness = justification_check_all(program, interp)
                if witness is None:
                    continue
                checked += 1
                assert witness < interp
                assert reduct_satisfied(witness, gl_reduct(program, interp))
        assert checked > 100

    def test_empty_witness_is_distinct_from_none(self):
        # the self-supporting rule is vacuous in the reduct, so nothing
        # forces a and the empty set witnesses that {a} is unjustified
        p = parse_program("a :- a.\n")
        witness = justification_check_all(p, p.interpretation(["a"]))
        assert witness is not None
        assert witness == frozenset()


class TestAnswerSets:
    def test_worked_example(self, example1):
        assert is_answer_set(example1, example1.interpretation(M1_NAMES))
        assert not is_answer_set(example1, example1.interpretation(M2_NAMES))
        assert not is_answer_set(example1, frozenset())  # not even a model

    def test_counts_on_fixed_programs(self, example1, fixture_programs):
        assert count_answer_sets_bruteforce(example1) == 1
        expected = {
            "pair": 2,
            "two_pairs": 4,
            "selfloop": 1,
            "posloop2": 1,
            "mixloop": 3,
            "negtwo": 2,
            "constraint_unsat": 0,
            "fact_chain": 1,
            "empty": 1,
        }
        for name, count in expected.items():
            assert count_answer_sets_bruteforce(fixture_programs[name]) == count, name

    def test_unsatisfiable_constraint(self):
        assert count_answer_sets_bruteforce(parse_program("a.\n:- not b.\n")) == 0

    def test_enumeration_matches_count(self, fixture_programs):
        for name, program in fixture_programs.items():
            sets = answer_sets_bruteforce(program)
            assert len(sets) == count_answer_sets_bruteforce(program), name
            assert len(set(sets)) == len(sets), name
            for interp in sets:
                assert is_answer_set(program, interp), name

    def test_atom_limit_guard(self):
        text = "".join(f"a{i} | b{i}.\n" for i in range(13))  # 26 atoms
        program = parse_program(text)
        with pytest.raises(ValueError):
            count_answer_sets_bruteforce(program)
        with pytest.raises(ValueError):
            answer_sets_bruteforce(program)

    def test_against_definition(self):
        rng = random.Random(42)
        for _ in range(100):
            program = parse_program(random_program_text(rng, max_atoms=8))
            assert set(answer_sets_bruteforce(program)) == set(
                answer_sets_by_definition(program)
            )


class TestLoopJustification:
    def test_worked_example(self, example1):
        m1 = example1.interpretation(M1_NAMES)
        m2 = example1.interpretation(M2_NAMES)
        assert justification_check_loops(example1, m1) is None
        witness = justification_check_loops(example1, m2)
        assert example1.atom_names(witness) == ["p1", "q0"]

    def test_requires_completion_model(self, example1):
        bad = example1.interpretation(["p1", "q1", "w"])
        with pytest.raises(ValueError):
            justification_check_loops(example1, bad)

    def test_witness_fixes_nonloop_atoms(self, fixture_programs):
        program = fixture_programs["mixloop"]
        completion = clark_completion(program)
        from aspsubcount import build_dependency_graph, loop_atoms

        loops = loop_atoms(build_dependency_graph(program))
        for interp in all_interpretations(program.num_atoms):
            if not completion_model_check(completion, interp):
                continue
            witness = justification_check_loops(program, interp, completion)
            if witness is None:
                continue
            assert witness & (interp - loops) == interp - loops
            assert witness < interp
            assert (interp & loops) - witness != frozenset()


class TestCopyCheck:
    def test_worked_example(self, example1):
        assert copy_check(example1, example1.interpretation(M1_NAMES)) is False
        assert copy_check(example1, example1.interpretation(M2_NAMES)) is True

    def test_requires_completion_model(self, example1):
        with pytest.raises(ValueError):
            copy_check(example1, example1.interpretation(["p1", "q1", "w"]))

    def test_tight_model_never_flagged(self, fixture_programs):
        for name in ("pair", "two_pairs", "negtwo", "fact_chain"):
            program = fixture_programs[name]
            completion = clark_completion(program)
            for interp in all_interpretations(program.num_atoms):
                if completion_model_check(completion, interp):
                    assert copy_check(program, interp) is False, name


class TestThreeWayAgreement:
    """On completion models the full check, the loop-restricted check, and
    the unit-propagation copy check all decide answer-set-hood alike."""

    def test_fixtures(self, fixture_programs):
        for name, program in fixture_programs.items():
            if program.num_atoms > 10:
                continue
            self._check(program, name)

    def test_random_programs(self):
        rng = random.Random(43)
        for i in range(120):
            program = parse_program(random_program_text(rng, max_atoms=7))
            self._check(program, f"random {i}")
        # every one with a positive cycle, so that the copy check meets
        # witness disjunctions over several loop atoms
        for i in range(80):
            program = parse_program(random_program_text(rng, max_atoms=7, force_loop=True))
            self._check(program, f"random looped {i}")

    @staticmethod
    def _check(program, label):
        completion = clark_completion(program)
        for interp in all_interpretations(program.num_atoms):
            if not completion_model_check(completion, interp):
                continue
            expected = is_answer_set(program, interp)
            via_loops = (
                justification_check_loops(program, interp, completion)
                is None
            )
            via_copy = not copy_check(program, interp, completion)
            assert via_loops == expected, (label, sorted(interp))
            assert via_copy == expected, (label, sorted(interp))
