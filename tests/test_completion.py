import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount import (
    CnfFormula,
    clark_completion,
    completion_model_check,
    count_models,
    parse_program,
    projected_count,
    solve_clauses,
    surplus_formula,
)
from aspsubcount.sat import models

from helpers import (
    all_interpretations,
    direct_completion_holds,
    random_program_text,
    tt_count,
    tt_projected_count,
)

random_programs = st.builds(
    lambda seed, force_loop: parse_program(
        random_program_text(random.Random(seed), max_atoms=5, max_rules=7, force_loop=force_loop)
    ),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)


# Support lists that the per-atom support pass folds: repeated conjuncts,
# complementary single literals, an atom supporting itself positively or
# negatively, and rules whose bodies contradict themselves.
SUPPORT_CASES = {
    "repeated_single": "a :- b.\na :- b.\nb | c.\n",
    "repeated_pair": "a :- b, c.\na :- c, b.\na :- d.\nb | c.\nd | e.\n",
    "complementary": "g :- x.\ng :- not x.\nx | y.\n",
    "negative_self": "g :- not g.\n",
    "negative_self_and_pair": "g :- not g.\ng :- x, y.\nx | y.\n",
    "positive_self": "g :- g.\ng :- x, not y.\nx | y.\n",
    "void_body": "a :- b, not b.\na :- c.\nb | c.\n",
    "all_void": "a :- b, not b.\na | c :- c.\nb | d.\n",
}


@pytest.fixture
def fixtures_and_support_cases(fixture_programs):
    return fixture_programs | {name: parse_program(t) for name, t in SUPPORT_CASES.items()}


def completion_model_count_by_direct_eval(program):
    return sum(
        1
        for interp in all_interpretations(program.num_atoms)
        if direct_completion_holds(program, interp)
    )


class TestWorkedExample:
    """Variables: p0=1 p1=2 q0=3 q1=4 w=5; one auxiliary (6) for the
    two-literal support conjunct of w."""

    def test_rule_clauses(self, example1):
        # one clause per rule, in rule order, right after the (absent)
        # headless-atom units
        art = clark_completion(example1)
        assert art.cnf.clauses[:7] == [
            (1, 2),
            (3, 4),
            (3, -5),
            (4, -5),
            (-1, 5),
            (-2, -4, 5),
            (5,),
        ]

    def test_no_headless_atoms(self, example1):
        # every atom heads a rule, so the first rule's clause opens the CNF
        art = clark_completion(example1)
        assert art.cnf.clauses[0] == (1, 2)
        assert len(art.cnf.clauses) == 13

    def test_support_clauses(self, example1):
        # support clauses follow the rule clauses, atom by atom; p1's and
        # q1's equal p0's and q0's as literal sets and are left out
        art = clark_completion(example1)
        assert art.cnf.clauses[7:] == [
            (-1, -2),                     # p0 -> not p1, and p1 -> not p0
            (-3, -4, 5),                  # q0 -> (not q1 or w), and q1's
            (-6, 2),
            (-6, 4),
            (6, -2, -4),                  # aux 6 <-> (p1 and q1)
            (-5, 1, 6),                   # w -> (p0 or (p1 and q1))
        ]
        assert (art.num_atoms, art.cnf.num_vars) == (5, 6)  # one auxiliary, 6

    def test_var_allocation(self, example1):
        art = clark_completion(example1)
        # atom id i is variable i + 1; the one auxiliary comes after them
        assert art.num_atoms == 5
        assert art.cnf.num_vars == 6
        assert example1.atom_id("w") + 1 == 5

    def test_model_count_is_two(self, example1):
        art = clark_completion(example1)
        assert count_models(art.cnf) == 2
        assert tt_count(art.cnf) == 2

    def test_model_check(self, example1):
        art = clark_completion(example1)
        m1 = example1.interpretation(["p0", "w", "q0", "q1"])
        m2 = example1.interpretation(["p1", "w", "q0", "q1"])
        not_model = example1.interpretation(["p1", "q1", "w"])
        assert completion_model_check(art, m1)
        assert completion_model_check(art, m2)
        assert not completion_model_check(art, not_model)

    def test_model_check_rejects_bad_atom_ids(self, example1):
        art = clark_completion(example1)
        with pytest.raises(ValueError):
            completion_model_check(art, frozenset({99}))


class TestSmallPrograms:
    def test_disjunctive_fact_has_exclusive_models(self):
        p = parse_program("a | b.\n")
        art = clark_completion(p)
        assert count_models(art.cnf) == 2
        model = solve_clauses(art.cnf.clauses + [(1,)], art.cnf.num_vars)
        assert model[2] is False

    def test_headless_atom_forced_false(self):
        p = parse_program("b :- not a.\n")
        art = clark_completion(p)
        assert art.cnf.clauses[0] == (-2,)
        assert count_models(art.cnf) == 1

    def test_unsatisfiable_completion(self):
        p = parse_program("b.\n:- not a.\n")
        assert count_models(clark_completion(p).cnf) == 0

    def test_empty_program(self):
        art = clark_completion(parse_program(""))
        assert art.cnf.num_vars == 0
        assert count_models(art.cnf) == 1

    def test_self_supporting_rule_constrains_nothing(self):
        # the only rule for a is a :- a; both truth values survive
        art = clark_completion(parse_program("a :- a.\n"))
        assert art.cnf.clauses == []
        assert count_models(art.cnf) == 2

    def test_head_body_overlap(self):
        p = parse_program("a :- a, b.\nb.\n")
        art = clark_completion(p)
        assert count_models(art.cnf) == 2  # b forced, a free

    def test_single_rule_support_without_aux(self):
        p = parse_program("a :- b, c.\nb.\nc.\n")
        art = clark_completion(p)
        assert art.cnf.num_vars == art.num_atoms == 3  # no auxiliary
        assert count_models(art.cnf) == 1

    def test_fact_makes_support_vacuous(self):
        # a heads a fact, so no support clause constrains it
        p = parse_program("a.\na :- b.\nb :- a.\n")
        art = clark_completion(p)
        m = p.interpretation(["a", "b"])
        assert completion_model_check(art, m)


class TestAgainstDirectEvaluation:
    def test_fixture_programs_exhaustive(self, fixtures_and_support_cases):
        for name, program in fixtures_and_support_cases.items():
            art = clark_completion(program)
            for interp in all_interpretations(program.num_atoms):
                assert completion_model_check(art, interp) == direct_completion_holds(
                    program, interp
                ), (name, sorted(interp))

    def test_random_programs_exhaustive(self):
        rng = random.Random(21)
        for _ in range(120):
            program = parse_program(random_program_text(rng, max_atoms=8))
            art = clark_completion(program)
            for interp in all_interpretations(program.num_atoms):
                assert completion_model_check(art, interp) == direct_completion_holds(
                    program, interp
                )

    def test_counts_preserved_through_tseitin(self):
        # CNF count == atom-level model count == projected count
        rng = random.Random(22)
        for _ in range(80):
            program = parse_program(random_program_text(rng, max_atoms=8))
            art = clark_completion(program)
            direct = completion_model_count_by_direct_eval(program)
            assert count_models(art.cnf) == direct
            aux = range(art.num_atoms + 1, art.cnf.num_vars + 1)
            assert projected_count(art.cnf, aux) == direct

    def test_counts_preserved_on_fixtures(self, fixtures_and_support_cases):
        for name, program in fixtures_and_support_cases.items():
            art = clark_completion(program)
            direct = completion_model_count_by_direct_eval(program)
            assert count_models(art.cnf) == direct, name
            aux = range(art.num_atoms + 1, art.cnf.num_vars + 1)
            assert projected_count(art.cnf, aux) == direct, name


class TestShape:
    def test_deterministic(self, example1):
        a = clark_completion(example1)
        b = clark_completion(example1)
        assert a.cnf.clauses == b.cnf.clauses

    def test_size_stays_linear_in_program_measure(self):
        rng = random.Random(23)
        for _ in range(100):
            program = parse_program(random_program_text(rng))
            art = clark_completion(program)
            measure = sum(
                len(r.head) * (len(r.head) + len(r.pos_body) + len(r.neg_body) + 2)
                for r in program.rules
            )
            bound = 2 * (program.num_atoms + len(program.rules) + measure)
            assert art.cnf.num_clauses <= bound
            assert sum(len(c) for c in art.cnf.clauses) <= 3 * bound

    def test_time_grows_near_linearly_in_the_supports(self):
        # goal has one two-literal support per pair; four times the pairs
        # must cost well under sixteen times the time (a ratio, so the
        # host's speed cancels)
        def seconds(n):
            text = "".join(f"a{i} | b{i}.\ngoal :- a{i}, b{i}.\n" for i in range(n))
            program = parse_program(text + ":- goal.\n")
            best = float("inf")
            for _ in range(2):
                start = time.perf_counter()
                clark_completion(program)
                best = min(best, time.perf_counter() - start)
            return best

        assert seconds(20000) <= 8 * seconds(5000)


class TestRepeatedAtoms:
    def test_head_and_negative_body_atom_gives_one_literal(self):
        program = parse_program("a | a :- not a, not a.\n")
        assert program.rules == [((0,), (), (0,))]
        cnf = clark_completion(program).cnf
        assert cnf.clauses == [(1,), (-1,)]
        assert count_models(cnf) == tt_count(cnf) == 0
        assert completion_model_count_by_direct_eval(program) == 0


class TestEachClauseOnce:
    @settings(max_examples=150, deadline=None)
    @given(program=random_programs)
    def test_no_two_clauses_share_a_literal_set(self, program):
        clauses = clark_completion(program).cnf.clauses
        assert len({frozenset(c) for c in clauses}) == len(clauses)

    @settings(max_examples=60, deadline=None)
    @given(program=random_programs)
    def test_counts_match_truth_tables(self, program):
        completion = clark_completion(program)
        assert count_models(completion.cnf) == tt_count(completion.cnf)
        surplus = surplus_formula(program, completion)
        assert projected_count(surplus.cnf, surplus.projection_out) == tt_projected_count(
            surplus.cnf, surplus.projection_out
        )

    @settings(max_examples=100, deadline=None)
    @given(program=random_programs, pick=st.randoms(use_true_random=False))
    def test_a_repeated_clause_changes_no_search(self, program, pick):
        # a later clause with an earlier one's literals is never the first
        # clause not yet satisfied, so dropping it leaves the model order
        cnf = clark_completion(program).cnf
        if not cnf.clauses:
            return
        repeat = list(pick.choice(cnf.clauses))
        pick.shuffle(repeat)
        longer = CnfFormula(cnf.num_vars, cnf.clauses + [tuple(repeat)])
        assert list(models(longer.clauses, cnf.num_vars)) == list(
            models(cnf.clauses, cnf.num_vars)
        )
        assert count_models(longer) == count_models(cnf)
