import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount import (
    CnfFormula,
    GroundProgram,
    build_dependency_graph,
    clark_completion,
    copy_operation,
    count_models,
    is_answer_set,
    loop_atoms,
    parse_program,
    projected_count,
    solve_clauses,
    surplus_formula,
)

from helpers import (
    all_interpretations,
    answer_sets_by_definition,
    completion_models_by_definition,
    direct_completion_holds,
    eval_clauses,
    random_program_text,
    two_copy_surplus_formula,
)


def program_loops(program):
    return loop_atoms(build_dependency_graph(program))


@st.composite
def repeating_programs(draw):
    """Programs over up to five atoms whose rules may name an atom twice in
    one part and in several parts, heads and negative bodies included."""
    n = draw(st.integers(1, 5))
    ids = st.lists(st.integers(0, n - 1), max_size=3)
    rules = draw(st.lists(st.tuples(ids, ids, ids), max_size=8))
    return GroundProgram([f"a{i}" for i in range(n)], rules)


class TestCopyOperation:
    def test_worked_example_clauses(self, example1):
        # loop atoms q1 (id 3, var 4) and w (id 4, var 5); copies 6 and 7
        loops = program_loops(example1)
        assert loops == frozenset({3, 4})
        clauses = copy_operation(example1, {3: 6, 4: 7})
        type1 = [(-6, 4), (-7, 5)]
        type2 = [(3, 6), (6, -7), (-1, 7), (-2, -6, 7)]
        assert clauses == type1 + type2

    def test_constraint_contributes_nothing(self, example1):
        # the headless rule never meets the loop atoms
        clauses = copy_operation(example1, {3: 6, 4: 7})
        assert len(clauses) == 2 + 4  # two type 1 clauses, four type 2

    def test_tight_program_is_empty(self):
        p = parse_program("a1 | b1.\na2 | b2.\n")
        assert copy_operation(p, {}) == []

    def test_disjunctive_loop_rule(self):
        p = parse_program("x | y :- z.\nz :- x.\nq | z.\n")
        loops = program_loops(p)
        assert loops == frozenset({0, 2})  # x and z
        type1 = [(-5, 1), (-6, 3)]
        # y (var 2) and q (var 4) keep their own variables
        type2 = [(2, 5, -6), (-5, 6), (4, 6)]
        assert copy_operation(p, {0: 5, 2: 6}) == type1 + type2

    def test_self_loop_rule_becomes_tautology(self):
        p = parse_program("a :- a.\n")
        # the type 1 clause only; the type 2 clause a' -> a' is dropped
        assert copy_operation(p, {0: 2}) == [(-2, 1)]

    def test_negative_body_is_not_substituted(self):
        p = parse_program("a :- b, not a.\nb :- a.\n")
        loops = program_loops(p)
        assert loops == frozenset({0, 1})
        clauses = copy_operation(p, {0: 3, 1: 4})
        assert clauses[:2] == [(-3, 1), (-4, 2)]  # type 1
        # head a -> 3, pos body b -> 4, neg body a keeps var 1
        assert (1, 3, -4) in clauses[2:]
        assert (-3, 4) in clauses[2:]

    def test_missing_copy_variable(self, example1):
        with pytest.raises(ValueError):
            copy_operation(example1, {3: 6})


class TestSurplusWorkedExample:
    def test_variable_layout(self, example1):
        sur = surplus_formula(example1)
        # atoms are variables 1..5; everything above them is projected away
        assert sur.cnf.num_vars == 10
        assert sur.loops == (3, 4)
        assert sur.cv_prime == {3: 7, 4: 8}
        assert sur.variable_map()["aux"] == [6, 9, 10]
        assert sur.projection_out == range(6, 11)
        assert "\nc p show 1 2 3 4 5 0\n" in sur.to_dimacs()

    def test_strictness_clauses(self, example1):
        sur = surplus_formula(example1)
        comp = clark_completion(example1)
        # the completion, one copy, then the witnesses: 9 for q1 (var 4)
        # and 10 for w (var 5), each implying its atom and not its copy
        witness = [(-9, -7), (-9, 4), (-10, -8), (-10, 5), (9, 10)]
        assert sur.cnf.clauses == (
            comp.cnf.clauses + copy_operation(example1, sur.cv_prime) + witness
        )
        assert sur.cnf.num_clauses == 24

    def test_projected_count_is_one(self, example1):
        sur = surplus_formula(example1)
        assert projected_count(sur.cnf, sur.projection_out) == 1

    def test_unique_surplus_model_is_the_unfounded_one(self, example1):
        sur = surplus_formula(example1)
        m2 = example1.interpretation(["p1", "q0", "q1", "w"])
        atoms = {x + 1: (x in m2) for x in range(example1.num_atoms)}
        units = [(v if value else -v,) for v, value in atoms.items()]
        model = solve_clauses(sur.cnf.clauses + units, sur.cnf.num_vars)
        assert model is not None
        # over the variables above the atoms, exactly these models extend
        # m2: the completion auxiliary 6 true, both copies false, and any
        # nonempty set of witnesses
        extensions = set()
        for bits in itertools.product([False, True], repeat=5):
            full = {**atoms, **dict(zip(range(6, 11), bits))}
            if eval_clauses(sur.cnf.clauses, full):
                extensions.add(bits)
        assert extensions == {
            (True, False, False, True, False),
            (True, False, False, False, True),
            (True, False, False, True, True),
        }

        m1 = example1.interpretation(["p0", "q0", "q1", "w"])
        units = [(x + 1 if x in m1 else -(x + 1),) for x in range(example1.num_atoms)]
        assert solve_clauses(sur.cnf.clauses + units, sur.cnf.num_vars) is None

    def test_exactly_one_model_over_atoms_and_copies(self, example1):
        # the witnesses are one-sided, so the one model over the atoms and
        # the copies extends to one total model per nonempty witness set
        sur = surplus_formula(example1)
        assert projected_count(sur.cnf, {6, 9, 10}) == 1
        assert count_models(sur.cnf) == 3

    def test_explicit_completion_argument(self, example1):
        comp = clark_completion(example1)
        assert surplus_formula(example1, comp).cnf.clauses == surplus_formula(
            example1
        ).cnf.clauses


class TestSurplusProperties:
    def test_tight_formula_is_unsatisfiable(self, fixture_programs):
        for name in ("pair", "two_pairs", "negtwo", "fact_chain", "empty"):
            sur = surplus_formula(fixture_programs[name])
            assert () in sur.cnf.clauses, name
            assert sur.cv_prime == {}
            assert projected_count(sur.cnf, sur.projection_out) == 0, name

    def test_variable_arithmetic(self):
        rng = random.Random(31)
        for _ in range(150):
            program = parse_program(random_program_text(rng))
            completion = clark_completion(program)
            sur = surplus_formula(program, completion)
            loops = program_loops(program)
            n, base, k = program.num_atoms, completion.cnf.num_vars, len(loops)
            assert sur.cnf.num_vars == base + 2 * k
            assert sur.projection_out == range(n + 1, sur.cnf.num_vars + 1)
            assert sur.loops == tuple(sorted(loops))
            assert sur.completion.program is program
            assert sur.completion.num_atoms == program.num_atoms
            # the primes: base + 1 to base + k, in atom order
            assert list(sur.cv_prime) == sorted(loops)
            assert list(sur.cv_prime.values()) == list(range(base + 1, base + k + 1))
            # each witness w of x is found by its clauses (-w, -x') and
            # (-w, x + 1); no copy clause has two negative literals
            added = sur.cnf.clauses[len(completion.cnf.clauses):]
            witnesses = []
            for x, prime in sur.cv_prime.items():
                [w] = [
                    -c[0] for c in added if len(c) == 2 and c[0] < 0 and c[1] == -prime
                ]
                assert w > base and (-w, x + 1) in added
                witnesses.append(w)
            assert added[-1] == tuple(witnesses)
            aux = sur.variable_map()["aux"]
            assert aux == [*range(n + 1, base + 1), *witnesses]

    def test_total_models_respect_copy_order(self, fixture_programs):
        # every total model keeps prime pointwise at most the atoms,
        # strictly below somewhere, and projects to a completion
        # non-answer-set
        for name in ("worked", "selfloop", "posloop2", "mixloop"):
            program = fixture_programs[name]
            sur = surplus_formula(program)
            loops = sorted(program_loops(program))
            seen = set()
            for bits in itertools.product(
                [False, True], repeat=sur.cnf.num_vars
            ):
                assignment = {v + 1: bits[v] for v in range(sur.cnf.num_vars)}
                if not eval_clauses(sur.cnf.clauses, assignment):
                    continue
                strict = False
                for x in loops:
                    p, s = assignment[sur.cv_prime[x]], assignment[x + 1]
                    assert p <= s, name
                    strict = strict or (s and not p)
                assert strict, name
                interp = frozenset(
                    x for x in range(program.num_atoms) if assignment[x + 1]
                )
                seen.add(interp)
                assert direct_completion_holds(program, interp), name
                assert not is_answer_set(program, interp), name
            assert len(seen) == projected_count(sur.cnf, sur.projection_out), name

    def test_surplus_counts_non_answer_completion_models(self):
        rng = random.Random(32)
        for _ in range(100):
            program = parse_program(random_program_text(rng, max_atoms=8))
            sur = surplus_formula(program)
            answers = set(answer_sets_by_definition(program))
            expected = sum(
                1
                for interp in all_interpretations(program.num_atoms)
                if direct_completion_holds(program, interp)
                and interp not in answers
            )
            assert projected_count(sur.cnf, sur.projection_out) == expected

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), force_loop=st.booleans())
    def test_one_copy_counts_as_two_copies(self, seed, force_loop):
        text = random_program_text(random.Random(seed), max_atoms=7, force_loop=force_loop)
        program = parse_program(text)
        sur = surplus_formula(program)
        reference, project_out = two_copy_surplus_formula(program)
        expected = completion_models_by_definition(program) - len(
            answer_sets_by_definition(program)
        )
        assert projected_count(reference, project_out) == expected
        assert projected_count(sur.cnf, sur.projection_out) == expected

    def test_no_clause_repeats(self):
        for seed in range(300):
            text = random_program_text(random.Random(seed), max_atoms=6, force_loop=True)
            clauses = surplus_formula(parse_program(text)).cnf.clauses
            assert len({frozenset(c) for c in clauses}) == len(clauses), seed

    @settings(max_examples=300, deadline=None)
    @given(program=repeating_programs())
    def test_encoders_build_valid_formulas(self, program):
        # the encoders skip CnfFormula's checks; the checking constructor
        # must accept what they build, and no clause names a literal twice
        completion = clark_completion(program)
        surplus = surplus_formula(program, completion)
        for cnf in (completion.cnf, surplus.cnf):
            assert CnfFormula(cnf.num_vars, cnf.clauses) == cnf
            for clause in cnf.clauses:
                assert type(clause) is tuple
                assert len(set(clause)) == len(clause)
        assert count_models(completion.cnf) == completion_models_by_definition(program)

    def test_dimacs_and_map_are_deterministic(self, example1):
        a = surplus_formula(example1)
        b = surplus_formula(example1)
        assert a.to_dimacs() == b.to_dimacs()
        assert a.variable_map() == {
            "atoms": {"p0": 1, "p1": 2, "q0": 3, "q1": 4, "w": 5},
            "cv_prime": {"q1": 7, "w": 8},
            "aux": [6, 9, 10],
        }
