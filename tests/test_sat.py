import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount import (
    CnfFormula,
    count_models,
    projected_count,
    solve,
    solve_clauses,
)
from aspsubcount import sat
from aspsubcount.sat import _components, models

from helpers import (
    eval_clauses,
    random_cnf,
    reference_assign,
    reference_propagate,
    tt_count,
    tt_projected_count,
)


class TestSolve:
    def test_sat_and_unsat(self):
        assert solve(CnfFormula(2, [(1, 2), (-1, 2)])) is not None
        assert solve(CnfFormula(1, [(1,), (-1,)])) is None

    def test_empty_formula_is_sat(self):
        model = solve(CnfFormula(2, []))
        assert model == {1: False, 2: False}

    def test_empty_clause_is_unsat(self):
        assert solve(CnfFormula(2, [()])) is None

    def test_assumptions_are_respected(self):
        f = CnfFormula(2, [(1, 2)])
        model = solve(f, {1: False})
        assert model[1] is False and model[2] is True

    def test_conflicting_assumptions(self):
        f = CnfFormula(1, [(1,)])
        assert solve(f, {1: False}) is None

    def test_assumption_out_of_range(self):
        with pytest.raises(ValueError):
            solve(CnfFormula(1, [(1,)]), {5: True})

    def test_models_satisfy_all_clauses(self):
        rng = random.Random(13)
        for _ in range(300):
            f = random_cnf(rng, max_vars=12, max_clauses=30)
            model = solve(f)
            if model is None:
                continue
            assignment = {v: model[v] for v in range(1, f.num_vars + 1)}
            assert eval_clauses(f.clauses, assignment)

    def test_agrees_with_count(self):
        rng = random.Random(14)
        for _ in range(300):
            f = random_cnf(rng, max_vars=10, max_clauses=25)
            assert (solve(f) is not None) == (count_models(f) > 0)

    def test_worked_example_fixed_points_decide_the_check(self):
        # the worked example's copy clauses reduced under its two completion
        # models, plus the demand that some copy go false: the answer set
        # (first) leaves them unsatisfiable, the other model does not
        m1_clauses = [(6,), (7,), (-6, -7)]
        m2_clauses = [(6, -7), (-6, 7), (-6, -7)]
        assert solve_clauses(m1_clauses, 7) is None
        model = solve_clauses(m2_clauses, 7)
        assert model is not None
        assert model[6] is False and model[7] is False


class TestCountModels:
    def test_zero_vars(self):
        assert count_models(CnfFormula(0, [])) == 1

    def test_single_binary_clause(self):
        assert count_models(CnfFormula(2, [(1, 2)])) == 3

    def test_unsat(self):
        assert count_models(CnfFormula(1, [(1,), (-1,)])) == 0
        assert count_models(CnfFormula(3, [()])) == 0

    def test_free_variables_double(self):
        assert count_models(CnfFormula(3, [(1,)])) == 4

    def test_independent_blocks_multiply(self):
        clauses = []
        k = 20
        for i in range(k):
            a, b = 2 * i + 1, 2 * i + 2
            clauses += [(a, b), (-a, -b)]
        assert count_models(CnfFormula(2 * k, clauses)) == 2**k

    def test_matches_truth_tables(self):
        rng = random.Random(15)
        for _ in range(600):
            f = random_cnf(rng)
            assert count_models(f) == tt_count(f)

    def test_clause_order_invariance(self):
        rng = random.Random(16)
        for _ in range(100):
            f = random_cnf(rng)
            shuffled = list(f.clauses)
            rng.shuffle(shuffled)
            g = CnfFormula(f.num_vars, shuffled)
            assert count_models(f) == count_models(g)


class TestProjectedCount:
    def test_projection_collapses_values(self):
        f = CnfFormula(2, [(1, 2)])
        assert projected_count(f, {2}) == 2
        assert projected_count(f, {1}) == 2
        assert projected_count(f, set()) == 3
        assert projected_count(f, {1, 2}) == 1

    def test_unsat_projects_to_zero(self):
        f = CnfFormula(2, [(1,), (-1,)])
        assert projected_count(f, {2}) == 0

    def test_out_of_range_projection_rejected(self):
        with pytest.raises(ValueError):
            projected_count(CnfFormula(1, [(1,)]), {4})

    def test_projecting_everything_gives_sat_bit(self):
        assert projected_count(CnfFormula(2, [(1, 2)]), {1, 2}) == 1
        assert projected_count(CnfFormula(2, [(1,), (-1,)]), {1, 2}) == 0

    def test_matches_truth_tables(self):
        rng = random.Random(17)
        for _ in range(600):
            f = random_cnf(rng)
            out = {v for v in range(1, f.num_vars + 1) if rng.random() < 0.5}
            assert projected_count(f, out) == tt_projected_count(f, out)

    def test_clause_order_invariance(self):
        rng = random.Random(18)
        for _ in range(100):
            f = random_cnf(rng)
            out = {v for v in range(1, f.num_vars + 1) if rng.random() < 0.5}
            shuffled = list(f.clauses)
            rng.shuffle(shuffled)
            g = CnfFormula(f.num_vars, shuffled)
            assert projected_count(f, out) == projected_count(g, out)

    def test_functionally_defined_vars_project_away_cleanly(self):
        # d <-> (a and b): projecting d out leaves the full square over a, b
        f = CnfFormula(3, [(-3, 1), (-3, 2), (3, -1, -2)])
        assert projected_count(f, {3}) == 4
        assert count_models(f) == 4


class TestOneEngine:
    """Solving, counting and projected counting run on one propagation
    routine; each is checked against truth tables and against the others."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solve_count_and_projection_agree(self, seed):
        rng = random.Random(seed)
        f = random_cnf(rng, max_vars=10, max_clauses=25)
        assumptions = {
            v: rng.random() < 0.5
            for v in range(1, f.num_vars + 1)
            if rng.random() < 0.3
        }
        units = [(v if value else -v,) for v, value in assumptions.items()]
        model = solve(f, assumptions)
        if tt_count(CnfFormula(f.num_vars, f.clauses + units)) == 0:
            assert model is None
        else:
            assert model is not None
            assert sorted(model) == list(range(1, f.num_vars + 1))
            assert eval_clauses(f.clauses + units, model)
        assert count_models(f) == projected_count(f, set())
        everything = set(range(1, f.num_vars + 1))
        assert projected_count(f, everything) == int(solve(f) is not None)


class TestModels:
    """``models`` walks the search once and yields every model, each once."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_every_model_once_first_as_solve(self, seed):
        f = random_cnf(random.Random(seed), max_vars=9, max_clauses=25)
        found = [tuple(sorted(m.items())) for m in models(f.clauses, f.num_vars)]
        table = []
        for bits in range(1 << f.num_vars):
            model = {v: bool(bits >> (v - 1) & 1) for v in range(1, f.num_vars + 1)}
            if eval_clauses(f.clauses, model):
                table.append(tuple(sorted(model.items())))
        assert len(found) == len(set(found)) == tt_count(f)
        assert sorted(found) == sorted(table)
        first = next(models(f.clauses, f.num_vars), None)
        assert first == solve_clauses(f.clauses, f.num_vars)

    def test_variables_in_no_clause_go_both_ways(self):
        found = list(models([(1,)], 3))
        assert found[0] == {1: True, 2: False, 3: False}
        assert sorted((m[2], m[3]) for m in found) == [
            (False, False), (False, True), (True, False), (True, True)
        ]
        assert all(m[1] for m in found)
        assert list(models([], 0)) == [{}]
        assert list(models([(1,), (-1,)], 2)) == []


def propagation_input(rng: random.Random):
    """Clauses drawn as ``random_cnf`` draws them (unit clauses and the odd
    empty clause included), often with an implication chain over the
    variables spliced in, in forward or reversed clause order; and a
    literal to make true, often the one that sets the chain off."""
    f = random_cnf(rng, max_vars=rng.choice([6, 16, 40]), max_clauses=rng.choice([10, 40, 80]))
    clauses = list(f.clauses)
    order = rng.sample(range(1, f.num_vars + 1), f.num_vars)
    lit = rng.choice(order) * rng.choice([1, -1])
    if rng.random() < 0.6:
        chain = [(-a if rng.random() < 0.9 else a, b) for a, b in zip(order, order[1:])]
        if rng.random() < 0.5:
            chain.reverse()
        at = rng.randint(0, len(clauses))
        clauses[at:at] = chain
        if rng.random() < 0.5:
            lit = order[0]
    return clauses, lit


def assert_same_propagation(got, want):
    """Same residual clauses in the same order, the same literals made true
    (each once), and a conflict exactly when ``want`` has one."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got[0] == want[0]
    assert len(got[1]) == len(set(got[1]))
    assert set(got[1]) == set(want[1])


class TestPropagation:
    """``_assign`` and ``_propagate`` return what one-unit-per-pass
    propagation returns, whichever way implications run through the list."""

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_one_unit_per_pass(self, seed):
        clauses, lit = propagation_input(random.Random(seed))
        assert_same_propagation(sat._assign(clauses, lit), reference_assign(clauses, lit))
        assert_same_propagation(sat._propagate(clauses), reference_propagate(clauses))

    def test_chain_in_either_order(self):
        # 1 -> 2 -> ... -> n, and a clause per variable that the chain strips
        n = 300
        links = [(-v, v + 1) for v in range(1, n)]
        stripped = [(-v, n + v, 2 * n + v) for v in range(1, n + 1)]
        left = [[n + v, 2 * n + v] for v in range(1, n + 1)]
        for clauses, expected in (
            (links + stripped, left),
            (stripped[::-1] + links[::-1], left[::-1]),
        ):
            rest, made = sat._assign(clauses, 1)
            assert sorted(made) == list(range(1, n + 1))
            assert rest == expected
        assert sat._assign(links + [(-n,)], 1) is None


class TestComponents:
    """``_components`` splits a clause set into its connected parts."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_groups_partition_the_clauses(self, seed):
        f = random_cnf(random.Random(seed))
        clauses = [c for c in f.clauses if c]
        groups = _components(clauses)
        placed = [tuple(c) for group, _ in groups for c in group]
        assert Counter(placed) == Counter(clauses)
        all_vars = [v for _, group_vars in groups for v in group_vars]
        assert len(all_vars) == len(set(all_vars))
        for group, group_vars in groups:
            assert group_vars == {abs(lit) for c in group for lit in c}
            reached: set[int] = set()
            frontier = {abs(group[0][0])}
            while frontier:
                reached |= frontier
                touching = [c for c in group if any(abs(x) in reached for x in c)]
                frontier = {abs(x) for c in touching for x in c} - reached
            assert reached == group_vars
        smallest = [min(group_vars) for _, group_vars in groups]
        assert smallest == sorted(smallest)


def shared_twice(shared, s):
    """``(s or C) and (-s or C)`` for every clause C of ``shared``: both
    values of ``s`` leave the same residual."""
    return [(s,) + tuple(c) for c in shared] + [(-s,) + tuple(c) for c in shared]


class TestComponentCache:
    """A component met again in one count is taken from the cache."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shared_residuals_count_exactly(self, seed):
        rng = random.Random(seed)
        base = random_cnf(rng, max_vars=9, max_clauses=20)
        shared = list(base.clauses)
        if base.num_vars >= 2 and rng.random() < 0.3:
            # all four clauses over two variables: unsatisfiable, but not by
            # propagation, so the component's zero is counted and cached
            a, b = rng.sample(range(1, base.num_vars + 1), 2)
            shared += [(a, b), (a, -b), (-a, b), (-a, -b)]
        s = base.num_vars + 1
        f = CnfFormula(s, shared_twice(shared, s))
        if rng.random() < 0.25:
            # only s is kept: the shared part is a leaf satisfiability check
            out = set(range(1, s))
        else:
            out = {v for v in range(1, s + 1) if rng.random() < 0.5}
        assert count_models(f) == tt_count(f)
        assert projected_count(f, out) == tt_projected_count(f, out)

    def test_shared_component_is_searched_once(self, monkeypatch):
        shared = [(2, 3), (3, 4), (4, 5), (-2, -5)]
        f = CnfFormula(5, shared_twice(shared, 1))
        searched = []
        pick = sat._pick_var

        def recording_pick(clauses, candidates):
            searched.append(frozenset(map(tuple, clauses)))
            return pick(clauses, candidates)

        monkeypatch.setattr(sat, "_pick_var", recording_pick)
        assert count_models(f) == tt_count(CnfFormula(5, shared))
        assert searched.count(frozenset(shared)) == 1
        searched.clear()
        assert projected_count(f, {5}) == tt_projected_count(f, {5})
        assert searched.count(frozenset(shared)) == 1
