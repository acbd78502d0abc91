import math
import random
import time
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount import (
    CnfFormula,
    clark_completion,
    count_models,
    parse_program,
    projected_count,
    solve_clauses,
)
from aspsubcount import sat
from aspsubcount.sat import models

from helpers import (
    eval_clauses,
    random_cnf,
    reference_assign,
    reference_propagate,
    ring_text,
    tt_count,
    tt_projected_count,
)


class TestSolve:
    def test_sat_and_unsat(self):
        assert solve_clauses([(1, 2), (-1, 2)], 2) is not None
        assert solve_clauses([(1,), (-1,)], 1) is None

    def test_empty_formula_is_sat(self):
        model = solve_clauses([], 2)
        assert model == {1: False, 2: False}

    def test_empty_clause_is_unsat(self):
        assert solve_clauses([()], 2) is None

    def test_assumptions_are_respected(self):
        f = CnfFormula(2, [(1, 2)])
        model = solve_clauses(f.clauses + [(-1,)], f.num_vars)
        assert model[1] is False and model[2] is True

    def test_conflicting_assumptions(self):
        f = CnfFormula(1, [(1,)])
        assert solve_clauses(f.clauses + [(-1,)], f.num_vars) is None

    def test_assumption_out_of_range(self):
        with pytest.raises(ValueError):
            solve_clauses([(1,), (5,)], 1)

    @pytest.mark.parametrize("bad", [0, 3, -3])
    def test_literals_outside_the_variables_raise(self, bad):
        # each raw-CNF entry point rejects a literal 0 or beyond num_vars,
        # also beside an empty clause
        clauses = [(1, 2), (bad,)]
        with pytest.raises(ValueError):
            solve_clauses(clauses, 2)
        with pytest.raises(ValueError):
            list(models(clauses, 2))
        with pytest.raises(ValueError):
            sat.checker(clauses, 2)
        with pytest.raises(ValueError):
            solve_clauses([(), (bad,)], 2)
        # and a checker's test rejects an assumed literal 0 or beyond
        # num_vars, also where an empty clause makes every answer False
        for clauses in ([(1, 2)], [(1,), ()]):
            test = sat.checker(clauses, 2)
            with pytest.raises(ValueError):
                test([1, bad])
            assert test([1, -2]) == (clauses == [(1, 2)])

    def test_models_satisfy_all_clauses(self):
        rng = random.Random(13)
        for _ in range(300):
            f = random_cnf(rng, max_vars=12, max_clauses=30)
            model = solve_clauses(f.clauses, f.num_vars)
            if model is None:
                continue
            assignment = {v: model[v] for v in range(1, f.num_vars + 1)}
            assert eval_clauses(f.clauses, assignment)

    def test_agrees_with_count(self):
        rng = random.Random(14)
        for _ in range(300):
            f = random_cnf(rng, max_vars=10, max_clauses=25)
            assert (solve_clauses(f.clauses, f.num_vars) is not None) == (count_models(f) > 0)

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

    def test_any_iterable_projects_once(self):
        # kept: 1 and 2, each of whose four values extends with 3 true
        f = CnfFormula(4, [(1, 2, 3), (3, 4), (-1, -4)])
        assert count_models(f) == 7
        for out in (
            (v for v in (3, 4)),
            range(3, 5),
            [4, 3, 4, 3],
            frozenset({3, 4}),
        ):
            assert projected_count(f, out) == 4 == tt_projected_count(f, {3, 4})
        for out in (range(3, 6), (v for v in (3, 5))):
            with pytest.raises(ValueError):
                projected_count(f, out)

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
        model = solve_clauses(f.clauses + units, f.num_vars)
        if tt_count(CnfFormula(f.num_vars, f.clauses + units)) == 0:
            assert model is None
        else:
            assert model is not None
            assert sorted(model) == list(range(1, f.num_vars + 1))
            assert eval_clauses(f.clauses + units, model)
        assert count_models(f) == projected_count(f, set())
        everything = set(range(1, f.num_vars + 1))
        satisfiable = solve_clauses(f.clauses, f.num_vars) is not None
        assert projected_count(f, everything) == int(satisfiable)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_checker_answers_each_test_alone(self, seed):
        # one engine serves every test, so each must undo what it assigned
        rng = random.Random(seed)
        f = random_cnf(rng, max_vars=8, max_clauses=20)
        test = sat.checker(f.clauses, f.num_vars)
        for _ in range(6):
            chosen = rng.sample(range(1, f.num_vars + 1), rng.randint(0, f.num_vars))
            lits = [v if rng.random() < 0.5 else -v for v in chosen]
            units = [(lit,) for lit in lits]
            assert test(lits) == (tt_count(CnfFormula(f.num_vars, f.clauses + units)) > 0)


class TestRawClauseLists:
    """Clause lists that repeat a literal or hold a tautology, which
    ``random_cnf`` never draws, against truth tables."""

    @staticmethod
    def raw_clauses(rng, num_vars: int, tautologies: bool) -> list:
        clauses = []
        for _ in range(rng.randint(0, 12)):
            chosen = rng.sample(range(1, num_vars + 1), rng.randint(1, min(num_vars, 4)))
            lits = [v if rng.random() < 0.5 else -v for v in chosen]
            if rng.random() < 0.5:
                lits.append(rng.choice(lits))
            if tautologies and rng.random() < 0.3:
                lits.append(-rng.choice(lits))
            rng.shuffle(lits)
            clauses.append(tuple(lits))
        return clauses

    @staticmethod
    def table(clauses, num_vars: int) -> list:
        every = (
            {v: bool(bits >> (v - 1) & 1) for v in range(1, num_vars + 1)}
            for bits in range(1 << num_vars)
        )
        return [model for model in every if eval_clauses(clauses, model)]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_search_entry_points_agree_with_truth_tables(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        clauses = self.raw_clauses(rng, n, tautologies=True)
        table = self.table(clauses, n)
        key = lambda model: sorted(model.items())
        assert sorted(map(key, models(clauses, n))) == sorted(map(key, table))
        assert (solve_clauses(clauses, n) is not None) == bool(table)
        test = sat.checker(clauses, n)
        for _ in range(4):
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), rng.randint(0, n))]
            expected = any(all(model[abs(x)] == (x > 0) for x in lits) for model in table)
            assert test(lits) == expected

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_counts_agree_with_truth_tables(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        f = CnfFormula(n, self.raw_clauses(rng, n, tautologies=False))
        out = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        assert count_models(f) == tt_count(f)
        assert projected_count(f, out) == tt_projected_count(f, out)


def equal_literals_cnf(rng: random.Random) -> CnfFormula:
    """A random CNF over at most 12 variables seeded with what the merge of
    equal variables and the closed form of one-clause components act on:
    complementary binary pairs in both clause orders, chains of equal
    literals, now and then closed into a class that holds x and -x, a
    clause over variables of its own, and repeated literals."""
    n = rng.randint(2, 12)
    order = rng.sample(range(1, n + 1), n)
    k = rng.randint(0, min(3, n - 1))
    own, rest = order[:k], order[k:]

    def lit(v):
        return v if rng.random() < 0.5 else -v

    def clause(vs):
        c = list(map(lit, vs))
        return tuple(c + [rng.choice(c)] if rng.random() < 0.2 else c)

    def equal(a, b):  # a == b, the pair's two clauses in either order
        second = (a, -b) if rng.random() < 0.5 else (-b, a)
        return [(-a, b), second] if rng.random() < 0.5 else [second, (-a, b)]

    clauses = [
        clause(rng.sample(rest, rng.randint(1, min(len(rest), 3))))
        for _ in range(rng.randint(0, 8))
    ]
    runs = rng.sample(rest, len(rest))
    while len(runs) > 1 and rng.random() < 0.8:
        size = rng.randint(2, 4)
        chain, runs = list(map(lit, runs[:size])), runs[size:]
        for a, b in zip(chain, chain[1:]):
            clauses += equal(a, b)
        if len(chain) > 1 and rng.random() < 0.1:
            clauses += equal(chain[-1], -chain[0])
    if own:
        clauses.append(clause(own))
    rng.shuffle(clauses)
    return CnfFormula(n, clauses)


class TestMergedVariables:
    """Counts merge the variables that complementary binary clauses make
    equal, then count one-clause components in closed form; both keep
    plain and projected counts exact. Here every formula is merged, however
    few its clauses."""

    @pytest.fixture(autouse=True)
    def merge_every_formula(self, monkeypatch):
        monkeypatch.setattr(sat, "MERGE_CLAUSES", 0)

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_counts_agree_with_truth_tables(self, seed):
        rng = random.Random(seed)
        f = equal_literals_cnf(rng)
        out = {v for v in range(1, f.num_vars + 1) if rng.random() < 0.4}
        assert count_models(f) == tt_count(f)
        assert projected_count(f, out) == tt_projected_count(f, out)

    def test_a_kept_variable_represents_its_class(self):
        # 1 == 2 == 3 == -4; only 3 is kept, so it stays and the others go
        clauses = [(1, -2), (-1, 2), (-3, 2), (3, -2), (3, 4), (-3, -4), (1, 5)]
        kept = bytearray([1]) * 11
        for v in (1, 2, 4, 5):
            kept[v] = kept[-v] = 0
        assert sat._merged(clauses, 5, kept) == [(3, 5)]
        assert [kept[v] for v in range(1, 6)] == [0, 0, 1, 0, 0]
        f = CnfFormula(5, clauses)
        assert projected_count(f, {1, 2, 4, 5}) == 2 == tt_projected_count(f, {1, 2, 4, 5})

    def test_merged_variables_are_not_free(self):
        # 1 == -2 leaves no clause over 2, and 2 still takes one value per
        # value of 1; 3 is in no clause and free
        f = CnfFormula(3, [(1, 2), (-1, -2)])
        assert count_models(f) == 4 == tt_count(f)
        assert projected_count(f, {1}) == 4 == projected_count(f, {2})
        assert projected_count(f, {1, 3}) == 2 == projected_count(f, {2, 3})
        assert sat._merged([(1, 2), (-2, -1), (2, 1)], 2, bytearray(5)) == []

    def test_a_class_with_x_and_not_x_has_no_model(self):
        clauses = [(1, 2), (-1, -2), (2, -3), (-2, 3), (1, -3), (-1, 3)]
        assert sat._merged(clauses, 3, bytearray([1]) * 7) is None
        assert count_models(CnfFormula(3, clauses)) == 0
        assert count_models(CnfFormula(1, [(1, 1), (-1, -1)])) == 0

    def test_formulas_without_pairs_are_left_as_they_are(self):
        clauses = [(1, 2), (-1, 2), (1, -2, 3)]
        assert sat._merged(clauses, 3, bytearray([1]) * 7) is clauses

    def test_one_clause_components_count_in_closed_form(self, monkeypatch):
        splits = [0]
        split = sat._Trail.split

        def counted(engine, *args):
            splits[0] += 1
            return split(engine, *args)

        monkeypatch.setattr(sat._Trail, "split", counted)
        # two one-clause components: 7 * 7, or 7 * 2^2 with 6 projected
        # out; each count splits only at its start
        f = CnfFormula(6, [(1, 2, -3), (-4, 5, -6)])
        assert count_models(f) == 7 * 7
        assert projected_count(f, {6}) == 7 * 4 == tt_projected_count(f, {6})
        assert splits[0] == 2
        # a clause with a repeated literal or a tautology, as encoders may
        # hand the engine, is searched
        assert count_models(CnfFormula(2, [(1, 1, 2)])) == 3
        assert count_models(CnfFormula._trusted(2, [(1, -1, 2)])) == 4

    def test_a_branch_that_leaves_no_kept_variable_is_one_check(self, monkeypatch):
        # with only 1 kept, either branch on it leaves a satisfiable rest
        # over projected-out variables: one check each, no split
        f = CnfFormula(5, [(1, 2, 3), (-1, 2, -3), (2, 4, 5), (-2, -4, 5), (-5, 3, 4)])
        splits = []
        split = sat._Trail.split

        def recording(engine, seeds, kept):
            splits.append(list(seeds))
            return split(engine, seeds, kept)

        monkeypatch.setattr(sat._Trail, "split", recording)
        out = {2, 3, 4, 5}
        assert projected_count(f, out) == 2 == tt_projected_count(f, out)
        assert splits == [list(range(1, 6))]


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


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    """Every pigeon in a hole and no two in one: unsatisfiable when there
    are more pigeons, and hard for a search that only propagates units."""
    var = lambda i, j: i * holes + j + 1  # noqa: E731
    clauses = [tuple(var(i, j) for j in range(holes)) for i in range(pigeons)]
    clauses += [
        (-var(i, j), -var(k, j))
        for j in range(holes) for i in range(pigeons) for k in range(i + 1, pigeons)
    ]
    return CnfFormula(pigeons * holes, clauses)


class TestTimeLimit:
    """Inside ``time_limit`` every search stops soon after the limit."""

    def test_searches_stop_at_the_limit(self):
        # each of these searches takes seconds on ten pigeons in nine holes
        f = pigeonhole(10, 9)
        searches = [
            lambda: solve_clauses(f.clauses, f.num_vars),
            lambda: next(models(f.clauses, f.num_vars), None),
            lambda: count_models(f),
            # the part without kept variables is a leaf satisfiability check
            lambda: projected_count(f, range(2, f.num_vars + 1)),
        ]
        for search in searches:
            start = time.monotonic()
            with pytest.raises(sat.SearchTimeout), sat.time_limit(0.05):
                search()
            assert time.monotonic() - start < 2
        # outside the block the limit is gone: this count takes longer
        assert count_models(pigeonhole(8, 7)) == 0

    def test_an_inner_limit_replaces_the_outer_one(self):
        f = pigeonhole(6, 5)
        with sat.time_limit(60):
            with pytest.raises(sat.SearchTimeout, match=r"after 0s$"), sat.time_limit(0):
                count_models(f)
            # the outer limit holds again, and is far off: the count ends
            assert count_models(f) == 0
            with sat.time_limit(None):
                assert sat._time_left() == math.inf

    def test_no_limit_outside_every_block(self):
        assert sat._time_left() == math.inf
        with sat.time_limit(5):
            assert 0 < sat._time_left() <= 5
        assert sat._time_left() == math.inf

    def test_an_infinite_limit_bounds_nothing(self):
        with sat.time_limit(0), sat.time_limit(math.inf):
            assert sat._time_left() == math.inf
            assert count_models(pigeonhole(6, 5)) == 0

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"), sat.time_limit(math.nan):
            count_models(pigeonhole(6, 5))  # never reached

    def test_no_search_starts_after_the_limit(self):
        # one clause over one variable: found before any check in the search
        with pytest.raises(sat.SearchTimeout), sat.time_limit(0):
            count_models(CnfFormula(1, [(1,)]))

    def test_the_merge_stops_at_the_limit(self):
        # the completion of a 10000-rule ring is one class of equal
        # variables; the merge walks its clauses as the searches do
        program = parse_program(ring_text(10000))
        f = clark_completion(program).cnf
        kept = bytearray([1]) * (2 * f.num_vars + 1)
        with sat.time_limit(0):
            with pytest.raises(sat.SearchTimeout):
                sat._merged(f.clauses, f.num_vars, kept)
            with pytest.raises(sat.SearchTimeout):
                count_models(f)
        assert sat._merged(f.clauses, f.num_vars, kept) == []
        assert count_models(f) == 2

    def test_ranking_stops_at_the_limit(self):
        # ranking a chain of 20000 variables takes tens of milliseconds; its
        # breadth-first searches check the clock as the other searches do
        f = implication_chain(20000)
        engine = sat._started(f.clauses, f.num_vars)
        kept = bytearray([1]) * (2 * f.num_vars + 1)
        [(_, _, _, items)] = engine.split(range(1, f.num_vars + 1), kept)
        with pytest.raises(sat.SearchTimeout), sat.time_limit(0):
            engine.rank_by_layers(items)
        assert engine.rank == [0] * (f.num_vars + 1)
        start = time.monotonic()
        with pytest.raises(sat.SearchTimeout), sat.time_limit(0.01):
            count_models(f)
        assert time.monotonic() - start < 2


def propagation_input(rng: random.Random):
    """Clauses drawn as ``random_cnf`` draws them (unit clauses and the odd
    empty clause included), often with an implication chain over the
    variables spliced in, in forward or reversed clause order; and a
    literal to make true, often the one that sets the chain off; and the
    number of variables."""
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
    return clauses, lit, f.num_vars


def trail_state(clauses, num_vars: int, lits):
    """Make ``lits`` true on a fresh engine over ``clauses`` (over variables
    1..num_vars) and propagate (``lits`` None: as ``_started`` starts a
    search). Returns (the clauses not yet satisfied with their false
    literals stripped, in their order; the trail) or None on a conflict, as
    ``reference_assign`` returns them."""
    if lits is None:
        engine = sat._started(clauses, num_vars)
    else:
        engine = sat._Trail(clauses, num_vars)
        engine = engine if engine.assign(list(lits)) else None
    if engine is None:
        return None
    rest = [
        [x for x in clause if not engine.value[x]]
        for c, clause in enumerate(clauses)
        if not engine.ntrue[c]
    ]
    return rest, engine.trail


def assert_same_propagation(got, want):
    """Same residual clauses in the same order, the same literals made true
    (each once), and a conflict exactly when ``want`` has one."""
    if want is None:
        assert got is None
        return
    assert got is not None
    assert [list(c) for c in got[0]] == [list(c) for c in want[0]]
    assert len(got[1]) == len(set(got[1]))
    assert set(got[1]) == set(want[1])


class TestPropagation:
    """The engine's propagation reaches the fixpoint of one-unit-per-pass
    propagation, whichever way implications run through the list; undoing
    it restores every count."""

    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_one_unit_per_pass(self, seed):
        clauses, lit, n = propagation_input(random.Random(seed))
        units = [c[0] for c in clauses if len(c) == 1]
        assert_same_propagation(
            trail_state(clauses, n, [lit] + units), reference_assign(clauses, lit)
        )
        assert_same_propagation(trail_state(clauses, n, None), reference_propagate(clauses))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_undo_restores_the_counts(self, seed):
        clauses, lit, n = propagation_input(random.Random(seed))
        engine = sat._Trail(clauses, n)
        before = (list(engine.value), list(engine.ntrue), list(engine.nfree))
        engine.assign([lit])
        engine.undo(0)
        assert engine.trail == []
        assert (engine.value, engine.ntrue, engine.nfree) == before

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
            rest, made = trail_state(clauses, 3 * n, [1])
            assert sorted(made) == list(range(1, n + 1))
            assert rest == expected
        assert trail_state(links + [(-n,)], n, [1]) is None


def component_input(rng: random.Random):
    """An engine over random clauses with a few literals made true (the
    clauses of any conflict dropped), and a random set of kept variables."""
    f = random_cnf(rng)
    clauses = [c for c in f.clauses if c]
    engine = sat._Trail(clauses, f.num_vars)
    for var in rng.sample(range(1, f.num_vars + 1), rng.randint(0, f.num_vars // 2)):
        mark = len(engine.trail)
        if not engine.assign([var if rng.random() < 0.5 else -var]):
            engine.undo(mark)
    kept = bytearray(2 * f.num_vars + 1)
    for var in range(1, f.num_vars + 1):
        kept[var] = kept[-var] = rng.random() < 0.7
    return engine, kept


def jeroslow_wang(clauses, value, ids) -> Counter:
    """Per variable, the sum over the clauses ``ids`` of 2^(WEIGHT_CAP - n)
    for each free literal of it, where n (at most WEIGHT_CAP) counts the
    clause's literals not yet false."""
    score = Counter()
    for c in ids:
        n = min(sum(value[x] >= 0 for x in clauses[c]), sat.WEIGHT_CAP)
        for x in clauses[c]:
            if not value[x]:
                score[abs(x)] += 1 << (sat.WEIGHT_CAP - n)
    return score


class TestComponents:
    """``_Trail.split`` partitions the clauses not yet satisfied into their
    connected parts over the free variables, and picks each part's
    decision variable: the kept one of lowest rank, then of highest
    Jeroslow-Wang score, then the smallest."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_groups_partition_the_clauses(self, seed):
        rng = random.Random(seed)
        engine, kept = component_input(rng)
        value = engine.value
        live = [c for c, clause in enumerate(engine.clauses) if not engine.ntrue[c]]
        free_vars_of = {c: {abs(x) for x in engine.clauses[c] if not value[x]} for c in live}
        # an engine that no count has prepared ranks every variable 0; then
        # a few levels with many ties, as a count leaves them
        ranks = [0] * (engine.num_vars + 1)
        for ranked in (False, True):
            if ranked:
                ranks = [rng.randrange(3) for _ in ranks]
                engine.rank[:] = ranks
            comps = engine.split(range(1, engine.num_vars + 1), kept)
            assert engine.rank == ranks
            groups = []
            for key, nkept, var, items in comps:
                ids = list(array("i", key[0]))
                group_vars = list(array("i", key[1]))
                assert ids == sorted(ids) and group_vars == sorted(group_vars)
                assert list(items) == (group_vars if nkept else ids)
                assert set(group_vars) == set().union(*(free_vars_of[c] for c in ids))
                kept_vars = [v for v in group_vars if kept[v]]
                assert nkept == len(kept_vars)
                if kept_vars:
                    score = jeroslow_wang(engine.clauses, value, ids)
                    assert var == min(kept_vars, key=lambda v: (ranks[v], -score[v], v))
                reached, frontier = set(), {group_vars[0]}
                while frontier:
                    reached |= frontier
                    touching = [c for c in ids if free_vars_of[c] & reached]
                    frontier = set().union(*(free_vars_of[c] for c in touching)) - reached
                assert reached == set(group_vars)
                groups.append((ids, group_vars))
            placed = [c for ids, _ in groups for c in ids]
            assert Counter(placed) == Counter(live)
            all_vars = [v for _, group_vars in groups for v in group_vars]
            assert len(all_vars) == len(set(all_vars))
            smallest = [group_vars[0] for _, group_vars in groups]
            assert smallest == sorted(smallest)

    def test_short_clauses_outweigh_more_occurrences(self):
        # variable 1 occurs in three 4-literal clauses (score 3 * 2^-4) and
        # variable 2 in two binary ones (2 * 2^-2), every other variable in
        # at most two clauses: the most occurrences would pick 1, the
        # weighted score picks 2
        clauses = [(1, 3, 4, 5), (1, 6, 7, 8), (1, -3, -6, 9), (2, 4), (-2, 7)]
        engine = sat._Trail(clauses, 9)
        kept = bytearray([1]) * 19
        [(_, nkept, var, _)] = engine.split(range(1, 10), kept)
        assert (nkept, var) == (9, 2)

    def test_clauses_longer_than_the_weight_cap(self):
        n = sat.WEIGHT_CAP + 6
        f = CnfFormula(n, [tuple(range(1, n + 1)), (-1, -2)])
        # every assignment but the all-false one and the 2^(n-2) with 1 and 2 true
        assert count_models(f) == 3 * 2 ** (n - 2) - 1
        # keeping 1..20, the long clause can always be satisfied above 20
        assert projected_count(f, range(21, n + 1)) == 3 * 2**18


def implication_chain(n: int) -> CnfFormula:
    """1 -> 2 -> ... -> n: n + 1 models, one connected path of binary
    clauses, so of width 1."""
    return CnfFormula(n, [(-v, v + 1) for v in range(1, n)])


def thin_cnf(rng: random.Random, n: int, span: int = 3) -> CnfFormula:
    """A random connected CNF over n variables laid out along a random
    order: a binary clause joins each two neighbours in the order, and up
    to n more clauses of two or three literals each lie within ``span`` + 1
    consecutive places of it."""
    order = rng.sample(range(1, n + 1), n)

    def signed(v):
        return v if rng.random() < 0.5 else -v

    clauses = [(signed(a), signed(b)) for a, b in zip(order, order[1:])]
    for _ in range(rng.randint(0, n)):
        at = rng.randrange(n - span)
        width = rng.randint(2, 3)
        clauses.append(tuple(map(signed, rng.sample(order[at:at + span + 1], width))))
    rng.shuffle(clauses)
    return CnfFormula(n, clauses)


class TestRanks:
    """A count ranks each large, thin top-level component by the
    breadth-first layers of its primal graph, searched from a far variable
    and bisected recursively, and its decisions take the lowest rank
    first; a wide or small component keeps rank 0."""

    @staticmethod
    def ranked(clauses, n: int):
        """An engine over ``clauses``, the items of its one component and
        whether ``rank_by_layers`` ranked them."""
        engine = sat._started(clauses, n)
        kept = bytearray([1]) * (2 * n + 1)
        [(_, _, _, items)] = engine.split(range(1, n + 1), kept)
        return engine, items, engine.rank_by_layers(items)

    def test_rank_overrides_jeroslow_wang_on_a_chain(self):
        n = 2 * sat.WIDTH_RATIO + 1
        f = implication_chain(n)
        engine = sat._started(f.clauses, f.num_vars)
        kept = bytearray([1]) * (2 * n + 1)
        [(_, _, var, items)] = engine.split(range(1, n + 1), kept)
        # every inner variable is in two binary clauses, the ends in one
        assert var == 2
        assert engine.rank_by_layers(items)
        [(_, _, var, _)] = engine.split(range(1, n + 1), kept)
        # each layer is one variable, the middle one gets rank 0 and each
        # half's middle rank 1
        middle = (n + 1) // 2
        assert var == middle and engine.rank[middle] == 0
        assert sorted(engine.rank[v] for v in range(1, n + 1))[:3] == [0, 1, 1]
        assert max(engine.rank) <= n.bit_length()
        assert count_models(f) == n + 1

    def test_chains_are_cut_at_their_middle(self):
        # a chain of WIDTH_RATIO variables or fewer has layers of one
        # variable each, which is its size over the ratio or more
        for n in range(2, sat.WIDTH_RATIO + 1):
            engine, _, ranked = self.ranked(implication_chain(n).clauses, n)
            assert not ranked and engine.rank == [0] * (n + 1)
        for n in range(sat.WIDTH_RATIO + 1, 301):
            engine, _, ranked = self.ranked(implication_chain(n).clauses, n)
            assert ranked
            ranks = engine.rank[1:]
            [middle] = [v for v in range(1, n + 1) if ranks[v - 1] == 0]
            # the two halves differ by one variable at most
            assert abs((middle - 1) - (n - middle)) <= 1
            assert max(ranks) <= n.bit_length()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(18, 60))
    def test_rank_zero_separates_a_thin_component(self, seed, n):
        f = thin_cnf(random.Random(seed), n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sat, "WIDTH_RATIO", 3)
            engine, items, ranked = self.ranked(f.clauses, n)
        assert ranked
        near = {v: set() for v in items}
        for clause in f.clauses:
            for x in clause:
                near[abs(x)].update(abs(y) for y in clause)
        left = {v for v in items if engine.rank[v]}
        pieces = 0
        while left:
            pieces += 1
            todo = [left.pop()]
            while todo:
                found = near[todo.pop()] & left
                left -= found
                todo += found
        assert pieces >= 2

    def test_wide_component_keeps_rank_zero(self):
        n = 2 * sat.WIDTH_RATIO
        # every variable of a complete graph has all others in its first
        # layer; every leaf of a star has the other leaves in its second
        complete = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        star = [(1, b) for b in range(2, n + 1)]
        for clauses in (complete, star):
            engine, _, ranked = self.ranked(clauses, n)
            assert not ranked
            kept = bytearray([1]) * (2 * n + 1)
            [(_, _, var, _)] = engine.split(range(1, n + 1), kept)
            assert engine.rank == [0] * (n + 1) and var == 1

    def test_count_ranks_large_components_with_kept_variables(self, monkeypatch):
        ranked = []
        rank_by_layers = sat._Trail.rank_by_layers

        def recording(engine, vs):
            ranked.append(len(vs))
            return rank_by_layers(engine, vs)

        monkeypatch.setattr(sat._Trail, "rank_by_layers", recording)
        small, large = sat.WIDTH_RATIO, 3 * sat.WIDTH_RATIO
        f = implication_chain(small)
        clauses = f.clauses + [(-(small + v), small + v + 1) for v in range(1, large)]
        g = CnfFormula(small + large, clauses)
        assert count_models(g) == (small + 1) * (large + 1)
        assert ranked == [large]
        ranked.clear()
        # with only the small chain kept, the large one is a leaf check
        assert projected_count(g, range(small + 1, small + large + 1)) == small + 1
        assert ranked == []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_long_thin_formulas_count_exactly(self, seed):
        rng = random.Random(seed)
        f = thin_cnf(rng, 18)
        out = {v for v in range(1, f.num_vars + 1) if rng.random() < 0.4}
        ranked = []
        rank_by_layers = sat._Trail.rank_by_layers

        def recording(engine, vs):
            ranked.append(rank_by_layers(engine, vs))
            return ranked[-1]

        with pytest.MonkeyPatch.context() as patch:
            # a low ratio ranks components of a few variables, and lets
            # through the widths that three-place windows give
            patch.setattr(sat, "WIDTH_RATIO", 3)
            patch.setattr(sat._Trail, "rank_by_layers", recording)
            assert count_models(f) == tt_count(f)
            assert projected_count(f, out) == tt_projected_count(f, out)
        assert ranked[0]


def met_twice(shared, s: int, us: list[int]):
    """``shared`` joined to a variable ``s`` by ``(s or u) and (-s or u)``
    for each variable u of ``us``, the first of which also joins a clause
    with the first variable of ``shared``. Either value of ``s`` makes
    every u true and leaves the clauses of ``shared`` as they are, with the
    same clause ids, so a count that branches on ``s`` meets that
    component twice."""
    clauses = list(shared)
    for u in us:
        clauses += [(s, u), (-s, u)]
    if shared:
        clauses.append((us[0], abs(shared[0][0])))
    return clauses


class TestComponentCache:
    """A component met again in one count is taken from the cache."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shared_residuals_count_exactly(self, seed):
        rng = random.Random(seed)
        base = random_cnf(rng, max_vars=9, max_clauses=20)
        shared = [c for c in base.clauses if c]
        if base.num_vars >= 2 and rng.random() < 0.3:
            # all four clauses over two variables: unsatisfiable, but not by
            # propagation, so the component's zero is counted and cached
            a, b = rng.sample(range(1, base.num_vars + 1), 2)
            shared += [(a, b), (a, -b), (-a, b), (-a, -b)]
        s = base.num_vars + 1
        us = list(range(s + 1, s + 6))
        f = CnfFormula(s + 5, met_twice(shared, s, us))
        if rng.random() < 0.25:
            # only s is kept: the shared part is a leaf satisfiability check
            out = set(range(1, f.num_vars + 1)) - {s}
        else:
            out = set(us) | {v for v in range(1, s) if rng.random() < 0.3}
        assert count_models(f) == tt_count(f)
        assert projected_count(f, out) == tt_projected_count(f, out)

    def test_counts_stay_exact_when_the_cache_is_emptied(self, monkeypatch):
        # a budget of zero bytes empties the cache before every store
        monkeypatch.setattr(sat, "CACHE_BYTES", 0)
        rng = random.Random(19)
        for _ in range(200):
            base = random_cnf(rng, max_vars=9, max_clauses=20)
            s = base.num_vars + 1
            shared = [c for c in base.clauses if c]
            f = CnfFormula(s + 3, met_twice(shared, s, [s + 1, s + 2, s + 3]))
            out = {v for v in range(1, s + 4) if rng.random() < 0.4}
            assert projected_count(f, out) == tt_projected_count(f, out)

    def test_shared_component_is_searched_once(self, monkeypatch):
        shared = [(2, 3), (3, 4), (4, 5), (-2, -5)]
        f = CnfFormula(7, met_twice(shared, 1, [6, 7]))
        searched = []
        split = sat._Trail.split

        def recording_split(engine, seeds, kept):
            searched.append(tuple(seeds))
            return split(engine, seeds, kept)

        monkeypatch.setattr(sat._Trail, "split", recording_split)
        # the kept variable 1 is in the most clauses, all binary, so it has
        # the highest score and the count branches on it first; each search
        # of the shared part splits its two branches' clauses
        for out in ({6, 7}, {5, 6, 7}):
            searched.clear()
            assert projected_count(f, out) == tt_projected_count(f, out)
            assert searched.count((2, 3, 4, 5)) == 2
