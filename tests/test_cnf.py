import random

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount import CnfFormula, dimacs, parse_dimacs

from helpers import random_cnf


@st.composite
def formulas_with_show(draw):
    """A CNF over up to twelve variables, empty clauses included, and a
    sorted show list."""
    n = draw(st.integers(0, 12))
    variables = st.lists(st.integers(1, max(n, 1)), unique=True, max_size=4 if n else 0)
    signs = st.lists(st.booleans(), min_size=4, max_size=4)
    clause = st.builds(
        lambda vs, positive: tuple(v if p else -v for v, p in zip(vs, positive)),
        variables,
        signs,
    )
    clauses = draw(st.lists(clause, max_size=20))
    show = sorted(draw(st.sets(st.integers(1, max(n, 1)), max_size=n)))
    return CnfFormula(n, clauses), show


class TestValidation:
    def test_tautological_clause_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(2, [(1, -1)])

    def test_out_of_range_literal_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [(2,)])

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(1, [(0,)])

    def test_empty_clause_is_legal(self):
        f = CnfFormula(0, [()])
        assert f.num_clauses == 1

    def test_negative_num_vars_rejected(self):
        with pytest.raises(ValueError):
            CnfFormula(-1, [])


class TestDimacsText:
    def test_exact_output(self):
        f = CnfFormula(3, [(1, -2), (3,)])
        text = dimacs(f, atom_names={1: "x", 2: "y"}, show=[2, 1])
        assert text == (
            "c atom x 1\n"
            "c atom y 2\n"
            "p cnf 3 2\n"
            "c p show 1 2 0\n"
            "1 -2 0\n"
            "3 0\n"
        )

    def test_no_show_line_when_not_requested(self):
        f = CnfFormula(1, [(1,)])
        assert "show" not in dimacs(f)

    def test_round_trip(self):
        rng = random.Random(9)
        for _ in range(100):
            f = random_cnf(rng)
            show = sorted(
                v for v in range(1, f.num_vars + 1) if rng.random() < 0.4
            )
            parsed, parsed_show = parse_dimacs(dimacs(f, show=show))
            assert parsed.num_vars == f.num_vars
            assert parsed.clauses == f.clauses
            assert parsed_show == show

    @settings(max_examples=200, deadline=None)
    @given(drawn=formulas_with_show())
    def test_round_trip_with_show(self, drawn):
        f, show = drawn
        parsed, parsed_show = parse_dimacs(dimacs(f, show=show))
        assert parsed.num_vars == f.num_vars
        assert parsed.clauses == f.clauses
        assert parsed_show == show

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_dimacs("p cnf x 1\n")
        with pytest.raises(ValueError):
            parse_dimacs("1 2 0\n")
        with pytest.raises(ValueError):
            parse_dimacs("p cnf 2 1\n1 2\n")
        with pytest.raises(ValueError):
            parse_dimacs("")
        for header in ("p dnf 2 1", "p cnf 2"):
            with pytest.raises(ValueError, match=f"bad DIMACS header: '{header}'"):
                parse_dimacs(header + "\n1 2 0\n")

    def test_multiline_clause_and_comments(self):
        f, show = parse_dimacs("c hello\n\np cnf 3 1\n1\n  \n2 3 0\n")
        assert f.clauses == [(1, 2, 3)]
        assert show is None
