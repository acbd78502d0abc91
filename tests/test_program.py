import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount import (
    GroundProgram,
    Rule,
    ParseError,
    format_program,
    lint,
    parse_program,
    satisfies,
    satisfies_program,
    subtractive_count,
)

from helpers import random_program_text, reference_parse_program

# Pieces of program text: atoms, the reserved word and a word it prefixes,
# characters outside the grammar, the marks and their halves, the comment
# sign, blanks, line breaks, and whitespace that is not a blank.
TEXT_PIECES = [
    "a", "b", "not", "nota", "x1", "_q", "1", "é", "&", ":", "-", ":-", "|",
    ",", ".", "%", " ", "\t", "\r", "\n", "\x0b", "\xa0",
]


def rule_names(program, rule):
    return (
        frozenset(program.name_of(x) for x in rule.head),
        frozenset(program.name_of(x) for x in rule.pos_body),
        frozenset(program.name_of(x) for x in rule.neg_body),
    )


@st.composite
def programs(draw):
    """Ground programs over up to six atoms, empty rules included."""
    n = draw(st.integers(0, 6))
    atoms = [f"a{i}" for i in range(n)]
    ids = st.frozensets(st.integers(0, max(n - 1, 0)), max_size=3 if n else 0)
    rules = draw(st.lists(st.builds(Rule, ids, ids, ids), max_size=8))
    return GroundProgram(atoms, rules)


@st.composite
def program_texts(draw):
    """Formatted programs with up to three text pieces spliced in anywhere."""
    text = format_program(draw(programs()))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(TEXT_PIECES)) + text[i:]
    return text


class TestParsing:
    def test_worked_example_structure(self, example1):
        assert example1.atoms == ["p0", "p1", "q0", "q1", "w"]
        assert len(example1.rules) == 7
        r7 = example1.rules[6]
        assert r7.head == ()
        assert r7.pos_body == ()
        assert r7.neg_body == (example1.atom_id("w"),)
        assert r7.is_constraint
        r6 = example1.rules[5]
        assert r6.pos_body == (example1.atom_id("p1"), example1.atom_id("q1"))
        assert r6.head == (example1.atom_id("w"),)

    def test_atom_ids_follow_first_occurrence(self):
        p = parse_program("b :- a.\nc | a :- not d.\n")
        assert p.atoms == ["b", "a", "c", "d"]

    def test_fact_and_constraint_shapes(self):
        p = parse_program("h.\n:- b1, not c1.\n")
        fact, constraint = p.rules
        assert fact.is_fact and not fact.is_constraint
        assert fact.head == (p.atom_id("h"),)
        assert constraint.is_constraint
        assert constraint.pos_body == (p.atom_id("b1"),)
        assert constraint.neg_body == (p.atom_id("c1"),)

    def test_comments_and_blank_lines(self):
        p = parse_program("% a comment\n\na.  % trailing\n   \nb :- a.\n")
        assert len(p.rules) == 2
        assert p.num_atoms == 2

    @pytest.mark.parametrize(
        "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]
    )
    def test_only_newline_ends_a_comment(self, brk):
        # the rest of the comment is no rule, whatever line break str.splitlines sees
        assert parse_program(f"a. % x{brk}:- a.\n").rules == [Rule((0,), (), ())]
        assert parse_program(f"a. % note{brk}b.").atoms == ["a"]

    def test_a_comment_hides_no_constraint(self):
        assert subtractive_count(parse_program("a. % x\u2028:- a.")).answer_sets == 1

    def test_crlf_lines_are_lines(self):
        p = parse_program("a.\r\nb :- a.\r\n")
        assert p.rules == [Rule((0,), (), ()), Rule((1,), (0,), ())]

    @pytest.mark.parametrize(
        "text,message,column",
        [("a.\vb.", "unexpected character '\\x0b'", 3), ("a.\r:- a.", "one rule per line", 4)],
    )
    def test_other_line_breaks_are_no_line_ends(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert (err.value.line, err.value.column) == (1, column)
        assert message in str(err.value)

    @pytest.mark.parametrize("space", ["\v", "\f", "\xa0", "\u2028"])
    def test_a_line_of_other_whitespace_is_no_blank_line(self, space):
        # only space, tab and CR are blanks, on a line of their own too
        with pytest.raises(ParseError) as err:
            parse_program(space)
        assert (err.value.line, err.value.column) == (1, 1)
        assert f"unexpected character {space!r}" in str(err.value)

    def test_a_rule_then_a_line_of_no_break_space_is_an_error(self):
        with pytest.raises(ParseError) as err:
            parse_program("a.\n\xa0\n")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_duplicate_head_atom_collapses(self):
        p = parse_program("a | a.\n")
        assert len(p.rules[0].head) == 1

    def test_empty_constraint_and_empty_body_fact(self):
        p = parse_program(":-.\na :-.\n")
        assert p.rules[0] == Rule((), (), ())
        assert p.rules[1].is_fact

    def test_empty_text_gives_empty_program(self):
        p = parse_program("")
        assert p.num_atoms == 0 and p.rules == []

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("a", 1, 2),            # missing period
            ("a & b.", 1, 3),       # stray character
            ("a. b.", 1, 4),        # two rules on one line
            (".", 1, 1),            # bare period
            ("a :- not.", 1, 9),    # 'not' without atom
            ("a :- not not b.", 1, 10),
            ("not.", 1, 1),         # reserved word in head
            ("a | .", 1, 5),
            ("a :- , b.", 1, 6),
            ("a.\nb :- \n", 2, 6),  # error on later line
            ("b1\t", 1, 4),         # end of line after a blank
            ("1a.", 1, 1),          # identifiers start with a letter or _
            ("é.", 1, 1),           # identifiers are ASCII
            ("a :- b,\tnot c", 1, 14),
            (":-  ,,", 1, 5),
        ],
    )
    def test_syntax_errors_carry_position(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert err.value.line == line
        assert err.value.column == column

    @pytest.mark.parametrize(
        "text,names,rule",
        [
            ("a|b :- c , not d .  ", ["a", "b", "c", "d"], ((0, 1), (2,), (3,))),
            ("a :- not\tb.", ["a", "b"], ((0,), (), (1,))),
            ("nota :- a.", ["nota", "a"], ((0,), (1,), ())),
        ],
    )
    def test_blanks_separate_tokens(self, text, names, rule):
        p = parse_program(text)
        assert p.atoms == names
        assert p.rules == [Rule(*rule)]

    @pytest.mark.parametrize(
        "text",
        ["a :- b." + " " * 200_000, "a :- " + " \t" * 100_000 + "b."],
    )
    def test_parse_time_is_linear_in_blanks(self, text):
        start = time.perf_counter()
        p = parse_program(text)
        assert time.perf_counter() - start < 1.0
        assert p.atoms == ["a", "b"]

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.lists(st.sampled_from(TEXT_PIECES), max_size=24).map("".join)
        | program_texts()
    )
    def test_matches_the_reference_parser(self, text):
        try:
            expected = reference_parse_program(text)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                parse_program(text)
            assert (str(got.value), got.value.line, got.value.column) == (
                str(err), err.line, err.column
            )
            return
        p = parse_program(text)
        assert p.atoms == expected.atoms
        assert p.rules == expected.rules

    def test_program_invariant_validation(self):
        with pytest.raises(ValueError):
            GroundProgram(["a"], [Rule(frozenset({3}), frozenset(), frozenset())])
        with pytest.raises(ValueError):
            GroundProgram(["a"], [((0,), (), (-1,))])
        with pytest.raises(ValueError):
            GroundProgram(["a", "b"], [([1], [0, 2], [])])

    def test_rules_are_normalized_to_ascending_tuples(self):
        p = GroundProgram(["a", "b"], [Rule(frozenset({1, 0}), [1, 1], ())])
        assert p.rules == [Rule((0, 1), (1,), ())]
        assert all(type(ids) is tuple for ids in p.rules[0])
        assert p == parse_program("a | b :- b, b.\n") == GroundProgram(
            ["a", "b"], [(iter([1, 0]), {1}, frozenset())]
        )

    def test_repeated_atoms_give_one_id_each(self):
        p = parse_program("a | a :- not a, not a.\n")
        assert p.rules == [Rule((0,), (), (0,))]


class TestSatisfies:
    def test_head_true(self):
        p = parse_program("a :- b.\n")
        assert satisfies(p.interpretation(["a"]), p.rules[0])

    def test_positive_body_unmet(self):
        p = parse_program("a :- b.\n")
        assert satisfies(frozenset(), p.rules[0])

    def test_violated_when_body_holds_and_head_false(self):
        p = parse_program("a :- b.\n")
        assert not satisfies(p.interpretation(["b"]), p.rules[0])

    def test_negative_body_blocks_violation(self):
        p = parse_program(":- not w.\n")
        assert satisfies(p.interpretation(["w"]), p.rules[0])
        assert not satisfies(frozenset(), p.rules[0])

    def test_program_satisfaction_on_worked_example(self, example1):
        m1 = example1.interpretation(["p0", "w", "q0", "q1"])
        m2 = example1.interpretation(["p1", "w", "q0", "q1"])
        assert satisfies_program(m1, example1)
        assert satisfies_program(m2, example1)
        assert not satisfies_program(frozenset(), example1)


class TestRoundTrip:
    def test_worked_example_round_trips(self, example1):
        reparsed = parse_program(format_program(example1))
        assert [rule_names(example1, r) for r in example1.rules] == [
            rule_names(reparsed, r) for r in reparsed.rules
        ]

    def test_random_programs_round_trip(self):
        rng = random.Random(402)
        for _ in range(150):
            p = parse_program(random_program_text(rng))
            q = parse_program(format_program(p))
            assert [rule_names(p, r) for r in p.rules] == [
                rule_names(q, r) for r in q.rules
            ]
            assert set(p.atoms) >= set(q.atoms)

    @settings(max_examples=200, deadline=None)
    @given(program=programs())
    def test_formatted_programs_parse_back(self, program):
        reparsed = parse_program(format_program(program))
        assert [rule_names(program, r) for r in program.rules] == [
            rule_names(reparsed, r) for r in reparsed.rules
        ]
        assert set(program.atoms) >= set(reparsed.atoms)

    def test_parse_is_order_stable(self):
        text = "x :- y, not z.\nw | y.\n"
        first = parse_program(text)
        second = parse_program(text)
        assert first.atoms == second.atoms
        assert first.rules == second.rules


class TestLint:
    def test_overlap_warning(self):
        p = parse_program("a :- a, b.\nb.\n")
        warnings = lint(p)
        assert len(warnings) == 1
        assert "'a'" in warnings[0] and "rule 1" in warnings[0]

    def test_clean_program_has_no_warnings(self, example1):
        assert lint(example1) == []
