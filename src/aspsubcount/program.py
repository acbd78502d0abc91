"""Ground disjunctive programs: data model, parser, printer.

A program is a list of rules ``a1 | ... | ak :- b1, ..., bm, not c1, ..., not cn.``
over propositional atoms. Facts drop the body, constraints drop the head.
An atom is its position: a program's atoms are a list of names, and atom id
i is named ``atoms[i]``. Rules reference atoms by id everywhere; ids are
assigned by first textual occurrence during parsing.

Lexical rules: one rule per line, where only ``\\n`` ends a line, and
``%`` starts a comment that runs to the end of the line. Tokens are
identifiers ``[A-Za-z_][A-Za-z0-9_]*`` and the marks ``:-``, ``|``, ``,``
and ``.``; blanks (space, tab, CR) between them are skipped, and any other
character is a parse error. ``not`` is reserved: it marks a negated body
atom and is never an atom itself.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .sat import _clocked

Interpretation = frozenset[int]


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Rule(NamedTuple):
    """One rule; all three parts are ascending tuples of atom ids.

    An empty head means the rule is a constraint (falsum head); an empty
    body means the rule is a fact. A rule is a tuple, so it equals the
    plain tuple of its three tuples.
    """

    head: tuple[int, ...]
    pos_body: tuple[int, ...]
    neg_body: tuple[int, ...]

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_fact(self) -> bool:
        return not self.pos_body and not self.neg_body


@dataclass
class GroundProgram:
    """A parsed program: ``atoms`` is the list of atom names, and atom id i
    is named ``atoms[i]``; rules reference atoms by id. A rule given as any
    three iterables of ids becomes a ``Rule`` of strictly ascending tuples."""

    atoms: list[str]
    rules: list[Rule]

    def __post_init__(self):
        n = len(self.atoms)
        self.rules = [_ascending(h, pb, nb) for h, pb, nb in _clocked(self.rules)]
        for r, rule in enumerate(_clocked(self.rules)):
            for ids in rule:
                if ids and (ids[0] < 0 or ids[-1] >= n):
                    raise ValueError(f"rule {r} references unknown atom ids {ids}")

    @classmethod
    def _trusted(cls, atoms: list[str], rules: list[Rule]) -> "GroundProgram":
        """The program, unchecked: for callers whose ``Rule``s are valid."""
        (program := object.__new__(cls)).__dict__.update(atoms=atoms, rules=rules)
        return program

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @cached_property
    def _by_name(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.atoms)}

    @cached_property
    def loop_atoms(self) -> frozenset[int]:
        """The atoms on a cycle of positive dependencies, found on first use."""
        return depgraph.loop_atoms(depgraph.build_dependency_graph(self))

    def atom_id(self, name: str) -> int:
        return self._by_name[name]

    def name_of(self, atom_id: int) -> str:
        return self.atoms[atom_id]

    def interpretation(self, names) -> Interpretation:
        """Build an interpretation from atom names; unknown names raise KeyError."""
        return frozenset(self._by_name[n] for n in names)

    def atom_names(self, interp) -> list[str]:
        """Names of the atoms in ``interp``, sorted alphabetically."""
        return sorted(self.atoms[i] for i in interp)

    @property
    def is_disjunctive(self) -> bool:
        return any(len(r.head) > 1 for r in self.rules)


def _ascending(head, pos_body, neg_body) -> Rule:
    """The ``Rule`` of three iterables of ids, each made an ascending tuple."""
    return Rule(tuple(sorted(set(head))) if head else (),
                tuple(sorted(set(pos_body))) if pos_body else (),
                tuple(sorted(set(neg_body))) if neg_body else ())


def satisfies(interp: Interpretation, rule: Rule) -> bool:
    """Classical satisfaction of one rule.

    The rule holds under ``interp`` iff some head or negated-body atom is
    true, or some positive body atom is false.
    """
    head, pos_body, neg_body = rule
    return not interp.isdisjoint(head + neg_body) or not interp.issuperset(pos_body)


def satisfies_program(interp: Interpretation, program: GroundProgram) -> bool:
    return all(satisfies(interp, r) for r in program.rules)


def lint(program: GroundProgram) -> list[str]:
    """Warnings for legal-but-suspect rules (head/positive-body overlap)."""
    warnings = []
    for i, (head, pos_body, _) in enumerate(program.rules, start=1):
        for x in filter(pos_body.__contains__, head):
            warnings.append(
                f"rule {i}: atom '{program.name_of(x)}' appears in both head "
                "and positive body; the rule is classically trivial"
            )
    return warnings


# One token per match: an identifier, a mark, or any other non-blank
# character (an error). Blanks match nothing and are skipped. No
# alternative can match a prefix of a blank, so a scan is linear in the line.
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|:-|[|,.]|[^ \t\r]")
_MARKS = frozenset((":-", "|", ",", "."))
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _fail(line: str, line_no: int, i: int, message: str):
    """Raise ``message`` at token i of the line. Columns are found here only,
    by a rescan of the line. Its first character that is no token is the
    error: no rule parses past one."""
    column = len(line) + 1
    for j, m in enumerate(_TOKEN.finditer(line)):
        if m[0] not in _MARKS and m[0][0] not in _IDENT_START:
            raise ParseError(f"unexpected character {m[0]!r}", line_no, m.start() + 1)
        if j == i:
            column = m.start() + 1
    raise ParseError(message, line_no, column)


def _parse_rule(line: str, line_no: int, ids: dict[str, int]) -> Rule:
    """The rule of one line, comment removed; a new atom gets the next id."""
    toks = _TOKEN.findall(line) + [""]  # "" is the end of the line
    head: list[int] = []
    pos_body: list[int] = []
    neg_body: list[int] = []
    i = 0

    def atom(context: str) -> int:
        nonlocal i
        text = toks[i]
        if text[:1] not in _IDENT_START:
            _fail(line, line_no, i, f"expected atom {context}")
        if text == "not":
            _fail(line, line_no, i, f"'not' is a reserved word, not an atom {context}")
        i += 1
        return ids.setdefault(text, len(ids))

    if toks[0][:1] in _IDENT_START:
        head.append(atom("in head"))
        while toks[i] == "|":
            i += 1
            head.append(atom("in head"))
    if toks[i] == ":-":
        i += 1
        if toks[i][:1] in _IDENT_START:
            while True:
                if toks[i] == "not":
                    i += 1
                    neg_body.append(atom("after 'not'"))
                else:
                    pos_body.append(atom("in body"))
                if toks[i] != ",":
                    break
                i += 1
    elif not head:
        _fail(line, line_no, i, "expected atom or ':-'")
    if toks[i] != ".":
        _fail(line, line_no, i, "expected '.'")
    i += 1
    if toks[i]:
        _fail(line, line_no, i, "one rule per line")
    return _ascending(head, pos_body, neg_body)


def parse_program(text: str) -> GroundProgram:
    """Parse program text, one rule per line.

    ``%`` starts a comment; lines of blanks (space, tab, CR) are skipped. Atom
    ids follow first textual occurrence. Raises ParseError with line/column.
    """
    ids: dict[str, int] = {}  # each atom's id, in order of first occurrence
    rules: list[Rule] = []
    for line_no, raw in enumerate(_clocked(text.split("\n")), start=1):
        line = raw.split("%", 1)[0]
        if not line.strip(" \t\r"):
            continue
        rules.append(_parse_rule(line, line_no, ids))
    return GroundProgram._trusted(list(ids), rules)  # its own ids: in range


def format_rule(program: GroundProgram, rule: Rule) -> str:
    head = " | ".join(program.name_of(x) for x in rule.head)
    body = [program.name_of(x) for x in rule.pos_body]
    body += ["not " + program.name_of(x) for x in rule.neg_body]
    if not body:
        return (head or ":-") + "."
    joined = ", ".join(body)
    return (head + " :- " if head else ":- ") + joined + "."


def format_program(program: GroundProgram) -> str:
    """Render the program back to text; reparsing yields an isomorphic program."""
    return "\n".join(format_rule(program, r) for r in program.rules) + "\n"


from . import depgraph  # noqa: E402  (last: depgraph imports this module's classes)
