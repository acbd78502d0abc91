"""Ground disjunctive programs: data model, parser, printer.

A program is a list of rules ``a1 | ... | ak :- b1, ..., bm, not c1, ..., not cn.``
over propositional atoms. Facts drop the body, constraints drop the head.
Atoms are referenced by integer id everywhere; ids are assigned by first
textual occurrence during parsing.
"""

from dataclasses import dataclass, field

Interpretation = frozenset[int]

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Atom:
    id: int
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Rule:
    """One rule; all three parts are sets of atom ids.

    An empty head means the rule is a constraint (falsum head); an empty
    body means the rule is a fact.
    """

    head: frozenset[int]
    pos_body: frozenset[int]
    neg_body: frozenset[int]

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_fact(self) -> bool:
        return not self.pos_body and not self.neg_body


@dataclass
class GroundProgram:
    """A parsed program. ``atoms[i].id == i`` for all i."""

    atoms: list[Atom]
    rules: list[Rule]
    _by_name: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for i, atom in enumerate(self.atoms):
            if atom.id != i:
                raise ValueError(f"atom id {atom.id} at position {i}")
        if not self._by_name:
            self._by_name = {a.name: a.id for a in self.atoms}
        n = len(self.atoms)
        for r, rule in enumerate(self.rules):
            for x in rule.head | rule.pos_body | rule.neg_body:
                if not 0 <= x < n:
                    raise ValueError(f"rule {r} references unknown atom id {x}")

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    def atom_id(self, name: str) -> int:
        return self._by_name[name]

    def name_of(self, atom_id: int) -> str:
        return self.atoms[atom_id].name

    def interpretation(self, names) -> Interpretation:
        """Build an interpretation from atom names; unknown names raise KeyError."""
        return frozenset(self._by_name[n] for n in names)

    def atom_names(self, interp) -> list[str]:
        """Names of the atoms in ``interp``, sorted alphabetically."""
        return sorted(self.atoms[i].name for i in interp)

    @property
    def is_disjunctive(self) -> bool:
        return any(len(r.head) > 1 for r in self.rules)


def satisfies(interp: Interpretation, rule: Rule) -> bool:
    """Classical satisfaction of one rule.

    The rule holds under ``interp`` iff some head or negated-body atom is
    true, or some positive body atom is false.
    """
    if (rule.head | rule.neg_body) & interp:
        return True
    return bool(rule.pos_body - interp)


def satisfies_program(interp: Interpretation, program: GroundProgram) -> bool:
    return all(satisfies(interp, r) for r in program.rules)


def lint(program: GroundProgram) -> list[str]:
    """Warnings for legal-but-suspect rules (head/positive-body overlap)."""
    warnings = []
    for i, rule in enumerate(program.rules, start=1):
        overlap = rule.head & rule.pos_body
        for x in sorted(overlap):
            warnings.append(
                f"rule {i}: atom '{program.name_of(x)}' appears in both head "
                "and positive body; the rule is classically trivial"
            )
    return warnings


class _Tokens:
    """Single-line tokenizer. Token kinds: ident, ':-', '|', ',', '.'."""

    def __init__(self, text: str, line_no: int):
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, column)
        i = 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r":
                i += 1
                continue
            col = i + 1
            if ch in _IDENT_START:
                j = i + 1
                while j < len(text) and text[j] in _IDENT_CONT:
                    j += 1
                self.toks.append(("ident", text[i:j], col))
                i = j
            elif text.startswith(":-", i):
                self.toks.append((":-", ":-", col))
                i += 2
            elif ch in "|,.":
                self.toks.append((ch, ch, col))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", line_no, col)
        self.line_no = line_no
        self.end_col = len(text) + 1
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        col = tok[2] if tok is not None else self.end_col
        raise ParseError(message, self.line_no, col)


def _expect_atom(toks: _Tokens, context: str) -> str:
    tok = toks.peek()
    if tok is None or tok[0] != "ident":
        toks.fail(f"expected atom {context}")
    if tok[1] == "not":
        toks.fail(f"'not' is a reserved word, not an atom {context}")
    toks.next()
    return tok[1]


def _parse_rule(toks: _Tokens, intern) -> Rule:
    head: list[int] = []
    pos_body: list[int] = []
    neg_body: list[int] = []

    tok = toks.peek()
    if tok is None:
        toks.fail("empty rule")
    if tok[0] == "ident":
        while True:
            head.append(intern(_expect_atom(toks, "in head")))
            tok = toks.peek()
            if tok is not None and tok[0] == "|":
                toks.next()
                continue
            break

    tok = toks.peek()
    if tok is not None and tok[0] == ":-":
        toks.next()
        tok = toks.peek()
        if tok is not None and tok[0] == "ident":
            while True:
                tok = toks.peek()
                if tok is not None and tok[0] == "ident" and tok[1] == "not":
                    toks.next()
                    neg_body.append(intern(_expect_atom(toks, "after 'not'")))
                else:
                    pos_body.append(intern(_expect_atom(toks, "in body")))
                tok = toks.peek()
                if tok is not None and tok[0] == ",":
                    toks.next()
                    continue
                break
    elif not head:
        toks.fail("expected atom or ':-'")

    tok = toks.peek()
    if tok is None or tok[0] != ".":
        toks.fail("expected '.'")
    toks.next()
    if toks.peek() is not None:
        toks.fail("one rule per line")
    return Rule(frozenset(head), frozenset(pos_body), frozenset(neg_body))


def parse_program(text: str) -> GroundProgram:
    """Parse program text, one rule per line.

    ``%`` starts a comment; blank lines are skipped. Atom ids follow first
    textual occurrence. Raises ParseError with line/column on bad input.
    """
    atoms: list[Atom] = []
    by_name: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in by_name:
            by_name[name] = len(atoms)
            atoms.append(Atom(len(atoms), name))
        return by_name[name]

    rules: list[Rule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        if not line.strip():
            continue
        rules.append(_parse_rule(_Tokens(line, line_no), intern))
    return GroundProgram(atoms, rules)


def format_rule(program: GroundProgram, rule: Rule) -> str:
    head = " | ".join(program.name_of(x) for x in sorted(rule.head))
    body = [program.name_of(x) for x in sorted(rule.pos_body)]
    body += ["not " + program.name_of(x) for x in sorted(rule.neg_body)]
    if not body:
        return (head or ":-") + "."
    joined = ", ".join(body)
    return (head + " :- " if head else ":- ") + joined + "."


def format_program(program: GroundProgram) -> str:
    """Render the program back to text; reparsing yields an isomorphic program."""
    return "\n".join(format_rule(program, r) for r in program.rules) + "\n"
