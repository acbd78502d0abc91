"""Independent oracles and random generators shared by the test suite.

Everything here recomputes ground truth by a different route than the code
under test: truth tables for counting, DFS reachability for cycles, direct
implication evaluation for the completion, subset enumeration for
answer-set minimality, and the former hand-written tokenizer for parsing.
"""

import random
import re

import numpy as np

from aspsubcount import (
    CnfFormula,
    GroundProgram,
    ParseError,
    Rule,
    build_dependency_graph,
    clark_completion,
    copy_operation,
    gl_reduct,
    loop_atoms,
    satisfies_program,
)


def tt_count(cnf: CnfFormula) -> int:
    """Model count by truth-table enumeration (vectorized)."""
    n = cnf.num_vars
    masks = np.arange(1 << n, dtype=np.int64)
    sat = np.ones(1 << n, dtype=bool)
    for clause in cnf.clauses:
        clause_sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = ((masks >> (abs(lit) - 1)) & 1).astype(bool)
            clause_sat |= bit if lit > 0 else ~bit
        sat &= clause_sat
    return int(sat.sum())


def tt_projected_count(cnf: CnfFormula, project_out) -> int:
    """Projected count: distinct kept-variable patterns among all models."""
    n = cnf.num_vars
    masks = np.arange(1 << n, dtype=np.int64)
    sat = np.ones(1 << n, dtype=bool)
    for clause in cnf.clauses:
        clause_sat = np.zeros(1 << n, dtype=bool)
        for lit in clause:
            bit = ((masks >> (abs(lit) - 1)) & 1).astype(bool)
            clause_sat |= bit if lit > 0 else ~bit
        sat &= clause_sat
    kept_mask = 0
    for v in range(1, n + 1):
        if v not in project_out:
            kept_mask |= 1 << (v - 1)
    return int(np.unique(masks[sat] & kept_mask).size)


def eval_clauses(clauses, assignment: dict) -> bool:
    return all(
        any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    )


def all_interpretations(num_atoms: int):
    for bits in range(1 << num_atoms):
        yield frozenset(x for x in range(num_atoms) if bits >> x & 1)


def direct_completion_holds(program, interp) -> bool:
    """Evaluate the completion as implications, no CNF involved."""
    heads = {a: [] for a in range(program.num_atoms)}
    for rule in program.rules:
        for a in rule.head:
            heads[a].append(rule)
    for a in range(program.num_atoms):
        if not heads[a] and a in interp:
            return False
    for rule in program.rules:
        body_true = interp.issuperset(rule.pos_body) and interp.isdisjoint(rule.neg_body)
        if body_true and interp.isdisjoint(rule.head):
            return False
    for a in interp:
        if not heads[a]:
            continue
        supported = False
        for rule in heads[a]:
            if (
                interp.issuperset(rule.pos_body)
                and interp.isdisjoint(rule.neg_body)
                and interp.isdisjoint(x for x in rule.head if x != a)
            ):
                supported = True
                break
        if not supported:
            return False
    return True


def cyclic_atoms_dfs(successors) -> frozenset:
    """Atoms on a directed cycle, by plain reachability over the successor
    lists (one list per atom id)."""
    out = set()
    for start in range(len(successors)):
        seen = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node == start:
                out.add(start)
                break
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors[node])
    return frozenset(out)


def reduct_satisfied(interp, reduct) -> bool:
    return all(
        not interp.isdisjoint(rule.head) or not interp.issuperset(rule.pos_body)
        for rule in reduct.rules
    )


def answer_sets_by_definition(program):
    """Answer sets by the textbook definition: classical models whose reduct
    has no smaller model among their proper subsets. No SAT involved."""
    out = []
    for interp in all_interpretations(program.num_atoms):
        if not satisfies_program(interp, program):
            continue
        reduct = gl_reduct(program, interp)
        members = sorted(interp)
        minimal = True
        for bits in range((1 << len(members)) - 1):  # proper subsets only
            sub = frozenset(
                members[i] for i in range(len(members)) if bits >> i & 1
            )
            if reduct_satisfied(sub, reduct):
                minimal = False
                break
        if minimal:
            out.append(interp)
    return out


def random_program_text(
    rng: random.Random,
    max_atoms: int = 10,
    max_rules: int = 16,
    max_head: int = 3,
    force_loop: bool | None = None,
) -> str:
    """Random ground program text. About half the draws get an injected
    positive cycle when force_loop is None."""
    n = rng.randint(2, max_atoms)
    names = [f"a{i}" for i in range(n)]
    if force_loop is None:
        force_loop = rng.random() < 0.5
    budget = rng.randint(1, max_rules - 2 if force_loop else max_rules)
    lines = []
    for _ in range(budget):
        head_size = rng.choices([0, 1, 2, 3], weights=[15, 50, 25, 10])[0]
        head_size = min(head_size, max_head, n)
        head = rng.sample(names, head_size)
        pos = rng.sample(names, min(rng.choices([0, 1, 2, 3], weights=[30, 40, 20, 10])[0], n))
        neg = rng.sample(names, min(rng.choices([0, 1, 2], weights=[50, 35, 15])[0], n))
        if not head and not pos and not neg:
            head = [rng.choice(names)]
        body = pos + ["not " + x for x in neg]
        if head and not body:
            lines.append(" | ".join(head) + ".")
        elif head:
            lines.append(" | ".join(head) + " :- " + ", ".join(body) + ".")
        else:
            lines.append(":- " + ", ".join(body) + ".")
    if force_loop:
        if n >= 2 and rng.random() < 0.8:
            x, y = rng.sample(names, 2)
            lines.append(f"{x} :- {y}.")
            lines.append(f"{y} :- {x}.")
        else:
            x = rng.choice(names)
            lines.append(f"{x} :- {x}.")
    return "\n".join(lines) + "\n"


def random_tight_program_text(
    rng: random.Random, max_atoms: int = 10, max_rules: int = 16, max_head: int = 3
) -> str:
    """Random program with no positive cycles: positive body atoms always
    have strictly smaller index than every head atom."""
    n = rng.randint(2, max_atoms)
    names = [f"a{i}" for i in range(n)]
    budget = rng.randint(1, max_rules)
    lines = []
    for _ in range(budget):
        head_size = min(rng.choices([0, 1, 2, 3], weights=[15, 50, 25, 10])[0], n)
        head_idx = sorted(rng.sample(range(n), head_size))
        if head_idx:
            lowest = head_idx[0]
            pos_pool = list(range(lowest))
        else:
            pos_pool = list(range(n))
        pos_size = min(rng.choices([0, 1, 2], weights=[40, 40, 20])[0], len(pos_pool))
        pos = rng.sample(pos_pool, pos_size)
        neg = rng.sample(range(n), min(rng.choices([0, 1, 2], weights=[50, 35, 15])[0], n))
        head = [names[i] for i in head_idx]
        body = [names[i] for i in pos] + ["not " + names[i] for i in neg]
        if not head and not body:
            head = [rng.choice(names)]
        if head and not body:
            lines.append(" | ".join(head) + ".")
        elif head:
            lines.append(" | ".join(head) + " :- " + ", ".join(body) + ".")
        else:
            lines.append(":- " + ", ".join(body) + ".")
    return "\n".join(lines) + "\n"


def random_cnf(rng: random.Random, max_vars: int = 16, max_clauses: int = 40) -> CnfFormula:
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        width = min(rng.choices([1, 2, 3, 4], weights=[10, 30, 40, 20])[0], n)
        variables = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    if rng.random() < 0.02:
        clauses.append(())
    return CnfFormula(n, clauses)


def pairs_text(k: int, p: str = "") -> str:
    """``a_i | b_i.`` for i < k: 2^k answer sets and completion models."""
    return "".join(f"{p}a{i} | {p}b{i}.\n" for i in range(k))


def cycles_text(k: int, p: str = "") -> str:
    """k atom-disjoint blocks ``a|b. x:-y. y:-x. x:-a.``: 2^k answer sets and
    3^k completion models (with a and b false, x and y may hold together,
    supporting each other)."""
    return "".join(
        f"{p}a{i} | {p}b{i}.\n{p}x{i} :- {p}y{i}.\n{p}y{i} :- {p}x{i}.\n"
        f"{p}x{i} :- {p}a{i}.\n"
        for i in range(k)
    )


def self_supporting_pairs_text(k: int) -> str:
    """``x_i :- y_i. y_i :- x_i. g :- x_i.`` for i < k: one part, joined by
    g, with 2^k completion models (each pair may hold, supporting itself)
    and one answer set, the empty one."""
    return "".join(f"x{i} :- y{i}.\ny{i} :- x{i}.\ng :- x{i}.\n" for i in range(k))


def distinct_cycles_text(k: int, p: str = "") -> str:
    """k atom-disjoint blocks ``a|b. x0:-x1. ... x{L-1}:-x0. x0:-a.``, block
    i with a loop of L = i + 2 atoms: like ``cycles_text(k)``, 2^k answer
    sets and 3^k completion models, but no two blocks are the same program
    up to atom names, so each block is a part of its own."""
    blocks = []
    for i in range(k):
        ring = "".join(f"{p}x{i}_{j} :- {p}x{i}_{(j + 1) % (i + 2)}.\n" for j in range(i + 2))
        blocks.append(f"{p}a{i} | {p}b{i}.\n{ring}{p}x{i}_0 :- {p}a{i}.\n")
    return "".join(blocks)


def chain_text(n: int) -> str:
    """``x0 | y0.`` and ``x_{i+1} :- x_i. x_{i+1} | z_{i+1}.`` for i < n:
    n+2 answer sets and completion models, tight. Once x_i holds, every
    later x is implied, one link at a time."""
    lines = ["x0 | y0.\n"]
    for i in range(n):
        lines.append(f"x{i + 1} :- x{i}.\nx{i + 1} | z{i + 1}.\n")
    return "".join(lines)


def ring_text(n: int) -> str:
    """``a_i :- a_{i+1}.`` for i < n, closed by ``a_n :- a_0.``, plus the even
    cycle ``a_0 :- not b. b :- not a_0.``: one positive loop through every
    a_i, and 2 answer sets and completion models."""
    lines = [f"a{i} :- a{i + 1}.\n" for i in range(n)]
    lines.append(f"a{n} :- a0.\na0 :- not b.\nb :- not a0.\n")
    return "".join(lines)


def pigeonhole_text(pigeons: int, holes: int) -> str:
    """Each pigeon in one of the holes, ``p_i_h_0 | ... | p_i_h_{holes-1}.``,
    and no two in one hole: no answer set when there are more pigeons than
    holes, and a count that takes seconds at ten pigeons in nine holes
    whatever the decision rule, as unit propagation cannot see it."""
    lines = [" | ".join(f"p{i}h{j}" for j in range(holes)) + ".\n" for i in range(pigeons)]
    lines += [
        f":- p{i}h{j}, p{k}h{j}.\n"
        for j in range(holes) for i in range(pigeons) for k in range(i + 1, pigeons)
    ]
    return "".join(lines)


def reach_text(rng: random.Random, n: int, m: int) -> str:
    """Reachability from node 0 over m distinct directed edges on nodes
    0..n-1 (n - 1 <= m), a random spanning tree plus random further edges,
    so the underlying undirected graph is connected: ``in_u_v | out_u_v.``
    and ``r_v :- r_u, in_u_v.`` per edge (u, v), and the fact ``r0.``.
    Every choice of edges has exactly one answer set, so there are 2^m."""
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    rest = [(u, v) for u in range(n) for v in range(n) if u != v]
    rest = [edge for edge in rest if edge not in edges]
    edges += rng.sample(rest, m - len(edges))
    rng.shuffle(edges)
    lines = ["r0.\n"]
    for u, v in edges:
        lines.append(f"in_{u}_{v} | out_{u}_{v}.\nr{v} :- r{u}, in_{u}_{v}.\n")
    return "".join(lines)


def prefixed(text: str, p: str) -> str:
    """Rename the ``a<i>`` atoms of a random program text to ``<p>a<i>``, so
    that blocks with distinct prefixes are atom-disjoint."""
    return re.sub(r"\ba(\d+)\b", p + r"a\1", text)


def completion_models_by_definition(program) -> int:
    """Number of completion models, by evaluating the completion directly
    on every interpretation."""
    return sum(
        direct_completion_holds(program, interp)
        for interp in all_interpretations(program.num_atoms)
    )


def reference_assign(clauses, lit: int):
    """Unit propagation one unit per pass: make ``lit`` true, then the
    first unit clause left, and so on until no unit clause remains, with a
    pass over every clause per literal. Returns (remaining clauses,
    literals made true) or None on a conflict: the state that
    ``sat._Trail.assign`` reaches from ``lit``."""
    made = [lit]
    while True:
        neg = -lit
        unit = None
        out = []
        for clause in clauses:
            if lit in clause:
                continue
            if neg in clause:
                clause = [x for x in clause if x != neg]
                if not clause:
                    return None
            if unit is None and len(clause) == 1:
                unit = clause[0]
            out.append(clause)
        if unit is None:
            return out, made
        clauses, lit = out, unit
        made.append(lit)


def reference_propagate(clauses):
    """``reference_assign`` for clauses that may hold unit or empty clauses
    of their own, as ``sat._started`` hands their units to
    ``sat._Trail.assign``."""
    if any(not c for c in clauses):
        return None
    unit = next((c[0] for c in clauses if len(c) == 1), None)
    return (clauses, []) if unit is None else reference_assign(clauses, unit)


def two_copy_surplus_formula(program) -> tuple[CnfFormula, frozenset]:
    """The surplus formula with two copies of the loop atoms, prime and
    star: the completion, both copies' copy clauses, the ordering x' -> x*
    and a witness e_x <-> (not x' and x*) per loop atom, joined in one
    disjunction. ``surplus_formula`` builds one copy instead and takes the
    star copy to be the atoms themselves. Returns the formula and the
    variables projected away (all above the atoms)."""
    completion = clark_completion(program)
    ordered = sorted(loop_atoms(build_dependency_graph(program)))
    k = len(ordered)
    base = completion.cnf.num_vars
    prime = {x: base + 1 + i for i, x in enumerate(ordered)}
    star = {x: base + 1 + k + i for i, x in enumerate(ordered)}
    witness = {x: base + 1 + 2 * k + i for i, x in enumerate(ordered)}
    clauses = list(completion.cnf.clauses)
    clauses += copy_operation(program, frozenset(ordered), prime)
    clauses += copy_operation(program, frozenset(ordered), star)
    for x in ordered:
        clauses.append((-prime[x], star[x]))
        clauses.append((-witness[x], -prime[x]))
        clauses.append((-witness[x], star[x]))
        clauses.append((witness[x], prime[x], -star[x]))
    clauses.append(tuple(witness[x] for x in ordered))
    num_vars = base + 3 * k
    return (
        CnfFormula(num_vars, clauses),
        frozenset(range(program.num_atoms + 1, num_vars + 1)),
    )


def random_qbf(
    rng: random.Random, num_x: int, num_y: int, num_terms: int, width: int
) -> tuple[int, int, list]:
    """A random formula  exists X forall Y: DNF  as (num_x, num_y, terms).
    Variables 0..num_x-1 are X, the next num_y are Y; a term is a tuple of
    (variable, polarity) pairs over ``width`` distinct variables."""
    terms = []
    for _ in range(num_terms):
        variables = rng.sample(range(num_x + num_y), width)
        terms.append(tuple((v, rng.random() < 0.5) for v in variables))
    return num_x, num_y, terms


def qbf_saturation_text(qbf) -> str:
    """The saturation encoding of an exists-forall QBF (Eiter & Gottlob
    1995): ``x | nx.`` and ``y | ny.`` per variable, ``y :- w.`` and
    ``ny :- w.`` per Y variable, ``w :- <term>.`` per DNF term and
    ``:- not w.``. Its answer sets correspond one to one to the X
    assignments under which every Y assignment satisfies the DNF."""
    num_x, num_y, terms = qbf

    def atom(v: int, positive: bool) -> str:
        name = f"x{v}" if v < num_x else f"y{v - num_x}"
        return name if positive else "n" + name

    lines = [f"{atom(v, True)} | {atom(v, False)}.\n" for v in range(num_x + num_y)]
    for v in range(num_x, num_x + num_y):
        lines.append(f"{atom(v, True)} :- w.\n{atom(v, False)} :- w.\n")
    for term in terms:
        lines.append("w :- " + ", ".join(atom(v, pol) for v, pol in term) + ".\n")
    lines.append(":- not w.\n")
    return "".join(lines)


def qbf_count(qbf) -> int:
    """Number of X assignments under which every Y assignment satisfies
    the DNF, by evaluating the formula directly. No ASP involved."""
    num_x, num_y, terms = qbf
    count = 0
    for xs in range(1 << num_x):
        count += all(
            any(
                all(((xs | ys << num_x) >> v & 1) == pol for v, pol in term)
                for term in terms
            )
            for ys in range(1 << num_y)
        )
    return count


_REF_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_REF_IDENT_CONT = _REF_IDENT_START | set("0123456789")


class _ReferenceTokens:
    """The former character-by-character tokenizer of one line, kept as the
    reference for the parser. Token kinds: ident, ':-', '|', ',', '.'."""

    def __init__(self, text: str, line_no: int):
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, column)
        i = 0
        while i < len(text):
            ch = text[i]
            if ch in " \t\r":
                i += 1
                continue
            col = i + 1
            if ch in _REF_IDENT_START:
                j = i + 1
                while j < len(text) and text[j] in _REF_IDENT_CONT:
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


def _reference_atom(toks: _ReferenceTokens, context: str) -> str:
    tok = toks.peek()
    if tok is None or tok[0] != "ident":
        toks.fail(f"expected atom {context}")
    if tok[1] == "not":
        toks.fail(f"'not' is a reserved word, not an atom {context}")
    toks.next()
    return tok[1]


def _reference_rule(toks: _ReferenceTokens, intern) -> Rule:
    head: list[int] = []
    pos_body: list[int] = []
    neg_body: list[int] = []

    tok = toks.peek()
    if tok is None:
        toks.fail("empty rule")
    if tok[0] == "ident":
        while True:
            head.append(intern(_reference_atom(toks, "in head")))
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
                    neg_body.append(intern(_reference_atom(toks, "after 'not'")))
                else:
                    pos_body.append(intern(_reference_atom(toks, "in body")))
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


def reference_parse_program(text: str) -> GroundProgram:
    """The former parser, a character-by-character tokenizer with a
    peek/next walk over its tokens: the reference that ``parse_program``
    must agree with, atom for atom and error for error."""
    atoms: list[str] = []
    by_name: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in by_name:
            by_name[name] = len(atoms)
            atoms.append(name)
        return by_name[name]

    rules: list[Rule] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("%", 1)[0]
        if not line.strip(" \t\r"):
            continue
        rules.append(_reference_rule(_ReferenceTokens(line, line_no), intern))
    return GroundProgram(atoms, rules)
