"""Clark completion of a ground disjunctive program, lowered to CNF.

The encoding has three clause groups:

* G1: a unit clause ``-a`` for every atom heading no rule.
* G2: one clause per rule (the rule as a classical implication).
* G3: for every atom a, support clauses forcing a true atom to be derivable
  from some rule that heads it, exclusively with respect to the other head
  atoms of that rule.

Each clause is emitted once: a clause with the literal set of an earlier
one, in any group, is left out (the atoms of ``a | b.`` share ``-a | -b``),
and the first keeps its place and literal order.

Atom id i is variable i + 1. Multi-literal support conjuncts get one
auxiliary variable each, above the atoms, defined by a full biconditional,
so every model over the atom variables extends to exactly one model of the
CNF. So the CNF's plain model count and its count projected onto the atoms
(the way ``counting`` counts it) both are the completion's model count.
"""

from dataclasses import dataclass

from .cnf import CnfFormula, dimacs
from .program import GroundProgram, Interpretation
from .sat import _clocked, checker


@dataclass
class CompletionArtifact:
    """CNF of the completion of ``program``, in the layout of ``cnf``: the
    first ``num_atoms`` variables are the program's atoms, and the
    auxiliaries ``range(num_atoms + 1, cnf.num_vars + 1)`` are the Tseitin
    definitions above them, each fixed by the atoms' values.
    """

    program: GroundProgram
    cnf: CnfFormula

    @property
    def num_atoms(self) -> int:
        return self.program.num_atoms

    def to_dimacs(self) -> str:
        return dimacs(self.cnf, atom_names=dict(enumerate(self.program.atoms, 1)))


def clark_completion(program: GroundProgram) -> CompletionArtifact:
    """Build the completion CNF. Variable order: atoms first (atom id i is
    variable i + 1), auxiliaries after, in emission order."""
    n = program.num_atoms
    next_var = n + 1

    # A rule's literals, built once and sorted by variable, make its
    # positive body true and its head and negative body false (an atom in
    # both gives one literal). Negated, they are the rule's clause; less an
    # atom's own head literal, they are the rule's support conjunct for that
    # atom (None when contradictory), listed per atom in rule order.
    supports: list[list] = [[] for _ in range(n)]
    rule_clauses: list[tuple[int, ...]] = []
    for head, pos, neg in _clocked(program.rules):
        lits = sorted([b + 1 for b in pos] + [-(x + 1) for x in {*head, *neg}], key=abs)
        void = not set(pos).isdisjoint(neg)
        clash = [x for x in head if x in pos]
        if not (void or clash):  # else the implication is trivially true
            rule_clauses.append(tuple([-lit for lit in lits]))
        for a in head:
            own = 0 if a in neg else -(a + 1)  # a negated body atom stays
            conjunct = tuple([lit for lit in lits if lit != own])
            supports[a].append(None if void or clash and clash != [a] else conjunct)

    clauses = [(-(a + 1),) for a in range(n) if not supports[a]] + rule_clauses

    for a, found in enumerate(_clocked(supports)):  # headless: its G1 unit again
        conjuncts = dict.fromkeys(found)  # each support once, in rule order
        conjuncts.pop(None, None)  # void supports
        if () in conjuncts or (a + 1,) in conjuncts:
            continue  # some rule supports a unconditionally
        if len(conjuncts) == 1:
            for lit in next(iter(conjuncts)):
                if lit == a + 1:
                    continue  # a -> a, vacuous
                clauses.append((-(a + 1),) if lit == -(a + 1) else (-(a + 1), lit))
            continue
        singles = {c[0] for c in conjuncts if len(c) == 1}
        if any(-lit in singles for lit in singles):
            continue  # support disjunction is tautologous over the atom vars
        disjunction = {-(a + 1): None}  # ordered, each literal once
        for lits in conjuncts:
            if len(lits) == 1:
                disjunction[lits[0]] = None
                continue
            d = next_var
            next_var += 1
            for lit in lits:
                clauses.append((-d, lit))
            clauses.append((d,) + tuple(-lit for lit in lits))
            disjunction[d] = None
        clauses.append(tuple(disjunction))

    # no clause repeats a literal, so its sorted literals name its set
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    for clause in clauses:
        first.setdefault(tuple(sorted(clause)), clause)

    return CompletionArtifact(program, CnfFormula._trusted(next_var - 1, list(first.values())))


def completion_model_check(
    artifact: CompletionArtifact, interp: Interpretation
) -> bool:
    """Does the atom assignment ``interp`` extend to a model of the CNF? One
    ``sat.checker`` test: propagation from the atoms fixes the auxiliaries."""
    for a in interp:
        if not 0 <= a < artifact.num_atoms:
            raise ValueError(f"atom id {a} out of range")
    lits = [a + 1 if a in interp else -(a + 1) for a in range(artifact.num_atoms)]
    return checker(artifact.cnf.clauses, artifact.cnf.num_vars)(lits)
