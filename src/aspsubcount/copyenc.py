"""Copy encoding: the machinery that separates answer sets from the other
completion models.

For every loop atom x the encoding introduces a copy variable x_c and two
clause families:

* type 1: x_c -> x for every loop atom x;
* type 2: for every rule whose head meets the loop atoms, the rule as an
  implication with every loop atom in the head or positive body replaced by
  its copy (negative body atoms are never replaced).

The surplus formula conjoins the completion with one copy (prime) and
demands that it lie strictly below the atoms somewhere: a witness e_x
implies x and not x' for each loop atom x, and some witness holds. Atom id
i is variable i + 1; the copies and the witnesses come after the
completion's variables, and counting the formula's models projected onto
the atoms (everything above them projected away) counts exactly the
completion models that are not answer sets, so subtracting yields the
answer-set count. The clauses it adds to the completion also decide a
single completion model, on one engine for many models (``copy_checker``).
"""

from dataclasses import dataclass

from .cnf import CnfFormula, dimacs
from .completion import CompletionArtifact, clark_completion
from .depgraph import build_dependency_graph, loop_atoms
from .program import GroundProgram
from .sat import _clocked, checker


def copy_operation(
    program: GroundProgram,
    loops: frozenset[int],
    copy_map: dict[int, int],
) -> list[tuple[int, ...]]:
    """The copy clauses for the given loop atoms: type 1, then type 2.

    ``copy_map`` assigns each loop atom its copy variable; atom id i itself
    is variable i + 1. For a tight program (no loop atoms) the list is
    empty. Trivially true implications (a rule whose substituted head meets
    its substituted positive body) are dropped, and a clause equal to an
    earlier one is left out.
    """
    if missing := loops.difference(copy_map):
        raise ValueError(f"loop atom {min(missing)} has no copy variable")

    def f(x: int) -> int:
        return copy_map[x] if x in loops else x + 1

    clauses = [(-copy_map[x], x + 1) for x in sorted(loops)]
    for head, pos_body, neg_body in _clocked(program.rules):
        if loops.isdisjoint(head):
            continue
        lits = {f(x) for x in head} | {-f(b) for b in pos_body} | {c + 1 for c in neg_body}
        if any(-lit in lits for lit in lits):
            continue
        clauses.append(tuple(sorted(lits, key=abs)))
    return list(dict.fromkeys(clauses))


@dataclass
class SurplusArtifact:
    """The projected-counting side of the subtraction.

    The atoms are variables 1..n; projection_out holds every variable
    above them (the prime copies, the witnesses and the completion's
    auxiliaries). Counting models of ``cnf`` projected onto the atoms
    counts completion models that are not answer sets.
    """

    cnf: CnfFormula
    projection_out: frozenset[int]
    cv_prime: dict[int, int]
    aux_vars: frozenset[int]

    def to_dimacs(self, program: GroundProgram) -> str:
        names = dict(enumerate(program.atoms, 1))
        return dimacs(self.cnf, atom_names=names, show=sorted(names))

    def variable_map(self, program: GroundProgram) -> dict:
        name = program.name_of
        return {
            "atoms": {a: v for v, a in enumerate(program.atoms, 1)},
            "cv_prime": {name(a): v for a, v in sorted(self.cv_prime.items())},
            "aux": sorted(self.aux_vars),
        }


def surplus_formula(
    program: GroundProgram,
    completion: CompletionArtifact | None = None,
    loops: frozenset[int] | None = None,
) -> SurplusArtifact:
    """Build the subtrahend formula. ``loops`` are the program's loop
    atoms, computed here when not given.

    For a tight program the witness disjunction is empty, so the formula
    contains an empty clause and is unsatisfiable (surplus zero).
    """
    if completion is None:
        completion = clark_completion(program)
    if loops is None:
        loops = loop_atoms(build_dependency_graph(program))
    ordered = sorted(loops)
    base = completion.cnf.num_vars
    prime = {x: base + 1 + i for i, x in enumerate(ordered)}
    witness = {x: base + 1 + len(ordered) + i for i, x in enumerate(ordered)}

    clauses = completion.cnf.clauses + copy_operation(program, loops, prime)
    for x in ordered:
        clauses.append((-witness[x], -prime[x]))
        clauses.append((-witness[x], x + 1))
    clauses.append(tuple(witness[x] for x in ordered))

    num_vars = base + 2 * len(ordered)
    n = program.num_atoms
    return SurplusArtifact(
        cnf=CnfFormula._trusted(num_vars, clauses),
        projection_out=frozenset(range(n + 1, num_vars + 1)),
        cv_prime=prime,
        aux_vars=completion.aux_vars | frozenset(witness.values()),
    )


def copy_checker(completion: CompletionArtifact, surplus: SurplusArtifact):
    """The copy check, on one engine: a function of a model of ``completion``
    (each atom variable to its value, as ``sat.models`` yields it) that is
    True exactly when the model is not an answer set. ``surplus`` must be
    built on ``completion``; the function tests whether the clauses it adds
    (the copy, witness and witness-disjunction clauses) can hold under the
    values the model gives the atoms they mention, that is, whether a copy
    of the loop atoms lies below the model and strictly below it somewhere.
    It does not check that the model is a completion model."""
    added = surplus.cnf.clauses[len(completion.cnf.clauses):]
    test = checker(added, surplus.cnf.num_vars)
    n = completion.num_atoms
    atoms = sorted({abs(lit) for clause in added for lit in clause if abs(lit) <= n})
    return lambda model: test([v if model[v] else -v for v in atoms])
