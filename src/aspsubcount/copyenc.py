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
implies x and not x' for each loop atom x, and some witness holds. In the
layout of ``cnf``, the primes and then the witnesses follow the
completion's variables, each in ascending order of the loop atoms.
Counting the formula's models projected onto the atoms counts exactly the
completion models that are not answer sets, so subtracting yields the
answer-set count. A ``SurplusArtifact`` holds the completion it is built
on, which holds its program. The clauses it adds to the completion also
decide a single completion model, on one engine for many models
(``copy_checker``).
"""

from dataclasses import dataclass

from .cnf import CnfFormula, dimacs
from .completion import CompletionArtifact, clark_completion
from .program import GroundProgram
from .sat import _clocked, checker


def copy_operation(program: GroundProgram, copy_map: dict[int, int]) -> list[tuple[int, ...]]:
    """The copy clauses for ``program.loop_atoms``: type 1, then type 2.

    ``copy_map`` assigns each loop atom its copy variable; atom id i itself
    is variable i + 1. For a tight program (no loop atoms) the list is
    empty. Trivially true implications (a rule whose substituted head meets
    its substituted positive body) are dropped, and a clause equal to an
    earlier one is left out.
    """
    loops = program.loop_atoms
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
    """The projected-counting side of the subtraction: ``cnf`` is the
    clauses of ``completion`` and then the added ones, and counting its
    models projected onto the atoms counts completion models that are not
    answer sets. ``loops``, the loop atoms ascending, number the primes and
    the witnesses; projection_out is every variable above the atoms.
    """

    completion: CompletionArtifact
    cnf: CnfFormula

    @property
    def loops(self) -> tuple[int, ...]:
        return tuple(sorted(self.completion.program.loop_atoms))

    @property
    def projection_out(self) -> range:
        return range(self.completion.num_atoms + 1, self.cnf.num_vars + 1)

    @property
    def cv_prime(self) -> dict[int, int]:
        """Each loop atom's prime copy variable, above the completion's."""
        return {x: v for v, x in enumerate(self.loops, self.completion.cnf.num_vars + 1)}

    def to_dimacs(self) -> str:
        names = dict(enumerate(self.completion.program.atoms, 1))
        return dimacs(self.cnf, atom_names=names, show=sorted(names))

    def variable_map(self) -> dict:
        program, primes = self.completion.program, self.cv_prime
        copies = set(primes.values())
        return {
            "atoms": {a: v for v, a in enumerate(_clocked(program.atoms), 1)},
            "cv_prime": {program.name_of(a): v for a, v in primes.items()},
            "aux": [v for v in _clocked(self.projection_out) if v not in copies],
        }


def surplus_formula(
    program: GroundProgram, completion: CompletionArtifact | None = None
) -> SurplusArtifact:
    """Build the subtrahend formula over ``program.loop_atoms``, on
    ``completion`` (built here when None).

    For a tight program the witness disjunction is empty, so the formula
    contains an empty clause and is unsatisfiable (surplus zero).
    """
    if completion is None:
        completion = clark_completion(program)
    ordered = tuple(sorted(program.loop_atoms))
    base, k = completion.cnf.num_vars, len(ordered)

    # ordered[i] has the prime base + 1 + i, and its witness k above that
    primes = {x: v for v, x in enumerate(ordered, base + 1)}
    clauses = completion.cnf.clauses + copy_operation(program, primes)
    for x, v in primes.items():
        clauses.append((-(v + k), -v))
        clauses.append((-(v + k), x + 1))
    clauses.append(tuple(range(base + k + 1, base + 2 * k + 1)))

    return SurplusArtifact(completion, CnfFormula._trusted(base + 2 * k, clauses))


def copy_checker(surplus: SurplusArtifact):
    """The copy check, on one engine: a function of a model of
    ``surplus.completion`` (each atom variable to its value, as
    ``sat.models`` yields it) that is True exactly when the model is not an
    answer set. It tests whether the clauses ``surplus`` adds (the copy,
    witness and witness-disjunction clauses) can hold under the values the
    model gives the atoms they mention, that is, whether a copy of the loop
    atoms lies below the model and strictly below it somewhere. It does not
    check that the model is a completion model."""
    added = surplus.cnf.clauses[len(surplus.completion.cnf.clauses):]
    test = checker(added, surplus.cnf.num_vars)
    n = surplus.completion.num_atoms
    atoms = sorted({abs(lit) for clause in added for lit in clause if abs(lit) <= n})
    return lambda model: test([v if model[v] else -v for v in atoms])
