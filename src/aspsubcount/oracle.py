"""Ground-truth answer-set machinery: reducts, brute-force counting, and
the SAT-based justification checks used to separate answer sets from other
completion models.

Everything here is deliberately straightforward; this module is the oracle
the encodings are validated against. ``copy_check`` is the exception: it
runs the surplus formula's own test (``copyenc.copy_checker``) on one
model, for diagnostics and for comparison with the reduct checks.
"""

from .completion import CompletionArtifact, clark_completion, completion_model_check
from .copyenc import copy_checker, surplus_formula
from .depgraph import build_dependency_graph, loop_atoms
from .program import GroundProgram, Interpretation, satisfies_program
from .sat import solve_clauses

BRUTE_FORCE_ATOM_LIMIT = 25


def gl_reduct(program: GroundProgram, interp: Interpretation) -> GroundProgram:
    """The reduct, over the same atoms: drop every rule whose negative body
    meets ``interp``, and empty the negative bodies of the rest."""
    rules = [(head, pos, ()) for head, pos, neg in program.rules if interp.isdisjoint(neg)]
    return GroundProgram(program.atoms, rules)


def _smaller_reduct_model(
    program: GroundProgram, interp: Interpretation, droppable: frozenset[int]
) -> frozenset[int] | None:
    """A model of the reduct of ``program`` by ``interp`` that keeps every
    atom false in ``interp`` false and every true atom outside
    ``droppable`` true, and makes some atom of ``droppable`` false; the
    set of its true atoms, or None when there is none."""
    clauses = [  # the reduct's rules, less those with a head atom in the body
        tuple(sorted([x + 1 for x in head] + [-(b + 1) for b in pos_body], key=abs))
        for head, pos_body, neg_body in program.rules
        if interp.isdisjoint(neg_body) and set(head).isdisjoint(pos_body)
    ]
    for x in range(program.num_atoms):
        if x not in interp:
            clauses.append((-(x + 1),))
        elif x not in droppable:
            clauses.append((x + 1,))
    clauses.append(tuple(-(x + 1) for x in sorted(droppable)))
    model = solve_clauses(clauses, program.num_atoms)
    if model is None:
        return None
    return frozenset(x for x in interp if model[x + 1])


def justification_check_all(
    program: GroundProgram, interp: Interpretation
) -> frozenset[int] | None:
    """Search for a proper subset of ``interp`` satisfying the reduct.

    Requires ``interp`` to be a classical model of the program. Returns the
    witness subset, or None when every atom of ``interp`` is justified
    (i.e. ``interp`` is an answer set). Note an empty witness is a real
    witness; compare against None, not for truthiness.
    """
    if not satisfies_program(interp, program):
        raise ValueError("interpretation is not a model of the program")
    return _smaller_reduct_model(program, interp, interp)


def is_answer_set(program: GroundProgram, interp: Interpretation) -> bool:
    if not satisfies_program(interp, program):
        return False
    return justification_check_all(program, interp) is None


def count_answer_sets_bruteforce(program: GroundProgram) -> int:
    """Count answer sets by scanning all 2^n interpretations.

    Refuses programs with more than BRUTE_FORCE_ATOM_LIMIT atoms.
    """
    return len(answer_sets_bruteforce(program))


def answer_sets_bruteforce(program: GroundProgram) -> list[Interpretation]:
    """All answer sets, by scanning all 2^n interpretations.

    Refuses programs with more than BRUTE_FORCE_ATOM_LIMIT atoms.
    """
    n = program.num_atoms
    if n > BRUTE_FORCE_ATOM_LIMIT:
        raise ValueError(
            f"brute force is capped at {BRUTE_FORCE_ATOM_LIMIT} atoms, got {n}"
        )
    out = []
    for bits in range(1 << n):
        interp = frozenset(x for x in range(n) if bits >> x & 1)
        if satisfies_program(interp, program) and (
            justification_check_all(program, interp) is None
        ):
            out.append(interp)
    return out


def _require_completion_model(
    program: GroundProgram,
    interp: Interpretation,
    completion: CompletionArtifact | None,
) -> CompletionArtifact:
    """``completion`` (built when None), once ``interp`` is checked to be
    one of its models."""
    if completion is None:
        completion = clark_completion(program)
    if not completion_model_check(completion, interp):
        raise ValueError("interpretation is not a model of the completion")
    return completion


def justification_check_loops(
    program: GroundProgram,
    interp: Interpretation,
    loops: frozenset[int] | None = None,
    completion: CompletionArtifact | None = None,
) -> frozenset[int] | None:
    """Like justification_check_all, but only loop atoms may be dropped:
    true non-loop atoms stay fixed, and at least one true loop atom must go
    false. Requires ``interp`` to be a model of the completion.

    Returns the witness assignment (as the set of true atoms) or None.
    """
    _require_completion_model(program, interp, completion)
    if loops is None:
        loops = loop_atoms(build_dependency_graph(program))
    return _smaller_reduct_model(program, interp, interp & loops)


def copy_check(
    program: GroundProgram,
    interp: Interpretation,
    loops: frozenset[int] | None = None,
    completion: CompletionArtifact | None = None,
) -> bool:
    """``copyenc.copy_checker``'s test on one interpretation, which must be
    a model of the completion. Returns True exactly when ``interp`` is not
    an answer set."""
    completion = _require_completion_model(program, interp, completion)
    model = {x + 1: x in interp for x in range(completion.num_atoms)}
    return copy_checker(completion, surplus_formula(program, completion, loops))(model)
