"""Exact answer-set counting for ground disjunctive logic programs.

The pipeline: parse a program, split it into atom-disjoint parts, and for
each part build the Clark completion, count its models, count the
completion models that are not answer sets with a projected model count
over a copy encoding, and subtract; the parts' counts multiply. A
brute-force reduct oracle and an enumeration mode provide independent
ground truth.
"""

from .cnf import CnfFormula, dimacs, parse_dimacs
from .completion import CompletionArtifact, clark_completion, completion_model_check
from .copyenc import SurplusArtifact, copy_checker, copy_operation, surplus_formula
from .counting import (
    BackendError,
    BackendFailure,
    BackendOutputError,
    BackendTimeout,
    CountReport,
    IntegrityError,
    enumerate_count,
    external_projected_count,
    hybrid_count,
    parse_counter_output,
    subtractive_count,
    write_formulas,
)
from .depgraph import build_dependency_graph, loop_atoms, split
from .oracle import (
    BRUTE_FORCE_ATOM_LIMIT,
    answer_sets_bruteforce,
    copy_check,
    count_answer_sets_bruteforce,
    gl_reduct,
    is_answer_set,
    justification_check_all,
    justification_check_loops,
)
from .program import (
    GroundProgram,
    Interpretation,
    ParseError,
    Rule,
    format_program,
    format_rule,
    lint,
    parse_program,
    satisfies,
    satisfies_program,
)
from .sat import count_models, projected_count, solve_clauses

__version__ = "0.1.0"
