"""Self-contained SAT routines: solving, model enumeration, exact model
counting, and projected model counting.

They share one engine: ``_assign`` makes a literal true and propagates
unit clauses, each pass applying every literal made true so far;
``_search`` branches on it and yields the leaves of its decision tree, of
which ``solve_clauses`` takes the first and ``models`` expands every one;
``_pcount`` counts the assignments to a set of kept variables that extend
to a model, and a plain count keeps every variable.

Counts are plain Python ints, so arbitrarily large totals are exact. The
counter decomposes the clause set into variable-disjoint components and
multiplies the per-component counts, which is what makes families of
independent subproblems (count 2^k) tractable. Within one count it caches
each component's count under its residual clause set, so a component that
the search reaches again along another branch is counted once.
"""

from .cnf import CnfFormula

PartialAssignment = dict[int, bool]


def solve_clauses(
    clauses, num_vars: int, assumptions: PartialAssignment | None = None
) -> PartialAssignment | None:
    """Satisfiability over variables 1..num_vars.

    Returns a total assignment extending ``assumptions`` (unconstrained
    variables default to false), or None if unsatisfiable.
    """
    assumptions = assumptions or {}
    for var in assumptions:
        if not 1 <= var <= num_vars:
            raise ValueError(f"assumption variable {var} out of range")
    units = [(var if value else -var,) for var, value in assumptions.items()]
    return next(models(units + list(clauses), num_vars), None)


def models(clauses, num_vars: int):
    """Every model of the clause sequence ``clauses`` over variables
    1..num_vars, once each, as a total assignment. The first sets the
    variables its search leaves free to false, as ``solve_clauses`` does;
    their other values are expanded only after it has been taken."""
    start = _propagate(clauses)
    if start is None:
        return
    for made in _search(*start):
        model = dict.fromkeys(range(1, num_vars + 1), False)
        model.update((abs(lit), lit > 0) for lit in made)
        yield model
        fixed = {abs(lit) for lit in made}
        free = [var for var in model if var not in fixed]
        for mask in range(1, 1 << len(free)):
            yield model | {var: bool(mask >> i & 1) for i, var in enumerate(free)}


def solve(
    formula: CnfFormula, assumptions: PartialAssignment | None = None
) -> PartialAssignment | None:
    return solve_clauses(formula.clauses, formula.num_vars, assumptions)


def count_models(formula: CnfFormula) -> int:
    """Exact number of satisfying assignments over all num_vars variables."""
    return _count_from(formula.clauses, set(range(1, formula.num_vars + 1)))


def projected_count(formula: CnfFormula, project_out) -> int:
    """Number of distinct assignments to the kept variables (those not in
    ``project_out``) extendable to a model of the formula."""
    out = set(project_out)
    for var in out:
        if not 1 <= var <= formula.num_vars:
            raise ValueError(f"projected variable {var} out of range")
    kept = set(range(1, formula.num_vars + 1)) - out
    return _count_from(formula.clauses, kept)


def _assign(clauses, lit: int):
    """Make ``lit`` true and propagate unit clauses: drop satisfied clauses,
    strip false literals, make each unit's literal true. Returns (remaining
    clauses in their order, literals made true), or None on a conflict.

    A pass applies every literal made true so far, its own units' included,
    and drops each unit it applies. After a pass that made a literal true
    the next runs the other way, so a chain of implications takes a few
    passes whichever way it runs, not one pass per link.

    Stripped clauses are built as lists: tuples of the length of blocking
    clauses would pile up in the interpreter's tuple free lists.
    """
    made, true, false, forward = [lit], {lit}, {-lit}, True
    while True:
        before, out = len(made), []
        for clause in clauses if forward else reversed(clauses):
            if not true.isdisjoint(clause):
                continue
            if not false.isdisjoint(clause):
                clause = [x for x in clause if x not in false]
                if not clause:
                    return None
            if len(clause) == 1:
                made.append(clause[0])
                true.add(clause[0])
                false.add(-clause[0])
            else:
                out.append(clause)
        if not forward:
            out.reverse()
        if len(made) == before:
            return out, made
        clauses, forward = out, not forward


def _propagate(clauses):
    """``_assign`` for clauses that may hold unit or empty clauses of their
    own; None if they propagate to a conflict."""
    if any(not c for c in clauses):
        return None
    unit = next((c[0] for c in clauses if len(c) == 1), None)
    return (clauses, []) if unit is None else _assign(clauses, unit)


def _search(clauses, made):
    """The leaves of the search below the unit-free ``clauses``: each is
    ``made`` extended by literals that satisfy every clause, leaving the
    other variables free. No two leaves share a model."""
    if not clauses:
        yield made
        return
    var = abs(clauses[0][-1])
    for lit in (var, -var):
        step = _assign(clauses, lit)
        if step is not None:
            yield from _search(step[0], made + step[1])


def _components(clauses):
    """Partition clauses into variable-disjoint groups in one pass: each
    clause joins the groups of its variables, the smaller of two groups
    merged into the larger. Returns [(clauses, vars)] sorted by smallest
    variable."""
    group_of: dict[int, tuple[list, set[int]]] = {}
    for clause in clauses:
        group = None
        for lit in clause:
            other = group_of.get(abs(lit))
            if other is None or other is group:
                continue
            if group is None:
                group = other
                continue
            if len(other[1]) > len(group[1]):
                group, other = other, group
            group[0].extend(other[0])
            group[1].update(other[1])
            for var in other[1]:
                group_of[var] = group
        if group is None:
            group = ([], set())
        group[0].append(clause)
        for lit in clause:
            group[1].add(abs(lit))
            group_of[abs(lit)] = group
    groups = {id(group): group for group in group_of.values()}
    return sorted(groups.values(), key=lambda group: min(group[1]))


def _pick_var(clauses, candidates: set[int]) -> int:
    counts: dict[int, int] = {}
    for clause in clauses:
        for lit in clause:
            var = abs(lit)
            if var in candidates:
                counts[var] = counts.get(var, 0) + 1
    return max(counts, key=lambda v: (counts[v], -v))


def _count_from(clauses, kept: set[int]) -> int:
    """``_pcount`` for clauses that may hold unit or empty clauses, with a
    component cache of its own."""
    start = _propagate(clauses)
    if start is None:
        return 0
    rest, made = start
    return _pcount(rest, kept.difference(abs(lit) for lit in made), {})


def _pcount(clauses, kept: set[int], cache: dict) -> int:
    """Number of assignments to the ``kept`` variables that extend to a
    model of the unit-free ``clauses``.

    ``cache`` maps a component's clause set to its count. The clause set
    fixes the component's kept variables (its variables among those kept at
    the top), so the cache is sound within one top-level count only."""
    total = 1
    constrained: set[int] = set()
    for comp_clauses, comp_vars in _components(clauses):
        constrained |= comp_vars
        key = frozenset(map(tuple, comp_clauses))
        sub = cache.get(key)
        if sub is None:
            comp_kept = comp_vars & kept
            if not comp_kept:
                # residual constraints touch only projected variables: a
                # factor of 1 if satisfiable, else the branch dies
                sub = int(solve_clauses(comp_clauses, max(comp_vars)) is not None)
            else:
                var = _pick_var(comp_clauses, comp_kept)
                sub = 0
                for lit in (var, -var):
                    step = _assign(comp_clauses, lit)
                    if step is not None:
                        rest, made = step
                        left = comp_kept.difference(abs(x) for x in made)
                        sub += _pcount(rest, left, cache)
            cache[key] = sub
        if sub == 0:
            return 0
        total *= sub
    return total << len(kept - constrained)
