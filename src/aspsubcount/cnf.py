"""CNF formulas over integer variables 1..num_vars, plus DIMACS text.

The encoders share one variable layout, and it is their only variable
map: atom id i is variable i + 1; above the atoms come the completion's
auxiliaries, then a surplus formula's prime copies and then its
witnesses, one of each per loop atom, in ascending order of the loop
atoms. Every variable above the atoms is auxiliary, projected away when a
formula is counted onto its atoms.
"""

from dataclasses import dataclass

from .sat import _clocked


@dataclass
class CnfFormula:
    """An immutable-by-convention clause set.

    Clauses are tuples of nonzero literals; a positive literal v means
    variable v is true.
    """

    num_vars: int
    clauses: list[tuple[int, ...]]

    def __post_init__(self):
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.clauses = [tuple(c) for c in self.clauses]
        for clause in self.clauses:
            lits = set(clause)
            if 0 in lits:
                raise ValueError("0 is not a literal")
            for lit in clause:
                if abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} exceeds num_vars={self.num_vars}")
                if -lit in lits:
                    raise ValueError(f"tautological clause {clause}")

    @classmethod
    def _trusted(cls, num_vars: int, clauses: list[tuple[int, ...]]) -> "CnfFormula":
        """The formula, unchecked: for encoders, whose clauses are valid."""
        formula = object.__new__(cls)
        formula.__dict__.update(num_vars=num_vars, clauses=clauses)
        return formula

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def dimacs(
    cnf: CnfFormula,
    atom_names: dict[int, str] | None = None,
    show: list[int] | None = None,
) -> str:
    """Serialize to DIMACS CNF.

    ``atom_names`` (var -> name) become ``c atom <name> <var>`` comment
    lines; ``show`` lists the variables a projected counter must keep and is
    emitted as ``c p show v1 ... 0`` right after the header. Inside
    ``sat.time_limit`` the clauses are written on the clock (SearchTimeout).
    """
    lines = [f"c atom {atom_names[var]} {var}" for var in sorted(atom_names or ())]
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    if show is not None:
        lines.append("c p show " + " ".join(str(v) for v in sorted(show)) + " 0")
    lines += [" ".join(map(str, clause)) + " 0" for clause in _clocked(cnf.clauses)]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[CnfFormula, list[int] | None]:
    """Parse DIMACS CNF text; returns the formula and the show-line variable
    list if one was present."""
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    show: list[int] | None = None
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if parts[:3] == ["c", "p", "show"]:
                vals = [int(v) for v in parts[3:]]
                if vals and vals[-1] == 0:
                    vals = vals[:-1]
                show = vals
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            num_vars = int(parts[2])
            continue
        if num_vars is None:
            raise ValueError("clause before DIMACS header")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ValueError("unterminated clause")
    if num_vars is None:
        raise ValueError("missing DIMACS header")
    return CnfFormula(num_vars, clauses), show
