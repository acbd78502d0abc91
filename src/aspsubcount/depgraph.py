"""Positive dependency graph, loop atoms, and the split of a program into
atom-disjoint parts. A program is tight when it has no loop atoms."""

from dataclasses import dataclass
from functools import cached_property

from .program import GroundProgram, Rule


@dataclass
class DependencyGraph:
    """Directed graph over atom ids.

    There is an edge (y, x) for every rule with y in the head and x in the
    positive body: heads depend on what supports them.
    """

    num_nodes: int
    edges: set[tuple[int, int]]


def build_dependency_graph(program: GroundProgram) -> DependencyGraph:
    edges = set()
    for rule in program.rules:
        for y in rule.head:
            for x in rule.pos_body:
                edges.add((y, x))
    return DependencyGraph(program.num_atoms, edges)


def _sccs(graph: DependencyGraph):
    """Tarjan's algorithm, iterative. Returns each SCC as a list of nodes."""
    successors: list[list[int]] = [[] for _ in range(graph.num_nodes)]
    for y, x in sorted(graph.edges):
        successors[y].append(x)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    sccs = []

    for root in range(graph.num_nodes):
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs = work[-1]
            advanced = False
            for nxt in succs:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.remove(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


def loop_atoms(graph: DependencyGraph) -> frozenset[int]:
    """Atoms lying on a directed cycle: members of a multi-node SCC, plus
    self-looped nodes."""
    loops = set()
    for component in _sccs(graph):
        if len(component) > 1:
            loops.update(component)
    for y, x in graph.edges:
        if y == x:
            loops.add(x)
    return frozenset(loops)


class Analysis:
    """The structure of one program, computed once per count: its loop
    atoms and (on first use) the atom-disjoint components."""

    def __init__(self, program: GroundProgram):
        self.program = program
        self.loops = loop_atoms(build_dependency_graph(program))

    @cached_property
    def components(self) -> list[list[int]]:
        """Connected components of the rule/atom incidence graph: two atoms
        are in one component when a chain of rules links them. Each
        component is sorted; components are ordered by their smallest
        atom."""
        parent = list(range(self.program.num_atoms))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for rule in self.program.rules:
            atoms = rule.head | rule.pos_body | rule.neg_body
            if atoms:
                root = find(min(atoms))
                for x in atoms:
                    parent[find(x)] = root
        groups: dict[int, list[int]] = {}
        for x in range(self.program.num_atoms):
            groups.setdefault(find(x), []).append(x)
        return list(groups.values())


def _restrict(
    program: GroundProgram, atoms: list[int], rules: list[Rule], loops: frozenset[int]
) -> tuple[GroundProgram, frozenset[int]]:
    """The program over ``atoms`` (ascending) and ``rules``, with atoms
    renumbered in order, and its loop atoms."""
    new_id = {x: i for i, x in enumerate(atoms)}

    def renumber(ids):
        return frozenset(new_id[x] for x in ids)

    sub = GroundProgram(
        [program.atoms[x] for x in atoms],
        [Rule(renumber(r.head), renumber(r.pos_body), renumber(r.neg_body)) for r in rules],
    )
    return sub, renumber(loops.intersection(atoms))


def split(analysis: Analysis) -> list[tuple[GroundProgram, frozenset[int]]]:
    """Atom-disjoint parts of the program, each with its loop atoms.

    Answer sets and completion models of a union of atom-disjoint programs
    are the products of those of the parts (the trivial case of the
    splitting-set theorem), so the parts can be counted separately. Every
    component holding loop atoms is a part of its own; the tight
    components and the rules without atoms form one remainder part, last.
    A tight program, or one whose parts would be one, is returned whole.
    Parts keep the atoms' relative order and the rules' original order.
    """
    program, loops = analysis.program, analysis.loops
    if not loops:
        return [(program, loops)]
    groups = [c for c in analysis.components if not loops.isdisjoint(c)]
    rest = sorted(x for c in analysis.components if loops.isdisjoint(c) for x in c)
    part_of = {x: i for i, c in enumerate(groups) for x in c}
    rules: list[list[Rule]] = [[] for _ in range(len(groups) + 1)]
    for rule in program.rules:
        some = next(iter(rule.head or rule.pos_body or rule.neg_body), None)
        rules[part_of.get(some, len(groups))].append(rule)
    parts = [(a, r) for a, r in zip(groups + [rest], rules) if a or r]
    if len(parts) == 1:
        return [(program, loops)]
    return [_restrict(program, a, r, loops) for a, r in parts]
