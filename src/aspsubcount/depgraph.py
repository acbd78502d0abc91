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
    """Tarjan's algorithm, iterative, over list-indexed arrays. Returns
    each SCC it meets as a list of nodes. The search starts only at nodes
    with a successor: any other node is a singleton SCC without a
    self-loop, which holds no loop atom."""
    successors: dict[int, list[int]] = {}
    for y, x in graph.edges:
        successors.setdefault(y, []).append(x)
    index = [0] * graph.num_nodes  # discovery order from 1; 0 when unvisited
    low = [0] * graph.num_nodes
    on_stack = bytearray(graph.num_nodes)
    stack: list[int] = []
    counter = 0
    sccs = []

    for root in successors:
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(successors[root]))]
        while work:
            node, succs = work[-1]
            for nxt in succs:
                if not index[nxt]:
                    counter += 1
                    index[nxt] = low[nxt] = counter
                    stack.append(nxt)
                    on_stack[nxt] = 1
                    work.append((nxt, iter(successors.get(nxt, ()))))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:  # every successor is done
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
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
