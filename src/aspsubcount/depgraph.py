"""Positive dependency graph, loop atoms, and the split of a program into
atom-disjoint parts. A program is tight when it has no loop atoms.

The graph is its successor lists: ``build_dependency_graph(program)[y]``
lists the positive body atoms of every rule with y in the head, so heads
depend on what supports them. A successor repeats when rules repeat it.
"""

from collections import Counter

from .program import GroundProgram, Rule
from .sat import _check_clock, _clocked

# split keys repeated tight components past this share of the tight rules;
# copies break even at 0.2, and distinct blocks of one size cost 12-16% more
REPEAT_SHARE = 0.5


def build_dependency_graph(program: GroundProgram) -> list[list[int]]:
    successors: list[list[int]] = [[] for _ in range(program.num_atoms)]
    for head, pos_body, _ in _clocked(program.rules):
        if pos_body:
            for y in head:
                successors[y].extend(pos_body)
    return successors


def _sccs(successors: list[list[int]]):
    """Tarjan's algorithm, iterative, over list-indexed arrays. Returns
    each SCC it meets as a list of nodes. The search starts only at nodes
    with a successor: any other node is a singleton SCC without a
    self-loop, which holds no loop atom. The clock is checked before each
    4096 roots and each 4096 nodes found, and after each 4096 closed and
    each 4096 members popped into one component."""
    n = len(successors)
    index = [0] * n  # discovery order from 1; 0 when unvisited
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = closed = 0
    sccs = []

    for root in _clocked(range(n)):
        if index[root] or not successors[root]:
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
                    if not counter & 4095:
                        _check_clock()
                    index[nxt] = low[nxt] = counter
                    stack.append(nxt)
                    on_stack[nxt] = 1
                    work.append((nxt, iter(successors[nxt])))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:  # every successor is done
                work.pop()
                closed += 1
                if not closed & 4095:
                    _check_clock()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if not len(component) & 4095:
                            _check_clock()
                        if member == node:
                            break
                    sccs.append(component)
    return sccs


def loop_atoms(successors: list[list[int]]) -> frozenset[int]:
    """Atoms lying on a directed cycle: members of a multi-node SCC, plus
    self-looped nodes."""
    loops = {y for y, succs in enumerate(_clocked(successors)) if y in succs}
    for component in _sccs(successors):
        if len(component) > 1:
            loops.update(component)
    return frozenset(loops)


def split(program: GroundProgram) -> list[tuple[GroundProgram, int]]:
    """The distinct atom-disjoint parts of the program, as (part, copies)
    pairs; a part's ``loop_atoms`` are set from the program's as it is built.

    Two atoms share a part when a chain of rules links them. Answer sets
    and completion models of a union of atom-disjoint programs are the
    products of those of the parts (the trivial case of the splitting-set
    theorem), so the parts can be counted separately. Every component
    holding loop atoms is a part of its own. So is each tight component
    whose size (atoms, rules) another tight component has, when the tight
    components beyond the first of each size hold more than
    ``REPEAT_SHARE`` of the rules outside loop components. These parts are
    ordered by their smallest atom; the other components and the rules
    without atoms form one remainder part, last. Parts keep the atoms'
    relative order and the rules' original order, and two parts whose rules
    are equal once renumbered are the same program up to atom names: such a
    part is returned once, at its first place, with the number of its
    copies. A program whose parts would be one is returned whole.
    """
    parent = list(range(n := program.num_atoms))
    size, held = [1] * n, [0] * n  # a root's atoms and rules

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joins, atomless = 0, False
    for head, pos_body, neg_body in _clocked(program.rules):
        atoms = head + pos_body + neg_body
        if atoms:
            root = find(atoms[0])
            for x in atoms:
                if parent[x] != root and (x := find(x)) != root:
                    if x < root:  # each root is the smallest atom of its component
                        root, x = x, root
                    parent[x] = root
                    size[root] += size[x]
                    held[root] += held[x]
                    joins += 1
            held[root] += 1
        else:
            atomless = True
    if joins == n - 1 and not atomless:
        return [(program, 1)]
    tops = [r for r in _clocked(range(n)) if parent[r] == r]
    looped = set(map(find, loops := program.loop_atoms))
    shapes = Counter((size[r], held[r]) for r in tops if r not in looped)
    extra = sum((k - 1) * rules for (_, rules), k in shapes.items())
    repeats = extra > REPEAT_SHARE * (len(program.rules) - sum(held[r] for r in looped))
    keyed = [r for r in tops if r in looped or repeats and shapes[size[r], held[r]] > 1]
    if not keyed:
        return [(program, 1)]
    slot = {r: i for i, r in enumerate(keyed)}
    part_of = [slot.get(find(x), -1) for x in _clocked(range(n))] + [-1]  # -1: remainder
    parts: list[tuple[list[int], list[Rule]]] = [([], []) for _ in range(len(slot) + 1)]
    for x in _clocked(range(n)):
        parts[part_of[x]][0].append(x)
    for rule in _clocked(program.rules):  # a rule without atoms reads part_of[n]
        first = (rule.head or rule.pos_body or rule.neg_body or (n,))[0]
        parts[part_of[first]][1].append(rule)
    distinct: dict = {}  # (atom count, renumbered rules) -> [part, copies]
    for atoms, rules in filter(any, parts):  # an empty remainder is no part
        new_id = {x: i for i, x in enumerate(atoms)}.__getitem__
        key = len(atoms), tuple([
            (tuple(map(new_id, h)), tuple(map(new_id, pb)), tuple(map(new_id, nb)))
            for h, pb, nb in rules
        ])
        entry = distinct.get(key)
        if entry:
            entry[1] += 1
        else:  # re-keyed on the part's equal rules: no second copy is held
            part = GroundProgram._trusted(  # renumbered in order: still ascending
                [program.atoms[x] for x in atoms], list(map(Rule._make, key[1])))
            part.loop_atoms = frozenset(i for i, x in enumerate(atoms) if x in loops)
            distinct[len(atoms), tuple(part.rules)] = [part, 1]
    return [tuple(entry) for entry in distinct.values()]
