import random

import pytest

import aspsubcount.depgraph
from aspsubcount import build_dependency_graph, loop_atoms, parse_program, sat, split

from helpers import cyclic_atoms_dfs, random_program_text


def named_successors(program, successors):
    """Each atom's name with the sorted names of its successors."""
    return {
        program.name_of(y): sorted(program.name_of(x) for x in succs)
        for y, succs in enumerate(successors)
    }


def named_loops(program, loops):
    return sorted(program.name_of(x) for x in loops)


class TestGraphConstruction:
    def test_worked_example_edges(self, example1):
        successors = build_dependency_graph(example1)
        # one list per atom id: a head atom's successors are its rules'
        # positive body atoms
        assert len(successors) == example1.num_atoms
        assert named_successors(example1, successors) == {
            "p0": [],
            "p1": [],
            "q0": ["w"],
            "q1": ["w"],
            "w": ["p0", "p1", "q1"],
        }

    def test_negative_bodies_add_no_edges(self):
        p = parse_program("a :- not b.\nb :- not a.\n")
        assert build_dependency_graph(p) == [[], []]

    def test_disjunctive_head_fans_out(self):
        p = parse_program("x | y :- z.\n")
        graph = build_dependency_graph(p)
        assert named_successors(p, graph) == {"x": ["z"], "y": ["z"], "z": []}

    def test_self_edge(self):
        p = parse_program("a :- a.\n")
        assert build_dependency_graph(p) == [[0]]


class TestLoopAtoms:
    def test_worked_example(self, example1):
        loops = loop_atoms(build_dependency_graph(example1))
        assert named_loops(example1, loops) == ["q1", "w"]

    def test_two_cycle_excludes_spectator(self):
        p = parse_program("a :- b.\nb :- a.\nc :- a.\n")
        loops = loop_atoms(build_dependency_graph(p))
        assert named_loops(p, loops) == ["a", "b"]

    def test_self_loop_is_a_loop_atom(self):
        p = parse_program("a :- a.\n")
        assert named_loops(p, loop_atoms(build_dependency_graph(p))) == ["a"]

    def test_mixed_disjunctive_loop(self):
        p = parse_program("x | y :- z.\nz :- x.\nq | z.\n")
        loops = loop_atoms(build_dependency_graph(p))
        assert named_loops(p, loops) == ["x", "z"]

    def test_tight_programs(self, fixture_programs):
        for name in ("pair", "two_pairs", "negtwo", "fact_chain", "empty"):
            p = fixture_programs[name]
            assert not loop_atoms(build_dependency_graph(p)), name

    def test_nontight_programs(self, fixture_programs):
        for name in ("worked", "selfloop", "posloop2", "mixloop", "overlap", "wide12"):
            p = fixture_programs[name]
            assert loop_atoms(build_dependency_graph(p)), name

    def test_matches_dfs_oracle_on_random_programs(self):
        rng = random.Random(71)
        for _ in range(200):
            p = parse_program(random_program_text(rng, max_atoms=12))
            graph = build_dependency_graph(p)
            assert loop_atoms(graph) == cyclic_atoms_dfs(graph)

    def test_matches_dfs_oracle_on_random_graphs(self):
        rng = random.Random(72)
        for _ in range(200):
            n = rng.randint(1, 12)
            successors = [[] for _ in range(n)]
            for _ in range(rng.randint(0, 3 * n)):  # an edge may repeat
                successors[rng.randrange(n)].append(rng.randrange(n))
            assert loop_atoms(successors) == cyclic_atoms_dfs(successors)

    def test_monotone_under_rule_addition(self):
        rng = random.Random(73)
        for _ in range(60):
            base_text = random_program_text(rng, max_atoms=8, max_rules=8)
            extra_text = random_program_text(rng, max_atoms=8, max_rules=6)
            base = parse_program(base_text)
            combined = parse_program(base_text + extra_text)
            base_loops = {
                base.name_of(x)
                for x in loop_atoms(build_dependency_graph(base))
            }
            combined_loops = {
                combined.name_of(x)
                for x in loop_atoms(build_dependency_graph(combined))
            }
            assert base_loops <= combined_loops

    def test_dropping_positive_bodies_makes_tight(self):
        rng = random.Random(74)
        for _ in range(60):
            p = parse_program(random_program_text(rng))
            kept = [r for r in p.rules if not r.pos_body]
            stripped = type(p)(p.atoms, kept)
            assert not loop_atoms(build_dependency_graph(stripped))

    def test_deep_chain_closing_a_long_cycle(self):
        # x_{i+1} :- x_i over 100000 atoms, and x_95000 :- x_99999 closes
        # the last 5000 into one cycle; a search down the chain goes far
        # deeper than Python's recursion limit
        n, first = 100000, 95000
        text = "".join(f"x{i + 1} :- x{i}.\n" for i in range(n - 1))
        p = parse_program(text + f"x{first} :- x{n - 1}.\n")
        loops = loop_atoms(build_dependency_graph(p))
        assert loops == {p.atom_id(f"x{i}") for i in range(first, n)}


def test_loop_atoms_and_split_stop_at_the_deadline():
    # both walk every atom or rule of a ring; past the deadline they raise
    # as the searches do, however little is left of the walk
    n = 10000
    ring = "".join(f"a{i} :- a{i + 1}.\n" for i in range(n))
    program = parse_program(ring + f"a{n} :- a0.\na0 :- not b.\nb :- not a0.\n")
    graph = build_dependency_graph(program)
    loops = loop_atoms(graph)
    with sat.time_limit(0):
        with pytest.raises(sat.SearchTimeout):
            loop_atoms(graph)
        with pytest.raises(sat.SearchTimeout):
            split(program, loops)
    assert split(program, loops) == [(program, loops, 1)]


def test_sccs_check_the_clock_while_closing(monkeypatch):
    # one cycle is found in one descent and closed in one climb back out;
    # the clock is checked after each 4096 nodes of either
    n = 5 * 4096
    calls = []
    monkeypatch.setattr(aspsubcount.depgraph, "_check_clock", lambda: calls.append(1))
    [component] = aspsubcount.depgraph._sccs([[(i + 1) % n] for i in range(n)])
    assert len(component) == n
    assert len(calls) == 2 * 5
