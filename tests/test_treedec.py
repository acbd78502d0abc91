"""``treedec.centroid_levels``: on a tree, the min-degree elimination takes
a leaf at every step, so the elimination tree is the tree itself and the
levels must form a centroid decomposition of it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from aspsubcount.treedec import centroid_levels


def random_tree(rng: random.Random, n: int) -> dict:
    """Vertices 1..n, each after the first joined to a random earlier one."""
    near = {v: set() for v in range(1, n + 1)}
    for v in range(2, n + 1):
        u = rng.randrange(1, v)
        near[u].add(v)
        near[v].add(u)
    return near


def levels_of(near: dict, limit: int):
    found = centroid_levels({v: set(us) for v, us in near.items()}, limit, lambda: None)
    return found if found is None else dict(found)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80))
def test_levels_decompose_a_tree(seed, n):
    near = random_tree(random.Random(seed), n)
    levels = levels_of(near, 2)
    assert sorted(levels) == list(range(1, n + 1))
    # each piece at most half of the piece it was cut from
    assert max(levels.values()) < n.bit_length()
    # every tree path between two vertices of one level passes through a
    # vertex of a lower level
    for a, level in levels.items():
        reached, todo = {a}, [a]
        while todo:
            for y in near[todo.pop()]:
                if y not in reached and levels[y] >= level:
                    reached.add(y)
                    todo.append(y)
        assert [v for v in reached if levels[v] == level] == [a]


def test_path_is_cut_at_its_middle():
    n = 31
    path = {v: {u for u in (v - 1, v + 1) if 1 <= u <= n} for v in range(1, n + 1)}
    levels = levels_of(path, 2)
    assert [levels[v] for v in (16, 8, 24, 4, 12, 20, 28)] == [0, 1, 1, 2, 2, 2, 2]
    assert sorted(levels.values()) == sorted(
        level for level in range(5) for _ in range(2**level)
    )


def test_stops_once_every_degree_reaches_the_limit():
    cycle = {v: {(v % 8) + 1, ((v - 2) % 8) + 1} for v in range(1, 9)}
    assert levels_of(cycle, 2) is None
    # eliminating a vertex of a cycle joins its two neighbours and leaves a
    # shorter cycle, so no degree passes 2
    assert levels_of(cycle, 3) is not None
    complete = {v: set(range(1, 6)) - {v} for v in range(1, 6)}
    assert levels_of(complete, 4) is None
    # its elimination tree is a path of five
    assert sorted(levels_of(complete, 5).values()) == [0, 1, 1, 2, 2]


def test_check_is_called_as_the_work_goes():
    n = 1000
    path = {v: {u for u in (v - 1, v + 1) if 1 <= u <= n} for v in range(1, n + 1)}
    calls = []

    def check():
        calls.append(1)
        if len(calls) == 3:
            raise TimeoutError

    with pytest.raises(TimeoutError):
        centroid_levels(path, 2, check)
    assert len(calls) == 3
