"""Program families and the four benchmark workloads.

Pure text generation: nothing here imports aspsubcount, so the measuring
process and the oracle process can both use it. Every generator takes an
atom-name prefix so that blocks can be joined into atom-disjoint unions.
"""

import random
import re
from dataclasses import dataclass, field


def pairs(k: int, p: str = "") -> str:
    """``a_i | b_i.`` for i < k: 2^k answer sets, tight."""
    return "".join(f"{p}a{i} | {p}b{i}.\n" for i in range(k))


def cycles(k: int, p: str = "") -> str:
    """k blocks ``a|b. x:-y. y:-x. x:-a.``: 2^k answer sets, 3^k completion
    models (each block's all-false choice admits a self-supporting x,y)."""
    return "".join(
        f"{p}a{i} | {p}b{i}.\n{p}x{i} :- {p}y{i}.\n{p}y{i} :- {p}x{i}.\n"
        f"{p}x{i} :- {p}a{i}.\n"
        for i in range(k)
    )


def chain(n: int, p: str = "") -> str:
    """``x0 | y0.`` and ``x_{i+1} :- x_i. x_{i+1} | z_{i+1}.``: n+2 answer
    sets, tight."""
    lines = [f"{p}x0 | {p}y0.\n"]
    for i in range(n):
        lines.append(f"{p}x{i + 1} :- {p}x{i}.\n{p}x{i + 1} | {p}z{i + 1}.\n")
    return "".join(lines)


def reach_edges(n: int, m: int, graph_seed: int) -> list[tuple[int, int]]:
    """m distinct directed edges over nodes 0..n-1 whose underlying
    undirected graph is connected and touches every node."""
    rng = random.Random(graph_seed)
    candidates = [(u, v) for u in range(n) for v in range(n) if u != v]
    while True:
        edges = rng.sample(candidates, m)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(x) for x in range(n)}) == 1:
            return edges


def reach(n: int, m: int, graph_seed: int, seed: int, p: str = "") -> str:
    """Reachability from node 0 over the graph ``reach_edges(n, m,
    graph_seed)``: per edge ``in_uv | out_uv.`` and ``r_v :- r_u, in_uv.``,
    plus the fact ``r_0``. Every choice of edges gives exactly one answer
    set, so the count is 2^m.

    ``seed`` renames the nodes. Rules keep the graph's own edge order, so
    atoms are numbered alike for every seed and the counter's work does not
    depend on it.
    """
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    lines = [f"{p}r{perm[0]}.\n"]
    for u, v in reach_edges(n, m, graph_seed):
        u, v = perm[u], perm[v]
        lines.append(
            f"{p}in_{u}_{v} | {p}out_{u}_{v}.\n{p}r{v} :- {p}r{u}, {p}in_{u}_{v}.\n"
        )
    return "".join(lines)


def prefixed(block: str, p: str) -> str:
    """Rename the ``a<i>`` atoms of a random block from tests/helpers.py."""
    return re.sub(r"\ba(\d+)\b", p + r"a\1", block)


@dataclass
class Case:
    """One program of a workload and what counting it must report.

    ``answers`` and ``overcount`` come from closed forms or from the
    oracle process's definition scans, never from the program under test;
    ``overcount`` is None where no independent value exists.
    """

    name: str
    text: str
    answers: int
    overcount: int | None
    argv: list[str] = field(default_factory=list)
    mode: str = "subtractive"


@dataclass
class BlockSpec:
    """Random blocks a workload draws from tests/helpers.py in the oracle
    process. Only blocks with exactly ``atoms`` atoms and ``rules`` rules
    (where set) and, if ``signatures`` is set, a (completion models, answer sets) pair
    in it are kept; otherwise any block with an answer set is. With
    ``headed`` set, every atom must head a rule and no rule may be a
    one-atom fact, so that no block starts with a unit clause: the counter
    propagates units with one pass over all clauses each, so units in one
    block make every other block of the union dearer. Holding blocks to one
    shape keeps the work, and so the time, alike across seeds."""

    helper: str
    count: int
    kwargs: dict
    atoms: int | None
    rules: int | None
    signatures: tuple = ()
    headed: bool = False


RANDOM_BLOCKS = {
    "loops-split": BlockSpec(
        "random_program_text", 8, {"max_atoms": 4, "max_rules": 6, "force_loop": True},
        atoms=4, rules=6, signatures=((2, 1),),
    ),
    "tight-wide": BlockSpec(
        "random_tight_program_text", 160, {"max_atoms": 6, "max_rules": 8},
        atoms=None, rules=None, headed=True,
    ),
}

# Graph seeds g of reach_edges(10, 20, g) whose count took 0.16-0.21 s
# (scaled) with the builtin counter when the benchmark was written; graph
# seeds 0-110 ranged from 2 ms to over 3 s. Each run counts a seeded choice
# of REACH_PER_RUN of them, an odd number so that the median operation is
# one graph's.
REACH_POOL = [2, 10, 40, 77, 86, 89, 95]
REACH_PER_RUN = 5
# The reach graph for enum-hybrid: (nodes, edges, graph seed).
REACH_SMALL = (5, 6, 1)


def workload(name: str, seed: int, blocks: list[dict]) -> list[Case]:
    """The cases of one workload. ``blocks`` are the oracle's random blocks
    (``text``, ``answers``, ``completion``) for this workload and seed."""
    if name == "loops-split":
        # one random block per union: the time is multiplicative in the
        # blocks, so more blocks per program would spread it more
        cases = [Case("cycles-6", cycles(6), 2**6, 3**6)]
        for j, b in enumerate(blocks, 1):
            text = cycles(5, "c") + prefixed(b["text"], "r")
            cases.append(
                Case(f"cycles-5+rand-{j}", text, 2**5 * b["answers"],
                     3**5 * b["completion"])
            )
        return cases
    if name == "reach-connected":
        rng = random.Random(seed)
        chosen = rng.sample(REACH_POOL, REACH_PER_RUN)
        return [
            Case(f"reach-10-20-g{g}", reach(10, 20, g, seed), 2**20, None)
            for g in chosen
        ]
    if name == "tight-wide":
        # half the random blocks joins each of two chains. The blocks are a
        # small share of the work, as their cost varies with the seed (more
        # so when joined to a wide pairs program). Two cases run shorter and
        # two longer than chain-150, so the median operation is that fixed
        # program's for every seed.
        half = len(blocks) // 2
        cases = [
            Case("pairs-4000", pairs(4000), 2**4000, 2**4000),
            Case("chain-150", chain(150), 152, 152),
            Case("pairs-10000", pairs(10000), 2**10000, 2**10000),
        ]
        for label, part, extra, extra_count in (
            ("chain-100+rand", blocks[:half], chain(100, "h"), 102),
            ("chain-160+rand", blocks[half:], chain(160, "h"), 162),
        ):
            text = extra + "".join(
                prefixed(b["text"], f"t{i}") for i, b in enumerate(part)
            )
            answers = over = extra_count
            for b in part:
                answers *= b["answers"]
                over *= b["completion"]
            cases.append(Case(f"{label}x{len(part)}", text, answers, over))
        return cases
    if name == "enum-hybrid":
        n, m, g = REACH_SMALL
        hybrid = ["--mode", "hybrid"]
        cases = [
            Case(label, text, count, None, hybrid, "enumeration")
            for label, text, count in (
                ("cycles-4", cycles(4), 16),
                ("pairs-6", pairs(6), 64),
                ("pairs-7", pairs(7), 128),
                ("chain-30", chain(30), 32),
                (f"reach-{n}-{m}", reach(n, m, g, seed), 2**m),
            )
        ]
        # thresholds below the count: enumeration stops and subtraction runs
        for label, text, count, over, threshold in (
            ("cycles-4", cycles(4), 16, 3**4, 8),
            ("pairs-7", pairs(7), 128, 128, 64),
        ):
            argv = hybrid + ["--threshold", str(threshold)]
            cases.append(Case(f"{label}-t{threshold}", text, count, over, argv, "hybrid"))
        return cases
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("loops-split", "reach-connected", "tight-wide", "enum-hybrid")
