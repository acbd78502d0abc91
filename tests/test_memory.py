"""Memory held by a parsed program and taken by a tight count, per rule,
as traced by ``tracemalloc`` on ``pairs_text(4000)``: a rule is three
tuples of atom ids, and the encoders keep no second copy of a clause.
Memory held by a surplus formula on the 4000-rule ring: its variables are
numbered by the layout, with no set or map of them. The peak of a count
per part, on 60 distinct cycle parts and a tight part: each part's
formulas are let go before the next part's are built. What the split
keeps of 4000 copies of one cycle block: the block once, not 4000 part
programs; and of 4000 pairs, one pair, not the parsed program."""

import gc
import tracemalloc

from aspsubcount import (
    build_dependency_graph,
    clark_completion,
    loop_atoms,
    parse_program,
    split,
    subtractive_count,
    surplus_formula,
)

from helpers import cycles_text, distinct_cycles_text, pairs_text, ring_text

RULES = 4000


def traced(run):
    """(bytes still allocated after ``run()``, while its result is held;
    peak bytes during it)."""
    run()  # first call: leave nothing of a warm-up in the trace
    gc.collect()
    tracemalloc.start()
    try:
        result = run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return current, peak


def test_parsed_program_is_compact():
    text = pairs_text(RULES)
    kept, _ = traced(lambda: parse_program(text))
    assert kept <= 450 * RULES


def test_tight_count_peak():
    text = pairs_text(RULES)
    _, peak = traced(lambda: subtractive_count(parse_program(text)))
    assert peak <= 1650 * RULES


def test_surplus_formula_is_compact():
    program = parse_program(ring_text(RULES))
    completion = clark_completion(program)
    loops = loop_atoms(build_dependency_graph(program))
    kept, _ = traced(lambda: surplus_formula(program, completion, loops))
    assert kept <= 650 * RULES


def test_parts_are_counted_one_at_a_time():
    # 61 parts of 2070 rules, no two alike; holding every part's formulas
    # at once peaks at 1270 B a rule, one part at a time at 730 B
    k = 60
    text = distinct_cycles_text(k) + pairs_text(k, "p")
    _, peak = traced(lambda: subtractive_count(parse_program(text)))
    assert peak <= 950 * text.count("\n")


def test_split_keeps_one_part_of_many_copies():
    # 4000 part programs, one per copy, keep 1200 B a block
    program = parse_program(cycles_text(RULES))
    loops = loop_atoms(build_dependency_graph(program))
    kept, _ = traced(lambda: split(program, loops))
    assert kept <= 150 * RULES


def test_split_keeps_one_pair_of_many_copies():
    # the parsed program keeps about 350 B a rule; the split's one part
    # keeps a pair, and the rest is what freed tuples leave in Python's
    # free lists (about 30 B a rule)
    text = pairs_text(RULES)

    def run():
        program = parse_program(text)
        return split(program, loop_atoms(build_dependency_graph(program)))

    kept, _ = traced(run)
    assert kept <= 60 * RULES
