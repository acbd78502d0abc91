"""Independent counts for the benchmark, computed in a separate process.

Draws each workload's seeded random blocks with the generators of
tests/helpers.py and counts every block by definition: answer sets with
``answer_sets_by_definition`` (classical models whose reduct has no smaller
model) and completion models with ``direct_completion_holds``, both by a
scan over all interpretations. Before that it checks the closed forms the
benchmark relies on against the same scans on the smallest sizes.

It runs apart from the measuring process so that the scans' imports (numpy
among them) stay out of that process's peak memory.

    python3 bench/oracle.py --workload loops-split --seed 1

prints one JSON object: {"blocks": [{"text", "answers", "completion"}...]}.
Exits 1 if a closed form disagrees with the scan.
"""

import argparse
import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, HERE]

import programs  # noqa: E402
from aspsubcount import parse_program  # noqa: E402
from tests import helpers  # noqa: E402


def scan(text: str) -> tuple[int, int]:
    """(answer sets, completion models) of a small program, by definition."""
    program = parse_program(text)
    answers = len(helpers.answer_sets_by_definition(program))
    completion = sum(
        1
        for interp in helpers.all_interpretations(program.num_atoms)
        if helpers.direct_completion_holds(program, interp)
    )
    return answers, completion


def self_test() -> list[str]:
    """Closed forms of the families against the scans; returns mismatches."""
    checks = []
    for k in (1, 2, 3):
        checks.append((f"cycles-{k}", programs.cycles(k), 2**k, 3**k))
    for k in (1, 3, 5):
        checks.append((f"pairs-{k}", programs.pairs(k), 2**k, 2**k))
    for n in (0, 2, 4):
        checks.append((f"chain-{n}", programs.chain(n), n + 2, n + 2))
    for n, m, g in ((3, 3, 0), (4, 4, 1)):
        checks.append((f"reach-{n}-{m}", programs.reach(n, m, g, g), 2**m, None))
    errors = []
    for label, text, answers, completion in checks:
        got = scan(text)
        if got[0] != answers or (completion is not None and got[1] != completion):
            errors.append(
                f"{label}: scan gives {got}, closed form ({answers}, {completion})"
            )
    return errors


def headed(text: str) -> bool:
    """Every atom heads a rule and no rule is a one-atom fact."""
    heads = set()
    for line in text.splitlines():
        head = line.split(":-")[0].rstrip(".")
        heads.update(re.findall(r"\ba\d+\b", head))
        if re.fullmatch(r"a\d+\.", line.strip()):
            return False
    return heads == set(re.findall(r"\ba\d+\b", text))


def draw_blocks(workload: str, seed: int) -> list[dict]:
    spec = programs.RANDOM_BLOCKS.get(workload)
    if spec is None:
        return []
    generate = getattr(helpers, spec.helper)
    rng = random.Random(f"{workload}/{seed}")
    blocks = []
    while len(blocks) < spec.count:
        text = generate(rng, **spec.kwargs)
        if (
            spec.rules not in (None, text.count("\n"))
            or spec.atoms not in (None, len(set(re.findall(r"\ba\d+\b", text))))
            or (spec.headed and not headed(text))
        ):
            continue
        answers, completion = scan(text)
        if spec.signatures:
            accepted = (completion, answers) in spec.signatures
        else:
            accepted = answers >= 1
        if accepted:
            blocks.append({"text": text, "answers": answers, "completion": completion})
    return blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=programs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    errors = self_test()
    if errors:
        for line in errors:
            sys.stderr.write(f"oracle self-test: {line}\n")
        return 1
    json.dump({"blocks": draw_blocks(args.workload, args.seed)}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
