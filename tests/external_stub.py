"""Stand-in external counter: reads DIMACS, counts with the library's own
engine, and prints the result in a configurable wire format. Used to
exercise the subprocess adapter end to end without a third-party binary."""

import argparse
import os
import sys
import time

from aspsubcount import count_models, parse_dimacs, projected_count


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("cnf")
    ap.add_argument("--format", choices=["smc", "arbint", "bare"], default="smc")
    ap.add_argument("--sleep", type=float, default=0.0)
    ap.add_argument("--fail", action="store_true")
    ap.add_argument("--garbage", action="store_true")
    ap.add_argument("--plain-value", type=int, default=None)
    ap.add_argument("--projected-value", type=int, default=None)
    ap.add_argument(
        "--list-dir",
        metavar="LOG",
        help="append the sorted names in the input's directory to LOG, one line per call",
    )
    args = ap.parse_args()

    if args.list_dir:
        names = sorted(os.listdir(os.path.dirname(os.path.abspath(args.cnf))))
        with open(args.list_dir, "a") as log:
            log.write(" ".join(names) + "\n")

    if args.sleep:
        time.sleep(args.sleep)
    if args.fail:
        print("deliberate failure", file=sys.stderr)
        return 7
    if args.garbage:
        print("words, but no count")
        return 0

    with open(args.cnf) as handle:
        formula, show = parse_dimacs(handle.read())
    if show is None:
        if args.plain_value is not None:
            n = args.plain_value
        else:
            n = count_models(formula)
    else:
        if args.projected_value is not None:
            n = args.projected_value
        else:
            out = set(range(1, formula.num_vars + 1)) - set(show)
            n = projected_count(formula, out)

    if args.format == "smc":
        print("c fake counter")
        print(f"s mc {n}")
    elif args.format == "arbint":
        print("c fake counter")
        print(f"c s exact arb int {n}")
    else:
        print(n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
