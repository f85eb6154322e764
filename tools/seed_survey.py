"""Run one verification suite over a range of seeds and list its FAILs.

Usage: python3 tools/seed_survey.py SUITE FIRST LAST

Runs the suite at its default config for every seed from FIRST to LAST,
both included.  Prints each failing check as ``seed statement margin``,
then the number of seeds with a FAIL and the number of failing checks.
A survey of a correct suite measures its false-FAIL rate; run it from two
checkouts to compare that rate before and after a change.  The package is
imported from the ``src`` directory beside this script.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from lpbounds.verify import run_suite

    suite, first, last = argv[0], int(argv[1]), int(argv[2])
    seeds = range(first, last + 1)
    failed_seeds = failed_checks = 0
    for seed in seeds:
        fails = [c for c in run_suite(suite, {"seed": seed}).checks
                 if not c.passed]
        for c in fails:
            print(f"{seed} {c.statement} {c.margin!r}", flush=True)
        failed_seeds += bool(fails)
        failed_checks += len(fails)
    print(f"{suite}: {failed_seeds} of {len(seeds)} seeds FAIL "
          f"({failed_checks} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
