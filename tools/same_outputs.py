"""Write every lpbounds CLI output at small budgets into one directory tree.

Usage: python3 tools/same_outputs.py OUT_DIR

Runs each CLI command (constants; deriv-check for laplace at n = 1, 2 and
3 and for heat at n = 1, 2 and 3; mvi-check for every kind, again for
each harness kind across block boundaries, again for the concave kind with
--phi identity and --phi t075, and again for the modified kind at --seed 3
with m = 3 and m = 5; counterexample ccw; pmeans for both families) and
every verification suite, twice: at its
defaults with --budget 150000, and at --seed 5 --fields 6 --p 0.3 --budget
70000, so that a misrouted per-check seed or a wrong field-count loop bound
changes the output.  Every run is made once with --threads 1 and once with
--threads 2, each in its own directory under
OUT_DIR/threads<k>/<label>/, which is also the run's working directory.
Standard output and the exit code of each run are saved next to the files
the run wrote.  Budgets exceed one 65,536 sample batch, so batch merging
and the threaded quadrature path both run; the heat deriv-check runs have
six cases over three field kinds, so at --threads 2 their fd and rhs
columns run side by side.  The MVI harness evaluates 8 trials of 1,000
samples per 8,192-point block (EVAL_BLOCK), so the mvi-check runs at 300
trials take 37 full blocks and a ragged last one of 4 trials.  They run at
--seed 2, where the plain kind's worst margin is a live trial margin
rather than a tie at 0.0, so a harness whose results depend on the block
size changes that row.  The two extra concave runs pin the map from each --phi name to
its exponent and so to c_phi, through their kind and constant columns.
The modified kind's seed-0 row ties at a worst margin of 0.0,
so it cannot see a changed heat-ball integral; at --seed 3 the worst
margins are live (4.81 at m = 3 and 2.73 at m = 5).

Run it from two checkouts and compare the trees with ``diff -r``: a refactor
that keeps every result must leave the diff empty.  The package is imported
from the ``src`` directory beside this script.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
BUDGET = "70000"

COMMANDS = {
    "constants": ["constants", "--n", "1,2", "--m", "3,4", "--budget", BUDGET],
    "deriv-laplace": ["deriv-check", "--op", "laplace", "--r", "0.2",
                      "--fields", "2", "--budget", BUDGET],
    "deriv-laplace-1": ["deriv-check", "--op", "laplace", "--n", "1"],
    "deriv-laplace-3": ["deriv-check", "--op", "laplace", "--n", "3",
                        "--r", "0.2", "--fields", "2", "--budget", BUDGET],
    "deriv-heat-1": ["deriv-check", "--op", "heat", "--n", "1",
                     "--r", "0.3,0.5", "--fields", "3", "--budget", BUDGET],
    "deriv-heat-2": ["deriv-check", "--op", "heat", "--n", "2",
                     "--r", "0.3,0.5", "--fields", "3", "--budget", BUDGET],
    "deriv-heat-3": ["deriv-check", "--op", "heat", "--n", "3",
                     "--r", "0.3,0.5", "--fields", "3", "--budget", BUDGET],
    "mvi-plain": ["mvi-check", "--kind", "plain", "--trials", "100"],
    "mvi-power": ["mvi-check", "--kind", "power", "--trials", "100"],
    "mvi-concave": ["mvi-check", "--kind", "concave", "--trials", "100"],
    "mvi-plain-blocks": ["mvi-check", "--kind", "plain", "--trials", "300",
                         "--samples", "1000", "--seed", "2"],
    "mvi-power-blocks": ["mvi-check", "--kind", "power", "--trials", "300",
                         "--samples", "1000", "--seed", "2"],
    "mvi-concave-blocks": ["mvi-check", "--kind", "concave", "--trials", "300",
                           "--samples", "1000", "--seed", "2"],
    "mvi-concave-identity": ["mvi-check", "--kind", "concave", "--phi",
                             "identity", "--trials", "300", "--samples",
                             "1000", "--seed", "2"],
    "mvi-concave-t075": ["mvi-check", "--kind", "concave", "--phi", "t075",
                         "--trials", "300", "--samples", "1000", "--seed",
                         "2"],
    "mvi-modified": ["mvi-check", "--kind", "modified", "--budget", BUDGET],
    "mvi-modified-m3": ["mvi-check", "--kind", "modified", "--seed", "3",
                        "--m", "3"],
    "mvi-modified-m5": ["mvi-check", "--kind", "modified", "--seed", "3",
                        "--m", "5"],
    "counterexample": ["counterexample", "ccw", "--budget", BUDGET],
    "pmeans-monomial": ["pmeans", "--family", "monomial", "--budget", BUDGET],
    "pmeans-laplace-one": ["pmeans", "--family", "laplace-one",
                           "--budget", BUDGET],
}


def suite_names() -> tuple[str, ...]:
    sys.path.insert(0, SRC)
    from lpbounds.verify import SUITE_NAMES

    return SUITE_NAMES


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    runs = dict(COMMANDS)
    for name in suite_names():
        runs[f"suite-{name}"] = ["suite", name, "--budget", "150000"]
        runs[f"suite-{name}-seed5"] = ["suite", name, "--seed", "5",
                                       "--fields", "6", "--p", "0.3",
                                       "--budget", BUDGET]
    env = dict(os.environ, PYTHONPATH=SRC)
    for threads in ("1", "2"):
        for label, args in runs.items():
            where = os.path.join(out, f"threads{threads}", label)
            os.makedirs(where, exist_ok=True)
            cmd = [sys.executable, "-m", "lpbounds.cli", *args,
                   "--threads", threads, "--out-dir", "."]
            proc = subprocess.run(cmd, env=env, cwd=where, capture_output=True,
                                  text=True)
            with open(os.path.join(where, "stdout.txt"), "w") as fh:
                fh.write(proc.stdout)
            with open(os.path.join(where, "exit_code.txt"), "w") as fh:
                fh.write(f"{proc.returncode}\n")
            print(f"threads={threads} {label}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
