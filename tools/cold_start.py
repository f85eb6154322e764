"""Time every lpbounds CLI command from a cold start, one fresh process a run.

Usage: python3 tools/cold_start.py OUT_JSON [--checkout LABEL=DIR]...

Each run is ``python -m lpbounds.cli COMMAND --out-dir TMP`` in a new
process with PYTHONPATH set to the checkout's ``src``, so its time includes
the interpreter's start, every import and the command's own work: what a
user waits for, and what ``bench/run.py``, which times warm passes in one
process, cannot see.  The commands are constants, deriv-check, mvi-check,
counterexample and pmeans at their defaults, and ``suite NAME`` for every
suite, each REPS times at every scale in SCALES.  Scale 1 runs each at its
default budget; scale k passes k times that budget (mvi-check's default
kind reads --trials, not --budget, so its trials are scaled instead).  The
defaults and suite names come from the package beside this script.  A run
that exits non-zero stops the tool with exit status 1 and no record: its
time would be that of a crash or a usage error, not of the command.

Each run's wall time is taken around the child's start and its reaping by
os.wait4, whose resource usage gives the child's peak resident set
(ru_maxrss).  With several --checkout options the checkouts take turns
within each repetition, in an order rotated each repetition, so slow
phases of the host fall on both sides.  OUT_JSON records every run and,
per checkout, command and scale, the median wall time and peak RSS,
beside each checkout's HEAD commit; a table of the medians is printed.
With no --checkout, the checkout holding this script is measured, labelled
"tree".
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPS = 5
SCALES = (1, 10)


def default_sizes() -> dict[str, tuple[str, int]]:
    """{command line: (size option, default size)} of every command."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lpbounds.cli import _PARAMS
    from lpbounds.verify import SUITE_NAMES, default_config

    sizes = {name: ("budget", params["budget"])
             for name, params in _PARAMS.items() if name != "suite"}
    sizes["mvi-check"] = ("trials", _PARAMS["mvi-check"]["trials"])
    budget = default_config()["budget"]
    sizes.update({f"suite {name}": ("budget", budget) for name in SUITE_NAMES})
    return sizes


def commit(checkout: str) -> str | None:
    """The checkout's HEAD commit, or None outside a git work tree."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_once(checkout: str, args: list[str]) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    with tempfile.TemporaryDirectory() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lpbounds.cli", *args, "--out-dir", out],
            env=env, cwd=out, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    # reaped by wait4, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--checkout", action="append", default=[],
                    metavar="LABEL=DIR")
    args = ap.parse_args(argv)

    checkouts = dict(item.split("=", 1) for item in args.checkout)
    if not checkouts:
        checkouts = {"tree": ROOT}
    sizes = default_sizes()

    labels = list(checkouts)
    runs = []
    for rep in range(REPS):
        order = labels[rep % len(labels):] + labels[:rep % len(labels)]
        for name, (key, size) in sizes.items():
            for scale in SCALES:
                size_k = size * scale
                cmd = [*name.split(), f"--{key}", str(size_k)]
                for label in order:
                    wall, rss, code = run_once(checkouts[label], cmd)
                    if code != 0:
                        print(f"{label}: `lpbounds {' '.join(cmd)}` exited "
                              f"{code}; no record written", file=sys.stderr)
                        return 1
                    runs.append({"checkout": label, "command": name,
                                 "scale": scale, key: size_k, "rep": rep,
                                 "wall_s": wall, "max_rss_mb": rss,
                                 "exit_code": code})
                    print(f"rep {rep} {label} {name} x{scale}: "
                          f"{wall:.3f} s, {rss:.1f} MB",
                          flush=True)

    medians = []
    for name in sizes:
        for scale in SCALES:
            row = {"command": name, "scale": scale}
            for label in labels:
                mine = [r for r in runs if r["checkout"] == label
                        and r["command"] == name and r["scale"] == scale]
                row[label] = {
                    "median_wall_s": statistics.median(
                        r["wall_s"] for r in mine),
                    "median_max_rss_mb": statistics.median(
                        r["max_rss_mb"] for r in mine)}
            medians.append(row)
    record = {"host": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "machine": platform.machine()},
              "commits": {label: commit(path)
                          for label, path in checkouts.items()},
              "reps": REPS, "scales": list(SCALES),
              "medians": medians, "runs": runs}
    with open(args.out, "w") as fh:
        fh.write(json.dumps(record, indent=1) + "\n")

    print(f"{'command':28s} {'x':>3s} "
          + " ".join(f"{label + ' s':>12s} {label + ' MB':>12s}"
                     for label in labels))
    for row in medians:
        print(f"{row['command']:28s} {row['scale']:3d} "
              + " ".join(f"{row[label]['median_wall_s']:12.3f} "
                         f"{row[label]['median_max_rss_mb']:12.1f}"
                         for label in labels))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
