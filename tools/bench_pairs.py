"""Run the benchmark from two checkouts in alternating pairs and compare.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
        [--pairs N] [--seeds 0,1,...] [--declared-output-change]
        [--aa PARENT2_DIR]

Pair i runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
from each checkout, the parent first when i is even and the change first
when i is odd.  T is ``run_seconds`` in the parent's BENCHMARK.json, so
both sides run for the length the benchmark sets.  Pair i takes the i-th seed of --seeds, cycling when there
are fewer seeds than pairs; the default seeds are 0 to N - 1.  Every run
is printed as it ends.

For each end-to-end metric named in the parent's BENCHMARK.json the
summary gives each side's median and quartiles, the change's wins out of N
(ties count for neither side) and the gain rule: at least ten pairs, the
change wins at least nine tenths of them, and the medians differ, in the
better direction, by more than the parent's interquartile range.  The
gain reads "void" on every metric when any pair's change run failed a
larger share of its operations than its parent run, was not correct when
the parent run was, or printed a different output digest; each such pair
is listed.  With --declared-output-change, for a change that declares
new output bits, a different digest no longer voids the gain: each such
pair is listed on a ``DIGEST:`` line instead, while the failure-share and
correctness voids stay as they are.  One ``REGRESSED:`` line names each
metric whose change median is worse than the parent median by more than
the metric's ``bound`` in the parent's BENCHMARK.json, as a fraction of
the parent median.  The summary also
lists the seeds and every run that reported ``correct: false``.

With --aa, PARENT2_DIR is a second checkout of the parent.  After each
pair, an A/A pair runs PARENT_DIR against PARENT2_DIR at the same seed and
in the same order, and a second summary, of the same form, follows the
first.  It shows what the same comparison reads when nothing changed: a
gain or a regression the A/A set shows as well is this host's noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linear interpolation."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent, change, better: str) -> dict:
    """Compare one metric's runs, paired by index.

    better is "lower" or "higher".  Returns each side's quartiles, the
    change's wins, the number of pairs and whether the gain rule holds.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more runs on each side, in pairs")
    sign = {"lower": -1.0, "higher": 1.0}[better]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq = quartiles(parent)
    cq = quartiles(change)
    gap = sign * (cq[1] - pq[1])
    n = len(parent)
    return {"parent": pq, "change": cq, "wins": wins, "pairs": n,
            "gain": n >= 10 and wins >= 0.9 * n and gap > pq[2] - pq[0]}


def regressed(s: dict, better: str, bound: float) -> bool:
    """Whether summary s has a change median worse than the parent median
    by more than bound times the parent median."""
    sign = {"lower": -1.0, "higher": 1.0}[better]
    pmed, cmed = s["parent"][1], s["change"][1]
    return sign * (cmed - pmed) < -bound * abs(pmed)


def digest_changes(parent, change) -> dict[int, str]:
    """{pair index: line} of each pair whose runs printed different output
    digests."""
    return {i: f"pair {i}: digests differ: {p['digest']} vs {c['digest']}"
            for i, (p, c) in enumerate(zip(parent, change))
            if c["digest"] != p["digest"]}


def voids(parent, change, declared_output_change: bool = False) -> list[str]:
    """One line per pair whose change run voids a gain: it failed a larger
    share of its operations than its parent run, was not correct when the
    parent run was, or printed a different output digest, unless the
    change declares an output change.  A faster run attempts more
    operations in the same time, so counts alone would void it on a seed
    that fails on both sides.  parent and change are run_bench results,
    paired by index."""
    digests = ({} if declared_output_change
               else digest_changes(parent, change))
    lines = []
    for i, (p, c) in enumerate(zip(parent, change)):
        if c["failed"] * p["attempted"] > p["failed"] * c["attempted"]:
            lines.append(f"pair {i}: change failed {c['failed']} of "
                         f"{c['attempted']}, parent {p['failed']} of "
                         f"{p['attempted']}")
        if p["correct"] and not c["correct"]:
            lines.append(f"pair {i}: change run not correct")
        if i in digests:
            lines.append(digests[i])
    return lines


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run from the checkout at tree: its metric
    values, correct flag, attempted and failed operations and output
    digest."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}:"
                           f"\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(ln.split()[1] for ln in lines
                  if ln.strip().startswith("output_digest"))
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": digest}


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def report(title: str, runs: dict, spec: dict, used: list[int],
           declared_output_change: bool = False) -> None:
    """Print the summary of one set of pairs: runs maps "parent" and
    "change" to their run_bench results, paired by index."""
    print(f"\n{title}: {len(used)} pairs, {spec['run_seconds']:g} s runs, "
          f"seeds {','.join(map(str, used))}; parent first on even pairs")
    void = voids(runs["parent"], runs["change"], declared_output_change)
    worse = []
    print("metric  parent median [quartiles]  change median [quartiles]  "
          "change  wins  gain")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p = [r["metrics"][name] for r in runs["parent"]]
        c = [r["metrics"][name] for r in runs["change"]]
        s = summarize(p, c, metric["better"])
        rel = s["change"][1] / s["parent"][1] - 1.0 if s["parent"][1] else 0.0
        print(f"{name}  {_fmt(s['parent'])}  {_fmt(s['change'])}  "
              f"{rel:+.1%}  {s['wins']}/{s['pairs']}  "
              f"{'void' if void else 'yes' if s['gain'] else 'no'}")
        if "bound" in metric and regressed(s, metric["better"],
                                           metric["bound"]):
            worse.append(f"{name} {rel:+.1%}, bound {metric['bound']:.0%}")
    for line in worse:
        print(f"REGRESSED: {line}")
    for line in void:
        print(f"VOID: {line}")
    if declared_output_change:
        for line in digest_changes(runs["parent"], runs["change"]).values():
            print(f"DIGEST: {line}")
    for side, side_runs in runs.items():
        for i, r in enumerate(side_runs):
            if not r["correct"]:
                print(f"NOT CORRECT: {side} run of pair {i} (seed {used[i]})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default=None,
                    help="comma-separated seeds (default 0 to pairs - 1)")
    ap.add_argument("--declared-output-change", action="store_true",
                    help="list digest differences as DIGEST: lines "
                         "instead of voiding the gain")
    ap.add_argument("--aa", type=Path, metavar="PARENT2",
                    help="a second checkout of the parent: after each pair, "
                         "run an A/A pair of PARENT against PARENT2")
    args = ap.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(args.pairs)))
    used = [seeds[i % len(seeds)] for i in range(args.pairs)]

    sets = {"": (args.parent, args.change)}
    if args.aa:
        sets["A/A "] = (args.parent, args.aa)
    runs = {label: {"parent": [], "change": []} for label in sets}
    for i, seed in enumerate(used):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for label, trees in sets.items():
            for side in order:
                tree = trees[0] if side == "parent" else trees[1]
                run = run_bench(tree, args.workload, seed, seconds)
                runs[label][side].append(run)
                vals = " ".join(f"{k} {v:.4g}"
                                for k, v in run["metrics"].items())
                print(f"{label}pair {i} seed {seed} {side}: {vals} "
                      f"correct {run['correct']} failed {run['failed']} "
                      f"digest {run['digest'][:8]}",
                      flush=True)

    report(args.workload, runs[""], spec, used, args.declared_output_change)
    if args.aa:
        report(f"A/A {args.workload} (change side: {args.aa})", runs["A/A "],
               spec, used)
    return 0


if __name__ == "__main__":
    sys.exit(main())
