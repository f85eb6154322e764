"""lpbounds benchmark: certification workloads driven through the CLI.

One run measures one workload:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``wall_s``: median seconds for one pass of the workload's CLI commands at
  the CLI's default ``--threads`` (``os.cpu_count()``), in a warm process;
* ``setup_s``: median over fresh processes of ``import lpbounds`` plus CLI
  argument and config resolution, up to the first numeric call;
* ``cpu_s``: median user plus system CPU seconds of one pass (getrusage);
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process.

``wall_s`` and ``cpu_s`` are given at the reference machine's speed: each
command is timed between two runs of a fixed NumPy kernel and scaled by the
kernel's reference time over its measured time (``worker.Speedometer``),
which removes most of a shared machine's drift.  The unscaled medians are
printed and recorded as ``raw_wall_s`` and ``raw_cpu_s``.

``--trace 1`` reports the per-layer metrics named in BENCHMARK.json, taken
from traced passes that alternate with untraced ones (see ``tracing.py``),
and the ``-X importtime`` cost of each lpbounds module.

Every run checks the outputs: each pass's result rows (CSV rows and suite
checks) must hash to the same digest as the ``--threads 1`` reference pass,
and a check fails if it reports FAIL, its command exits nonzero or raises,
or any of its numbers is not finite.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it list every metric measured, ``fail_frac`` and the
``output_digest``.  The exit code is 0 once the result line is printed,
whatever ``correct`` says, and 2 when the benchmark cannot run (no lpbounds
source next to it, a crash or a time-out), with no result line.

    python3 bench/run.py --all [--seed N] [--seconds S] [--record FILE]

runs every workload untraced and traced, prints one table, and with
``--record`` writes all of it, plus machine facts and the commit, to FILE.

Run from anywhere; the benchmark imports lpbounds from ``src/`` next to this
directory and writes only under ``.bench_run/`` there, which it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 9
IMPORT_REPS = 3
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def _check_tree() -> None:
    if not (ROOT / "src" / "lpbounds" / "cli.py").is_file():
        raise BenchError(f"no lpbounds source under {ROOT / 'src'}")


def _python(args, timeout: float, **kw) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run([sys.executable] + [str(a) for a in args],
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0), **kw)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {exc.timeout:.0f} s: {args}")
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc


def _setup_s(commands, run_dir: Path, deadline: float) -> float:
    """Median set-up over fresh processes; the first process only warms the
    file cache and writes bytecode."""
    times = []
    for i in range(SETUP_REPS + 1):
        proc = _python([BENCH / "probe_setup.py", run_dir / f"setup{i}"]
                       + commands[0], deadline - time.monotonic())
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _import_ms(deadline: float) -> dict:
    """Cumulative ``-X importtime`` of each module, median over runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(IMPORT_REPS):
        proc = _python(["-X", "importtime", "-c", "import lpbounds.cli"],
                       deadline - time.monotonic(), env=env)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("lpbounds."):
                layer = parts[2].split(".", 1)[1]
                if layer in samples:
                    samples[layer].append(float(parts[1]) / 1e3)
    missing = [layer for layer, v in samples.items() if not v]
    if missing:
        raise BenchError(f"importtime reported no time for {missing}")
    return {f"{layer}.import_ms": [statistics.median(v), "ms"]
            for layer, v in samples.items()}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: float) -> dict:
    """One run of one workload; returns the worker summary plus metrics."""
    _check_tree()
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = ROOT / ".bench_run" / str(os.getpid())
    commands = WORKLOADS[name].commands(seed, scale)
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        setup = None if trace else _setup_s(commands, run_dir, deadline)
        proc = _python([BENCH / "worker.py", "--workload", name,
                        "--seed", seed, "--seconds", seconds,
                        "--trace", trace, "--scale", scale,
                        "--run-dir", run_dir / "worker"],
                       deadline - time.monotonic())
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:
            summary["layers"].update(_import_ms(deadline))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass
    summary["end_to_end"] = {
        "wall_s": [summary["wall_s"], "s"],
        "setup_s": [setup, "s"],
        "cpu_s": [summary["cpu_s"], "s"],
        "peak_rss_mb": [summary["peak_rss_mb"], "MB"],
    } if not trace else {}
    summary["fail_frac"] = summary["failed"] / summary["attempted"]
    summary["correct"] = summary["failed"] == 0 and summary["deterministic"]
    return summary


def _result_line(summary: dict, wanted: list[dict], source: dict) -> dict:
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            raise BenchError(f"metric {m['name']} was not measured")
        value, unit = source[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} in {unit}, not {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def _report(summary: dict) -> list[str]:
    walls = " ".join(f"{w:.3f}" for w in summary["pass_wall_s"])
    lines = [f"workload {summary['workload']} seed {summary['seed']} "
             f"nproc {summary['nproc']} pass wall_s {walls}"]
    for name, (value, unit) in {**summary["end_to_end"],
                                **summary.get("layers", {})}.items():
        lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    for name in ("raw_wall_s", "raw_cpu_s"):
        lines.append(f"  {name:<44} {summary[name]:>14.6g} s")
    lines.append(f"  {'fail_frac':<44} {summary['fail_frac']:>14.6g} ratio "
                 f"({summary['failed']}/{summary['attempted']})")
    lines.append(f"  output_digest {summary['output_digest']} "
                 f"deterministic={summary['deterministic']}")
    for defect in summary["known_defects"]:
        lines.append(f"  known defect: {defect}")
    return lines


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=sorted(WORKLOADS))
    group.add_argument("--all", action="store_true",
                       help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="length of the timed part of each run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every budget and trial count")
    ap.add_argument("--record", help="with --all: write everything here")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    try:
        spec = _spec()
        if args.workload:
            summary = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace, args.scale)
            if args.trace:
                line = _result_line(summary, spec["per_layer"],
                                    summary["layers"])
            else:
                line = _result_line(summary, spec["end_to_end"],
                                    summary["end_to_end"])
            print("\n".join(_report(summary)))
            print(json.dumps(line))
            return 0

        entry = {"seed": args.seed, "seconds": args.seconds,
                 "scale": args.scale, "commit": _commit(),
                 "machine": platform.machine(), "workloads": {}}
        ok = True
        for name in WORKLOADS:
            plain = run_workload(name, args.seed, args.seconds, 0, args.scale)
            traced = run_workload(name, args.seed, args.seconds, 1,
                                  args.scale)
            plain["layers"] = traced["layers"]
            plain["trace_digest_matches"] = (
                traced["output_digest"] == plain["output_digest"])
            plain["correct"] &= traced["correct"] \
                and plain["trace_digest_matches"]
            ok &= plain["correct"]
            entry["nproc"] = plain["nproc"]
            entry["versions"] = plain["versions"]
            entry["workloads"][name] = plain
            print("\n".join(_report(plain)), flush=True)
        if args.record:
            Path(args.record).write_text(json.dumps(entry, indent=1,
                                                    sort_keys=True) + "\n")
        return 0 if ok else 1
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
