"""Run one workload in a fresh process and print its measurements as JSON.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            --scale X --run-dir DIR

Started by ``run.py``; imports lpbounds from the checkout's ``src/`` and
drives ``lpbounds.cli.main`` in-process.  The first pass runs every command
with ``--threads 1``; it warms the process and is the reference every later
pass must reproduce byte for byte.  Then passes at the CLI's default thread
count repeat until the next one would end after ``--seconds``.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
are reduced to per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
THREADS_ONE = ("--threads", "1")
# Seconds the speed kernel takes on the 2-core reference machine.
CALIB_REF_S = 0.05


class Speedometer:
    """Tracks a shared machine's drifting speed with a fixed NumPy kernel.

    On a shared machine the speed of a core drifts by tens of percent within
    seconds to minutes.  The kernel, shaped like field evaluation, follows
    that drift (its time correlated 0.87 with sharpness passes over 4
    minutes on the reference machine), so pass times are reported at the
    reference machine's speed: each command's time is multiplied by
    CALIB_REF_S over the kernel's time around it.  Set-up time is not
    scaled, as it did not follow the kernel (correlation 0.3).
    """

    def __init__(self):
        self._pts = np.random.default_rng(0).random((65536, 3))
        self.last = self.kernel_s()

    def kernel_s(self) -> float:
        pts = self._pts
        t0 = time.perf_counter()
        for _ in range(4):
            acc = np.zeros(len(pts))
            for e in range(1, 6):
                acc += np.prod(pts ** e, axis=1)
            np.sort(acc)
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Scale factor for the work done since the previous kernel run:
        CALIB_REF_S over the mean of the kernel times before and after."""
        now = self.kernel_s()
        f = CALIB_REF_S / ((self.last + now) / 2.0)
        self.last = now
        return f


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _finite_cell(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return True


def _command_rows(out_dir: Path) -> tuple[list[dict], list[str], int]:
    """Result rows a command wrote, suite config hashes, and bytes written.

    Result rows are CSV rows and each suite's checks; the echoed config and
    the ``mvi_audit.csv`` append log (a copy of ``mvi_check.csv``) are not.
    """
    rows, hashes, size = [], [], 0
    if not out_dir.is_dir():
        return rows, hashes, size
    for path in sorted(out_dir.iterdir()):
        size += path.stat().st_size
        if path.name.endswith("_config.json"):
            continue
        if path.name.startswith("suite_") and path.suffix == ".json":
            doc = json.loads(path.read_text())
            rows.extend(doc["checks"])
            hashes.append(doc["config_hash"])
        elif path.suffix == ".csv" and path.name != "mvi_audit.csv":
            with open(path, newline="") as fh:
                rows.extend(csv.DictReader(fh))
    return rows, hashes, size


def _row_failed(row: dict) -> bool:
    """Fail closed: a FAIL verdict or any non-finite number fails the row."""
    if "margin" in row:
        return not (row["passed"] is True and math.isfinite(row["margin"]))
    if row.get("passed", "True") != "True":
        return True
    if row.get("violations", "0") != "0":
        return True
    return not all(_finite_cell(v) for v in row.values())


def run_pass(cli, commands, pass_dir: Path, speed: Speedometer,
             extra=()) -> dict:
    """Run every command once; time the CLI calls only."""
    outcomes = []
    stdout_bytes = 0
    wall = cpu = ref_wall = ref_cpu = 0.0
    for j, argv in enumerate(commands):
        buf = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv) + list(extra)
                              + ["--out-dir", str(pass_dir / f"c{j}")])
            error = None
        except Exception as exc:  # a crash is a failed check, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        dc = _cpu_s() - cpu0
        f = speed.factor()
        wall += dt
        cpu += dc
        ref_wall += dt * f
        ref_cpu += dc * f
        stdout_bytes += len(buf.getvalue().encode())
        outcomes.append((rc, error))

    digest = hashlib.sha256()
    attempted = failed = 0
    written = stdout_bytes
    hashes = []
    for j, (argv, (rc, error)) in enumerate(zip(commands, outcomes)):
        rows, cmd_hashes, size = _command_rows(pass_dir / f"c{j}")
        written += size
        hashes.extend(cmd_hashes)
        digest.update((" ".join(argv) + "\n").encode())
        for row in rows:
            digest.update((json.dumps(row, sort_keys=True) + "\n").encode())
        if error is not None:
            digest.update(f"error {error}\n".encode())
        bad = sum(_row_failed(r) for r in rows)
        if (rc != 0 or error is not None) and bad == 0:
            bad = 1
        attempted += max(len(rows), 1)
        failed += bad
    shutil.rmtree(pass_dir, ignore_errors=True)
    return {"wall_s": wall, "cpu_s": cpu, "ref_wall_s": ref_wall,
            "ref_cpu_s": ref_cpu, "digest": digest.hexdigest(),
            "attempted": attempted, "failed": failed,
            "bytes_written": written, "config_hashes": hashes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--run-dir", required=True)
    args = ap.parse_args(argv)

    import lpbounds.cli as cli
    import scipy

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"lpbounds imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    commands = WORKLOADS[args.workload].commands(args.seed, args.scale)
    run_dir = Path(args.run_dir)
    passes = []
    speed = Speedometer()

    def one(mode, extra=(), tracer=None):
        undo = tracing.install(tracer) if tracer is not None else None
        try:
            p = run_pass(cli, commands, run_dir / f"p{len(passes)}", speed,
                         extra)
        finally:
            if undo is not None:
                tracing.uninstall(undo)
        p["mode"] = mode
        if tracer is not None:
            p["layers"] = tracing.analyse(tracer.spans)
        passes.append(p)
        return p

    one("threads1", THREADS_ONE)
    start = time.perf_counter()
    while True:
        if args.trace:
            last = one("untraced")["wall_s"]
            last += one("traced", tracer=tracing.Tracer())["wall_s"]
        else:
            last = one("timed")["wall_s"]
        done = len(passes) - 1
        elapsed = time.perf_counter() - start
        if done >= MIN_PASSES and elapsed + last > args.seconds:
            break

    ref = passes[0]
    timed = [p for p in passes if p["mode"] in ("timed", "untraced")]
    traced = [p for p in passes if p["mode"] == "traced"]
    digests = {p["digest"] for p in passes}
    known_defects = []
    if any(p["config_hashes"] != ref["config_hashes"] for p in passes):
        known_defects.append("suite config_hash changes with --threads "
                             "although the result rows do not")
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "commands": commands,
        "nproc": os.cpu_count(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "passes": len(timed),
        "pass_wall_s": [p["wall_s"] for p in timed],
        "wall_s": statistics.median([p["ref_wall_s"] for p in timed]),
        "cpu_s": statistics.median([p["ref_cpu_s"] for p in timed]),
        "raw_wall_s": statistics.median([p["wall_s"] for p in timed]),
        "raw_cpu_s": statistics.median([p["cpu_s"] for p in timed]),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "deterministic": len(digests) == 1,
        "output_digest": ref["digest"],
        "known_defects": known_defects,
    }
    if traced:
        names = sorted({k for p in traced for k in p["layers"]})
        layers = {}
        for name in names:
            vals = [p["layers"][name][0] for p in traced
                    if name in p["layers"]]
            unit = next(p["layers"][name][1] for p in traced
                        if name in p["layers"])
            layers[name] = [statistics.median(vals), unit]
        layers["cli.bytes_written"] = [
            statistics.median([p["bytes_written"] for p in traced]), "bytes"]
        untraced_wall = statistics.median([p["ref_wall_s"] for p in timed])
        layers["trace.overhead_frac"] = [
            statistics.median([p["ref_wall_s"] for p in traced]) / untraced_wall - 1.0,
            "ratio"]
        summary["layers"] = layers
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
