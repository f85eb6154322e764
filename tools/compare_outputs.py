"""Bound a declared output change between two tools/same_outputs.py trees.

Usage: python3 tools/compare_outputs.py A B

Exits 1 if the trees hold different files, or if any file's text differs
outside its floating-point numbers.  Integers count as text, so verdicts,
exit codes, violation counts, row counts and keys must all match exactly.
Otherwise prints, for each file whose floats differ, the largest relative
drift |a - b| / max(|a|, |b|) over pairs with max(|a|, |b|) >= 1e-15 and
the number of differing pairs below that floor, then the overall largest
drift, and exits 0.  Tiny constants (c_p is near 1e-39) fall below the
floor, so for differing pairs below it that share a sign, the largest
relative drift is printed too, as below_floor_drift.
"""

from __future__ import annotations

import math
import os
import re
import sys

FLOOR = 1e-15
NUMBER = re.compile(r"(?<![\w.])([-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(?![\w.])")


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def split(text: str) -> tuple[str, list[float]]:
    """The text with each float replaced by a marker, and the floats."""
    parts = NUMBER.split(text)
    floats = []
    for i in range(1, len(parts), 2):
        if not parts[i].lstrip("+-").isdigit():
            floats.append(float(parts[i]))
            parts[i] = "\0"
    return "".join(parts), floats


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a_root, b_root = argv
    names, other = files(a_root), files(b_root)
    if names != other:
        print(f"different files: {sorted(names ^ other)}")
        return 1
    worst = worst_tiny = 0.0
    for name in sorted(names):
        with open(os.path.join(a_root, name)) as fa, \
                open(os.path.join(b_root, name)) as fb:
            (ta, xa), (tb, xb) = split(fa.read()), split(fb.read())
        if ta != tb:
            print(f"{name}: text differs outside its floats")
            return 1
        drift, below, tiny = 0.0, 0, None
        for x, y in zip(xa, xb):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            scale = max(abs(x), abs(y))
            if scale >= FLOOR:
                drift = max(drift, abs(x - y) / scale)
                continue
            below += 1
            if x * y > 0.0:
                tiny = max(tiny or 0.0, abs(x - y) / scale)
        if drift or below:
            extra = "" if tiny is None else f" below_floor_drift={tiny:.3g}"
            print(f"{name}: max_rel_drift={drift:.3g} "
                  f"below_floor={below}{extra}")
        worst = max(worst, drift)
        worst_tiny = max(worst_tiny, tiny or 0.0)
    print(f"{len(names)} files; largest relative drift {worst:.3g}, "
          f"below the floor {worst_tiny:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
