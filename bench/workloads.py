"""The benchmark's workloads: fixed lists of ``lpbounds`` CLI invocations.

Each workload is one pass of CLI commands, run back to back in one process.
Budgets are the certification workloads' nominal sizes scaled down so one
pass takes 2 to 3 s on a 2-core machine, which lets a 15 s run time several
passes and report their median.  ``scale`` multiplies every budget and
trial count (the self-test runs at a tiny scale).

No command passes ``--threads``: the CLI default (``os.cpu_count()``) is
what users get.  The determinism pass appends ``--threads 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


def _n(value: float, scale: float, floor: int) -> str:
    return str(max(floor, int(round(value * scale))))


def _heat_deriv(seed: int, scale: float) -> list[list[str]]:
    return [["deriv-check", "--op", "heat", "--n", str(n),
             "--r", "0.3,0.5,0.7", "--fields", "3",
             "--budget", _n(15_000, scale, 200), "--seed", str(seed)]
            for n in (1, 2, 3)]


def _mvi_audit(seed: int, scale: float) -> list[list[str]]:
    cmds = [["mvi-check", "--kind", kind, "--trials", _n(2_500, scale, 20),
             "--samples", "1024", "--seed", str(seed)]
            for kind in ("plain", "power", "concave")]
    cmds.append(["mvi-check", "--kind", "modified",
                 "--budget", _n(500_000, scale, 2_000), "--seed", str(seed)])
    return cmds


def _suites(names: tuple[str, ...], budget: int):
    def commands(seed: int, scale: float) -> list[list[str]]:
        return [["suite", name, "--budget", _n(budget, scale, 2_000),
                 "--seed", str(seed)] for name in names]
    return commands


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int, float], list[list[str]]]


WORKLOADS = {w.name: w for w in (
    Workload("heat-deriv",
             "Hessian and gradient evaluation of polynomial fields dominates; "
             "single-threaded today",
             _heat_deriv),
    Workload("mvi-audit",
             "MVI harness loop over field values only, no Hessians; sets "
             "peak memory",
             _mvi_audit),
    Workload("lp-thm",
             "threaded rejection quadrature over box samples and region "
             "tests, field values only",
             _suites(("laplace-thm", "heat-thm", "prop-general"), 250_000)),
    Workload("sharpness",
             "the only workload where counterexamples and constants "
             "cross-checks do real work",
             _suites(("counterexamples", "constants-audit"), 250_000)),
)}
