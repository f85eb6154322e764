"""Command line interface.

Subcommands: constants, deriv-check, mvi-check, counterexample, pmeans,
suite.  Every run materializes its full parameter set (defaults filled,
config file merged, CLI flags winning), echoes it as one JSON line, and
persists it next to the outputs; re-running from that persisted file
reproduces the outputs byte for byte.  CSV floats are written with repr,
so equal results mean equal bytes.

Exit codes: 0 success, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

__all__ = ["main"]

_CPUS = os.cpu_count() or 1

_PARAMS: dict[str, dict] = {
    "constants": {"ns": [1, 2, 3], "ms": [3, 4, 5, 6], "budget": 200_000,
                  "seed": 0, "threads": _CPUS},
    "deriv-check": {"op": "laplace", "n": 2, "r_list": [0.1, 0.2],
                    "fields": 3, "budget": 100_000, "seed": 0,
                    "threads": _CPUS},
    "mvi-check": {"kind": "plain", "p": 0.5, "phi": "sqrt", "m": 3,
                  "trials": 1000, "samples": 1024, "budget": 100_000,
                  "seed": 0, "threads": _CPUS},
    "counterexample": {"construction": "ccw", "delta": "1/8", "degree": 12,
                       "samples_per_rect": 64, "budget": 200_000, "seed": 0,
                       "threads": _CPUS},
    "pmeans": {"family": "monomial", "k": 1,
               "p_list": [-0.5, 0.0, 0.5, 1.0, 2.0], "budget": 100_000,
               "seed": 0, "threads": _CPUS},
    "suite": {"suite": "", "p_list": None, "trials": None, "samples": None,
              "fields": None, "budget": None, "seed": None,
              "threads": _CPUS},
}

# the keys of the suite parameters that make up a verify config
_SUITE_KEYS = ("p_list", "trials", "samples", "fields", "budget", "seed",
               "threads")


class UsageError(Exception):
    pass


def _int_list(text: str) -> list[int]:
    """'3..6' -> [3,4,5,6]; '1,3' -> [1,3]; '2' -> [2]."""
    out: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    if not out:
        raise UsageError(f"empty integer list: {text!r}")
    return out


def _float_list(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if part in ("inf", "+inf"):
            out.append(math.inf)
        elif part == "-inf":
            out.append(-math.inf)
        elif part:
            out.append(float(part))
    if not out:
        raise UsageError(f"empty float list: {text!r}")
    return out


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _append_csv(path: str, header: list[str], row: list) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if new:
            w.writerow(header)
        w.writerow([_fmt(v) for v in row])


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpbounds",
        description="Numerical certification of uniform L^p lower bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--config", default=None,
                       help="JSON parameter file; explicit flags override it")
        p.add_argument("--out-dir", default=".", dest="out_dir")

    p = sub.add_parser("constants", help="closed-form constants table")
    p.add_argument("--n", dest="ns", default=None,
                   help="spatial dimensions, e.g. 2 or 1,2,3")
    p.add_argument("--m", dest="ms", default=None,
                   help="augmentation dimensions, e.g. 3..6")
    common(p)

    p = sub.add_parser("deriv-check",
                       help="difference quotient vs derivative formula")
    p.add_argument("--op", choices=("laplace", "heat"), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", dest="r_list", default=None,
                   help="radii, e.g. 0.5 or 0.1,0.2")
    p.add_argument("--fields", type=int, default=None)
    common(p)

    p = sub.add_parser("mvi-check", help="mean-value inequality audit")
    p.add_argument("--kind", choices=("plain", "power", "concave", "modified"),
                   default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--phi", choices=("sqrt", "identity", "t075"), default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    common(p)

    p = sub.add_parser("counterexample", help="sharpness constructions")
    p.add_argument("construction", nargs="?", default=None,
                   help="currently: ccw")
    p.add_argument("--delta", default=None, help="comb delta, e.g. 1/8")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--samples-per-rect", type=int, default=None,
                   dest="samples_per_rect")
    common(p)

    p = sub.add_parser("pmeans", help="normalized p-means of a family")
    p.add_argument("--family", choices=("monomial", "laplace-one"),
                   default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", dest="p_list", default=None,
                   help="exponents, e.g. -0.5,0,2,inf")
    common(p)

    p = sub.add_parser("suite", help="named verification suite")
    p.add_argument("suite", nargs="?", default=None)
    p.add_argument("--p", dest="p_list", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--fields", type=int, default=None)
    common(p)
    return ap


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, with list parsing."""
    cmd = args.command
    resolved = dict(_PARAMS[cmd])
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        file_cmd = file_cfg.pop("command", cmd)
        file_cfg.pop("schema_version", None)
        if file_cmd != cmd:
            raise UsageError(
                f"config file is for {file_cmd!r}, not {cmd!r}")
        unknown = set(file_cfg) - set(resolved)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in resolved:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    if int(resolved["threads"]) < 1:
        raise UsageError("--threads must be at least 1")
    for key in ("ns", "ms"):
        if key in resolved:
            resolved[key] = _int_list(resolved[key]) \
                if not isinstance(resolved[key], list) \
                else [int(v) for v in resolved[key]]
    for key in ("r_list", "p_list"):
        if key in resolved and resolved[key] is not None:
            resolved[key] = _float_list(resolved[key])
    if cmd == "suite":
        from .verify import default_config

        # default_config fills the keys left at None
        resolved.update(default_config({k: resolved[k] for k in _SUITE_KEYS}))
    resolved["command"] = cmd
    resolved["schema_version"] = "1"
    return resolved


def _persist(resolved: dict, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    blob = json.dumps(resolved, sort_keys=True, indent=2)
    print(json.dumps(resolved, sort_keys=True))
    name = resolved["command"].replace("-", "_")
    with open(os.path.join(out_dir, f"{name}_config.json"), "w") as fh:
        fh.write(blob + "\n")


def _cmd_constants(cfg: dict, out_dir: str) -> int:
    from .constants import constants_table
    from .quadrature import _workers

    with _workers(cfg["threads"]):
        rows = constants_table(ns=tuple(cfg["ns"]), ms=tuple(cfg["ms"]),
                               budget=cfg["budget"], seed=cfg["seed"])
    table = [[r.name, r.closed_form,
              "" if r.cross_check is None else r.cross_check,
              "" if r.rel_gap is None else r.rel_gap,
              json.dumps(r.inputs, sort_keys=True, default=str)]
             for r in rows]
    path = os.path.join(out_dir, "constants.csv")
    _write_csv(path, ["name", "closed_form", "cross_check", "rel_gap",
                      "inputs"], table)
    print(f"wrote {path} ({len(table)} rows)")
    return 0


def _cmd_deriv_check(cfg: dict, out_dir: str) -> int:
    from concurrent.futures import ThreadPoolExecutor
    from .geometry import Box
    from .fields import random_laplace_one, random_heat_one, random_caloric
    from .averages import (ball_average_fd, deriv1_rhs, heatball_average_fd,
                           deriv2_rhs)
    from .quadrature import agreement

    op, n = cfg["op"], cfg["n"]
    if cfg["fields"] < 1:
        raise UsageError("--fields must be at least 1")
    rows = []
    failed = False
    if op == "laplace":
        domain = Box((0.0,) * n, (1.0,) * n)
        center = (0.5,) * n
        if n == 2:
            make = [(f"laplace-one[{i}]",
                     random_laplace_one(cfg["seed"] + i, domain=domain))
                    for i in range(cfg["fields"])]
        else:
            from .fields import quadratic_field, polynomial_field

            make = [("quadratic", quadratic_field(n, center=center,
                                                  domain=domain)),
                    ("quartic", polynomial_field(
                        {tuple(4 if j == 0 else 0 for j in range(n)): 1.0},
                        dim=n, domain=domain))]
        fd_fn, rhs_fn = ball_average_fd, deriv1_rhs
    else:
        domain = Box((0.0,) * (n + 1), (1.0,) * (n + 1))
        center = (0.5,) * n + (0.9,)
        make = [(f"heat-one[{i}]",
                 random_heat_one(cfg["seed"] + i, n=n, domain=domain))
                for i in range(max(1, cfg["fields"] - 1))]
        make.append(("caloric", random_caloric(cfg["seed"] + 99, n=n,
                                               domain=domain)))
        fd_fn, rhs_fn = heatball_average_fd, deriv2_rhs

    cases = [(label, u, r) for label, u in make for r in cfg["r_list"]]

    def column(fn):
        # A ValueError ends the column and stands in for its estimate.
        out = []
        for _, u, r in cases:
            try:
                out.append(fn(u, center, r, budget=cfg["budget"],
                              seed=cfg["seed"]))
            except ValueError as exc:
                out.append(exc)
                break
        return out

    # Each call seeds its own generator, so order does not change a result.
    # The fd column runs on one worker; the rhs calls, which peak higher,
    # stay on this thread, since a worker keeps its malloc arena at its peak.
    if cfg["threads"] > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(column, fd_fn)
            rhss = column(rhs_fn)
            fds = pending.result()
    else:
        fds, rhss = column(fd_fn), column(rhs_fn)
    # In case order, fd before rhs: the error a serial run meets first.
    for (label, _, r), fd, rhs in zip(cases, fds, rhss):
        for est in (fd, rhs):
            if isinstance(est, ValueError):
                raise est
        diff, tol = agreement(fd, rhs, 1e-3 * abs(rhs.value))
        ok = diff <= tol
        failed |= not ok
        rows.append([op, n, label, float(r), fd.value, fd.std_error,
                     rhs.value, rhs.std_error, diff, tol, ok])
    path = os.path.join(out_dir, "deriv_check.csv")
    _write_csv(path, ["op", "n", "field", "r", "fd", "fd_se", "rhs", "rhs_se",
                      "diff", "tol", "passed"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 1 if failed else 0


def _cmd_mvi_check(cfg: dict, out_dir: str) -> int:
    from .geometry import Box, euclidean_system
    from .fields import random_harmonic, random_caloric
    from .averages import (check_mvi, check_pmvi, check_concave_mvi,
                           check_modified_heatball_mvi)

    square = Box((0.0, 0.0), (1.0, 1.0))
    sysE = euclidean_system(2)
    C = 1.0 / math.pi
    kind = cfg["kind"]
    if kind == "modified":
        u = random_caloric(cfg["seed"], n=1, domain=square)
        centers = [(0.3, 0.9), (0.5, 0.9), (0.7, 0.9)]
        rep = check_modified_heatball_mvi(u, cfg["m"], centers,
                                          budget=cfg["budget"],
                                          seed=cfg["seed"])
    else:
        u = random_harmonic(cfg["seed"], domain=square)
        if kind == "plain":
            rep = check_mvi(u, sysE, C, trials=cfg["trials"],
                            seed=cfg["seed"],
                            samples_per_trial=cfg["samples"])
        elif kind == "power":
            rep = check_pmvi(u, sysE, C, cfg["p"], trials=cfg["trials"],
                             seed=cfg["seed"],
                             samples_per_trial=cfg["samples"])
        else:
            # --phi names the concave map t^a by its exponent a
            a = {"sqrt": 0.5, "identity": 1.0, "t075": 0.75}[cfg["phi"]]
            rep = check_concave_mvi(u, sysE, C, a,
                                    trials=cfg["trials"], seed=cfg["seed"],
                                    samples_per_trial=cfg["samples"])
    header = ["kind", "constant", "trials", "violations", "worst_margin",
              "seed"]
    row = [getattr(rep, k) for k in header]
    _write_csv(os.path.join(out_dir, "mvi_check.csv"), header, [row])
    _append_csv(os.path.join(out_dir, "mvi_audit.csv"), header, row)
    print(f"{rep.kind}: violations={rep.violations}/{rep.trials} "
          f"worst_margin={rep.worst_margin!r}")
    return 0 if rep.violations == 0 else 1


def _cmd_counterexample(cfg: dict, out_dir: str) -> int:
    from .counterexamples import assemble_ccw_witness
    from .quadrature import _workers

    if cfg["construction"] != "ccw":
        raise UsageError(f"unknown construction {cfg['construction']!r}")
    try:
        delta = Fraction(cfg["delta"])
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad delta {cfg['delta']!r}: {exc}")
    with _workers(cfg["threads"]):
        wit = assemble_ccw_witness(delta, degree=cfg["degree"],
                                   samples_per_rect=cfg["samples_per_rect"],
                                   seed=cfg["seed"], budget=cfg["budget"])
    ok = wit["passed"]
    comb = wit["comb"]
    rows = [[str(comb.delta), wit["degree"], comb.count, comb.measure,
             wit["residual"], wit["target_bound"], wit["tau"],
             wit["laplacian_max_err"], wit["sublevel_measure"],
             wit["sublevel_se"], wit["comb_grid_within_tau"], ok]]
    path = os.path.join(out_dir, "counterexample.csv")
    _write_csv(path, ["delta", "degree", "rects", "comb_measure", "residual",
                      "target_bound", "tau", "laplacian_max_err",
                      "sublevel_measure", "sublevel_se", "grid_within_tau",
                      "passed"], rows)
    summary = {"schema_version": "1", "construction": "ccw",
               "delta": str(comb.delta),
               "comb_measure_exact": str(comb.measure_exact),
               "rects": comb.count, "degree": wit["degree"],
               "residual": wit["residual"], "tau": wit["tau"],
               "laplacian_max_err": wit["laplacian_max_err"],
               "sublevel_measure": wit["sublevel_measure"],
               "sublevel_se": wit["sublevel_se"], "passed": ok,
               "seed": cfg["seed"]}
    jpath = os.path.join(out_dir, "counterexample.json")
    with open(jpath, "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path} and {jpath}; passed={ok}")
    return 0 if ok else 1


def _cmd_pmeans(cfg: dict, out_dir: str) -> int:
    from .geometry import Box
    from .fields import monomial_field, random_laplace_one
    from .quadrature import _workers, pmean_grid

    if cfg["family"] == "monomial":
        f = monomial_field(cfg["k"])
        region = f.domain
    else:
        region = Box((0.0, 0.0), (1.0, 1.0))
        f = random_laplace_one(cfg["seed"], domain=region)
    with _workers(cfg["threads"]):
        reports = pmean_grid(f.fn, region, cfg["p_list"],
                             budget=cfg["budget"], seed=cfg["seed"])
    rows = [[cfg["family"], cfg["k"], r.p, r.value, r.divergent, r.std_error,
             r.samples, r.method] for r in reports]
    path = os.path.join(out_dir, "pmeans.csv")
    _write_csv(path, ["family", "k", "p", "value", "divergent", "std_error",
                      "samples", "method"], rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_suite(cfg: dict, out_dir: str) -> int:
    from .verify import run_suite

    name = cfg["suite"]
    if not name:
        raise UsageError("suite name is required")
    try:
        result = run_suite(name, {k: cfg[k] for k in _SUITE_KEYS})
    except ValueError as exc:
        raise UsageError(str(exc))
    path = os.path.join(out_dir, f"suite_{name}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(result.as_dict(), sort_keys=True, indent=2) + "\n")
    for c in result.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.statement} "
              f"margin={c.margin!r} seed={c.seed}")
    print(f"suite {name}: {'PASS' if result.overall else 'FAIL'} "
          f"({len(result.checks)} checks) -> {path}")
    return 0 if result.overall else 1


_HANDLERS = {
    "constants": _cmd_constants,
    "deriv-check": _cmd_deriv_check,
    "mvi-check": _cmd_mvi_check,
    "counterexample": _cmd_counterexample,
    "pmeans": _cmd_pmeans,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        resolved = _resolve(args)
        out_dir = args.out_dir
        persisted = {k: v for k, v in resolved.items() if v is not None}
        _persist(persisted, out_dir)
        code = _HANDLERS[args.command](resolved, out_dir)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
