"""End-to-end acceptance battery.

Each criterion is one test that prints a single PASS/FAIL line (visible
under pytest -s or in the captured output of a failure) and then asserts.
Tolerances and budgets are part of the contract and are stated inline.
"""
import math
import time
from fractions import Fraction

import numpy as np

from lpbounds.averages import (ball_average_fd, check_pmvi, claim_laplace_drop,
                               deriv1_rhs, deriv2_rhs, heatball_average,
                               heatball_average_fd)
from lpbounds.cli import main
from lpbounds.constants import (assemble_cp_heat, assemble_cp_laplace,
                                kappa_max, pmean_to_sublevel_bound,
                                sublevel_to_pmean_bound)
from lpbounds.counterexamples import (assemble_ccw_witness, build_comb,
                                      hessian_family_check)
from lpbounds.fields import (_heat_terms, monomial_field,
                             polynomial_field, quadratic_field,
                             random_harmonic, random_heat_one,
                             random_laplace_one)
from lpbounds.geometry import Box, euclidean_system
from lpbounds.quadrature import integrate, measure, pmean

SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _norm_upper(u, region, p: float, budget: int, seed: int) -> float:
    """(integral + 3 SE)^{1/p} upper confidence quasinorm."""
    res = integrate(lambda pts: np.abs(np.asarray(u.fn(pts))) ** p, region,
                    budget=budget, seed=seed)
    return (res.value + 3.0 * res.std_error) ** (1.0 / p)


def test_criterion_01_ball_average_derivative():
    # d/dr of the ball average vs the exact-Laplacian formula, 10 fields
    # (five 2-d, five 3-d with polynomial Hessians), 5 radii, 1e5/integral
    start = time.monotonic()
    fields = [random_laplace_one(s) for s in range(5)]
    fields += [
        quadratic_field(3),
        polynomial_field({(2, 0, 0): 1.0, (0, 1, 2): 0.5, (1, 1, 1): 0.25}),
        polynomial_field({(4, 0, 0): 1.0, (0, 2, 0): -0.5, (0, 0, 2): 0.75}),
        polynomial_field({(2, 2, 0): 1.0, (0, 0, 3): 0.2, (1, 0, 1): -0.4}),
        polynomial_field({(3, 1, 0): 0.5, (1, 0, 2): 1.0, (0, 2, 1): -0.3}),
    ]
    radii = (0.1, 0.15, 0.2, 0.25, 0.3)
    ok = True
    slack = math.inf
    for i, u in enumerate(fields):
        # the 2-d family carries the unit square; balls must stay inside
        center = np.full(u.dim, 0.5) if u.dim == 2 else np.zeros(u.dim)
        for j, r in enumerate(radii):
            fd = ball_average_fd(u, center, r, budget=100_000,
                                 seed=100 * i + j)
            rhs = deriv1_rhs(u, center, r, budget=100_000,
                             seed=7000 + 100 * i + j)
            tol = max(3.0 * math.hypot(fd.std_error, rhs.std_error),
                      1e-3 * max(abs(fd.value), abs(rhs.value)))
            gap = abs(fd.value - rhs.value)
            ok = ok and gap <= tol
            slack = min(slack, tol - gap)
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 60.0
    assert _verdict(1, ok, f"ball-average derivative, 10 fields x 5 radii, "
                           f"min slack {slack:.2e}, {elapsed:.1f}s <= 60s")


def test_criterion_02_heatball_average_derivative():
    # same contract for heatball averages, n in {1,2,3}; each n carries two
    # fields with Hu == 1 and one temperature, whose formula value must sit
    # within 3 SE of zero (floor 1e-10 covers exact-cancellation rows)
    start = time.monotonic()
    ok = True
    slack = math.inf
    temp_worst = 0.0
    for n in (1, 2, 3):
        rows = [(random_heat_one(3 * n, n=n), False),
                (random_heat_one(3 * n + 1, n=n), False),
                (polynomial_field(_heat_terms(3, 0, n + 1)), True)]
        # heatballs at r = 0.7 reach ~0.3 spatially and ~0.04 into the past,
        # so this center keeps them inside the unit spacetime box
        center = np.array([0.5] * n + [0.95])
        for i, (u, temperature) in enumerate(rows):
            for j, r in enumerate((0.3, 0.4, 0.5, 0.6, 0.7)):
                seed = 10_000 * n + 100 * i + j
                fd = heatball_average_fd(u, center, r, budget=100_000,
                                         seed=seed)
                rhs = deriv2_rhs(u, center, r, budget=100_000,
                                 seed=seed + 50)
                tol = max(3.0 * math.hypot(fd.std_error, rhs.std_error),
                          1e-3 * max(abs(fd.value), abs(rhs.value)))
                gap = abs(fd.value - rhs.value)
                ok = ok and gap <= tol
                slack = min(slack, tol - gap)
                if temperature:
                    zero_tol = max(3.0 * rhs.std_error, 1e-10)
                    ok = ok and abs(rhs.value) <= zero_tol
                    temp_worst = max(temp_worst, abs(rhs.value))
    elapsed = time.monotonic() - start
    ok = ok and elapsed <= 300.0
    assert _verdict(2, ok, f"heatball derivative, 9 fields x 5 radii, "
                           f"min slack {slack:.2e}, temperature max |rhs| "
                           f"{temp_worst:.1e}, {elapsed:.1f}s <= 300s")


def test_criterion_03_heatball_normalization():
    ok = True
    worst = 0.0
    for n in (1, 2, 3):
        one = polynomial_field({(0,) * (n + 1): 1.0}, dim=n + 1)
        for r in (0.5, 1.0):
            res = heatball_average(one, np.zeros(n + 1), r,
                                   budget=200_000, seed=17 * n + int(2 * r))
            z = abs(res.value - 1.0) / max(res.std_error, 1e-300)
            ok = ok and z <= 3.0
            worst = max(worst, z)
    assert _verdict(3, ok, f"heat-average of 1 is 1, n in 1..3, "
                           f"r in (0.5, 1), worst |z| = {worst:.2f} <= 3")


def test_criterion_04_kappa_max_grid():
    ok = True
    worst_gap = 0.0
    worst_s = 0.0
    for m in (3, 4, 5, 6):
        for n in (1, 2, 3):
            rep = kappa_max(m, n)
            s_gap = abs(rep.inputs["s_star_numeric"] - rep.inputs["s_star"])
            ok = ok and rep.rel_gap <= 1e-6 and s_gap <= 1e-8
            worst_gap = max(worst_gap, rep.rel_gap)
            worst_s = max(worst_s, s_gap)
    assert _verdict(4, ok, f"kappa_max (m,n) in 3..6 x 1..3, worst relGap "
                           f"{worst_gap:.1e} <= 1e-6, worst |s*-s| "
                           f"{worst_s:.1e} <= 1e-8")


def test_criterion_05_laplace_drop():
    # u <= sup u - R^2/8 on the inner parallel set, R = 0.2, n = 2
    ok = True
    worst = math.inf
    for s in range(20):
        u = random_laplace_one(1000 + s, domain=SQUARE)
        rep = claim_laplace_drop(u, SQUARE, 0.2, n_points=1000, seed=s)
        ok = ok and rep["violations"] == 0
        worst = min(worst, rep["worst_margin"])
    assert _verdict(5, ok, f"interior drop 0.2^2/8, 20 fields x 1000 points, "
                           f"0 violations, min margin {worst:.2e}")


def test_criterion_06_pmvi_harmonic_positive_parts():
    sys2 = euclidean_system(2)
    ok = True
    total = 0
    for s in range(20):
        h = random_harmonic(2000 + s, domain=SQUARE)
        for p in (0.25, 0.5, 0.75):
            rep = check_pmvi(h, sys2, 1.0 / math.pi, p, trials=1000, seed=s)
            ok = ok and rep.violations == 0
            total += rep.violations
    assert _verdict(6, ok, f"p-MVI on 20 harmonic positive parts, p in "
                           f"(1/4, 1/2, 3/4), 1000 trials each, "
                           f"{total} violations")


def test_criterion_07_assembled_constants():
    ok = True
    floor = math.inf
    lap = {}
    for p in (0.25, 0.5, 0.75):
        rep = assemble_cp_laplace(SQUARE, p)
        ok = ok and rep.closed_form > 0.0
        lap[p] = rep.closed_form
    for s in range(20):
        u = random_laplace_one(3000 + s, domain=SQUARE)
        for p, cp in lap.items():
            hi = _norm_upper(u, SQUARE, p, 100_000, s)
            ok = ok and hi >= cp
            floor = min(floor, hi / cp)
    heat = {}
    for p in (0.25, 0.5, 0.75):
        rep = assemble_cp_heat(SQUARE, p)
        ok = ok and rep.closed_form > 0.0
        heat[p] = rep.closed_form
    for s in range(20):
        u = random_heat_one(4000 + s, n=1, domain=SQUARE)
        for p, cp in heat.items():
            hi = _norm_upper(u, SQUARE, p, 100_000, s)
            ok = ok and hi >= cp
            floor = min(floor, hi / cp)
    assert _verdict(7, ok, f"c_p > 0 and 20+20 field norms clear it "
                           f"(laplace n=2, heat m=3 n=1), min ratio "
                           f"{floor:.1e}")


def test_criterion_08_hessian_family():
    reps = {N: hessian_family_check(N, 0.1) for N in (10, 100, 1000)}
    ok = all(reps[N]["max_rel_err"] <= 1e-11 for N in (10, 100))
    ok = ok and reps[100]["sup_bound"] < 0.1
    ok = ok and reps[100]["superlevel_empty"]
    ok = ok and reps[100]["superlevel_empty_on_grid"]
    r1 = reps[10]["sup_grid"] / reps[100]["sup_grid"]
    r2 = reps[100]["sup_grid"] / reps[1000]["sup_grid"]
    ok = ok and 9.5 <= r1 <= 10.5 and 9.5 <= r2 <= 10.5
    assert _verdict(8, ok, f"det(-Hess u_N) = e^2x to "
                           f"{max(reps[10]['max_rel_err'], reps[100]['max_rel_err']):.1e}, "
                           f"superlevel empty at N=100, decade ratios "
                           f"{r1:.2f}, {r2:.2f}")


def test_criterion_09_comb_witness():
    ok = True
    for den in (4, 8, 16, 32):
        d = Fraction(1, den)
        comb = build_comb(d)
        ok = ok and comb.measure > 1 - 2 * d  # exact rational comparison
    d = Fraction(1, 8)
    w = assemble_ccw_witness(d, 12, budget=200_000)
    ok = ok and w["laplacian_max_err"] <= 1e-8
    ok = ok and math.isclose(w["tau"], w["residual"] + float(d + d * d / 8),
                             rel_tol=1e-12)
    ok = ok and w["comb_grid_within_tau"]
    guarded = w["sublevel_measure"] + 3.0 * w["sublevel_se"]
    ok = ok and guarded >= float(w["comb_measure"])
    assert _verdict(9, ok, f"comb measure > 1-2d for four dyadic d; witness "
                           f"lap err {w['laplacian_max_err']:.1e}, sublevel "
                           f"{guarded:.4f} >= {float(w['comb_measure']):.4f}")


def test_criterion_10_conversions():
    interval = Box((0.0,), (1.0,))
    ok = True
    for k in (1, 2, 3):
        u = monomial_field(k)
        p = -1.0 / (2.0 * k)
        exact_mean = 2.0 ** (-2 * k)  # (integral x^{kp})^{1/p}, kp = -1/2
        pm = pmean(u, interval, p, budget=200_000, seed=20 + k)
        ok = ok and not pm.divergent
        ok = ok and abs(pm.value - exact_mean) <= max(5.0 * pm.std_error,
                                                      0.05 * exact_mean)
        lower = sublevel_to_pmean_bound(1.0, 1.0 / k, p, 1.0)
        ok = ok and lower <= exact_mean * (1.0 + 1e-12)
        ok = ok and lower <= pm.value + 3.0 * pm.std_error
        for eps in (0.05, 0.1, 0.2):
            cap = pmean_to_sublevel_bound(exact_mean, p, 1.0, eps)
            mu = measure(interval,
                         lambda pts: np.abs(u.fn(pts)) <= eps,
                         budget=100_000, seed=int(1000 * eps) + k)
            ok = ok and cap >= eps ** (1.0 / k)  # exact sublevel measure
            ok = ok and cap >= mu.value - 3.0 * mu.std_error
        div = pmean(u, interval, -1.0 / k, budget=200_000, seed=30 + k)
        ok = ok and div.divergent and div.value == 0.0
    assert _verdict(10, ok, "x^k conversions, k in 1..3: bounds dominate "
                            "measured and exact values; p = -1/k reports "
                            "divergent 0")


def test_criterion_11_cli_determinism(tmp_path):
    runs = (
        ["pmeans", "--k", "2", "--p=-0.5,0,1,2", "--budget", "20000"],
        ["deriv-check", "--op", "laplace", "--n", "2", "--fields", "1",
         "--r", "0.2", "--budget", "20000"],
        ["constants", "--n", "1,2", "--m", "3,4", "--budget", "20000"],
    )
    files = ("pmeans.csv", "deriv_check.csv", "constants.csv")
    ok = True
    for args, name in zip(runs, files):
        a = tmp_path / f"a-{name}"
        b = tmp_path / f"b-{name}"
        ok = ok and main([*args, "--out-dir", str(a)]) == 0
        ok = ok and main([*args, "--out-dir", str(b)]) == 0
        ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    assert _verdict(11, ok, "pmeans, deriv-check, constants reruns are "
                            "byte-identical CSV")
