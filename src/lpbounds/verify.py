"""Named verification suites bundling the library's checks.

Each suite runs a fixed list of statements and reports pass/fail with a
numeric margin (positive = slack before failure) and the seed that
reproduces the statement.  A statement's seed is (config seed +
crc32(statement id)) mod 2^31, so a single check can be re-run in
isolation.  Two exceptions: 30 deterministic checks of constants-audit and
counterexamples (the k-laplace, regression, kappa, bracket-max, table-shape,
comb, target-bound and hessian-family ids) record the config seed, and
prop-general/l1-lower[field=i] records the seed of the field it integrates,
prop-general/field[i].  Other deterministic checks, such as the
closed-form MVI constants, l1-linear/du-at-least-one[*] and the
cp-positive ids, record the derived seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial

import numpy as np

from .geometry import (Box, Heatball, _lattice, euclidean_system,
                       unit_ball_volume)
from .fields import (
    ScalarField,
    polynomial_field,
    quadratic_field,
    monomial_field,
    neg_time_field,
    random_laplace_one,
    random_heat_one,
    random_harmonic,
    random_caloric,
    laplacian_operator,
    mixed_xy_operator,
)
from .quadrature import (_workers, integrate, measure, pmean, pmean_grid,
                         box_gauss, agreement)
from .averages import (
    SMAX,
    ball_average,
    ball_average_fd,
    deriv1_rhs,
    heatball_average,
    heatball_average_fd,
    deriv2_rhs,
    modified_heatball_average,
    heatball_unit_volume,
    dense_box_sup,
    pmvi_constant,
    concave_mvi_constant,
    sample_admissible,
    check_mvi,
    check_pmvi,
    check_concave_mvi,
    check_modified_heatball_mvi,
    claim_laplace_drop,
    claim_heat_drop,
)
from .constants import (
    k_laplace,
    k_heat,
    k_heat_value,
    heatball_unit_volume_exact,
    heatball_unit_volume_quad,
    kappa,
    kappa_max_value,
    kappa_max,
    bracket_max,
    adjoint_constant,
    adjoint_constant_value,
    assemble_cp_laplace,
    assemble_cp_heat,
    sublevel_to_pmean_bound,
    pmean_to_sublevel_bound,
    constants_table,
)
from .counterexamples import (
    build_comb,
    ccw_target,
    fit_harmonic,
    assemble_ccw_witness,
    hessian_family_check,
    lift_check,
)

__all__ = ["CheckResult", "SuiteResult", "SUITE_NAMES", "default_config",
           "run_suite"]

_DEFAULTS = {
    "seed": 0,
    "budget": 100_000,
    "trials": 200,
    "samples": 1024,
    "fields": 4,
    "p_list": (0.25, 0.5, 0.75),
    "threads": 1,
}


@dataclass(frozen=True)
class CheckResult:
    statement: str
    passed: bool
    margin: float
    seed: int

    def as_dict(self) -> dict:
        return {"statement": self.statement, "passed": bool(self.passed),
                "margin": float(self.margin), "seed": int(self.seed)}


@dataclass
class SuiteResult:
    name: str
    checks: list[CheckResult]
    config: dict
    config_hash: str = ""
    overall: bool = dc_field(init=False)

    def __post_init__(self):
        self.overall = all(c.passed for c in self.checks)
        if not self.config_hash:
            self.config_hash = _config_hash(self.config)

    def as_dict(self) -> dict:
        return {"schema_version": "1", "suite": self.name,
                "overall": self.overall, "config": dict(self.config),
                "config_hash": self.config_hash,
                "checks": [c.as_dict() for c in self.checks]}


def default_config(overrides: dict | None = None) -> dict:
    cfg = {k: (list(v) if isinstance(v, tuple) else v)
           for k, v in _DEFAULTS.items()}
    if overrides:
        unknown = set(overrides) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for k, v in overrides.items():
            if v is not None:
                cfg[k] = list(v) if isinstance(v, tuple) else v
    cfg["seed"] = int(cfg["seed"])
    cfg["budget"] = int(cfg["budget"])
    cfg["trials"] = int(cfg["trials"])
    cfg["samples"] = int(cfg["samples"])
    cfg["fields"] = int(cfg["fields"])
    cfg["threads"] = int(cfg["threads"])
    if cfg["threads"] < 1:
        raise ValueError("threads must be at least 1")
    cfg["p_list"] = [float(p) for p in cfg["p_list"]]
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _unit_square() -> Box:
    return Box((0.0, 0.0), (1.0, 1.0))


def _const_field(value: float, dim: int, domain: Box | None = None) -> ScalarField:
    return polynomial_field({(0,) * dim: value}, dim=dim, domain=domain,
                            name=f"const-{value:g}")


def _guarded_norm(u, region, p: float, budget: int, seed: int) -> float:
    """(integral of |u|^p + 3 SE)^{1/p}, an upper confidence quasinorm."""
    res = integrate(lambda pts: np.abs(np.asarray(u.fn(pts))) ** p, region,
                    budget=budget, seed=seed)
    return max(res.ci()[1], 0.0) ** (1.0 / p)


def _agree(est, target, floor: float = 0.0) -> tuple[bool, float]:
    """(passed, margin) of quadrature.agreement: margin is tol - diff."""
    diff, tol = agreement(est, target, floor)
    return diff <= tol, tol - diff


def _worst(values) -> float:
    """np.max as a float: unlike the builtin max, it keeps a NaN."""
    return float(np.max(values))


# --- suites -----------------------------------------------------------------


def _suite_lp_thm(cfg, seed, heat=False):
    """End-to-end L^p lower bound for Delta u >= 1 on the unit square or, with
    heat=True, for Hu >= 1 on the unit spacetime square."""
    name = "heat-thm" if heat else "laplace-thm"
    random_field = partial(random_heat_one, n=1) if heat else random_laplace_one
    budget = cfg["budget"]
    square = _unit_square()
    for p in cfg["p_list"]:
        sid = f"{name}/cp-positive[p={p:g}]"
        rep = (assemble_cp_heat(square, p) if heat
               else assemble_cp_laplace(square, p))
        cp = rep.closed_form
        yield sid, cp > 0.0, cp
        for i in range(cfg["fields"]):
            sid = f"{name}/lp-lower[p={p:g},field={i}]"
            u = random_field(seed(sid), domain=square)
            hi = _guarded_norm(u, square, p, budget, seed(sid))
            yield sid, hi >= cp, hi - cp


def _suite_l1_linear(cfg, seed):
    """||u||_1 >= c for Du >= 1, D = d^2/dxdy, via the adjoint test constant."""
    budget = cfg["budget"]
    square = _unit_square()
    D = mixed_xy_operator()
    sid = "l1-linear/adjoint-constant"
    rep = adjoint_constant(D, square, (0.5, 0.5), budget, seed(sid))
    c = rep.closed_form
    yield sid, c > 0.0 and (rep.rel_gap is None or rep.rel_gap < 0.05), c

    cases = [
        ("xy", {(1, 1): 1.0}),
        ("xy+x2y2/4", {(1, 1): 1.0, (2, 2): 0.25}),
        ("xy+x3y/6", {(1, 1): 1.0, (3, 1): 1.0 / 6.0}),
    ]
    xs = np.linspace(0.0, 1.0, 41)
    grid = _lattice([xs, xs])
    for label, coeffs in cases:
        u = polynomial_field(coeffs, dim=2, domain=square, name=label)
        sid = f"l1-linear/du-at-least-one[{label}]"
        dmin = float(np.min(D.apply(u, grid)))
        yield sid, dmin >= 1.0 - 1e-12, dmin - 1.0

        sid = f"l1-linear/l1-lower[{label}]"
        res = integrate(lambda pts: np.abs(u.fn(pts)), square,
                        budget=budget, seed=seed(sid))
        gauss = box_gauss(lambda pts: np.abs(u.fn(pts)), square)
        diff, tol = agreement(res, gauss.value, 1e-6)
        hi = res.ci()[1]
        yield sid, hi >= c and diff <= tol, hi - c


def _suite_prop_general(cfg, seed):
    """The L^1 -> (L^p, superlevel) chain, including the p = inf form:
    ||u||_inf |{|u| >= c'}| >= c' with c' = c/2, eps = c/(2|Omega|)."""
    budget = cfg["budget"]
    square = _unit_square()
    D = laplacian_operator(2)
    sid = "prop-general/adjoint-constant"
    c = adjoint_constant_value(D, square, (0.5, 0.5), 0.4, budget, seed(sid))
    yield sid, c > 0.0, c
    eps = c / (2.0 * square.measure)
    cprime = c / 2.0

    for i in range(max(2, cfg["fields"] // 2)):
        # field i, its L^1 integral and its superlevel measure share a seed
        fid = f"prop-general/field[{i}]"
        u = random_laplace_one(seed(fid), domain=square)
        sid = f"prop-general/l1-lower[field={i}]"
        res = integrate(lambda pts: np.abs(u.fn(pts)), square,
                        budget=budget, seed=seed(fid))
        hi = res.ci()[1]
        yield sid, hi >= c, hi - c, seed(fid)

        mu = measure(square, lambda pts: np.abs(u.fn(pts)) >= eps,
                     budget=budget, seed=seed(fid) + 1)
        mu_hi = mu.ci()[1]
        sup = dense_box_sup(u, square, interior=96, edge=4097)
        for p in (1.0, 2.0, math.inf):
            sid = f"prop-general/holder-chain[p={p:g},field={i}]"
            if math.isinf(p):
                lhs = sup * mu_hi
            elif p == 1.0:
                lhs = hi
            else:
                norm_hi = _guarded_norm(u, square, p, budget, seed(sid))
                lhs = norm_hi * mu_hi ** (1.0 - 1.0 / p)
            yield sid, lhs >= cprime, lhs - cprime


def _suite_claims(cfg, seed):
    """Sup drop on shrunken domains: R^2/(2n+4) inside boxes for
    Delta u >= 1, K_n R^2 inside spacetime boxes for Hu >= 1."""
    square = _unit_square()
    for i in range(max(2, cfg["fields"] // 2)):
        for R in (0.1, 0.2):
            sid = f"claims/laplace-drop[R={R:g},field={i}]"
            u = random_laplace_one(seed(sid), domain=square)
            rep = claim_laplace_drop(u, square, R, n_points=1000,
                                     seed=seed(sid))
            yield sid, rep["violations"] == 0, rep["worst_margin"]
    for i in range(2):
        sid = f"claims/heat-drop[R=0.3,field={i}]"
        u = random_heat_one(seed(sid), n=1, domain=square)
        rep = claim_heat_drop(u, square, 0.3, n_points=1000, seed=seed(sid))
        yield sid, rep["violations"] == 0, rep["worst_margin"]


def _i_psi(n: int) -> float:
    """int_{E(1)} log Phi_n dy ds, by the exact slice formula."""
    a = n / 2.0
    # Gamma(a + 2) = (a + 1) a ... down to Gamma(1) = 1 or to
    # Gamma(1/2) = sqrt(pi); the product of halves is exact, so for odd n
    # the value is rounded once (Gamma(5/2) = 0.75 sqrt(pi))
    gamma = np.prod(np.arange(a + 1.0, 0.0, -1.0))
    if n % 2:
        gamma *= math.sqrt(math.pi)
    return (unit_ball_volume(n) * n / (n + 2) * (2.0 * n) ** (n / 2.0)
            * SMAX ** (a + 1.0) * gamma / (a + 1.0) ** (a + 2.0))


def _suite_deriv_formulas(cfg, seed):
    """Both derivative identities, their closed-form special cases, and the
    normalization/continuity of the average families."""
    budget = cfg["budget"]
    square = _unit_square()

    sid = "deriv/ball-average-quadratic"
    sq = quadratic_field(2, coeff=1.0)
    res = ball_average(sq, (0.0, 0.0), 0.3, budget=budget, seed=seed(sid))
    yield sid, *_agree(res, 2 * 0.3**2 / 4.0, 1e-9)

    sid = "deriv/ball-rhs-quadratic"
    res = deriv1_rhs(sq, (0.0, 0.0), 0.3, budget=budget, seed=seed(sid))
    yield sid, *_agree(res, 2 * 2 * 0.3 / 4.0, 1e-9)

    for i in range(max(2, cfg["fields"] // 2)):
        for r in (0.1, 0.2):
            sid = f"deriv/ball-fd-vs-rhs[r={r:g},field={i}]"
            u = random_laplace_one(seed(sid), domain=square)
            fd = ball_average_fd(u, (0.5, 0.5), r, budget=budget,
                                 seed=seed(sid))
            rhs = deriv1_rhs(u, (0.5, 0.5), r, budget=budget, seed=seed(sid))
            yield sid, *_agree(fd, rhs, 1e-3 * abs(rhs.value))

    for n in (1, 2):
        sid = f"deriv/heatball-normalization[n={n}]"
        one = _const_field(1.0, n + 1)
        res = heatball_average(one, (0.0,) * (n + 1), 0.7,
                               budget=budget, seed=seed(sid))
        yield sid, *_agree(res, 1.0, 1e-9)

    ipsi = _i_psi(1)
    sid = "deriv/heatball-neg-time-value"
    nt = neg_time_field(1)
    res = heatball_average(nt, (0.0, 0.0), 1.0, budget=budget, seed=seed(sid))
    yield sid, *_agree(res, ipsi / 2.0, 1e-9)

    sid = "deriv/heatball-neg-time-rhs"
    res = deriv2_rhs(nt, (0.0, 0.0), 1.0, budget=budget, seed=seed(sid))
    yield sid, *_agree(res, ipsi, 1e-9)

    for i in range(2):
        sid = f"deriv/heatball-fd-vs-rhs[field={i}]"
        u = random_heat_one(seed(sid), n=1, domain=square)
        fd = heatball_average_fd(u, (0.5, 0.9), 0.3, budget=budget,
                                 seed=seed(sid))
        rhs = deriv2_rhs(u, (0.5, 0.9), 0.3, budget=budget, seed=seed(sid))
        yield sid, *_agree(fd, rhs, 1e-3 * abs(rhs.value))

    sid = "deriv/temperature-rhs-zero"
    w = random_caloric(seed(sid), n=1, domain=square)
    res = deriv2_rhs(w, (0.5, 0.9), 0.3, budget=budget, seed=seed(sid))
    yield sid, *_agree(res, 0.0, 1e-12)

    sid = "deriv/family-continuity"
    u = random_laplace_one(seed(sid), domain=square)
    at0 = float(u.fn(np.array([[0.5, 0.5]]))[0])
    res = ball_average(u, (0.5, 0.5), 0.05, budget=budget, seed=seed(sid))
    drift = abs(res.value - at0)
    yield sid, drift <= 5e-3, 5e-3 - drift


def _suite_mvi_family(cfg, seed):
    """Mean-value inequalities: plain, p-th power, concave, and the modified
    heat-ball form, with deliberately broken constants flagged."""
    budget = cfg["budget"]
    square = _unit_square()
    sysE = euclidean_system(2)
    v2 = math.pi
    sampling = {"trials": cfg["trials"], "samples_per_trial": cfg["samples"]}

    def harmonic(sid):
        return random_harmonic(seed(sid), domain=square)

    sid = "mvi/plain-harmonic"
    rep = check_mvi(harmonic(sid), sysE, 1.0 / v2, seed=seed(sid),
                    **sampling)
    yield sid, rep.violations == 0, rep.worst_margin

    sid = "mvi/plain-halved-constant-fails"
    one = _const_field(1.0, 2, domain=square)
    rep = check_mvi(one, sysE, 0.5 / v2, seed=seed(sid), **sampling)
    yield sid, rep.violations == rep.trials, -rep.worst_margin

    for p in cfg["p_list"]:
        sid = f"mvi/power[p={p:g}]"
        rep = check_pmvi(harmonic(sid), sysE, 1.0 / v2, p,
                         seed=seed(sid), **sampling)
        yield sid, rep.violations == 0, rep.worst_margin

    sid = "mvi/power-tiny-constant-fails"
    rep = check_pmvi(one, sysE, 1e-3, 0.5, seed=seed(sid), **sampling)
    yield sid, rep.violations == rep.trials, -rep.worst_margin

    sid = "mvi/pmvi-constant-closed-form"
    # 2 * 0.5^{-2} * (2 * 2^2)^{(1-p)/p} * C at p = 1/2 is 64 C exactly
    got = pmvi_constant(1.0 / v2, sysE, 0.5)
    err = abs(got - 64.0 / v2) / (64.0 / v2)
    yield sid, err <= 1e-12, 1e-12 - err

    sid = "mvi/concave-constant-closed-form"
    # c_phi = 2, K = 2, A = 2 give m = 3 doublings and the same 64 C
    got = concave_mvi_constant(1.0 / v2, sysE, 2.0)
    err = abs(got - 64.0 / v2) / (64.0 / v2)
    yield sid, err <= 1e-12, 1e-12 - err

    sid = "mvi/admissible-pairs-inside-domain"
    a, r = sample_admissible(sysE, square, cfg["trials"],
                             np.random.default_rng(seed(sid)))
    room = np.minimum(a, 1.0 - a).min(axis=1) - r
    ok = bool(np.all(r > 0) and np.all(room >= -1e-12))
    yield sid, ok, float(np.min(room))

    for label, a in (("sqrt", 0.5), ("identity", 1.0), ("t^0.75", 0.75)):
        sid = f"mvi/concave[{label}]"
        rep = check_concave_mvi(harmonic(sid), sysE, 1.0 / v2, a,
                                seed=seed(sid), **sampling)
        yield sid, rep.violations == 0, rep.worst_margin

    centers = [(0.5, 0.9)]
    sid = "mvi/modified-normalization"
    one3 = _const_field(1.0, 2)
    res = modified_heatball_average(one3, (0.0, 0.0), 1.0, m=3,
                                    budget=budget, seed=seed(sid))
    yield sid, *_agree(res, 1.0, 1e-9)

    sid = "mvi/modified-caloric"
    w = random_caloric(seed(sid), n=1, domain=square)
    rep = check_modified_heatball_mvi(w, 3, centers, budget=budget,
                                      seed=seed(sid))
    yield sid, rep.violations == 0, rep.worst_margin

    sid = "mvi/modified-subtemperature"
    sq = quadratic_field(2, center=(0.5, 0.0), coeff=0.5, spatial=True,
                         domain=square)
    rep = check_modified_heatball_mvi(sq, 3, centers, budget=budget,
                                      seed=seed(sid))
    yield sid, rep.violations == 0, rep.worst_margin

    sid = "mvi/modified-tenth-constant-fails"
    M = kappa_max_value(3, 1)
    rep = check_modified_heatball_mvi(one3, 3, centers, budget=budget,
                                      seed=seed(sid), constant=M / 10.0)
    yield sid, rep.violations == rep.trials, -rep.worst_margin


def _suite_constants_audit(cfg, seed):
    """Closed forms vs independent routes for every named constant."""
    budget, seed0 = cfg["budget"], cfg["seed"]

    for n, want in ((1, 1.0 / 6.0), (2, 0.125), (3, 0.1)):
        sid = f"constants/k-laplace[n={n}]"
        yield sid, k_laplace(n) == want, abs(k_laplace(n) - want), seed0

    for n in (1, 2, 3):
        sid = f"constants/heatball-volume[n={n}]"
        ex = heatball_unit_volume_exact(n)
        qd = heatball_unit_volume_quad(n)
        mc = heatball_unit_volume(n, budget=2 * budget, seed=seed(sid))
        ok, margin = _agree(mc, ex, 1e-12)
        yield sid, abs(ex - qd) <= 1e-9 * ex and ok, margin

    sid = "constants/heatball-volume-n1-regression"
    ex1 = heatball_unit_volume_exact(1)
    yield sid, abs(ex1 - 0.030628) <= 1e-5, 1e-5 - abs(ex1 - 0.030628), seed0

    sid = "constants/heatball-scaling"
    mc2 = measure(Heatball((0.0, 0.0), 2.0), budget=2 * budget, seed=seed(sid))
    yield sid, *_agree(mc2, 2.0**3 * ex1)

    for n in (1, 2):
        sid = f"constants/k-heat[n={n}]"
        rep = k_heat(n, budget=2 * budget, seed=seed(sid))
        ok = rep.closed_form > 0 and rep.rel_gap < 0.02
        yield sid, ok, 0.02 - rep.rel_gap

    sid = "constants/k-heat-n1-regression"
    kh = k_heat_value(1)
    yield sid, abs(kh - 7.6247e-4) <= 1e-7, 1e-7 - abs(kh - 7.6247e-4), seed0

    sid = "constants/kappa-boundary-zero"
    svals = np.array([0.2, 0.5, 0.9]) * SMAX
    vals = [0.0]
    for m, n in ((3, 1), (4, 2)):
        edges = np.zeros((len(svals), n))
        edges[:, 0] = np.sqrt(2.0 * (m + n) * svals * np.log(SMAX / svals))
        vals += list(np.abs(kappa(m, n, edges, svals)))
        top, apex = kappa(m, n, np.zeros((2, n)), np.array([SMAX, 0.0]))
        vals.append(abs(top))
        if apex != 0.0:
            vals.append(1.0)
    worst = _worst(vals)
    yield sid, worst <= 1e-12, 1e-12 - worst, seed0

    for m in (3, 4, 5, 6):
        for n in (1, 2, 3):
            sid = f"constants/kappa-max[m={m},n={n}]"
            rep = kappa_max(m, n)
            sgap = abs(rep.inputs["s_star_numeric"] - rep.inputs["s_star"])
            ok = (rep.rel_gap <= 1e-6 and sgap <= 1e-8
                  and rep.inputs["y_slice_monotone"])
            yield sid, ok, 1e-6 - rep.rel_gap, seed0

    sid = "constants/bracket-max-known-argmax"
    # the maximizer behind kappa_max, audited on s e^{-s} (argmax 1, max 1/e);
    # value comparisons at a flat peak cap argmax resolution near sqrt(eps)
    x, v = bracket_max(lambda t: t * np.exp(-t), 0.0, 5.0)
    err = _worst([abs(x - 1.0) * 1e-6, abs(v - math.exp(-1.0))])
    yield sid, err <= 1e-12, 1e-12 - err, seed0

    square = _unit_square()
    sid = "constants/adjoint-laplace"
    rep = adjoint_constant(laplacian_operator(2), square, (0.5, 0.5),
                           budget=budget, seed=seed(sid))
    ok = rep.closed_form > 0 and rep.rel_gap < 0.05
    yield sid, ok, 0.05 - rep.rel_gap

    sid = "constants/adjoint-scaling"
    small, big = (adjoint_constant_value(mixed_xy_operator(), square,
                                         (0.5, 0.5), radius, budget=budget,
                                         seed=seed(sid))
                  for radius in (0.2, 0.4))
    ratio = big / small
    gap = abs(ratio / 2.0 ** (2 + 2) - 1.0)
    yield sid, gap <= 1e-9, 1e-9 - gap

    sid = "constants/assemble-laplace-positive"
    cp = assemble_cp_laplace(square, 0.5).closed_form
    yield sid, cp > 0.0, cp

    sid = "constants/assemble-heat-positive"
    cp = assemble_cp_heat(square, 0.5).closed_form
    yield sid, cp > 0.0, cp

    sid = "constants/table-shape"
    rows = constants_table(ns=(1,), ms=(3,), budget=10_000, seed=seed0)
    names = [r.name for r in rows]
    ok = ("k_laplace[n=1]" in names and "k_heat[n=1]" in names
          and any(nm.startswith("heatball_volume") for nm in names)
          and any(nm.startswith("kappa_max") for nm in names))
    yield sid, ok, float(len(rows)), seed0


def _suite_counterexamples(cfg, seed):
    """Comb construction, Runge fit, oscillating Hessian family, lift."""
    budget, seed0 = cfg["budget"], cfg["seed"]
    square = _unit_square()

    for k in (2, 3, 4, 5):
        d = Fraction(1, 2**k)
        sid = f"ce/comb-measure[delta=1/{2**k}]"
        comb = build_comb(d)
        exact = comb.measure_exact == d * (1 - d / 2) * comb.count
        slack = float(comb.measure_exact - (1 - 2 * d))
        yield sid, exact and slack > 0.0, slack, seed0

    sid = "ce/comb-separation"
    comb8 = build_comb(Fraction(1, 8))
    gaps = {comb8.rects[i + 1][2] - comb8.rects[i][3]
            for i in range(comb8.count - 1)}
    yield sid, gaps == {comb8.separation}, 0.0, seed0

    sid = "ce/target-bound"
    target = ccw_target(comb8)
    rows = [0.0]
    e = float(comb8.delta**2 / 16)
    for x0, x1, t0, t1 in comb8.rects:
        ts = np.linspace(float(t0) - e, float(t1) + e, 200)
        xs = np.full_like(ts, 0.5)
        pts = np.stack([xs, ts], axis=1)
        rows.append(np.max(np.abs(target.v.fn(pts) - target.w1(pts))))
    worst = _worst(rows)
    yield sid, worst <= target.bound, target.bound - worst, seed0

    sid = "ce/fit-residual-monotone"
    comb4 = build_comb(Fraction(1, 4))
    t4 = ccw_target(comb4)
    res = [fit_harmonic(t4, comb4, deg, seed=seed(sid)).sample_rms
           for deg in (5, 10, 20)]
    mono = res[0] >= res[1] - 1e-12 and res[1] >= res[2] - 1e-12
    yield sid, mono, min(res[0] - res[1], res[1] - res[2])

    sid = "ce/witness"
    wit = assemble_ccw_witness(Fraction(1, 8), degree=12, seed=seed(sid),
                               budget=2 * budget)
    yield sid, wit["passed"], wit["sublevel_slack"]

    sid = "ce/steinerberger-product"
    u = wit["field"]
    c = adjoint_constant_value(laplacian_operator(2), square, (0.5, 0.5), 0.4,
                               budget=budget, seed=seed(sid))
    cpr = c / 2.0
    epsv = c / (2.0 * square.measure)
    sup = dense_box_sup(u, square, interior=96, edge=4097)
    mu = measure(square, lambda pts: np.abs(u.fn(pts)) >= epsv,
                 budget=budget, seed=seed(sid))
    lhs = sup * mu.ci()[1]
    yield sid, lhs >= cpr, lhs - cpr

    sups = {}
    for N in (10, 100, 1000):
        sid = f"ce/hessian-family[N={N}]"
        rep = hessian_family_check(N, c=0.1)
        sups[N] = rep["sup_grid"]
        ok = rep["max_rel_err"] <= 1e-11 and rep["min_det"] >= 1.0 - 1e-11
        if N > 2 * math.e / 0.1:
            ok = ok and rep["superlevel_empty"] and rep["superlevel_empty_on_grid"]
        yield sid, ok, 1e-11 - rep["max_rel_err"], seed0
    sid = "ce/hessian-family-sup-decade"
    r1 = sups[10] / sups[100]
    r2 = sups[100] / sups[1000]
    ok = abs(r1 - 10.0) <= 0.5 and abs(r2 - 10.0) <= 0.5
    yield sid, ok, 0.5 - max(abs(r1 - 10), abs(r2 - 10)), seed0

    for p in (1.0, 2.0):
        sid = f"ce/lift[p={p:g}]"
        base = random_laplace_one(seed(sid), domain=square)
        lo = integrate(lambda pts: np.abs(base.fn(pts)) ** p, square,
                       budget=budget, seed=seed(sid))
        c = max(lo.ci()[0], 0.0) ** (1.0 / p) * 0.999
        rep, rep2 = (lift_check(base, Box((0.0,), (length,)), p, c,
                                budget=2 * budget, seed=seed(sid))
                     for length in (1.0, 2.0))
        scale_ok = abs(rep2["bound"] / rep["bound"] - 2.0 ** (1.0 / p)) <= 1e-12
        yield (sid, rep["passed"] and rep2["passed"] and scale_ok,
               rep["lifted_guarded"] - rep["bound"])


def _suite_pmeans(cfg, seed):
    """p-mean machinery: monotonicity, reciprocity, divergence detection,
    closed-form means of monomials, and the two conversion bounds."""
    square = _unit_square()
    interval = Box((0.0,), (1.0,))
    budget = max(cfg["budget"], 7000)

    def interval_pmean(fn, p, sid):
        return pmean(fn, interval, p, budget=budget, seed=seed(sid))

    sid = "pmeans/grid-monotone"
    u = random_laplace_one(seed(sid), domain=square)
    ps = [-0.5, 0.0, 0.5, 1.0, 2.0, math.inf]
    reports = pmean_grid(u.fn, square, ps, budget=budget, seed=seed(sid))
    vals = [r.value for r in reports]
    mono = all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    yield sid, mono, min(vals[i + 1] - vals[i] for i in range(len(vals) - 1))

    sid = "pmeans/reciprocal"
    f = polynomial_field({(1,): 1.0, (0,): 0.5}, dim=1, domain=interval)
    a = interval_pmean(f.fn, 0.7, sid)
    b = interval_pmean(lambda pts: 1.0 / f.fn(pts), -0.7, sid)
    gap = abs(a.value * b.value - 1.0)
    yield sid, not b.divergent and gap <= 1e-10, 1e-10 - gap

    sid = "pmeans/chebyshev"
    epsv = 0.05
    mu = measure(square, lambda pts: np.abs(u.fn(pts)) >= epsv, budget=budget,
                 seed=seed(sid))
    mu_lo = max(mu.ci()[0], 0.0)
    norm_hi = _guarded_norm(u, square, 2.0, budget, seed(sid))
    lhs = epsv * mu_lo ** 0.5
    yield sid, lhs <= norm_hi, norm_hi - lhs

    sid = "pmeans/geometric-mean-x"
    rep = interval_pmean(monomial_field(1).fn, 0.0, sid)
    yield sid, *_agree(rep, math.exp(-1.0), 1e-4)

    for k in (1, 2, 3):
        sid = f"pmeans/negative-mean[x^{k}]"
        rep = interval_pmean(monomial_field(k).fn, -1.0 / (2.0 * k), sid)
        want = 2.0 ** (-2.0 * k)
        ok, margin = _agree(rep, want, 0.02 * want)
        yield sid, not rep.divergent and ok, margin

        sid = f"pmeans/divergent[x^{k}]"
        rep = interval_pmean(monomial_field(k).fn, -1.0 / k, sid)
        yield (sid, rep.divergent and rep.value == 0.0,
               1.0 if rep.divergent else -1.0)

    sid = "pmeans/zero-field-geometric"
    rep = interval_pmean(lambda pts: np.zeros(len(pts)), 0.0, sid)
    yield sid, rep.value == 0.0, -abs(rep.value)

    sid = "pmeans/sublevel-to-pmean"
    bound = sublevel_to_pmean_bound(1.0, 1.0, -0.5, 1.0)
    rep = interval_pmean(monomial_field(1).fn, -0.5, sid)
    hi = rep.value + 3.0 * rep.std_error
    yield sid, not rep.divergent and hi >= bound > 0.0, hi - bound

    sid = "pmeans/pmean-to-sublevel"
    cval = 0.25
    epsv = 0.1
    cap = pmean_to_sublevel_bound(cval, -0.5, 1.0, epsv)
    mu = measure(interval, lambda pts: np.abs(pts[:, 0]) <= epsv,
                 budget=budget, seed=seed(sid))
    lo = mu.ci()[0]
    yield sid, lo <= cap, cap - lo


SUITES = {
    "laplace-thm": _suite_lp_thm,
    "heat-thm": partial(_suite_lp_thm, heat=True),
    "l1-linear": _suite_l1_linear,
    "prop-general": _suite_prop_general,
    "claims": _suite_claims,
    "deriv-formulas": _suite_deriv_formulas,
    "mvi-family": _suite_mvi_family,
    "constants-audit": _suite_constants_audit,
    "counterexamples": _suite_counterexamples,
    "pmeans": _suite_pmeans,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, config: dict | None = None) -> SuiteResult:
    """Run a named suite.  Unknown names raise ValueError; the materialized
    config (defaults filled in) is echoed on the result.

    A suite is a generator (cfg, seed) of (statement, passed, margin); each
    check records seed(statement), or a fourth item if the suite yields one.
    The suite runs inside one quadrature._workers(cfg["threads"]) block."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: "
                         f"{', '.join(SUITE_NAMES)}")
    cfg = default_config(config)

    def seed(statement: str) -> int:
        return (cfg["seed"] + zlib.crc32(statement.encode())) % (2**31)

    with _workers(cfg["threads"]):
        checks = [CheckResult(sid, passed, margin, *(extra or [seed(sid)]))
                  for sid, passed, margin, *extra in SUITES[name](cfg, seed)]
    return SuiteResult(name=name, checks=checks, config=cfg)
