"""Named verification suites bundling the library's checks.

Each suite runs a fixed list of statements and reports pass/fail with a
numeric margin (positive = slack before failure) and the seed that
reproduces the statement.  Seeds derive deterministically from the config
seed and the statement id, so a single check can be re-run in isolation.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import Box, euclidean_system, unit_ball_volume
from .fields import (
    ScalarField,
    polynomial_field,
    quadratic_field,
    bump_function,
    monomial_field,
    neg_time_field,
    random_laplace_one,
    random_heat_one,
    random_harmonic,
    random_caloric,
    positive_part,
    laplacian_operator,
    mixed_xy_operator,
)
from .quadrature import (integrate, measure, pmean, pmean_grid, box_gauss,
                         agreement)
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
    AverageFamily,
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
    kappa_max,
    golden_max,
    adjoint_constant,
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

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

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
    cfg["p_list"] = [float(p) for p in cfg["p_list"]]
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _seed_for(base: int, statement: str) -> int:
    return (int(base) + zlib.crc32(statement.encode())) % (2**31)


def _unit_square() -> Box:
    return Box((0.0, 0.0), (1.0, 1.0))


def _const_field(value: float, dim: int, domain: Box | None = None) -> ScalarField:
    return polynomial_field({(0,) * dim: value}, dim=dim, domain=domain,
                            name=f"const-{value:g}")


def _guarded_norm(u, region, p: float, budget: int, seed: int,
                  threads: int = 1) -> float:
    """(integral of |u|^p + 3 SE)^{1/p}, an upper confidence quasinorm."""
    res = integrate(lambda pts: np.abs(np.asarray(u.fn(pts))) ** p, region,
                    budget=budget, seed=seed, threads=threads)
    return max(res.ci()[1], 0.0) ** (1.0 / p)


def _agree(sid: str, seed: int, est, target, floor: float = 0.0) -> CheckResult:
    """est agrees with target by quadrature.agreement; margin tol - diff."""
    diff, tol = agreement(est, target, floor)
    return CheckResult(sid, diff <= tol, tol - diff, seed)


# --- suites -----------------------------------------------------------------


def _suite_laplace_thm(cfg) -> list[CheckResult]:
    """End-to-end L^p lower bound for Delta u >= 1 on the unit square."""
    out = []
    square = _unit_square()
    for p in cfg["p_list"]:
        sid = f"laplace-thm/cp-positive[p={p:g}]"
        seed = _seed_for(cfg["seed"], sid)
        rep = assemble_cp_laplace(2, square, p, budget=cfg["budget"], seed=seed)
        cp = rep.closed_form
        out.append(CheckResult(sid, cp > 0.0, cp, seed))
        for i in range(cfg["fields"]):
            sid = f"laplace-thm/lp-lower[p={p:g},field={i}]"
            seed = _seed_for(cfg["seed"], sid)
            u = random_laplace_one(seed, domain=square)
            hi = _guarded_norm(u, square, p, cfg["budget"], seed,
                               cfg["threads"])
            out.append(CheckResult(sid, hi >= cp, hi - cp, seed))
    return out


def _suite_heat_thm(cfg) -> list[CheckResult]:
    """End-to-end L^p lower bound for Hu >= 1 on the unit spacetime square."""
    out = []
    square = _unit_square()
    for p in cfg["p_list"]:
        sid = f"heat-thm/cp-positive[p={p:g}]"
        seed = _seed_for(cfg["seed"], sid)
        rep = assemble_cp_heat(1, 3, square, p, budget=cfg["budget"], seed=seed)
        cp = rep.closed_form
        out.append(CheckResult(sid, cp > 0.0, cp, seed))
        for i in range(cfg["fields"]):
            sid = f"heat-thm/lp-lower[p={p:g},field={i}]"
            seed = _seed_for(cfg["seed"], sid)
            u = random_heat_one(seed, n=1, domain=square)
            hi = _guarded_norm(u, square, p, cfg["budget"], seed,
                               cfg["threads"])
            out.append(CheckResult(sid, hi >= cp, hi - cp, seed))
    return out


def _suite_l1_linear(cfg) -> list[CheckResult]:
    """||u||_1 >= c for Du >= 1, D = d^2/dxdy, via the adjoint test constant."""
    out = []
    square = _unit_square()
    D = mixed_xy_operator()
    bump = bump_function((0.5, 0.5), 0.4)
    sid = "l1-linear/adjoint-constant"
    seed = _seed_for(cfg["seed"], sid)
    rep = adjoint_constant(D, square, bump, budget=cfg["budget"], seed=seed)
    c = rep.closed_form
    ok = c > 0.0 and (rep.rel_gap is None or rep.rel_gap < 0.05)
    out.append(CheckResult(sid, ok, c, seed))

    cases = [
        ("xy", {(1, 1): 1.0}),
        ("xy+x2y2/4", {(1, 1): 1.0, (2, 2): 0.25}),
        ("xy+x3y/6", {(1, 1): 1.0, (3, 1): 1.0 / 6.0}),
    ]
    xs = np.linspace(0.0, 1.0, 41)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    for label, coeffs in cases:
        u = polynomial_field(coeffs, dim=2, domain=square, name=label)
        sid = f"l1-linear/du-at-least-one[{label}]"
        seed = _seed_for(cfg["seed"], sid)
        dmin = float(np.min(D.apply(u, grid)))
        out.append(CheckResult(sid, dmin >= 1.0 - 1e-12, dmin - 1.0, seed))

        sid = f"l1-linear/l1-lower[{label}]"
        seed = _seed_for(cfg["seed"], sid)
        res = integrate(lambda pts: np.abs(u.fn(pts)), square,
                        budget=cfg["budget"], seed=seed,
                        threads=cfg["threads"])
        gauss = box_gauss(lambda pts: np.abs(u.fn(pts)), square)
        diff, tol = agreement(res, gauss.value, 1e-6)
        hi = res.ci()[1]
        out.append(CheckResult(sid, hi >= c and diff <= tol, hi - c, seed))
    return out


def _suite_prop_general(cfg) -> list[CheckResult]:
    """The L^1 -> (L^p, superlevel) chain, including the p = inf form:
    ||u||_inf |{|u| >= c'}| >= c' with c' = c/2, eps = c/(2|Omega|)."""
    out = []
    square = _unit_square()
    D = laplacian_operator(2)
    bump = bump_function((0.5, 0.5), 0.4)
    sid = "prop-general/adjoint-constant"
    seed = _seed_for(cfg["seed"], sid)
    rep = adjoint_constant(D, square, bump, budget=cfg["budget"], seed=seed)
    c = rep.closed_form
    out.append(CheckResult(sid, c > 0.0, c, seed))
    eps = c / (2.0 * square.measure)
    cprime = c / 2.0

    for i in range(max(2, cfg["fields"] // 2)):
        seed_u = _seed_for(cfg["seed"], f"prop-general/field[{i}]")
        u = random_laplace_one(seed_u, domain=square)
        sid = f"prop-general/l1-lower[field={i}]"
        res = integrate(lambda pts: np.abs(u.fn(pts)), square,
                        budget=cfg["budget"], seed=seed_u,
                        threads=cfg["threads"])
        hi = res.ci()[1]
        out.append(CheckResult(sid, hi >= c, hi - c, seed_u))

        mu = measure(square, lambda pts: np.abs(u.fn(pts)) >= eps,
                     budget=cfg["budget"], seed=seed_u + 1,
                     threads=cfg["threads"])
        mu_hi = mu.ci()[1]
        sup = dense_box_sup(u, square, interior=96, edge=4097)
        for p in (1.0, 2.0, math.inf):
            sid = f"prop-general/holder-chain[p={p:g},field={i}]"
            seed = _seed_for(cfg["seed"], sid)
            if math.isinf(p):
                lhs = sup * mu_hi
            elif p == 1.0:
                lhs = hi
            else:
                norm_hi = _guarded_norm(u, square, p, cfg["budget"], seed,
                                        cfg["threads"])
                lhs = norm_hi * mu_hi ** (1.0 - 1.0 / p)
            out.append(CheckResult(sid, lhs >= cprime, lhs - cprime, seed))
    return out


def _suite_claims(cfg) -> list[CheckResult]:
    """Sup drop on shrunken domains: R^2/(2n+4) inside boxes for
    Delta u >= 1, K_n R^2 inside spacetime boxes for Hu >= 1."""
    out = []
    square = _unit_square()
    for i in range(max(2, cfg["fields"] // 2)):
        for R in (0.1, 0.2):
            sid = f"claims/laplace-drop[R={R:g},field={i}]"
            seed = _seed_for(cfg["seed"], sid)
            u = random_laplace_one(seed, domain=square)
            rep = claim_laplace_drop(u, square, R, n_points=1000, seed=seed)
            out.append(CheckResult(sid, rep["violations"] == 0,
                                   rep["worst_margin"], seed))
    for i in range(2):
        sid = f"claims/heat-drop[R=0.3,field={i}]"
        seed = _seed_for(cfg["seed"], sid)
        u = random_heat_one(seed, n=1, domain=square)
        rep = claim_heat_drop(u, square, 0.3, n_points=1000, seed=seed)
        out.append(CheckResult(sid, rep["violations"] == 0,
                               rep["worst_margin"], seed))
    return out


def _i_psi(n: int) -> float:
    """int_{E(1)} log Phi_n dy ds, by the exact slice formula."""
    from scipy.special import gamma

    a = n / 2.0
    return (unit_ball_volume(n) * n / (n + 2) * (2.0 * n) ** (n / 2.0)
            * SMAX ** (a + 1.0) * gamma(a + 2.0) / (a + 1.0) ** (a + 2.0))


def _suite_deriv_formulas(cfg) -> list[CheckResult]:
    """Both derivative identities, their closed-form special cases, and the
    normalization/continuity of the average families."""
    out = []
    square = _unit_square()

    sid = "deriv/ball-average-quadratic"
    seed = _seed_for(cfg["seed"], sid)
    sq = quadratic_field(2, coeff=1.0)
    res = ball_average(sq, (0.0, 0.0), 0.3, budget=cfg["budget"], seed=seed)
    out.append(_agree(sid, seed, res, 2 * 0.3**2 / 4.0, 1e-9))

    sid = "deriv/ball-rhs-quadratic"
    seed = _seed_for(cfg["seed"], sid)
    res = deriv1_rhs(sq, (0.0, 0.0), 0.3, budget=cfg["budget"], seed=seed)
    out.append(_agree(sid, seed, res, 2 * 2 * 0.3 / 4.0, 1e-9))

    for i in range(max(2, cfg["fields"] // 2)):
        for r in (0.1, 0.2):
            sid = f"deriv/ball-fd-vs-rhs[r={r:g},field={i}]"
            seed = _seed_for(cfg["seed"], sid)
            u = random_laplace_one(seed, domain=square)
            fd = ball_average_fd(u, (0.5, 0.5), r, budget=cfg["budget"],
                                 seed=seed)
            rhs = deriv1_rhs(u, (0.5, 0.5), r, budget=cfg["budget"], seed=seed)
            out.append(_agree(sid, seed, fd, rhs, 1e-3 * abs(rhs.value)))

    for n in (1, 2):
        sid = f"deriv/heatball-normalization[n={n}]"
        seed = _seed_for(cfg["seed"], sid)
        one = _const_field(1.0, n + 1)
        res = heatball_average(one, (0.0,) * (n + 1), 0.7,
                               budget=cfg["budget"], seed=seed)
        out.append(_agree(sid, seed, res, 1.0, 1e-9))

    ipsi = _i_psi(1)
    sid = "deriv/heatball-neg-time-value"
    seed = _seed_for(cfg["seed"], sid)
    nt = neg_time_field(1)
    res = heatball_average(nt, (0.0, 0.0), 1.0, budget=cfg["budget"], seed=seed)
    out.append(_agree(sid, seed, res, ipsi / 2.0, 1e-9))

    sid = "deriv/heatball-neg-time-rhs"
    seed = _seed_for(cfg["seed"], sid)
    res = deriv2_rhs(nt, (0.0, 0.0), 1.0, budget=cfg["budget"], seed=seed)
    out.append(_agree(sid, seed, res, ipsi, 1e-9))

    for i in range(2):
        sid = f"deriv/heatball-fd-vs-rhs[field={i}]"
        seed = _seed_for(cfg["seed"], sid)
        u = random_heat_one(seed, n=1, domain=square)
        fd = heatball_average_fd(u, (0.5, 0.9), 0.3, budget=cfg["budget"],
                                 seed=seed)
        rhs = deriv2_rhs(u, (0.5, 0.9), 0.3, budget=cfg["budget"], seed=seed)
        out.append(_agree(sid, seed, fd, rhs, 1e-3 * abs(rhs.value)))

    sid = "deriv/temperature-rhs-zero"
    seed = _seed_for(cfg["seed"], sid)
    w = random_caloric(seed, n=1, domain=square)
    res = deriv2_rhs(w, (0.5, 0.9), 0.3, budget=cfg["budget"], seed=seed)
    out.append(_agree(sid, seed, res, 0.0, 1e-12))

    sid = "deriv/family-continuity"
    seed = _seed_for(cfg["seed"], sid)
    u = random_laplace_one(seed, domain=square)
    fam = AverageFamily("ball", u, (0.5, 0.5), max_radius=0.4,
                        budget=cfg["budget"], seed=seed)
    at0 = fam.value(0.0)
    drift = abs(fam.value(0.05).value - at0.value)
    ok = at0.value == float(u.fn(np.array([[0.5, 0.5]]))[0]) and drift <= 5e-3
    out.append(CheckResult(sid, ok, 5e-3 - drift, seed))
    return out


def _suite_mvi_family(cfg) -> list[CheckResult]:
    """Mean-value inequalities: plain, p-th power, concave, and the modified
    heat-ball form, with deliberately broken constants flagged."""
    out = []
    square = _unit_square()
    sysE = euclidean_system(2)
    v2 = math.pi
    trials, samples = cfg["trials"], cfg["samples"]

    def harmonic_plus(seed):
        return positive_part(random_harmonic(seed, domain=square))

    sid = "mvi/plain-harmonic"
    seed = _seed_for(cfg["seed"], sid)
    rep = check_mvi(harmonic_plus(seed), sysE, 1.0 / v2, trials=trials,
                    seed=seed, samples_per_trial=samples)
    out.append(CheckResult(sid, rep.violations == 0, rep.worst_margin, seed))

    sid = "mvi/plain-halved-constant-fails"
    seed = _seed_for(cfg["seed"], sid)
    one = _const_field(1.0, 2, domain=square)
    rep = check_mvi(one, sysE, 0.5 / v2, trials=trials, seed=seed,
                    samples_per_trial=samples)
    out.append(CheckResult(sid, rep.violations == rep.trials,
                           -rep.worst_margin, seed))

    for p in cfg["p_list"]:
        sid = f"mvi/power[p={p:g}]"
        seed = _seed_for(cfg["seed"], sid)
        rep = check_pmvi(harmonic_plus(seed), sysE, 1.0 / v2, p,
                         trials=trials, seed=seed, samples_per_trial=samples)
        out.append(CheckResult(sid, rep.violations == 0, rep.worst_margin,
                               seed))

    sid = "mvi/power-tiny-constant-fails"
    seed = _seed_for(cfg["seed"], sid)
    rep = check_pmvi(one, sysE, 1e-3, 0.5, trials=trials, seed=seed,
                     samples_per_trial=samples)
    out.append(CheckResult(sid, rep.violations == rep.trials,
                           -rep.worst_margin, seed))

    sid = "mvi/pmvi-constant-closed-form"
    seed = _seed_for(cfg["seed"], sid)
    # 2 * 0.5^{-2} * (2 * 2^2)^{(1-p)/p} * C at p = 1/2 is 64 C exactly
    got = pmvi_constant(1.0 / v2, sysE, 0.5, 2.0, 0.5)
    err = abs(got - 64.0 / v2) / (64.0 / v2)
    out.append(CheckResult(sid, err <= 1e-12, 1e-12 - err, seed))

    sid = "mvi/concave-constant-closed-form"
    seed = _seed_for(cfg["seed"], sid)
    # c_phi = 2, K = 2, A = 2 give m = 3 doublings and the same 64 C
    got = concave_mvi_constant(1.0 / v2, sysE, 0.5, 2.0, 2.0)
    err = abs(got - 64.0 / v2) / (64.0 / v2)
    out.append(CheckResult(sid, err <= 1e-12, 1e-12 - err, seed))

    sid = "mvi/admissible-pairs-inside-domain"
    seed = _seed_for(cfg["seed"], sid)
    a, r = sample_admissible(sysE, square, trials, np.random.default_rng(seed))
    room = np.minimum(a, 1.0 - a).min(axis=1) - r
    ok = bool(np.all(r > 0) and np.all(room >= -1e-12))
    out.append(CheckResult(sid, ok, float(np.min(room)), seed))

    concaves = [
        ("sqrt", np.sqrt, 4.0),
        ("identity", lambda t: t, 2.0),
        ("t^0.75", lambda t: t**0.75, 2.0 ** (4.0 / 3.0)),
    ]
    for label, phi, c_phi in concaves:
        sid = f"mvi/concave[{label}]"
        seed = _seed_for(cfg["seed"], sid)
        rep = check_concave_mvi(harmonic_plus(seed), sysE, 1.0 / v2, phi,
                                c_phi, trials=trials, seed=seed,
                                samples_per_trial=samples)
        out.append(CheckResult(sid, rep.violations == 0, rep.worst_margin,
                               seed))

    center = (0.5, 0.9)
    sid = "mvi/modified-normalization"
    seed = _seed_for(cfg["seed"], sid)
    one3 = _const_field(1.0, 2)
    res = modified_heatball_average(one3, (0.0, 0.0), 1.0, m=3,
                                    budget=cfg["budget"], seed=seed)
    out.append(_agree(sid, seed, res, 1.0, 1e-9))

    sid = "mvi/modified-caloric"
    seed = _seed_for(cfg["seed"], sid)
    w = positive_part(random_caloric(seed, n=1, domain=square))
    rep = check_modified_heatball_mvi(w, 3, center, 0.5, budget=cfg["budget"],
                                      seed=seed)
    out.append(CheckResult(sid, rep.violations == 0, rep.worst_margin, seed))

    sid = "mvi/modified-subtemperature"
    seed = _seed_for(cfg["seed"], sid)
    sq = quadratic_field(2, center=(0.5, 0.0), coeff=0.5, spatial=True,
                         domain=square)
    rep = check_modified_heatball_mvi(sq, 3, center, 0.5, budget=cfg["budget"],
                                      seed=seed)
    out.append(CheckResult(sid, rep.violations == 0, rep.worst_margin, seed))

    sid = "mvi/modified-tenth-constant-fails"
    seed = _seed_for(cfg["seed"], sid)
    M = kappa_max(3, 1).closed_form
    rep = check_modified_heatball_mvi(one3, 3, center, 0.5,
                                      budget=cfg["budget"], seed=seed,
                                      constant=M / 10.0)
    out.append(CheckResult(sid, rep.violations == rep.trials,
                           -rep.worst_margin, seed))
    return out


def _suite_constants_audit(cfg) -> list[CheckResult]:
    """Closed forms vs independent routes for every named constant."""
    out = []
    seed0 = cfg["seed"]

    for n, want in ((1, 1.0 / 6.0), (2, 0.125), (3, 0.1)):
        sid = f"constants/k-laplace[n={n}]"
        out.append(CheckResult(sid, k_laplace(n) == want,
                               abs(k_laplace(n) - want), seed0))

    for n in (1, 2, 3):
        sid = f"constants/heatball-volume[n={n}]"
        seed = _seed_for(seed0, sid)
        ex = heatball_unit_volume_exact(n)
        qd = heatball_unit_volume_quad(n)
        mc = heatball_unit_volume(n, budget=2 * cfg["budget"], seed=seed)
        chk = _agree(sid, seed, mc, ex, 1e-12)
        out.append(CheckResult(sid, abs(ex - qd) <= 1e-9 * ex and chk.passed,
                               chk.margin, seed))

    sid = "constants/heatball-volume-n1-regression"
    ex1 = heatball_unit_volume_exact(1)
    out.append(CheckResult(sid, abs(ex1 - 0.030628) <= 1e-5,
                           1e-5 - abs(ex1 - 0.030628), seed0))

    sid = "constants/heatball-scaling"
    seed = _seed_for(seed0, sid)
    from .geometry import Heatball

    mc2 = measure(Heatball((0.0, 0.0), 2.0), budget=2 * cfg["budget"],
                  seed=seed)
    out.append(_agree(sid, seed, mc2, 2.0**3 * ex1))

    for n in (1, 2):
        sid = f"constants/k-heat[n={n}]"
        seed = _seed_for(seed0, sid)
        rep = k_heat(n, budget=2 * cfg["budget"], seed=seed)
        ok = rep.closed_form > 0 and rep.rel_gap < 0.02
        out.append(CheckResult(sid, ok, 0.02 - rep.rel_gap, seed))

    sid = "constants/k-heat-n1-regression"
    kh = k_heat_value(1)
    out.append(CheckResult(sid, abs(kh - 7.6247e-4) <= 1e-7,
                           1e-7 - abs(kh - 7.6247e-4), seed0))

    sid = "constants/kappa-boundary-zero"
    svals = np.array([0.2, 0.5, 0.9]) * SMAX
    worst = 0.0
    for m, n in ((3, 1), (4, 2)):
        d = m + n
        origin = np.zeros(n)
        for s in svals:
            edge = origin.copy()
            edge[0] = math.sqrt(2.0 * d * s * math.log(SMAX / s))
            worst = max(worst, abs(kappa(m, n, edge, s)))
        worst = max(worst, abs(kappa(m, n, origin, SMAX)))
        if kappa(m, n, origin, 0.0) != 0.0:
            worst = max(worst, 1.0)
    out.append(CheckResult(sid, worst <= 1e-12, 1e-12 - worst, seed0))

    for m in (3, 4, 5, 6):
        for n in (1, 2, 3):
            sid = f"constants/kappa-max[m={m},n={n}]"
            rep = kappa_max(m, n)
            sgap = abs(rep.inputs["s_star_numeric"] - rep.inputs["s_star"])
            ok = (rep.rel_gap <= 1e-6 and sgap <= 1e-8
                  and rep.inputs["y_slice_monotone"])
            out.append(CheckResult(sid, ok, 1e-6 - rep.rel_gap, seed0))

    sid = "constants/golden-max-known-argmax"
    # the maximizer behind kappa_max, audited on s e^{-s} (argmax 1, max 1/e);
    # value comparisons at a flat peak cap argmax resolution near sqrt(eps)
    x, v = golden_max(lambda t: t * math.exp(-t), 0.0, 5.0)
    err = max(abs(x - 1.0) * 1e-6, abs(v - math.exp(-1.0)))
    out.append(CheckResult(sid, err <= 1e-12, 1e-12 - err, seed0))

    square = _unit_square()
    sid = "constants/adjoint-laplace"
    seed = _seed_for(seed0, sid)
    rep = adjoint_constant(laplacian_operator(2), square,
                           bump_function((0.5, 0.5), 0.4),
                           budget=cfg["budget"], seed=seed)
    ok = rep.closed_form > 0 and rep.rel_gap < 0.05
    out.append(CheckResult(sid, ok, 0.05 - rep.rel_gap, seed))

    sid = "constants/adjoint-scaling"
    seed = _seed_for(seed0, sid)
    small = adjoint_constant(mixed_xy_operator(), square,
                             bump_function((0.5, 0.5), 0.2),
                             budget=cfg["budget"], seed=seed)
    big = adjoint_constant(mixed_xy_operator(), square,
                           bump_function((0.5, 0.5), 0.4),
                           budget=cfg["budget"], seed=seed)
    ratio = big.closed_form / small.closed_form
    gap = abs(ratio / 2.0 ** (2 + 2) - 1.0)
    out.append(CheckResult(sid, gap <= 1e-9, 1e-9 - gap, seed))

    sid = "constants/assemble-laplace-positive"
    seed = _seed_for(seed0, sid)
    rep = assemble_cp_laplace(2, square, 0.5, budget=cfg["budget"], seed=seed)
    out.append(CheckResult(sid, rep.closed_form > 0.0, rep.closed_form, seed))

    sid = "constants/assemble-heat-positive"
    seed = _seed_for(seed0, sid)
    rep = assemble_cp_heat(1, 3, square, 0.5, budget=cfg["budget"], seed=seed)
    out.append(CheckResult(sid, rep.closed_form > 0.0, rep.closed_form, seed))

    sid = "constants/table-shape"
    rows = constants_table(ns=(1,), ms=(3,), budget=10_000, seed=seed0)
    names = [r.name for r in rows]
    ok = ("k_laplace[n=1]" in names and "k_heat[n=1]" in names
          and any(nm.startswith("heatball_volume") for nm in names)
          and any(nm.startswith("kappa_max") for nm in names))
    out.append(CheckResult(sid, ok, float(len(rows)), seed0))
    return out


def _suite_counterexamples(cfg) -> list[CheckResult]:
    """Comb construction, Runge fit, oscillating Hessian family, lift."""
    out = []
    seed0 = cfg["seed"]
    square = _unit_square()

    from fractions import Fraction

    for k in (2, 3, 4, 5):
        d = Fraction(1, 2**k)
        sid = f"ce/comb-measure[delta=1/{2**k}]"
        comb = build_comb(d)
        exact = comb.measure_exact == d * (1 - d / 2) * comb.count
        slack = float(comb.measure_exact - (1 - 2 * d))
        out.append(CheckResult(sid, exact and slack > 0.0, slack, seed0))

    sid = "ce/comb-separation"
    comb8 = build_comb(Fraction(1, 8))
    gaps = {comb8.rects[i + 1][2] - comb8.rects[i][3]
            for i in range(comb8.count - 1)}
    out.append(CheckResult(sid, gaps == {comb8.separation}, 0.0, seed0))

    sid = "ce/target-bound"
    target = ccw_target(comb8)
    worst = 0.0
    e = float(comb8.delta**2 / 16)
    for x0, x1, t0, t1 in comb8.rects:
        ts = np.linspace(float(t0) - e, float(t1) + e, 200)
        xs = np.full_like(ts, 0.5)
        pts = np.stack([xs, ts], axis=1)
        vals = np.abs(target.v.fn(pts) - target.w1(pts))
        worst = max(worst, float(np.max(vals)))
    out.append(CheckResult(sid, worst <= target.bound,
                           target.bound - worst, seed0))

    sid = "ce/fit-residual-monotone"
    seed = _seed_for(seed0, sid)
    comb4 = build_comb(Fraction(1, 4))
    t4 = ccw_target(comb4)
    res = [fit_harmonic(t4, comb4, deg, seed=seed).sample_rms
           for deg in (5, 10, 20)]
    mono = res[0] >= res[1] - 1e-12 and res[1] >= res[2] - 1e-12
    out.append(CheckResult(sid, mono, min(res[0] - res[1], res[1] - res[2]),
                           seed))

    sid = "ce/witness"
    seed = _seed_for(seed0, sid)
    wit = assemble_ccw_witness(Fraction(1, 8), degree=12, seed=seed,
                               budget=2 * cfg["budget"])
    out.append(CheckResult(sid, wit["passed"], wit["sublevel_slack"], seed))

    sid = "ce/steinerberger-product"
    seed = _seed_for(seed0, sid)
    u = wit["field"]
    rep = adjoint_constant(laplacian_operator(2), square,
                           bump_function((0.5, 0.5), 0.4),
                           budget=cfg["budget"], seed=seed)
    cpr = rep.closed_form / 2.0
    epsv = rep.closed_form / (2.0 * square.measure)
    sup = dense_box_sup(u, square, interior=96, edge=4097)
    mu = measure(square, lambda pts: np.abs(u.fn(pts)) >= epsv,
                 budget=cfg["budget"], seed=seed)
    lhs = sup * mu.ci()[1]
    out.append(CheckResult(sid, lhs >= cpr, lhs - cpr, seed))

    sups = {}
    for N in (10, 100, 1000):
        sid = f"ce/hessian-family[N={N}]"
        rep = hessian_family_check(N, c=0.1, grid=64)
        sups[N] = rep["sup_grid"]
        ok = rep["max_rel_err"] <= 1e-11 and rep["min_det"] >= 1.0 - 1e-11
        if N > 2 * math.e / 0.1:
            ok = ok and rep["superlevel_empty"] and rep["superlevel_empty_on_grid"]
        out.append(CheckResult(sid, ok, 1e-11 - rep["max_rel_err"], seed0))
    sid = "ce/hessian-family-sup-decade"
    r1 = sups[10] / sups[100]
    r2 = sups[100] / sups[1000]
    ok = abs(r1 - 10.0) <= 0.5 and abs(r2 - 10.0) <= 0.5
    out.append(CheckResult(sid, ok, 0.5 - max(abs(r1 - 10), abs(r2 - 10)),
                           seed0))

    for p in (1.0, 2.0):
        sid = f"ce/lift[p={p:g}]"
        seed = _seed_for(seed0, sid)
        base = random_laplace_one(seed, domain=square)
        lo = integrate(lambda pts: np.abs(base.fn(pts)) ** p, square,
                       budget=cfg["budget"], seed=seed)
        c = max(lo.ci()[0], 0.0) ** (1.0 / p) * 0.999
        om2 = Box((0.0,), (1.0,))
        rep = lift_check(base, om2, p, c, budget=2 * cfg["budget"], seed=seed)
        two = Box((0.0,), (2.0,))
        rep2 = lift_check(base, two, p, c, budget=2 * cfg["budget"], seed=seed)
        scale_ok = abs(rep2["bound"] / rep["bound"] - 2.0 ** (1.0 / p)) <= 1e-12
        out.append(CheckResult(sid, rep["passed"] and rep2["passed"]
                               and scale_ok,
                               rep["lifted_guarded"] - rep["bound"], seed))
    return out


def _suite_pmeans(cfg) -> list[CheckResult]:
    """p-mean machinery: monotonicity, reciprocity, divergence detection,
    closed-form means of monomials, and the two conversion bounds."""
    out = []
    seed0 = cfg["seed"]
    square = _unit_square()
    interval = Box((0.0,), (1.0,))
    budget = max(cfg["budget"], 7000)

    sid = "pmeans/grid-monotone"
    seed = _seed_for(seed0, sid)
    u = random_laplace_one(seed, domain=square)
    ps = [-0.5, 0.0, 0.5, 1.0, 2.0, math.inf]
    reports = pmean_grid(u.fn, square, ps, budget=budget, seed=seed)
    vals = [r.value for r in reports]
    mono = all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    out.append(CheckResult(sid, mono,
                           min(vals[i + 1] - vals[i]
                               for i in range(len(vals) - 1)), seed))

    sid = "pmeans/reciprocal"
    seed = _seed_for(seed0, sid)
    f = polynomial_field({(1,): 1.0, (0,): 0.5}, dim=1, domain=interval)
    a = pmean(f.fn, interval, 0.7, budget=budget, seed=seed)
    b = pmean(lambda pts: 1.0 / f.fn(pts), interval, -0.7, budget=budget,
              seed=seed)
    gap = abs(a.value * b.value - 1.0)
    out.append(CheckResult(sid, not b.divergent and gap <= 1e-10,
                           1e-10 - gap, seed))

    sid = "pmeans/chebyshev"
    seed = _seed_for(seed0, sid)
    epsv = 0.05
    mu = measure(square, lambda pts: np.abs(u.fn(pts)) >= epsv, budget=budget,
                 seed=seed)
    mu_lo = max(mu.ci()[0], 0.0)
    norm_hi = _guarded_norm(u, square, 2.0, budget, seed)
    lhs = epsv * mu_lo ** 0.5
    out.append(CheckResult(sid, lhs <= norm_hi, norm_hi - lhs, seed))

    sid = "pmeans/geometric-mean-x"
    seed = _seed_for(seed0, sid)
    rep = pmean(monomial_field(1).fn, interval, 0.0, budget=budget, seed=seed)
    out.append(_agree(sid, seed, rep, math.exp(-1.0), 1e-4))

    for k in (1, 2, 3):
        sid = f"pmeans/negative-mean[x^{k}]"
        seed = _seed_for(seed0, sid)
        rep = pmean(monomial_field(k).fn, interval, -1.0 / (2.0 * k),
                    budget=budget, seed=seed)
        want = 2.0 ** (-2.0 * k)
        chk = _agree(sid, seed, rep, want, 0.02 * want)
        out.append(CheckResult(sid, not rep.divergent and chk.passed,
                               chk.margin, seed))

        sid = f"pmeans/divergent[x^{k}]"
        seed = _seed_for(seed0, sid)
        rep = pmean(monomial_field(k).fn, interval, -1.0 / k, budget=budget,
                    seed=seed)
        out.append(CheckResult(sid, rep.divergent and rep.value == 0.0,
                               1.0 if rep.divergent else -1.0, seed))

    sid = "pmeans/zero-field-geometric"
    seed = _seed_for(seed0, sid)
    rep = pmean(lambda pts: np.zeros(len(pts)), interval, 0.0, budget=budget,
                seed=seed)
    out.append(CheckResult(sid, rep.value == 0.0, -abs(rep.value), seed))

    sid = "pmeans/sublevel-to-pmean"
    seed = _seed_for(seed0, sid)
    bound = sublevel_to_pmean_bound(1.0, 1.0, -0.5, 1.0)
    rep = pmean(monomial_field(1).fn, interval, -0.5, budget=budget, seed=seed)
    hi = rep.value + 3.0 * rep.std_error
    out.append(CheckResult(sid, not rep.divergent and hi >= bound > 0.0,
                           hi - bound, seed))

    sid = "pmeans/pmean-to-sublevel"
    seed = _seed_for(seed0, sid)
    cval = 0.25
    epsv = 0.1
    cap = pmean_to_sublevel_bound(cval, -0.5, 1.0, epsv)
    mu = measure(interval, lambda pts: np.abs(pts[:, 0]) <= epsv,
                 budget=budget, seed=seed)
    lo = mu.ci()[0]
    out.append(CheckResult(sid, lo <= cap, cap - lo, seed))
    return out


SUITES = {
    "laplace-thm": _suite_laplace_thm,
    "heat-thm": _suite_heat_thm,
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
    config (defaults filled in) is echoed on the result."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: "
                         f"{', '.join(SUITE_NAMES)}")
    cfg = default_config(config)
    checks = SUITES[name](cfg)
    return SuiteResult(name=name, checks=checks, config=cfg)
