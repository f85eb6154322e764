"""Named constants: drop constants, heat-ball volumes, the kernel maximum
M_{m,n}, adjoint L^1 constants, the assembled L^p lower-bound constants,
and sublevel <-> p-mean conversion bounds.

Each quadrature-backed constant is reported as a ConstantReport carrying a
closed form, an independent cross-check, their relative gap, and the full
input provenance, so regression files are self-describing.  The assembled
constants are closed forms of the box and p, with no cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .geometry import (
    Box,
    EuclideanBall,
    euclidean_system,
    parabolic_box_system,
    euclidean_shrink,
    heatball_shrink,
    system_shrink,
    unit_ball_volume,
    _as_points,
    _lattice,
)
from .fields import bump_function
from .quadrature import _tanh_sinh, integrate
from .averages import SMAX, heatball_unit_volume, pmvi_constant

__all__ = [
    "ConstantReport",
    "k_laplace",
    "k_heat_value",
    "k_heat",
    "heatball_unit_volume_exact",
    "heatball_unit_volume_quad",
    "kappa",
    "kappa_max_value",
    "kappa_max",
    "bracket_max",
    "adjoint_constant_value",
    "adjoint_constant",
    "assemble_cp_laplace",
    "assemble_cp_heat",
    "sublevel_to_pmean_bound",
    "pmean_to_sublevel_bound",
    "constants_table",
]


@dataclass
class ConstantReport:
    name: str
    closed_form: float
    cross_check: float | None = None
    inputs: dict = dc_field(default_factory=dict)
    rel_gap: float | None = None

    def __post_init__(self):
        if self.cross_check is not None and self.rel_gap is None:
            denom = max(abs(self.closed_form), 1e-300)
            self.rel_gap = abs(self.closed_form - self.cross_check) / denom


def k_laplace(n: int) -> float:
    """Drop constant 1/(2n+4) of the ball-average lower bound."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 1.0 / (2.0 * n + 4.0)


def heatball_unit_volume_exact(n: int) -> float:
    """|E(1)| by the closed slice integral.

    The slice at age s is a ball of radius sqrt(2 n s log(1/(4 pi s))) in
    R^n; substituting s = e^{-tau}/(4 pi) gives a Gamma integral.
    """
    a = n / 2.0
    return (unit_ball_volume(n) * (2.0 * n) ** (n / 2.0)
            * SMAX ** (a + 1.0) * math.gamma(a + 1.0) / (a + 1.0) ** (a + 1.0))


def heatball_unit_volume_quad(n: int) -> float:
    """|E(1)| by the tanh-sinh rule on the slice volumes (cross-check)."""
    vn = unit_ball_volume(n)
    return _tanh_sinh(
        lambda s: vn * (2.0 * n * s * np.log(1.0 / (4.0 * math.pi * s)))
        ** (n / 2.0), 0.0, SMAX)


def k_heat_value(n: int) -> float:
    """Heat drop constant (n^2/2) |E(1)| e^{-(n+2)}.

    The exponent is negative: the bounding slice factor (4 pi s)^{...} is
    maximized at s = e^{-(n+2)}/(4 pi), and the deliberately crude bound
    keeps that maximum; the positive exponent would exceed the actual drop
    of u = -t by e^{2(n+2)}.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return (n * n / 2.0) * heatball_unit_volume_exact(n) * math.exp(-(n + 2.0))


def k_heat(n: int, budget: int = 200_000, seed: int = 0) -> ConstantReport:
    closed = k_heat_value(n)
    vol = heatball_unit_volume(n, budget=budget, seed=seed)
    cross = (n * n / 2.0) * vol.value * math.exp(-(n + 2.0))
    return ConstantReport(
        name=f"k_heat[n={n}]", closed_form=closed, cross_check=cross,
        inputs={"n": n, "exponent": -(n + 2), "volume_exact":
                heatball_unit_volume_exact(n), "volume_mc": vol.value,
                "volume_mc_se": vol.std_error})


_OUTSIDE = "point outside the modified heat ball"


def kappa(m: int, n: int, y, s) -> np.ndarray:
    """Kernel of the modified heat-ball mean value property.

    kappa_{m,n}(y, s) = |B_1|/(2m+4) A~^m (m(m+n) L/s + |y|^2/s^2) with
    A~^2 = 2 s (m+n) L - |y|^2, L = log(1/(4 pi s)), and |B_1| the unit
    ball volume of R^m (the dimension of the integrated-out variables).
    y is an (N, n) batch and s an (N,) array of ages or one age for every
    row; returns an (N,) array.  Zero on the boundary A~ = 0 and extended
    by 0 at (0, 0); at y = 0 the |y|^2/s^2 term is 0 even where s^2
    underflows.  A point outside the ball, or with a NaN coordinate,
    raises ValueError.
    """
    if m < 3:
        raise ValueError("m must be at least 3")
    if n < 1:
        raise ValueError("n must be at least 1")
    yarr = _as_points(y, n)
    sarr = np.broadcast_to(np.asarray(s, dtype=float), (len(yarr),))
    out = np.zeros(len(yarr))
    if not np.all((sarr >= 0.0) & (sarr <= SMAX * (1.0 + 1e-12))):
        raise ValueError(_OUTSIDE)
    pos = sarr > 0.0
    if np.any(pos):
        ss = sarr[pos]
        bigl = np.log(1.0 / (4.0 * math.pi * ss))
        y2 = np.sum(yarr[pos] ** 2, axis=1)
        a2 = 2.0 * ss * (m + n) * bigl - y2
        scale = np.maximum(2.0 * ss * (m + n) * np.maximum(bigl, 0.0), 1e-300)
        if not np.all(a2 >= -1e-9 * scale):
            raise ValueError(_OUTSIDE)
        a2 = np.maximum(a2, 0.0)
        offset = np.divide(y2, ss**2, out=np.zeros_like(y2), where=y2 > 0.0)
        out[pos] = (unit_ball_volume(m) / (2.0 * m + 4.0) * a2 ** (m / 2.0)
                    * (m * (m + n) * bigl / ss + offset))
    if np.any(~pos):
        y2z = np.sum(yarr[~pos] ** 2, axis=1)
        if not np.all(y2z == 0.0):
            raise ValueError(_OUTSIDE)
    return out


def bracket_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """(argmax, max) of a unimodal fn on [lo, hi].  fn maps an array of
    abscissae to an array of values.  Each round evaluates fn once on 65
    evenly spaced points of the bracket and keeps the two cells around the
    largest value, until the bracket no longer shrinks.  A NaN value
    returns a NaN maximum."""
    a, b = float(lo), float(hi)
    while True:
        x = np.linspace(a, b, 65)
        f = np.asarray(fn(x), dtype=float)
        i = int(np.argmax(f))  # the first NaN, if there is one
        if math.isnan(f[i]):
            return float(x[i]), math.nan
        na, nb = float(x[max(i - 1, 0)]), float(x[min(i + 1, 64)])
        if nb - na >= b - a:
            return float(x[i]), float(f[i])
        a, b = na, nb


def kappa_max_value(m: int, n: int) -> float:
    """M_{m,n} = max kappa over the unit modified heat ball, in closed form:
    |B_1| (2 pi/e) (2(m+n)(m+2) / ((4 pi e)(m-2)))^{m/2} (m(m+n)/(m-2)),
    attained at y = 0, s* = (4 pi e^{(m+2)/(m-2)})^{-1}.  kappa_max
    cross-checks it."""
    if m < 3:
        raise ValueError("m must be at least 3")
    if n < 1:
        raise ValueError("n must be at least 1")
    return (unit_ball_volume(m) * (2.0 * math.pi / math.e)
            * (2.0 * (m + n) * (m + 2.0)
               / ((4.0 * math.pi * math.e) * (m - 2.0))) ** (m / 2.0)
            * (m * (m + n) / (m - 2.0)))


def kappa_max(m: int, n: int) -> ConstantReport:
    """M_{m,n} of kappa_max_value with its cross-check.

    crossCheck: bracket_max over s at y = 0, after a grid verification
    that kappa decreases in |y|.
    """
    closed = kappa_max_value(m, n)
    s_star = 1.0 / (4.0 * math.pi * math.exp((m + 2.0) / (m - 2.0)))

    s_num, cross = bracket_max(lambda s: kappa(m, n, np.zeros((len(s), n)), s),
                               1e-12, SMAX * (1.0 - 1e-12))

    # kappa must not exceed the y = 0 value anywhere on the s* slice
    bigl = math.log(1.0 / (4.0 * math.pi * s_star))
    ymax = math.sqrt(2.0 * s_star * (m + n) * bigl)
    radii = np.linspace(0.0, ymax * (1.0 - 1e-9), 64)
    ygrid = np.zeros((64, n))
    ygrid[:, 0] = radii
    slice_vals = kappa(m, n, ygrid, s_star)
    y_monotone = bool(np.max(slice_vals) <= slice_vals[0] * (1.0 + 1e-12))

    return ConstantReport(
        name=f"kappa_max[m={m},n={n}]", closed_form=closed, cross_check=cross,
        inputs={"m": m, "n": n, "s_star": s_star, "s_star_numeric": s_num,
                "unit_ball_dim": m, "y_slice_monotone": y_monotone})


def _adjoint_parts(D, domain: Box, center, radius: float, budget: int,
                   seed: int):
    """(bump, ball, ||phi||_1, ||D* phi||_inf) for the bump phi of the
    given center and radius (fields.bump_function) and its support ball.

    ||phi||_1 is the radial closed form, its profile integrated by the
    tanh-sinh rule.  The sup of |D* phi| is taken over a lattice plus
    budget // 10 (at least 1,024) random samples of the support, using the
    bump's exact derivatives.
    """
    bump = bump_function(center, radius)
    center = np.asarray(center, dtype=float)
    radius = float(radius)
    d = len(center)
    if D.dim != d or domain.dim != d:
        raise ValueError("operator/domain/bump dimension mismatch")
    inside = (np.all(center - radius > np.asarray(domain.lo))
              and np.all(center + radius < np.asarray(domain.hi)))
    if not inside:
        raise ValueError("bump support escapes the domain")

    surface = d * unit_ball_volume(d)
    prof = _tanh_sinh(lambda t: np.exp(-1.0 / (1.0 - t * t)) * t ** (d - 1),
                      0.0, 1.0)
    num = radius**d * surface * prof

    ball = EuclideanBall(tuple(center), radius)
    dstar = D.adjoint()
    mesh = _lattice([np.linspace(c - radius, c + radius, 96) for c in center])
    rng = np.random.default_rng(seed)
    pts = ball.sample(max(budget // 10, 1024), rng)
    den = float(np.max([np.max(np.abs(dstar.apply(bump, x)))
                        for x in (mesh, pts)]))
    if not den > 0.0:
        raise ValueError(f"adjoint sup is {den!r}, not positive; degenerate "
                         "operator or non-finite field")
    return bump, ball, num, den


def adjoint_constant_value(D, domain: Box, center, radius: float,
                           budget: int = 100_000, seed: int = 0) -> float:
    """L^1 testing constant c = ||phi||_1 / ||D* phi||_inf for the bump phi
    of the given center and radius, in the domain (see _adjoint_parts).
    A sampled sup can only undershoot, so c is an estimate, not a
    certified bound.  adjoint_constant cross-checks its numerator."""
    _, _, num, den = _adjoint_parts(D, domain, center, radius, budget, seed)
    return num / den


def adjoint_constant(D, domain: Box, center, budget: int = 100_000,
                     seed: int = 0) -> ConstantReport:
    """adjoint_constant_value for the suites' bump of radius 0.4, with its
    closed-form numerator cross-checked by a Monte Carlo integral of the
    bump over its support."""
    radius = 0.4
    bump, ball, num_closed, den = _adjoint_parts(D, domain, center, radius,
                                                 budget, seed)
    num_mc = integrate(bump, ball, budget=budget, seed=seed).value
    return ConstantReport(
        name=f"adjoint[{D.name}]", closed_form=num_closed / den,
        cross_check=num_mc / den,
        inputs={"operator": D.name, "order": D.order, "center": tuple(center),
                "radius": radius, "numerator_closed": num_closed,
                "numerator_mc": num_mc, "sup_adjoint": den})


def _cp_report(name: str, p: float, kn: float, R1: float, R2: float,
               degree: int, ctil: float, shrunk: Box,
               inputs: dict) -> ConstantReport:
    """c_p = min(c (R1^degree / C~_p)^{1/p}, c |Omega_{R1,R2}|^{1/p}) with
    c = K R2^2 / 2, the MVI and sublevel branches of the assembly.

    The sublevel factor |c - K R2^2| of the paper equals c exactly.
    """
    c = kn * R2 * R2 / 2.0
    branch_mvi = c * (R1 ** degree / ctil) ** (1.0 / p)
    branch_sublevel = c * shrunk.measure ** (1.0 / p)
    return ConstantReport(
        name=name, closed_form=min(branch_mvi, branch_sublevel),
        inputs={**inputs, "p": p, "R1": R1, "R2": R2, "c": c, "C_p": ctil,
                "vol_exact": shrunk.measure, "branch_mvi": branch_mvi,
                "branch_sublevel": branch_sublevel})


def assemble_cp_laplace(omega: Box, p: float) -> ConstantReport:
    """The assembled L^p lower-bound constant for Delta u >= 1 on a box.

    The inradius is the least half-width; R1 = inradius/4, R2 = half the
    remaining inradius, and the shrunken domain is the box inset by R1 + R2.
    """
    if not isinstance(omega, Box):
        raise TypeError("assembly implemented for box domains only")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    n = omega.dim
    rho = float(np.min(omega.halfwidths()))
    R1 = rho / 4.0
    R2 = (rho - R1) / 2.0
    ctil = pmvi_constant(1.0 / unit_ball_volume(n), euclidean_system(n), p)
    return _cp_report(f"c_p[laplace,n={n},p={p:g}]", p, k_laplace(n), R1, R2,
                      n, ctil, euclidean_shrink(omega, R1 + R2),
                      {"n": n, "inradius": rho})


def assemble_cp_heat(omega: Box, p: float) -> ConstantReport:
    """The assembled L^p lower-bound constant for Hu >= 1 on a spacetime box
    with n = omega.dim - 1 space axes.

    Branch 1 (MVI dichotomy) shrinks Omega by the bounding-box balls of the
    parabolic system with m = 3, the least m whose kernel is bounded, so
    every kept center has its full candidate box inside Omega, as the
    radius-function hypothesis requires; branch 2 shrinks the result s1 by
    heat balls of radius R2.  c = K_n R2^2 / 2 with the heat drop constant,
    C~_p from the p-MVI with C = M_{3,n}, R(0) = 1/2, K = 2.

    Both inradii are closed forms: the system ball B_r fits iff
    r^lambda_i w_i < h_i on every axis (unit half-widths w, box half-widths
    h), and the heat ball of radius r fits in s1 iff
    r sqrt(n/(2 pi e)) < h_i in space and r^2/(4 pi) < 2 h_t in time.
    """
    if not isinstance(omega, Box):
        raise TypeError("assembly implemented for box domains only")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    n, m = omega.dim - 1, 3
    kn = k_heat_value(n)
    sys = parabolic_box_system(m, n)
    rho = float(np.min((omega.halfwidths() / sys.unit_ball.halfwidths())
                       ** (1.0 / np.asarray(sys.lambdas))))
    R1 = rho / 4.0
    s1 = system_shrink(omega, sys, R1)
    hw = s1.halfwidths()
    sigma = min(float(np.min(hw[:n])) / math.sqrt(n / (2.0 * math.pi * math.e)),
                math.sqrt(8.0 * math.pi * hw[n]))
    R2 = sigma / 2.0
    M = kappa_max_value(m, n)
    ctil = pmvi_constant(M, sys, p)
    return _cp_report(f"c_p[heat,n={n},m={m},p={p:g}]", p, kn, R1, R2, n + 2,
                      ctil, heatball_shrink(s1, R2, n),
                      {"n": n, "m": m, "M": M,
                       "inradius_box": rho, "inradius_heat": sigma})


def sublevel_to_pmean_bound(C: float, delta: float, p: float,
                            omega_vol: float) -> float:
    """Lower bound for the normalized p-mean from a sublevel estimate.

    Assumes |{|u| <= eps}| <= C eps^delta; valid for p in (-delta, 0).
    k0 is the smallest integer with 2^{k delta} C >= |Omega|.
    """
    if C <= 0 or delta <= 0 or omega_vol <= 0:
        raise ValueError("C, delta, and the volume must be positive")
    if not -delta < p < 0.0:
        raise ValueError("p must lie in (-delta, 0)")
    k0 = math.ceil(math.log2(omega_vol / C) / delta)
    while 2.0 ** ((k0 - 1) * delta) * C >= omega_vol:
        k0 -= 1
    while 2.0 ** (k0 * delta) * C < omega_vol:
        k0 += 1
    inner = (2.0 ** (-p + k0 * (delta + p)) * C
             / ((1.0 - 2.0 ** (-delta - p)) * omega_vol) + 2.0 ** (k0 * p))
    return inner ** (1.0 / p)


def pmean_to_sublevel_bound(c: float, p: float, omega_vol: float,
                            eps: float) -> float:
    """|{x : |u| <= eps}| <= c^p |Omega| eps^{-p} when the normalized
    p-mean is at least c (p < 0)."""
    if c <= 0 or eps <= 0 or omega_vol <= 0:
        raise ValueError("c, eps, and the volume must be positive")
    if p >= 0.0:
        raise ValueError("p must be negative")
    return c**p * omega_vol * eps ** (-p)


def constants_table(ns=(1, 2, 3), ms=(3, 4, 5, 6), budget: int = 200_000,
                    seed: int = 0) -> list[ConstantReport]:
    """The named-constants audit table used by the CLI."""
    rows: list[ConstantReport] = []
    for n in ns:
        rows.append(ConstantReport(name=f"k_laplace[n={n}]",
                                   closed_form=k_laplace(n),
                                   inputs={"n": n}))
    for n in ns:
        vol = heatball_unit_volume(n, budget=budget, seed=seed)
        rows.append(ConstantReport(
            name=f"heatball_volume[n={n}]",
            closed_form=heatball_unit_volume_exact(n), cross_check=vol.value,
            inputs={"n": n, "mc_se": vol.std_error, "mc_samples": vol.samples}))
    for n in ns:
        rows.append(k_heat(n, budget=budget, seed=seed))
    for m in ms:
        for n in ns:
            rows.append(kappa_max(m, n))
    return rows
