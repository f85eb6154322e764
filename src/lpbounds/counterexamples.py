"""Constructions bounding what uniform sublevel estimates can survive.

The comb set: a union of thin rectangles of near-full measure on which a
function with unit Laplacian stays uniformly small, built in exact rational
arithmetic.  The Runge approximation step is realized as a least-squares
fit over the harmonic polynomial basis; subtracting the fit from t^2/2
keeps the Laplacian exactly 1 while the sublevel set swallows the comb.

Also: the oscillating family with det(-Hess) = e^{2x} but sup norm 2e/N,
and the dimension-lifting check for L^p lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import Box, _as_points, _lattice
from .fields import (
    ScalarField,
    field_sum,
    polynomial_field,
    harmonic_polynomial_field,
    ccw_hessian_field,
    laplacian_operator,
    neg_hessian_det,
)
from . import quadrature
from .quadrature import _pool_map, integrate

__all__ = [
    "CombSet",
    "build_comb",
    "CcwTarget",
    "ccw_target",
    "HarmonicFit",
    "fit_harmonic",
    "assemble_ccw_witness",
    "hessian_family_check",
    "lift_check",
]


@dataclass(frozen=True)
class CombSet:
    """Union of disjoint rectangles with exact rational corners.

    Rectangle i (1-based): x in [delta/4, 1 - delta/4],
    t in [i(delta + delta^2/4) - delta, i(delta + delta^2/4)]; consecutive
    rectangles are separated by exactly delta^2/4, and
    measure = delta (1 - delta/2) count > 1 - 2 delta.
    """

    delta: Fraction
    rects: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]

    @property
    def count(self) -> int:
        return len(self.rects)

    @property
    def measure_exact(self) -> Fraction:
        d = self.delta
        return d * (1 - d / 2) * self.count

    @property
    def measure(self) -> float:
        return float(self.measure_exact)

    @property
    def separation(self) -> Fraction:
        return self.delta * self.delta / 4

    def component_index(self, p, inflate: Fraction = Fraction(0)):
        """Index of the (possibly inflated) rectangle containing each point
        of an (N, 2) batch, or -1.  Inflation below half the separation keeps
        components disjoint."""
        if inflate * 2 >= self.separation:
            raise ValueError("inflation would merge comb components")
        pts = _as_points(p, 2)
        idx = np.full(len(pts), -1, dtype=int)
        e = float(inflate)
        for i, (x0, x1, t0, t1) in enumerate(self.rects):
            hit = ((pts[:, 0] >= float(x0) - e) & (pts[:, 0] <= float(x1) + e)
                   & (pts[:, 1] >= float(t0) - e) & (pts[:, 1] <= float(t1) + e))
            idx[hit] = i
        return idx

    def bounding_box(self) -> Box:
        x0 = min(r[0] for r in self.rects)
        x1 = max(r[1] for r in self.rects)
        t0 = min(r[2] for r in self.rects)
        t1 = max(r[3] for r in self.rects)
        return Box((float(x0), float(t0)), (float(x1), float(t1)))


def build_comb(delta) -> CombSet:
    """Comb set for delta in (0, 1/2), everything exact rational."""
    d = Fraction(delta)
    if not 0 < d < Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2)")
    count = math.floor((4 - d * d) / (4 * d + d * d))
    if count < 1:
        raise ValueError("delta too large: no rectangle fits")
    step = d + d * d / 4
    x0, x1 = d / 4, 1 - d / 4
    rects = []
    for i in range(1, count + 1):
        top = i * step
        rects.append((x0, x1, top - d, top))
    # sharp: count <= (4 - d^2)/(4d + d^2) gives count * step <= 1 - d^2/4
    if rects[-1][3] > 1 - d * d / 4:
        raise AssertionError("comb exceeds the unit square")
    return CombSet(delta=d, rects=tuple(rects))


class _PiecewiseTarget:
    """w_1: locally constant value c_i^2/2 on (a neighborhood of) rectangle i."""

    def __init__(self, comb: CombSet, values: tuple[float, ...],
                 inflate: Fraction):
        self.comb = comb
        self.values = np.asarray(values, dtype=float)
        self.inflate = inflate

    def __call__(self, p):
        idx = self.comb.component_index(p, self.inflate)
        out = np.full(len(idx), np.nan)
        ok = idx >= 0
        out[ok] = self.values[idx[ok]]
        return out


@dataclass
class CcwTarget:
    """The pair (v, w_1) feeding the Runge step, with the exact closeness bound."""

    v: ScalarField
    w1: _PiecewiseTarget
    comb: CombSet
    bound: float


def ccw_target(comb: CombSet) -> CcwTarget:
    """v(x, t) = t^2/2 and the piecewise constant w_1 = c_i^2/2.

    On the delta^2/16-neighborhood of the comb, |v - w_1| <= delta + delta^2/8.
    This is the Laplacian branch; the heat branch needs caloric
    approximation machinery that is out of scope.
    """
    v = polynomial_field({(0, 2): 0.5}, dim=2, name="t^2/2",
                         domain=Box((0.0, 0.0), (1.0, 1.0)))
    vals = []
    for _, _, t0, t1 in comb.rects:
        c = (t0 + t1) / 2
        vals.append(float(c * c / 2))
    inflate = comb.delta ** 2 / 16
    w1 = _PiecewiseTarget(comb, tuple(vals), inflate)
    bound = float(comb.delta + comb.delta**2 / 8)
    return CcwTarget(v=v, w1=w1, comb=comb, bound=bound)


@dataclass
class HarmonicFit:
    """Least-squares harmonic approximant Re sum_k gamma_k w^k + gamma_0.

    sample_rms is the fit residual on the sample set itself; over a fixed
    sample set it is nonincreasing in degree (nested least-squares spaces).
    residual_sup, the certification number, is the sup of the error on an
    independent dense grid and carries no such guarantee.
    """

    degree: int
    gammas: tuple[complex, ...]
    center: tuple[float, float]
    scale: float
    residual_sup: float
    sample_rms: float = 0.0

    def as_field(self, domain: Box | None = None) -> ScalarField:
        pairs = [(k, g) for k, g in enumerate(self.gammas)]
        return harmonic_polynomial_field(pairs, center=self.center,
                                         scale=self.scale, domain=domain,
                                         name=f"harmonic-fit-{self.degree}")


def _rect_grid(rect, nx: int, nt: int) -> np.ndarray:
    x0, x1, t0, t1 = (float(v) for v in rect)
    return _lattice([np.linspace(x0, x1, nx), np.linspace(t0, t1, nt)])


def fit_harmonic(target: CcwTarget, comb: CombSet, degree: int,
                 samples_per_rect: int = 64, seed: int = 0) -> HarmonicFit:
    """Fit the basis {1, Re w^k, Im w^k : k <= degree} to w_1 on comb samples.

    w recenters the comb hull and rescales by its half-diagonal so |w| <= 1;
    columns are max-abs normalized before the solve.  The residual sup norm
    is evaluated on an independent dense grid over the comb.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rng = np.random.default_rng(seed)
    pts = []
    for x0, x1, t0, t1 in comb.rects:
        u = rng.random((samples_per_rect, 2))
        lo = np.array([float(x0), float(t0)])
        hi = np.array([float(x1), float(t1)])
        pts.append(lo + u * (hi - lo))
    pts = np.vstack(pts)
    yvals = target.w1(pts)

    bb = comb.bounding_box()
    cx, cy = bb.center
    scale = float(np.hypot(*bb.halfwidths()))
    w = ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy)) / scale
    cols = [np.ones(len(pts))]
    for k in range(1, degree + 1):
        wk = w**k
        cols.append(wk.real)
        cols.append(wk.imag)
    X = np.stack(cols, axis=1)
    norms = np.max(np.abs(X), axis=0)
    norms[norms == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(X / norms, yvals, rcond=None)
    if rank < X.shape[1]:
        raise ValueError("rank-deficient fit: degree too high for the samples")
    coef = coef / norms
    rms = float(np.sqrt(np.mean((X @ coef - yvals) ** 2)))

    gammas = [complex(coef[0])]
    for k in range(1, degree + 1):
        gammas.append(complex(coef[2 * k - 1], -coef[2 * k]))

    fit = HarmonicFit(degree=degree, gammas=tuple(gammas), center=(cx, cy),
                      scale=scale, residual_sup=0.0, sample_rms=rms)
    f = fit.as_field()
    resid = 0.0
    for rect in comb.rects:
        grid = _rect_grid(rect, 160, 40)
        resid = max(resid, float(np.max(np.abs(f.fn(grid) - target.w1(grid)))))
    fit.residual_sup = resid
    return fit


def assemble_ccw_witness(delta, degree: int, samples_per_rect: int = 64,
                         seed: int = 0, budget: int = 200_000) -> dict:
    """Full pipeline: comb -> target -> fit -> u = v - fit, plus certificates.

    Returns the witness field and the numbers backing the sublevel claim:
    tau = residual + delta + delta^2/8 bounds |u| on the comb, so the
    sublevel set {|u| <= tau} has measure at least the comb's.  passed is
    the verdict: Delta u = 1 to 1e-8, |u| <= tau on a grid over the comb,
    and the upper 3-SE bound of the sublevel measure at least the comb's,
    with sublevel_slack the room in that last inequality.
    """
    comb = build_comb(delta)
    target = ccw_target(comb)
    fit = fit_harmonic(target, comb, degree, samples_per_rect, seed)
    square = Box((0.0, 0.0), (1.0, 1.0))
    u = field_sum([target.v, fit.as_field()], [1.0, -1.0],
                  name=f"ccw-witness-{degree}")
    u.domain = square
    tau = fit.residual_sup + target.bound

    grid = square.sample(4096, np.random.default_rng(seed + 1))
    lap_err = float(np.max(np.abs(laplacian_operator(2).apply(u, grid) - 1.0)))

    sub = integrate(lambda pts: (np.abs(u.fn(pts)) <= tau).astype(float),
                    square, budget=budget, seed=seed)
    comb_grid_ok = True
    for rect in comb.rects:
        g = _rect_grid(rect, 80, 20)
        if np.max(np.abs(u.fn(g))) > tau * (1.0 + 1e-9):
            comb_grid_ok = False
    sub_hi = sub.ci()[1]
    passed = (lap_err <= 1e-8 and sub_hi >= comb.measure and comb_grid_ok)
    return {"comb": comb, "fit": fit, "field": u, "tau": tau,
            "residual": fit.residual_sup, "target_bound": target.bound,
            "laplacian_max_err": lap_err, "sublevel_measure": sub.value,
            "sublevel_se": sub.std_error, "comb_measure": comb.measure,
            "comb_grid_within_tau": comb_grid_ok, "degree": degree,
            "delta": float(comb.delta), "seed": seed, "passed": passed,
            "sublevel_slack": sub_hi - comb.measure}


def hessian_family_check(N: float, c: float) -> dict:
    """u_N = (e^x sin(Ny) + e)/N on the unit square.

    det(-Hess u_N) = e^{2x} for every N (checked on a 64 x 64 grid against
    the exponential directly), yet sup|u_N| <= 2e/N, so the superlevel set
    {|u_N| >= c} empties once N > 2e/c while the Hessian target never drops
    below 1.

    sup_grid is max |u_N| over a 128 x ny grid, ny = min(max(1024, 32 N),
    65536), scanned in blocks of whole x-rows, as many as fit in EVAL_BLOCK
    points and at least one, so memory does not grow with N.  The blocks
    map on the pool of an enclosing quadrature._workers block.  Block
    maxima are folded with np.max, so a NaN anywhere on the grid reaches
    sup_grid.
    """
    if N < 1 or c <= 0:
        raise ValueError("need N >= 1 and c > 0")
    u = ccw_hessian_field(N)
    xs = np.linspace(0.0, 1.0, 64)
    pts = _lattice([xs, xs])
    det = neg_hessian_det(u, pts)
    expected = np.exp(2.0 * pts[:, 0])
    max_rel_err = float(np.max(np.abs(det - expected) / expected))
    min_det = float(np.min(det))

    ny = int(min(max(1024, 32 * N), 65536))
    ys = np.linspace(0.0, 1.0, ny)
    xs = np.linspace(0.0, 1.0, 128)
    rows = max(1, quadrature.EVAL_BLOCK // ny)

    def block_max(i: int) -> float:
        block = _lattice([xs[i * rows:(i + 1) * rows], ys])
        return np.max(np.abs(u.fn(block)))

    sup_grid = float(np.max(_pool_map(block_max, -(-len(xs) // rows))))
    sup_bound = 2.0 * math.e / N
    return {"N": N, "c": c, "max_rel_err": max_rel_err,
            "min_det": min_det, "sup_grid": sup_grid, "sup_bound": sup_bound,
            "superlevel_empty": sup_bound < c,
            "superlevel_empty_on_grid": sup_grid < c}


def lift_check(u, omega2: Box, p: float, c: float, budget: int = 100_000,
               seed: int = 0) -> dict:
    """v(x, y) = u(x) on Omega1 x Omega2 satisfies ||v||_p >= c |Omega2|^{1/p}
    whenever ||u||_p >= c on Omega1 (p > 0); verified within 3 SE."""
    if p <= 0:
        raise ValueError("p must be positive")
    om1 = getattr(u, "domain", None)
    if not isinstance(om1, Box):
        raise ValueError("u must carry a box domain")
    d1 = om1.dim
    product = Box(om1.lo + omega2.lo, om1.hi + omega2.hi)
    fn = u.fn if hasattr(u, "fn") else u
    res = integrate(lambda pts: np.abs(np.asarray(fn(pts[:, :d1]))) ** p,
                    product, budget=budget, seed=seed)
    lifted = res.value ** (1.0 / p) if res.value > 0 else 0.0
    guarded = res.ci()[1] ** (1.0 / p)
    bound = c * omega2.measure ** (1.0 / p)
    return {"lifted": lifted, "lifted_guarded": guarded, "bound": bound,
            "passed": guarded >= bound, "p": p, "c": c,
            "se": res.std_error, "seed": seed}
