"""Ball and heat-ball mean values, derivative-formula evaluators, MVI checkers.

The ball average is phi(r) = avg_{B_r(x)} u; its derivative equals the
weighted Laplacian average (1/|B_r|) int (r^2 - |x-y|^2)/(2r) Delta u.
The heat-ball average is phi(r) = (1/(4 r^n)) int_{E(x,t;r)} u |x-y|^2/(t-s)^2;
its derivative equals (n/r^{n+1}) int_{E(r)} Hu log(r^n Phi_n).  Both
derivative identities are evaluated by Monte Carlo in scale-free unit
coordinates, through one sampler per family: _ball_mean draws the unit
ball and _heatball_mean the unit heat-ball slices.  Each checks the radius
and that the region fits in the field's domain, then runs mc_mean once,
evaluating each drawn batch in quadrature.EVAL_BLOCK-row sub-blocks.
_fd turns a per-sample term into the centered difference quotient in the
radius; both radii share each sample (common random numbers), so the
quotient carries an honest per-sample error.

MVI checkers test u_+, u_+^p or u_+^a on admissible pairs (a, r): a
uniform in the field's Box domain, r uniform in (0, R(a)] with R from
radius_function, R(0) = 1/2 and K = 2; the modified heat-ball MVI tests u_+
at given centers.  One scorer flags a trial when lhs > rhs + 3 SE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Box,
    BallSystem,
    Heatball,
    _as_points,
    _lattice,
    heatball_shrink,
    euclidean_shrink,
    radius_function,
    unit_ball_points,
    unit_ball_volume,
)
from . import quadrature
from .fields import heat_operator, laplacian_operator
from .quadrature import QuadResult, _blockwise, mc_mean

__all__ = [
    "SMAX",
    "ball_average",
    "ball_average_fd",
    "deriv1_rhs",
    "heatball_average",
    "heatball_average_fd",
    "deriv2_rhs",
    "modified_heatball_average",
    "heatball_unit_volume",
    "MviCheckReport",
    "pmvi_constant",
    "concave_mvi_constant",
    "sample_admissible",
    "check_mvi",
    "check_pmvi",
    "check_concave_mvi",
    "check_modified_heatball_mvi",
    "claim_laplace_drop",
    "claim_heat_drop",
    "dense_box_sup",
]

SMAX = 1.0 / (4.0 * math.pi)


def _require_inside(u, box: Box, what: str) -> None:
    """ValueError unless box lies in u's domain; no domain, no check."""
    dom = getattr(u, "domain", None)
    if dom is None:
        return
    lo_ok = all(a >= b for a, b in zip(box.lo, dom.lo))
    hi_ok = all(a <= b for a, b in zip(box.hi, dom.hi))
    if not (lo_ok and hi_ok):
        raise ValueError(f"{what} escapes the field's domain")


def _ball_mean(u, x: np.ndarray, reach: float, value, budget: int,
               seed: int, method: str = "mc-ball") -> QuadResult:
    """mc_mean of value(z) over uniform draws z of the unit ball.

    Raises unless reach > 0 and the ball B_reach(x) lies in u's domain.
    """
    if reach <= 0:
        raise ValueError("radius must be positive")
    _require_inside(u, Box(tuple(x - reach), tuple(x + reach)), "ball")
    d = len(x)
    return mc_mean(
        lambda rng, count: _blockwise(value, unit_ball_points(d, count, rng)),
        budget, seed, method)


def _heatball_mean(u, center: np.ndarray, reach: float, m: int, value,
                   budget: int, seed: int,
                   method: str = "mc-slice-importance") -> QuadResult:
    """mc_mean of value(y, s, w) over unit heat-ball slice samples.

    The slices use the kernel dimension m + n.  Raises unless reach > 0 and
    the heat ball E_m(center; reach) lies in u's domain.
    """
    if reach <= 0:
        raise ValueError("radius must be positive")
    _require_inside(u, Heatball(tuple(center), reach, m).bounding_box(),
                    "heat ball")
    n = len(center) - 1
    return mc_mean(
        lambda rng, count: _blockwise(value,
                                      *_slice_samples(n, m + n, count, rng)),
        budget, seed, method)


def _fd(term, r: float, h: float):
    """Per-sample centered difference quotient of term(rr, *sample) in rr.

    Both radii see the same sample (common random numbers), so the standard
    error is that of the difference quotient itself, not of order 1/h.
    """
    if not 0 < h < r:
        raise ValueError("need 0 < h < r")
    return lambda *sample: (term(r + h, *sample)
                            - term(r - h, *sample)) / (2.0 * h)


def _ball_term(u, x: np.ndarray):
    """u at x + rr z for unit-ball samples z."""
    return lambda rr, z: np.asarray(u.fn(x + rr * z), dtype=float)


def ball_average(u, x, r: float, budget: int = 100_000,
                 seed: int = 0) -> QuadResult:
    """avg_{B_r(x)} u by direct uniform sampling of the ball."""
    x = np.asarray(x, dtype=float)
    term = _ball_term(u, x)
    return _ball_mean(u, x, r, lambda z: term(r, z), budget, seed)


def ball_average_fd(u, x, r: float, budget: int = 100_000,
                    seed: int = 0) -> QuadResult:
    """Centered difference quotient of the ball average in r, step 1e-3 r."""
    x = np.asarray(x, dtype=float)
    h = 1e-3 * r
    quotient = _fd(_ball_term(u, x), r, h)
    return _ball_mean(u, x, r + h, quotient, budget, seed, "mc-ball-fd")


def deriv1_rhs(u, x, r: float, budget: int = 100_000,
               seed: int = 0) -> QuadResult:
    """(1/|B_r|) int_{B_r(x)} (r^2 - |x-y|^2)/(2r) Delta u(y) dy.

    Uses the field's exact Hessian trace.  Equals d/dr of the ball average.
    """
    x = np.asarray(x, dtype=float)
    laplace = laplacian_operator(len(x))

    def value(z):
        lap = laplace.apply(u, x + r * z)
        weight = r * (1.0 - np.sum(z * z, axis=1)) / 2.0
        return weight * lap

    return _ball_mean(u, x, r, value, budget, seed)


def _slice_weights(n: int, kernel_dim: int, count: int,
                   rng: np.random.Generator):
    """Importance draws of the unit heat ball's ages, with kernel dimension D.

    s = u^2/(4 pi) (density 1/(2 sqrt(s_max s))), and the slice at age s is
    the ball of radius rho = sqrt(2 D s log(1/(4 pi s))).  Returns
    (s, rho, w) with w the importance weight such that
    int_{E(1)} g = E[g(y, s) w] for y uniform in the slice ball.  Draws
    only u, so a caller that reads w alone draws nothing more.
    """
    uu = np.maximum(rng.random(count), 1e-16)
    s = SMAX * uu * uu
    bigl = -2.0 * np.log(uu)
    rho = np.sqrt(2.0 * kernel_dim * s * bigl)
    w = unit_ball_volume(n) * rho**n * 2.0 * np.sqrt(SMAX * s)
    return s, rho, w


def _slice_samples(n: int, kernel_dim: int, count: int,
                   rng: np.random.Generator):
    """Importance samples (y, s, w) of the unit heat ball: _slice_weights,
    then y uniform in each slice ball from the same generator."""
    s, rho, w = _slice_weights(n, kernel_dim, count, rng)
    return rho[:, None] * unit_ball_points(n, count, rng), s, w


def _heatball_points(center: np.ndarray, r: float, y: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
    """Spacetime points (center_x - r y, center_t - r^2 s) of unit (y, s)."""
    n = len(center) - 1
    pts = np.empty((len(s), n + 1))
    pts[:, :n] = center[:n] - r * y
    pts[:, n] = center[n] - r * r * s
    return pts


def _heatball_term(u, center: np.ndarray):
    """(1/4) u |y|^2 / s^2 w at the unit slice sample (y, s, w) scaled by rr."""
    def term(rr, y, s, w):
        kern = np.sum(y * y, axis=1) / (s * s)
        pts = _heatball_points(center, rr, y, s)
        return 0.25 * np.asarray(u.fn(pts), dtype=float) * kern * w

    return term


def heatball_average(u, center, r: float, budget: int = 100_000,
                     seed: int = 0) -> QuadResult:
    """(1/(4 r^n)) int_{E(center; r)} u(y, s) |x-y|^2/(t-s)^2 dy ds.

    Evaluated in unit coordinates with the slice importance sampler, which
    keeps the kernel weight bounded near s -> 0 in every dimension.
    """
    center = np.asarray(center, dtype=float)
    term = _heatball_term(u, center)
    return _heatball_mean(u, center, r, 0,
                          lambda y, s, w: term(r, y, s, w), budget, seed)


def heatball_average_fd(u, center, r: float, budget: int = 100_000,
                        seed: int = 0) -> QuadResult:
    """Centered difference quotient of the heat-ball average in r, step
    1e-3 r."""
    center = np.asarray(center, dtype=float)
    h = 1e-3 * r
    quotient = _fd(_heatball_term(u, center), r, h)
    return _heatball_mean(u, center, r + h, 0, quotient, budget, seed,
                          "mc-slice-importance-fd")


def deriv2_rhs(u, center, r: float, budget: int = 100_000,
               seed: int = 0) -> QuadResult:
    """(n/r^{n+1}) int_{E(center; r)} Hu log(r^n Phi_n(x-y, t-s)) dy ds.

    In unit coordinates the log factor is log Phi_n(y, s) >= 0 on E(1).
    Uses the field's exact spatial Hessian and time derivative.
    """
    center = np.asarray(center, dtype=float)
    n = len(center) - 1
    heat = heat_operator(n)

    def value(y, s, w):
        hu = heat.apply(u, _heatball_points(center, r, y, s))
        psi = (-0.5 * n * np.log(4.0 * math.pi * s)
               - np.sum(y * y, axis=1) / (4.0 * s))
        return n * r * hu * psi * w

    return _heatball_mean(u, center, r, 0, value, budget, seed)


def modified_heatball_average(u, center, r: float, m: int,
                              budget: int = 100_000, seed: int = 0) -> QuadResult:
    """(1/r^{n+2}) int_{E_m(center; r)} u(y, s) kappa_{m,n} dy ds.

    kappa is evaluated in unit coordinates; the average of u = 1 is exactly
    1 (the kernel integrates to 1 over the unit modified heat ball).
    """
    from .constants import kappa

    center = np.asarray(center, dtype=float)
    n = len(center) - 1
    if m < 3:
        raise ValueError("m must be at least 3")

    def value(y, s, w):
        pts = _heatball_points(center, r, y, s)
        return np.asarray(u.fn(pts), dtype=float) * kappa(m, n, y, s) * w

    return _heatball_mean(u, center, r, m, value, budget, seed)


def heatball_unit_volume(n: int, budget: int = 200_000,
                         seed: int = 0) -> QuadResult:
    """Monte Carlo |E(1)|: the mean importance weight of the slice sampler.

    The weights are drawn alone.  Each batch has its own generator and
    _slice_samples draws y after them, so the bits are those of the full
    sampler.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return mc_mean(lambda rng, count: _slice_weights(n, n, count, rng)[2],
                   budget, seed, "mc-slice-importance")


@dataclass(frozen=True)
class MviCheckReport:
    kind: str
    constant: float
    trials: int
    violations: int
    worst_margin: float
    seed: int


# R(0) and the ratio constant of the radius functions the MVIs assume
R0 = 0.5
K = 2.0


def pmvi_constant(C: float, sys: BallSystem, p: float) -> float:
    """C~_p = 2 R0^{-A} (2 K^A)^{(1-p)/p} C with A the system degree."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    A = sys.degree
    return 2.0 * R0 ** (-A) * (2.0 * K**A) ** ((1.0 - p) / p) * C


def concave_mvi_constant(C: float, sys: BallSystem, c_phi: float) -> float:
    """C_phi = 2 R0^{-A} c_phi^m C with m = ceil(log2(2 K^A)).

    Implementation-chosen closed form following the doubling proof sketch;
    reported as such wherever it is printed.
    """
    if c_phi < 1.0:
        raise ValueError("c_phi must be at least 1")
    A = sys.degree
    m = math.ceil(math.log2(2.0 * K**A))
    return 2.0 * R0 ** (-A) * c_phi**m * C


def sample_admissible(sys: BallSystem, domain, trials: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(a, r) pairs: a uniform in the Box domain, r uniform in (0, R(a)];
    RuntimeError if a center lies on the boundary, where R(a) = 0."""
    a = domain.sample(trials, rng)
    rmax = radius_function(sys, domain, a)
    if not np.all(rmax > 0.0):
        raise RuntimeError("a center on the domain boundary has R(a) = 0")
    r = rng.random(trials) * rmax
    # a draw of exactly 0 gets half the admissible radius
    return a, np.where(r > 0.0, r, 0.5 * rmax)


_ESCALATION = (64, 2048)


def _ball_points(a: np.ndarray, scales: np.ndarray, unit: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """out, a (k, samples, d) array, filled with the points
    a[i] + scales[i] * unit[j] of k balls.

    Built one column at a time: the same bits as the broadcast over the
    short last axis, in a fraction of its time.
    """
    for j in range(a.shape[1]):
        col = out[:, :, j]
        np.multiply(scales[:, j, None], unit[None, :, j], out=col)
        col += a[:, None, j]
    return out


def _mvi_harness(kind: str, values_of, sys: BallSystem, constant: float,
                 trials: int, seed: int, domain, samples: int) -> MviCheckReport:
    """Shared MVI test loop.

    values_of maps points to the tested transform of the field (u_+ or
    u_+ ** a).  Trials whose ball sample mean is exactly zero while lhs > 0
    are re-run at larger sample counts before being scored (thin positive
    slivers are otherwise invisible to small samples).  Raises
    ValueError without a domain, with no trial, or with fewer than two
    samples a trial (no standard error).
    """
    if domain is None:
        raise ValueError("no domain: the field needs a domain box")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if samples < 2:
        raise ValueError("samples per trial must be at least 2")
    v1 = sys.unit_volume
    ss = np.random.SeedSequence(seed)
    s_pairs, s_unit, s_esc = ss.spawn(3)
    rng = np.random.default_rng(s_pairs)
    a, r = sample_admissible(sys, domain, trials, rng)
    lam = np.asarray(sys.lambdas)
    unit_rng = np.random.default_rng(s_unit)
    unit = sys.unit_ball.sample(samples, unit_rng)

    lhs = values_of(np.asarray(a))
    # an array power: a scalar r ** 2.0 would take NumPy's square loop,
    # which rounds differently
    scales = r[:, None] ** lam[None, :]
    means = np.empty(trials)
    ses = np.empty(trials)
    # one EVAL_BLOCK-point block of trials at a time; every trial reduces
    # along its own row, so the block size changes no bit of the report
    chunk = max(1, quadrature.EVAL_BLOCK // samples)
    # every block reuses one buffer: a fresh one per block can be returned
    # to the OS and faulted in again each time, depending on heap layout
    buf = np.empty((min(chunk, trials), samples, sys.dim))
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        pts = _ball_points(a[start:stop], scales[start:stop], unit,
                           buf[:stop - start])
        flat = values_of(pts.reshape(-1, sys.dim)).reshape(stop - start, samples)
        means[start:stop] = np.mean(flat, axis=1)
        ses[start:stop] = np.std(flat, axis=1, ddof=1) / math.sqrt(samples)

    esc_rng = np.random.default_rng(s_esc)
    needs = np.flatnonzero((means == 0.0) & (lhs > 0.0))
    for i in needs:
        for factor in _ESCALATION:
            big = samples * factor
            unit_big = sys.unit_ball.sample(big, esc_rng)
            vals = values_of(_ball_points(a[i:i + 1], scales[i:i + 1],
                                          unit_big,
                                          np.empty((1, big, sys.dim)))[0])
            means[i] = float(np.mean(vals))
            ses[i] = float(np.std(vals, ddof=1) / math.sqrt(big))
            if means[i] > 0.0:
                break

    return _report(kind, constant, constant * v1, 3.0 * constant * v1, means,
                   ses, lhs, seed)


def _report(kind: str, constant: float, scale: float, band: float,
            means: np.ndarray, ses: np.ndarray, lhs: np.ndarray,
            seed: int) -> MviCheckReport:
    """Scores trial i by scale * means[i] + band * ses[i] - lhs[i] (factors
    as the callers compute them, which fixes the bits); a trial is a
    violation unless its margin is >= 0, so NaN fails."""
    margins = scale * means + band * ses - lhs
    return MviCheckReport(kind=kind, constant=constant, trials=len(margins),
                          violations=int(np.count_nonzero(~(margins >= 0.0))),
                          worst_margin=float(np.min(margins)), seed=seed)


def _positive_values(u):
    """Map of points to u_+ = max(u, 0): the checkers' one clamp."""
    def values(pts):
        return np.maximum(np.asarray(u.fn(pts), dtype=float), 0.0)

    return values


def _power_values(u, a: float):
    """Map of points to u_+ ** a."""
    base = _positive_values(u)
    return lambda pts: base(pts) ** a


def check_mvi(u, sys: BallSystem, C: float, trials: int = 1000,
              seed: int = 0, samples_per_trial: int = 1024) -> MviCheckReport:
    """Tests u_+(a) <= (C/r^A) int_{B_r(a)} u_+ + 3 SE on admissible pairs
    of u's domain box."""
    base = _positive_values(u)
    return _mvi_harness("mvi", base, sys, C, trials, seed, u.domain,
                        samples_per_trial)


def check_pmvi(u, sys: BallSystem, C: float, p: float, trials: int = 1000,
               seed: int = 0, samples_per_trial: int = 1024) -> MviCheckReport:
    """p-th power MVI with the closed-form constant from pmvi_constant."""
    return _mvi_harness(f"pmvi[p={p:g}]", _power_values(u, p), sys,
                        pmvi_constant(C, sys, p), trials, seed, u.domain,
                        samples_per_trial)


def check_concave_mvi(u, sys: BallSystem, C: float, a: float,
                      trials: int = 1000, seed: int = 0,
                      samples_per_trial: int = 1024) -> MviCheckReport:
    """MVI for the concave map phi(u_+) = u_+^a, a in (0, 1], with the
    implementation-chosen doubling constant.

    phi^{-1}(2t) = c_phi phi^{-1}(t) with c_phi = 2^{1/a}.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    c_phi = 2.0 ** (1.0 / a)
    return _mvi_harness(f"concave[c_phi={c_phi:g}]", _power_values(u, a),
                        sys, concave_mvi_constant(C, sys, c_phi), trials, seed,
                        u.domain, samples_per_trial)


def check_modified_heatball_mvi(u, m: int, centers,
                                budget: int = 100_000, seed: int = 0,
                                constant: float | None = None) -> MviCheckReport:
    """u_+(x, t) <= (M_{m,n}/R^{n+2}) int_{E_m(x,t;R)} u_+ + 3 SE at R = 1/2.

    centers is an (N, n + 1) batch; each center gets one trial, and each
    E_m(center; R) must lie in u's domain box.  constant overrides
    M_{m,n} (used by the deliberately-failing sanity check).
    """
    from .constants import kappa_max_value

    R = 0.5
    centers = _as_points(centers, u.dim)
    n = centers.shape[1] - 1
    M = kappa_max_value(m, n) if constant is None else float(constant)
    base = _positive_values(u)
    scale = R ** (n + 2)
    res = [_heatball_mean(
        u, c, R, m,
        lambda y, s, w: scale * base(_heatball_points(c, R, y, s)) * w,
        budget, seed + i) for i, c in enumerate(centers)]
    factor = M / R ** (n + 2)
    return _report(f"modified-heatball[m={m}]", M, factor, 3.0 * factor,
                   np.array([q.value for q in res]),
                   np.array([q.std_error for q in res]), base(centers), seed)


def dense_box_sup(u, box: Box, interior: int = 128,
                  edge: int = 65537) -> float:
    """max of u over a box by interior lattice plus dense boundary scan.

    Subsolutions attain their max on the boundary, where the scan is much
    denser; the interior lattice is a safety net.  A NaN value anywhere
    makes the result NaN.
    """
    fn = u.fn
    d = box.dim
    axes = [np.linspace(lo, hi, interior) for lo, hi in zip(box.lo, box.hi)]
    peaks = [np.max(fn(_lattice(axes)))]
    face_res = edge if d == 2 else 513
    for axis in range(d):
        others = [np.linspace(lo, hi, face_res)
                  for i, (lo, hi) in enumerate(zip(box.lo, box.hi)) if i != axis]
        grid = _lattice(others) if others else np.zeros((1, 0))
        for side in (box.lo[axis], box.hi[axis]):
            face = np.insert(grid, axis, side, axis=1)
            peaks.append(np.max(fn(face)))
    return float(np.max(peaks))


def _claim_drop(kind: str, u, omega: Box, inner: Box | None, drop: float,
                R: float, n_points: int, seed: int) -> dict:
    """Samples inner and counts points where u exceeds sup_omega u - drop.

    A point is a violation unless its margin is >= -tol, so NaN fails.
    """
    if inner is None:
        raise ValueError("shrunken domain is empty")
    sup = dense_box_sup(u, omega)
    pts = inner.sample(n_points, np.random.default_rng(seed))
    vals = np.asarray(u.fn(pts), dtype=float)
    tol = 1e-6 * max(1.0, abs(sup))
    margins = (sup - drop) - vals
    violations = int(np.count_nonzero(~(margins >= -tol)))
    return {"kind": kind, "sup": sup, "drop": drop,
            "points": n_points, "violations": violations,
            "worst_margin": float(np.min(margins)), "R": R, "seed": seed}


def claim_laplace_drop(u, omega: Box, R: float, n_points: int = 1000,
                       seed: int = 0) -> dict:
    """Fields with Delta u >= 1, u <= c on Omega satisfy
    u <= c - R^2/(2n+4) on the inner parallel set Omega_R."""
    n = omega.dim
    return _claim_drop("laplace-drop", u, omega, euclidean_shrink(omega, R),
                       R * R / (2.0 * n + 4.0), R, n_points, seed)


def claim_heat_drop(u, omega: Box, R: float, n_points: int = 1000,
                    seed: int = 0) -> dict:
    """Fields with Hu >= 1, u <= c on Omega satisfy u <= c - K_n R^2 on the
    heat-ball shrink of Omega."""
    from .constants import k_heat_value

    n = omega.dim - 1
    return _claim_drop("heat-drop", u, omega, heatball_shrink(omega, R, n),
                       k_heat_value(n) * R * R, R, n_points, seed)
