"""Monte Carlo and product-Gauss quadrature over membership-defined regions.

mc_mean is the one Monte Carlo engine of the package: draws are split into
fixed-size batches, each with its own SeedSequence substream, and batch
statistics are merged in batch order, so results are identical for a given
(seed, budget) regardless of thread count.  integrate and measure run it on
uniform draws in the region's bounding box, rejected by membership; a Box
region holds every draw and skips the test.
QuadResult.ci and agreement hold the package's one 3-standard-error rule.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import _lattice

__all__ = [
    "QuadResult",
    "PMeanReport",
    "EmptyRegionError",
    "mc_mean",
    "integrate",
    "measure",
    "pmean",
    "pmean_grid",
    "agreement",
    "box_gauss",
]

BATCH_SIZE = 65536

LOG_CLAMP = -700.0


class EmptyRegionError(RuntimeError):
    """No sample ever landed in the region."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    std_error: float
    samples: int
    method: str
    refine_diff: float | None = None

    def ci(self) -> tuple[float, float]:
        """(value - 3 SE, value + 3 SE): the one-sided 3-SE bounds."""
        band = 3.0 * self.std_error
        return (self.value - band, self.value + band)


@dataclass(frozen=True)
class PMeanReport:
    p: float
    value: float
    divergent: bool
    std_error: float
    samples: int
    method: str


def agreement(est, target, floor: float = 0.0) -> tuple[float, float]:
    """(diff, tol) of the two-sided 3-standard-error rule: est agrees with
    target when diff <= tol, and tol - diff is the slack.

    diff = |est.value - target| and tol = max(3 SE, floor).  target is a
    float or another estimate; for an estimate SE combines both standard
    errors in quadrature.  Only .value and .std_error are read, so
    QuadResult and PMeanReport both qualify.  A NaN value fails.
    """
    if hasattr(target, "std_error"):
        se = math.hypot(est.std_error, target.std_error)
        target = target.value
    else:
        se = est.std_error
    return abs(est.value - target), max(3.0 * se, floor)


def _batch_plan(budget: int) -> list[int]:
    if budget <= 0:
        raise ValueError("budget must be positive")
    full, rem = divmod(budget, BATCH_SIZE)
    return [BATCH_SIZE] * full + ([rem] if rem else [])


def _merge_stats(parts: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """Combine (count, mean, M2) batch statistics in list order."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, mb, m2b in parts:
        if nb == 0:
            continue
        delta = mb - mean
        tot = n + nb
        mean += delta * nb / tot
        m2 += m2b + delta * delta * n * nb / tot
        n = tot
    return n, mean, m2


def _moments(vals: np.ndarray) -> tuple[int, float, float]:
    n = len(vals)
    if n == 0:
        return 0, 0.0, 0.0
    mean = float(np.mean(vals))
    m2 = float(np.sum((vals - mean) ** 2))
    return n, mean, m2


def _pool_map(fn, count: int, threads: int) -> list:
    """[fn(0), ..., fn(count - 1)], in index order; on a pool of threads
    workers when threads > 1 and there is more than one call."""
    if threads > 1 and count > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def mc_mean(draw, budget: int, seed: int, method: str,
            threads: int = 1) -> QuadResult:
    """Seeded Monte Carlo mean of per-sample values.

    draw(rng, count) returns the values of one batch of count samples.
    Each batch draws from its own SeedSequence substream and batch moments
    are merged in batch order, so the result depends on (seed, budget)
    only, never on threads.
    """
    plan = _batch_plan(budget)
    streams = np.random.SeedSequence(seed).spawn(len(plan))

    def run_batch(i: int) -> tuple[int, float, float]:
        rng = np.random.default_rng(streams[i])
        return _moments(np.asarray(draw(rng, plan[i]), dtype=float))

    n, mean, m2 = _merge_stats(_pool_map(run_batch, len(plan), threads))
    var = m2 / (n - 1) if n > 1 else 0.0
    se = math.sqrt(max(var, 0.0) / n)
    return QuadResult(value=mean, std_error=se, samples=n, method=method)


def _finite(vals):
    """vals, or ValueError if one is NaN or infinite: such an integrand
    fails closed."""
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand is NaN or infinite at an accepted sample")
    return vals


def _members(region, box, pts: np.ndarray):
    """Index of the rows of pts, drawn in box = region.bounding_box(), that
    lie in the region.  A Box region is its own bounding box and holds every
    draw of Box.sample: its index is slice(None), so it skips the membership
    test and pts[index] is a view, not a copy."""
    return slice(None) if region is box else region.contains(pts)


def _box_rejection_mean(region, values, budget: int, seed: int,
                        threads: int) -> QuadResult:
    """Mean over the region's bounding box of |box| values(p) at members,
    0 elsewhere.  Raises EmptyRegionError if no draw is accepted."""
    box = region.bounding_box()
    boxvol = box.measure
    hits = []

    def draw(rng: np.random.Generator, count: int) -> np.ndarray:
        pts = box.sample(count, rng)
        member = _members(region, box, pts)
        inside = pts[member]
        vals = np.zeros(count)
        if len(inside):
            hits.append(True)
            vals[member] = _finite(values(inside))
        return vals * boxvol

    res = mc_mean(draw, budget, seed, "mc-rejection", threads)
    if not hits:
        raise EmptyRegionError("no sample landed in the region")
    return res


def integrate(f, region, budget: int = 100_000, seed: int = 0,
              threads: int = 1) -> QuadResult:
    """Rejection Monte Carlo integral of f over the region.

    f is a vectorized callable (N, d) -> (N,); it is evaluated only at
    accepted points.  Raises EmptyRegionError if no draw is accepted and
    ValueError if f is NaN or infinite at an accepted point.
    """
    fn = f.fn if hasattr(f, "fn") else f
    return _box_rejection_mean(
        region, lambda pts: np.asarray(fn(pts), dtype=float), budget, seed,
        threads)


def measure(region, predicate=None, budget: int = 100_000, seed: int = 0,
            threads: int = 1) -> QuadResult:
    """Volume of the region, or of its subset where predicate holds.

    An everywhere-false predicate gives 0 with zero variance; only a region
    that is never hit at all raises EmptyRegionError.
    """
    if predicate is None:
        return _box_rejection_mean(region, lambda pts: 1.0, budget, seed,
                                   threads)
    return _box_rejection_mean(
        region, lambda pts: np.asarray(predicate(pts), dtype=float),
        budget, seed, threads)


def _accepted_values(f, region, counts: list[int], seed: int) -> list[np.ndarray]:
    """|f| at accepted points, one array per requested group size."""
    box = region.bounding_box()
    fn = f.fn if hasattr(f, "fn") else f
    groups = []
    streams = np.random.SeedSequence(seed).spawn(len(counts))
    for stream, want in zip(streams, counts):
        rng = np.random.default_rng(stream)
        chunks = []
        left = want
        while left > 0:
            take = min(left, BATCH_SIZE)
            pts = box.sample(take, rng)
            inside = pts[_members(region, box, pts)]
            if len(inside):
                chunks.append(np.abs(_finite(
                    np.asarray(fn(inside), dtype=float))))
            left -= take
        groups.append(np.concatenate(chunks) if chunks else np.empty(0))
    return groups


def _divergence_verdict(groups: list[np.ndarray], p: float) -> bool:
    """Doubling-budget divergence test for means of y = |f|^p, p < 0.

    Batch means are compared after truncating at a median-scaled clamp that
    grows proportionally with batch size: for integrable tails the clamp
    bites a vanishing fraction and the truncated means agree within noise;
    for nonintegrable tails E[min(y, M)] keeps growing ~ log M and the
    doubled batches drift upward by more than 3 combined standard errors.
    """
    with np.errstate(divide="ignore"):
        ys = [np.where(g > 0, g, np.inf) ** p for g in groups]
    if any(not np.all(np.isfinite(y)) for y in ys):
        return True
    med = float(np.median(ys[0])) if len(ys[0]) else 0.0
    if not math.isfinite(med) or med <= 0.0:
        return True
    n1 = len(ys[0])
    clamp1 = med * max(0.005 * n1, 8.0)
    stats = []
    for y in ys:
        m = clamp1 * (len(y) / n1)
        v = np.minimum(y, m)
        se = float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
        stats.append((float(np.mean(v)), se))
    growth = stats[2][0] - stats[0][0]
    band = 3.0 * math.hypot(stats[0][1], stats[2][1])
    return growth > band


def pmean(f, region, p: float, budget: int = 100_000, seed: int = 0) -> PMeanReport:
    """Normalized p-th mean (avg |f|^p)^{1/p} with divergence detection.

    p = 0 is the geometric mean (log-mean clamped at -700; a clamp present
    in every doubling batch reports exactly 0).  p < 0 runs the truncated
    doubling test and reports value 0 with divergent=True when the sample
    mean of |f|^p keeps growing.  p = +-inf are sampled sup/inf of |f|.
    A NaN or infinite value of f at an accepted point raises ValueError.
    """
    return pmean_grid(f, region, [p], budget, seed)[0]


def _pmean_from_groups(groups: list[np.ndarray], p: float,
                       total: int) -> PMeanReport:
    y = np.concatenate(groups)
    if math.isinf(p):
        val = float(np.max(y)) if p > 0 else float(np.min(y))
        return PMeanReport(p=p, value=val, divergent=False, std_error=0.0,
                           samples=total, method="mc-extreme")
    if p == 0.0:
        with np.errstate(divide="ignore"):
            logs = [np.maximum(np.log(np.where(g > 0, g, 0.0)), LOG_CLAMP)
                    for g in groups]
        if all(np.any(lg <= LOG_CLAMP) for lg in logs):
            return PMeanReport(p=0.0, value=0.0, divergent=False, std_error=0.0,
                               samples=total, method="mc-log-clamp")
        alllogs = np.concatenate(logs)
        mean = float(np.mean(alllogs))
        se = float(np.std(alllogs, ddof=1) / math.sqrt(len(alllogs)))
        val = math.exp(mean)
        return PMeanReport(p=0.0, value=val, divergent=False,
                           std_error=val * se, samples=total,
                           method="mc-log-clamp")
    if p < 0.0 and _divergence_verdict(groups, p):
        return PMeanReport(p=p, value=0.0, divergent=True, std_error=0.0,
                           samples=total, method="mc-truncated-doubling")
    with np.errstate(divide="ignore"):
        yp = np.where(y > 0, y, np.inf) ** p if p < 0 else y**p
    mean = float(np.mean(yp))
    se = float(np.std(yp, ddof=1) / math.sqrt(len(yp))) if len(yp) > 1 else 0.0
    if mean <= 0.0:
        value = 0.0
        vse = 0.0
    else:
        value = mean ** (1.0 / p)
        # delta method: d/dm m^{1/p} = m^{1/p - 1}/p
        vse = abs(value / (p * mean)) * se
    method = "mc-truncated-doubling" if p < 0 else "mc-rejection"
    return PMeanReport(p=p, value=value, divergent=False, std_error=vse,
                       samples=total, method=method)


def pmean_grid(f, region, ps, budget: int = 100_000,
               seed: int = 0) -> list[PMeanReport]:
    """p-means over a grid of exponents sharing one sample set.

    Shared samples make the discrete power-mean monotonicity exact: the
    reported values are nondecreasing in p (divergent entries report 0).
    """
    if budget < 1000:
        raise ValueError("budget too small for a p-mean (need >= 1000)")
    n1 = budget // 7
    counts = [n1, 2 * n1, budget - 3 * n1]
    groups = _accepted_values(f, region, counts, seed)
    total = int(sum(len(g) for g in groups))
    if total == 0:
        raise EmptyRegionError("no sample landed in the region")
    return [_pmean_from_groups(groups, float(p), total) for p in ps]


def box_gauss(f, box) -> QuadResult:
    """Tensor Gauss-Legendre integral over a box, 16 nodes per axis.

    refine_diff reports |value - value at 8 nodes| as the deterministic
    error proxy; std_error is 0.
    """
    fn = f.fn if hasattr(f, "fn") else f

    def tensor(k: int) -> float:
        x, w = np.polynomial.legendre.leggauss(k)
        axes = []
        weights = []
        for lo, hi in zip(box.lo, box.hi):
            mid = (lo + hi) / 2.0
            half = (hi - lo) / 2.0
            axes.append(mid + half * x)
            weights.append(half * w)
        wprod = np.prod(_lattice(weights), axis=1)
        return float(np.sum(wprod * np.asarray(fn(_lattice(axes)),
                                                dtype=float)))

    v = tensor(16)
    coarse = tensor(8)
    return QuadResult(value=v, std_error=0.0, samples=16 ** box.dim,
                      method="product-gauss", refine_diff=abs(v - coarse))
