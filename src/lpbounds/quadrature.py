"""Monte Carlo and product-Gauss quadrature over membership-defined regions.

_batches is the one Monte Carlo batch loop of the package: a budget is
split into fixed-size batches, each drawn from its own SeedSequence
substream, and the batch results come back in batch order, so every result
is identical for a given (seed, budget) regardless of thread count.
Batches started inside a _workers block map on its pool; elsewhere they
run in turn.  mc_mean merges per-batch moments.  integrate takes the same
moments of uniform draws in the region's bounding box, rejected by
membership (a Box region holds every draw and skips the test), and measure
integrates 1 or a predicate.  pmean_grid keeps |f| at the accepted draws
of one pass and splits them into its doubling groups.  Every mean and
standard error comes from _mean_se.
QuadResult.ci and agreement hold the package's one 3-standard-error rule.

BATCH_SIZE sizes the random-number batches and the moment reductions;
EVAL_BLOCK sizes the evaluation.  _blockwise evaluates a row-wise function
on consecutive EVAL_BLOCK-row slices of a batch into one batch-sized
output, so the field's temporaries fit in cache and are not handed back to
the OS between blocks.  A row's value does not depend on its neighbours,
so no bit depends on EVAL_BLOCK.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
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

# rows per evaluation sub-block; of 4096, 8192 and 16384, 8192 was fastest
# on six of the seven mvi-audit and lp-thm benchmark commands
EVAL_BLOCK = 8192

LOG_CLAMP = -700.0

# the ThreadPoolExecutor of the innermost _workers block, or None
_POOL: ContextVar = ContextVar("_POOL", default=None)


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


def _moments(vals: np.ndarray) -> tuple[int, float, float]:
    n = len(vals)
    if n == 0:
        return 0, 0.0, 0.0
    mean = float(np.mean(vals))
    m2 = float(np.sum((vals - mean) ** 2))
    return n, mean, m2


@contextmanager
def _workers(threads: int):
    """Map the batches started in the block on one pool of threads workers
    (none for threads = 1); ValueError if threads < 1.  A worker sees no
    pool (it starts in a fresh context, and the initializer clears _POOL
    where threads inherit one), so its own batches run inline."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    with (ThreadPoolExecutor(threads, initializer=_POOL.set, initargs=(None,))
          if threads > 1 else nullcontext()) as pool:
        token = _POOL.set(pool)
        try:
            yield
        finally:
            _POOL.reset(token)


def _pool_map(fn, count: int) -> list:
    """[fn(0), ..., fn(count - 1)], in index order; on the pool of the
    enclosing _workers block when there is one and more than one call."""
    pool = _POOL.get()
    if pool is not None and count > 1:
        return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def _batches(fn, budget: int, seed: int) -> list:
    """[fn(rng, count) for each batch of the budget], in batch order.

    The budget splits into BATCH_SIZE batches and a ragged last one; each
    batch draws from its own SeedSequence(seed) substream, so the results
    depend on (seed, budget) only, never on the pool.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    full, rem = divmod(budget, BATCH_SIZE)
    plan = [BATCH_SIZE] * full + ([rem] if rem else [])
    streams = np.random.SeedSequence(seed).spawn(len(plan))
    return _pool_map(lambda i: fn(np.random.default_rng(streams[i]), plan[i]),
                     len(plan))


def _mean_se(parts: list[tuple[int, float, float]]) -> tuple[int, float, float]:
    """(count, mean, standard error of the mean) of (count, mean, M2)
    _moments parts, merged in list order."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, mb, m2b in parts:
        if nb == 0:
            continue
        delta = mb - mean
        tot = n + nb
        mean += delta * nb / tot
        m2 += m2b + delta * delta * n * nb / tot
        n = tot
    var = m2 / (n - 1) if n > 1 else 0.0
    return n, mean, math.sqrt(max(var, 0.0) / n)


def mc_mean(draw, budget: int, seed: int, method: str) -> QuadResult:
    """Seeded Monte Carlo mean of per-sample values.

    draw(rng, count) returns the values of one batch of count samples;
    batch moments are merged in batch order (see _batches).
    """
    n, mean, se = _mean_se(_batches(
        lambda rng, count: _moments(np.asarray(draw(rng, count), dtype=float)),
        budget, seed))
    return QuadResult(value=mean, std_error=se, samples=n, method=method)


def _blockwise(fn, *cols) -> np.ndarray:
    """fn(*cols) for a row-wise fn, evaluated on consecutive EVAL_BLOCK-row
    slices of the columns into one float array of their length."""
    count = len(cols[0])
    out = np.empty(count)
    for start in range(0, count, EVAL_BLOCK):
        stop = start + EVAL_BLOCK
        out[start:stop] = fn(*(col[start:stop] for col in cols))
    return out


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


def integrate(f, region, budget: int = 100_000, seed: int = 0) -> QuadResult:
    """Rejection Monte Carlo integral of f over the region: the mean over
    the region's bounding box of |box| f at members, 0 elsewhere.

    f is a vectorized callable (N, d) -> (N,); it is evaluated only at
    accepted points.  Raises EmptyRegionError if no draw is accepted and
    ValueError if f is NaN or infinite at an accepted point.
    """
    fn = f.fn if hasattr(f, "fn") else f
    box = region.bounding_box()
    boxvol = box.measure

    def batch(rng: np.random.Generator, count: int):
        pts = box.sample(count, rng)
        member = _members(region, box, pts)
        inside = pts[member]
        vals = np.zeros(count)
        if len(inside):
            vals[member] = _blockwise(
                lambda p: _finite(np.asarray(fn(p), dtype=float)), inside)
        return _moments(vals * boxvol), len(inside)

    parts = _batches(batch, budget, seed)
    if not any(hits for _, hits in parts):
        raise EmptyRegionError("no sample landed in the region")
    n, mean, se = _mean_se([moments for moments, _ in parts])
    return QuadResult(value=mean, std_error=se, samples=n,
                      method="mc-rejection")


def measure(region, predicate=None, budget: int = 100_000,
            seed: int = 0) -> QuadResult:
    """Volume of the region, or of its subset where predicate holds.

    An everywhere-false predicate gives 0 with zero variance; only a region
    that is never hit at all raises EmptyRegionError.
    """
    if predicate is None:
        return integrate(lambda pts: np.ones(len(pts)), region, budget, seed)
    return integrate(predicate, region, budget, seed)


def _divergence_verdict(groups: list[np.ndarray], p: float) -> bool:
    """Doubling-budget divergence test for means of y = |f|^p, p < 0.

    Group means are compared after truncating at a median-scaled clamp that
    grows proportionally with group size: for integrable tails the clamp
    bites a vanishing fraction and the truncated means agree within noise;
    for nonintegrable tails E[min(y, M)] keeps growing ~ log M and the
    doubled groups drift upward by more than 3 combined standard errors.
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
    (_, mean1, se1), (_, mean3, se3) = (
        _mean_se([_moments(np.minimum(y, clamp1 * (len(y) / n1)))])
        for y in (ys[0], ys[2]))
    return mean3 - mean1 > 3.0 * math.hypot(se1, se3)


def pmean(f, region, p: float, budget: int = 100_000,
          seed: int = 0) -> PMeanReport:
    """Normalized p-th mean (avg |f|^p)^{1/p} with divergence detection.

    p = 0 is the geometric mean (log-mean clamped at -700; a clamp present
    in every doubling group reports exactly 0).  p < 0 runs the truncated
    doubling test and reports value 0 with divergent=True when the sample
    mean of |f|^p keeps growing.  p = +-inf are sampled sup/inf of |f|.
    A NaN or infinite value of f at an accepted point raises ValueError.
    """
    return pmean_grid(f, region, [p], budget, seed)[0]


def _pmean_of(y: np.ndarray, p: float) -> PMeanReport:
    """The p-mean report of the accepted values y = |f|, in draw order.

    Its doubling groups are the first floor(T/7), the next 2 floor(T/7) and
    the remaining values of the T in y.
    """
    total = len(y)
    cuts = [total // 7, 3 * (total // 7)]
    if math.isinf(p):
        val = float(np.max(y)) if p > 0 else float(np.min(y))
        return PMeanReport(p=p, value=val, divergent=False, std_error=0.0,
                           samples=total, method="mc-extreme")
    if p == 0.0:
        with np.errstate(divide="ignore"):
            logs = np.maximum(np.log(np.where(y > 0, y, 0.0)), LOG_CLAMP)
        if all(np.any(g <= LOG_CLAMP) for g in np.split(logs, cuts)):
            return PMeanReport(p=0.0, value=0.0, divergent=False, std_error=0.0,
                               samples=total, method="mc-log-clamp")
        _, mean, se = _mean_se([_moments(logs)])
        val = math.exp(mean)
        return PMeanReport(p=0.0, value=val, divergent=False,
                           std_error=val * se, samples=total,
                           method="mc-log-clamp")
    if p < 0.0 and _divergence_verdict(np.split(y, cuts), p):
        return PMeanReport(p=p, value=0.0, divergent=True, std_error=0.0,
                           samples=total, method="mc-truncated-doubling")
    with np.errstate(divide="ignore"):
        yp = np.where(y > 0, y, np.inf) ** p if p < 0 else y**p
    _, mean, se = _mean_se([_moments(yp)])
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

    One _batches pass draws the budget in the region's bounding box and
    keeps |f| at the accepted draws, in batch order.  Shared samples make
    the discrete power-mean monotonicity exact: the reported values are
    nondecreasing in p (divergent entries report 0).
    """
    if budget < 1000:
        raise ValueError("budget too small for a p-mean (need >= 1000)")
    box = region.bounding_box()
    fn = f.fn if hasattr(f, "fn") else f

    def accepted(rng: np.random.Generator, count: int) -> np.ndarray:
        pts = box.sample(count, rng)
        inside = pts[_members(region, box, pts)]
        if not len(inside):
            return np.empty(0)
        return np.abs(_blockwise(
            lambda p: _finite(np.asarray(fn(p), dtype=float)), inside))

    y = np.concatenate(_batches(accepted, budget, seed))
    if not len(y):
        raise EmptyRegionError("no sample landed in the region")
    return [_pmean_of(y, float(p)) for p in ps]


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
