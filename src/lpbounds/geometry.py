"""Integration regions, ball systems, and radius functions on boxes.

Every region exposes a vectorized membership test plus an axis-aligned
bounding box; all Monte Carlo quadrature is built on that pair.  Exact
volumes are provided only where a closed form is elementary (boxes,
Euclidean balls); heat balls get theirs from quadrature elsewhere.

Conventions: spacetime points are ordered (x_1, ..., x_n, t) with time
last.  A heat ball of radius r centered at (x, t) is the superlevel set
{Phi(x - y, t - s) >= r^{-n}} of the heat kernel; it sits strictly in the
past of its center except for the center point itself, which belongs to
the (closed) set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Box",
    "EuclideanBall",
    "Heatball",
    "BallSystem",
    "unit_ball_volume",
    "unit_ball_points",
    "euclidean_system",
    "parabolic_box_system",
    "radius_function",
    "euclidean_shrink",
    "heatball_shrink",
    "system_shrink",
]


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball in R^d."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def unit_ball_points(d: int, count: int, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    """count uniform points of the open unit ball in R^d times scale.

    Shape (count, d).  The scale multiplies the radial factor before the
    direction, so a scaled draw is bit-identical to drawing the ball of
    that radius directly.  Each column is divided by the norm and scaled on
    its own, with the squares summed in column order as np.linalg.norm
    sums them: the same bits as whole-row broadcasts, in less time.
    """
    z = rng.standard_normal((count, d))
    rad = scale * rng.random(count) ** (1.0 / d)
    norm = z[:, 0] * z[:, 0]
    for j in range(1, d):
        norm += z[:, j] * z[:, j]
    np.sqrt(norm, out=norm)
    out = np.empty((count, d))
    for j in range(d):
        np.divide(z[:, j], norm, out=out[:, j])
        out[:, j] *= rad
    return out


def _as_points(p, dim: int) -> np.ndarray:
    """p as an (N, dim) float array; ValueError on any other shape."""
    pts = np.asarray(p, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected an (N, {dim}) batch of points, "
                         f"got shape {pts.shape}")
    return pts


def _within(pts: np.ndarray, lo, hi) -> np.ndarray:
    """Rows of pts with lo_i <= x_i <= hi_i on every axis, tested one column
    at a time: an (N, d) compare reduced by np.all(axis=1) is several times
    slower.  A NaN coordinate fails."""
    out = np.ones(len(pts), dtype=bool)
    for i in range(pts.shape[1]):
        out &= pts[:, i] >= lo[i]
        out &= pts[:, i] <= hi[i]
    return out


def _lattice(axes) -> np.ndarray:
    """Every point of the product of the 1-D axes, shape (N, len(axes)),
    with the last axis varying fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, len(axes))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box prod_i [lo_i, hi_i] with finite bounds and a finite,
    positive measure."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("lo and hi must be nonempty and of equal length")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box must satisfy lo < hi in every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        with np.errstate(over="ignore", under="ignore"):
            measure = self.measure
        # a NaN or infinite bound makes the measure NaN or infinite
        if not 0.0 < measure < math.inf:
            raise ValueError("box needs finite bounds and a finite, positive "
                             "measure")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def measure(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.lo, self.hi))

    def halfwidths(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / 2.0

    def contains(self, p):
        return _within(_as_points(p, self.dim), self.lo, self.hi)

    def bounding_box(self) -> "Box":
        return self

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count uniform draws in the box, shape (count, dim): each is
        lo + (hi - lo) * u with 0 <= u < 1, which rounding may take to hi.

        A cube draws with scalar bounds, which is faster and gives the same
        bits: both forms compute lo + (hi - lo) * next_double in C order.
        """
        lo, hi = self.lo, self.hi
        if len(set(lo)) == 1 and len(set(hi)) == 1:
            lo, hi = lo[0], hi[0]
        return rng.uniform(lo, hi, size=(count, self.dim))


@dataclass(frozen=True)
class EuclideanBall:
    """Open Euclidean ball B_r(c)."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def measure(self) -> float:
        return unit_ball_volume(self.dim) * self.radius ** self.dim

    def contains(self, p):
        pts = _as_points(p, self.dim)
        d2 = np.sum((pts - np.asarray(self.center)) ** 2, axis=1)
        return d2 < self.radius**2

    def bounding_box(self) -> Box:
        c = np.asarray(self.center)
        return Box(tuple(c - self.radius), tuple(c + self.radius))

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return np.asarray(self.center) + unit_ball_points(self.dim, count, rng,
                                                          self.radius)


def _slice_width_sq(tau: np.ndarray, r: float, d: int) -> np.ndarray:
    """Squared spatial radius of the heat-ball slice at age tau, kernel dim d."""
    return 2.0 * d * tau * np.log(r * r / (4.0 * math.pi * tau))


@dataclass(frozen=True)
class Heatball:
    """Heat ball E_m(x, t; r): past superlevel set of a heat kernel.

    center = (x_1, ..., x_n, t), n = spatial dimension.  m = 0 is the plain
    heat ball of R^n; m > 0 is the modified heat ball, the heat ball of
    R^{m+n} at (y, 0_m) projected to n spatial variables, whose slices use
    the kernel dimension m + n.  Membership is strict in the spatial
    inequality; the center point itself is a member.  Volume is r^{n+2}
    times the unit volume, which has no elementary closed form and is
    computed by quadrature.
    """

    center: tuple[float, ...]
    radius: float
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if len(self.center) < 2:
            raise ValueError("heat ball needs at least one spatial axis plus time")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.m < 0:
            raise ValueError("m must be a nonnegative integer")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def spatial_dim(self) -> int:
        return len(self.center) - 1

    @property
    def kernel_dim(self) -> int:
        return self.m + self.spatial_dim

    @property
    def depth(self) -> float:
        """Temporal extent r^2 / (4 pi)."""
        return self.radius**2 / (4.0 * math.pi)

    def contains(self, p):
        pts = _as_points(p, self.dim)
        n = self.spatial_dim
        x = np.asarray(self.center[:n])
        t = self.center[-1]
        tau = t - pts[:, -1]
        out = np.zeros(len(pts), dtype=bool)
        ok = (tau > 0) & (tau <= self.depth)
        if np.any(ok):
            d2 = np.sum((pts[ok, :n] - x) ** 2, axis=1)
            out[ok] = d2 < _slice_width_sq(tau[ok], self.radius, self.kernel_dim)
        out |= _within(pts, self.center, self.center)  # the centre, [c, c]
        return out

    def bounding_box(self) -> Box:
        n = self.spatial_dim
        w = self.radius * math.sqrt(self.kernel_dim / (2.0 * math.pi * math.e))
        lo = [c - w for c in self.center[:n]] + [self.center[-1] - self.depth]
        hi = [c + w for c in self.center[:n]] + [self.center[-1]]
        return Box(tuple(lo), tuple(hi))


@dataclass(frozen=True)
class BallSystem:
    """A family of anisotropic balls B_r(a) = a + r^lambda . U.

    degree = sum of the scaling exponents; it is the volume-scaling power
    of the family.
    """

    unit_ball: object
    lambdas: tuple[float, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if len(self.lambdas) != self.unit_ball.dim:
            raise ValueError("lambdas dimension mismatch with unit ball")
        if any(v <= 0 for v in self.lambdas):
            raise ValueError("scaling exponents must be positive")

    @property
    def dim(self) -> int:
        return self.unit_ball.dim

    @property
    def degree(self) -> float:
        return float(sum(self.lambdas))

    @property
    def unit_volume(self):
        return self.unit_ball.measure


def euclidean_system(d: int) -> BallSystem:
    """Standard Euclidean balls in R^d (lambda = 1, degree d)."""
    return BallSystem(EuclideanBall((0.0,) * d, 1.0), (1.0,) * d, name=f"euclid-{d}")


def parabolic_box_system(m: int, n: int) -> BallSystem:
    """Spacetime boxes dominating the m-augmented heat balls in R^n x R.

    Spatial half-width max((m+n)/(pi e), sqrt((m+n)/(2 pi e))): the second
    term is the spatial reach of the unit ball E_m(1), which exceeds the
    first when m + n = 4, and containment of the unit ball is required.
    Time half-width 1/(2 pi), exponents (1, .., 1, 2).
    """
    d = m + n
    w = max(d / (math.pi * math.e), math.sqrt(d / (2.0 * math.pi * math.e)))
    hw = (w,) * n + (1.0 / (2.0 * math.pi),)
    return BallSystem(Box(tuple(-v for v in hw), hw), (1.0,) * n + (2.0,),
                      name=f"parabolic-box-{m}-{n}")


def radius_function(sys: BallSystem, domain, a) -> np.ndarray:
    """R(a) = sup{r : B~_r(a) subset domain} / divisor, of Prop-2.9 type.

    a is an (N, d) batch of centers in a Box domain.  B~_r(a) is the
    candidate box a + r^lambda . B~ where B~ is the smallest origin-symmetric
    axis-aligned box containing the domain; the sup has a closed form per
    axis.  Any other domain raises TypeError.  The divisor, 2 when every
    scaling exponent is >= 1 and 4 in general, makes the construction
    satisfy the two-sided admissibility axioms with ratio constant K = 2.
    """
    if not isinstance(domain, Box):
        raise TypeError("radius functions are defined on Box domains only")
    if sys.dim != domain.dim:
        raise ValueError("system/domain dimension mismatch")
    pts = _as_points(a, sys.dim)
    if not np.all(domain.contains(pts)):
        raise ValueError("center must lie in the domain")
    # the candidate box fits iff r^lambda_i w_i <= margin_i per axis
    lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
    halfwidths = np.maximum(np.abs(lo), np.abs(hi))
    margins = np.minimum(pts - lo, hi - pts)
    per_axis = (margins / halfwidths) ** (1.0 / np.asarray(sys.lambdas))
    divisor = 2.0 if all(v >= 1.0 for v in sys.lambdas) else 4.0
    return np.min(per_axis, axis=1) / divisor


def _inset(box: Box, lo_margin, hi_margin) -> Box | None:
    """box with lo raised by lo_margin and hi lowered by hi_margin (per axis
    or scalar); None if that leaves it empty."""
    lo = np.asarray(box.lo) + lo_margin
    hi = np.asarray(box.hi) - hi_margin
    if np.any(lo >= hi):
        return None
    return Box(tuple(lo), tuple(hi))


def euclidean_shrink(box: Box, r: float) -> Box | None:
    """Inner parallel box at Euclidean distance r; None if empty."""
    return _inset(box, r, r)


def heatball_shrink(box: Box, r: float, n: int) -> Box | None:
    """Points of a spacetime box whose heat ball of radius r stays inside.

    Spatial margins r sqrt(n / (2 pi e)) on both sides, temporal margin
    r^2/(4 pi) at the bottom only (heat balls live in the past).
    """
    if box.dim != n + 1:
        raise ValueError("box dimension must be n + 1")
    w = r * math.sqrt(n / (2.0 * math.pi * math.e))
    depth = r**2 / (4.0 * math.pi)
    return _inset(box, np.array([w] * n + [depth]), np.array([w] * n + [0.0]))


def system_shrink(box: Box, sys: BallSystem, r: float) -> Box | None:
    """Points of a box whose system ball B_r stays inside (box unit balls)."""
    unit = sys.unit_ball
    if not isinstance(unit, Box):
        raise TypeError("system_shrink requires a box-shaped unit ball")
    w = (r ** np.asarray(sys.lambdas)) * unit.halfwidths()
    c = np.asarray(unit.center)
    if np.any(c != 0.0):
        raise ValueError("unit ball must be origin-symmetric")
    return _inset(box, w, w)
