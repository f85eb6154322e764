"""Scalar fields with exact derivatives, differential operators, field families.

A ScalarField evaluates on batches of points, shape (N, d) -> (N,), with
optional exact gradient (N, d) and Hessian (N, d, d).  Derivatives are
analytic per family.  LinearOperator.apply is the one path from those
derivatives to operator images (Delta u, Hu, D* phi).
Spacetime fields order coordinates (x_1, .., x_n, t), time last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .geometry import Box, _as_points

__all__ = [
    "ScalarField",
    "field_sum",
    "polynomial_field",
    "quadratic_field",
    "harmonic_polynomial_field",
    "ccw_hessian_field",
    "bump_function",
    "heat_kernel_field",
    "heat_polynomial_field",
    "monomial_field",
    "neg_time_field",
    "random_laplace_one",
    "random_heat_one",
    "random_harmonic",
    "random_caloric",
    "LinearOperator",
    "laplacian_operator",
    "heat_operator",
    "mixed_xy_operator",
    "neg_hessian_det",
    "positive_part",
]


@dataclass
class ScalarField:
    """A function R^d -> R with optional exact derivatives.

    fn/grad_fn/hess_fn act on (N, d) arrays.  domain, when present, is the
    box the field is considered on (used by checkers to sample centers and
    radii); evaluation is not clipped to it.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray] | None = None
    hess_fn: Callable[[np.ndarray], np.ndarray] | None = None
    domain: Box | None = None
    name: str = ""
    params: dict = dc_field(default_factory=dict)


def field_sum(fields: Sequence[ScalarField], coeffs: Sequence[float] | None = None,
              name: str = "sum") -> ScalarField:
    """Linear combination of fields sharing a dimension."""
    if not fields:
        raise ValueError("need at least one field")
    d = fields[0].dim
    if any(f.dim != d for f in fields):
        raise ValueError("all fields must share a dimension")
    c = [1.0] * len(fields) if coeffs is None else [float(v) for v in coeffs]

    def fn(pts):
        return sum(ci * f.fn(pts) for ci, f in zip(c, fields))

    grad_fn = None
    hess_fn = None
    if all(f.grad_fn is not None for f in fields):
        def grad_fn(pts):
            return sum(ci * f.grad_fn(pts) for ci, f in zip(c, fields))
    if all(f.hess_fn is not None for f in fields):
        def hess_fn(pts):
            return sum(ci * f.hess_fn(pts) for ci, f in zip(c, fields))
    dom = next((f.domain for f in fields if f.domain is not None), None)
    return ScalarField(d, fn, grad_fn, hess_fn, domain=dom, name=name)


def polynomial_field(coeffs: dict[tuple[int, ...], float], dim: int | None = None,
                     domain: Box | None = None, name: str = "poly") -> ScalarField:
    """Multivariate polynomial sum_alpha c_alpha x^alpha with exact derivatives.

    Each fn, grad_fn or hess_fn call computes every power k >= 2 it reads once,
    as pts ** e_k (e_k is k in the columns read at k, else 0), and multiplies
    a term's columns left to right, bit-equal to np.prod(pts ** e, axis=1).
    """
    if not coeffs:
        raise ValueError("empty coefficient table")
    terms = [(tuple(a), float(c)) for a, c in coeffs.items()]
    d = len(terms[0][0]) if dim is None else dim
    if any(len(a) != d for a, _ in terms):
        raise ValueError("inconsistent multi-index lengths")
    if not all(isinstance(v, (int, np.integer)) and v >= 0
               for a, _ in terms for v in a):
        raise ValueError("exponents must be nonnegative integers")

    def _derivative(order):
        # per slot i <= j: (coef, [(column, exponent >= 1)]) of each term
        # that the slot's derivative leaves nonzero, in term order
        plans = []
        for ix in itertools.combinations_with_replacement(range(d), order):
            plan = []
            for a, c in terms:
                e = [ai - ix.count(i) for i, ai in enumerate(a)]
                coef = math.prod([ai - k for ai, ei in zip(a, e)
                                  for k in range(ai - ei)], start=c)
                if min(e) >= 0 and coef != 0.0:
                    plan.append((coef, [(i, ei) for i, ei in enumerate(e) if ei]))
            plans.append((ix, plan))
        read = {f for _, plan in plans for _, cols in plan for f in cols}
        exps = {k: np.array([k if (i, k) in read else 0 for i in range(d)])
                for k in {k for _, k in read} - {1}}

        def call(pts):
            pw = {k: pts**e for k, e in exps.items()}
            res = np.empty((len(pts),) + (d,) * order)
            for ix, plan in plans:
                out = np.zeros(len(pts))
                for coef, cols in plan:
                    if cols:
                        xs = [pts[:, i] if k == 1 else pw[k][:, i] for i, k in cols]
                        coef = coef * math.prod(xs[1:], start=xs[0])
                    out += coef
                if not order:
                    return out
                for s in {ix, ix[::-1]}:
                    res[(...,) + s] = out
            return res
        return call

    return ScalarField(d, _derivative(0), _derivative(1), _derivative(2),
                       domain=domain, name=name)


def quadratic_field(dim: int, center: Sequence[float] | None = None,
                    coeff: float | None = None, spatial: bool = False,
                    domain: Box | None = None) -> ScalarField:
    """c |x - a|^2; with spatial=True the last axis is inert time.

    Default c makes the relevant operator excess exactly 1: 1/(2 dim) for
    the Laplacian, or 1/(2 (dim-1)) over the spatial block when spatial=True
    (then Hu = 1 as well, since the field is time-independent).
    """
    nsp = dim - 1 if spatial else dim
    if coeff is None:
        coeff = 1.0 / (2.0 * nsp)
    a = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    mask = np.ones(dim)
    if spatial:
        mask[-1] = 0.0

    def fn(pts):
        return coeff * np.sum(mask * (pts - a) ** 2, axis=1)

    def grad_fn(pts):
        return 2.0 * coeff * mask * (pts - a)

    def hess_fn(pts):
        h = np.zeros((len(pts), dim, dim))
        idx = np.arange(dim)
        h[:, idx, idx] = 2.0 * coeff * mask
        return h

    return ScalarField(dim, fn, grad_fn, hess_fn, domain=domain, name="quadratic",
                       params={"coeff": coeff, "center": tuple(a), "spatial": spatial})


def harmonic_polynomial_field(pairs: Sequence[tuple[int, complex]],
                              center: Sequence[float] = (0.0, 0.0),
                              scale: float = 1.0, domain: Box | None = None,
                              name: str = "harmonic") -> ScalarField:
    """u(x, y) = Re sum_k gamma_k w^k with w = ((x-cx) + i(y-cy))/scale.

    Exactly harmonic; derivatives come from the complex derivative, so the
    Hessian is trace-free to rounding.
    """
    ks = [int(k) for k, _ in pairs]
    gs = [complex(g) for _, g in pairs]
    cx, cy = (float(center[0]), float(center[1]))
    s = float(scale)

    def w_of(pts):
        return ((pts[:, 0] - cx) + 1j * (pts[:, 1] - cy)) / s

    def fn(pts):
        w = w_of(pts)
        acc = np.zeros(len(pts), dtype=complex)
        for k, g in zip(ks, gs):
            acc += g * w**k
        return acc.real

    def grad_fn(pts):
        w = w_of(pts)
        d1 = np.zeros(len(pts), dtype=complex)
        for k, g in zip(ks, gs):
            if k >= 1:
                d1 += g * k * w ** (k - 1)
        d1 /= s
        g = np.empty((len(pts), 2))
        g[:, 0] = d1.real
        g[:, 1] = -d1.imag
        return g

    def hess_fn(pts):
        w = w_of(pts)
        d2 = np.zeros(len(pts), dtype=complex)
        for k, g in zip(ks, gs):
            if k >= 2:
                d2 += g * k * (k - 1) * w ** (k - 2)
        d2 /= s * s
        h = np.empty((len(pts), 2, 2))
        h[:, 0, 0] = d2.real
        h[:, 0, 1] = -d2.imag
        h[:, 1, 0] = -d2.imag
        h[:, 1, 1] = -d2.real
        return h

    return ScalarField(2, fn, grad_fn, hess_fn, domain=domain, name=name,
                       params={"pairs": list(zip(ks, gs)), "center": (cx, cy),
                               "scale": s})


def ccw_hessian_field(N: float) -> ScalarField:
    """u_N(x, y) = (e^x sin(N y) + e) / N on the unit square.

    det(-Hess) = e^{2x} exactly for every N, while sup|u_N| = 2e/N.
    """
    N = float(N)

    def fn(pts):
        return (np.exp(pts[:, 0]) * np.sin(N * pts[:, 1]) + math.e) / N

    def grad_fn(pts):
        ex = np.exp(pts[:, 0])
        g = np.empty((len(pts), 2))
        g[:, 0] = ex * np.sin(N * pts[:, 1]) / N
        g[:, 1] = ex * np.cos(N * pts[:, 1])
        return g

    def hess_fn(pts):
        ex = np.exp(pts[:, 0])
        sin = np.sin(N * pts[:, 1])
        cos = np.cos(N * pts[:, 1])
        h = np.empty((len(pts), 2, 2))
        h[:, 0, 0] = ex * sin / N
        h[:, 0, 1] = ex * cos
        h[:, 1, 0] = ex * cos
        h[:, 1, 1] = -N * ex * sin
        return h

    return ScalarField(2, fn, grad_fn, hess_fn,
                       domain=Box((0.0, 0.0), (1.0, 1.0)),
                       name=f"ccw-hessian-{N:g}", params={"N": N})


def bump_function(center: Sequence[float], radius: float) -> ScalarField:
    """Smooth bump exp(-1/(1 - |x-c|^2/r^2)) supported on B_r(c)."""
    c = np.asarray(center, dtype=float)
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    d = len(c)

    def parts(pts):
        rho = np.sum((pts - c) ** 2, axis=1) / (r * r)
        inside = rho < 1.0 - 1e-8
        one_m = np.where(inside, 1.0 - rho, 1.0)
        u = np.where(inside, np.exp(-1.0 / one_m), 0.0)
        return rho, inside, one_m, u

    def fn(pts):
        return parts(pts)[3]

    def grad_fn(pts):
        rho, inside, one_m, u = parts(pts)
        du = np.where(inside, -u / one_m**2, 0.0)
        return du[:, None] * 2.0 * (pts - c) / (r * r)

    def hess_fn(pts):
        rho, inside, one_m, u = parts(pts)
        du = np.where(inside, -u / one_m**2, 0.0)
        d2u = np.where(inside, u * (2.0 * rho - 1.0) / one_m**4, 0.0)
        x = 2.0 * (pts - c) / (r * r)
        h = d2u[:, None, None] * x[:, :, None] * x[:, None, :]
        idx = np.arange(d)
        h[:, idx, idx] += du[:, None] * 2.0 / (r * r)
        return h

    dom = Box(tuple(c - r), tuple(c + r))
    return ScalarField(d, fn, grad_fn, hess_fn, domain=dom, name="bump",
                       params={"center": tuple(c), "radius": r})


def _log_kernel_derivs(pts, src, n, order):
    """u = Phi_n(y - x0, s - t0), u = 0 for s <= t0, with the gradient of
    log u if order >= 1 and its hessian if order == 2 (else None)."""
    y = pts[:, :n] - np.asarray(src[:n])
    tau = pts[:, -1] - src[-1]
    ok = tau > 0
    taus = np.where(ok, tau, 1.0)
    rho2 = np.sum(y**2, axis=1)
    logu = -0.5 * n * np.log(4.0 * math.pi * taus) - rho2 / (4.0 * taus)
    u = np.where(ok, np.exp(logu), 0.0)
    dg = hg = None
    if order >= 1:
        # dg: gradient of log u; columns y_1..y_n then tau
        dg = np.empty((len(pts), n + 1))
        dg[:, :n] = -y / (2.0 * taus[:, None])
        dg[:, n] = -0.5 * n / taus + rho2 / (4.0 * taus**2)
    if order >= 2:
        hg = np.zeros((len(pts), n + 1, n + 1))
        idx = np.arange(n)
        hg[:, idx, idx] = (-1.0 / (2.0 * taus))[:, None]
        hg[:, :n, n] = y / (2.0 * taus[:, None] ** 2)
        hg[:, n, :n] = hg[:, :n, n]
        hg[:, n, n] = 0.5 * n / taus**2 - rho2 / (2.0 * taus**3)
    return u, dg, hg, ok


def heat_kernel_field(n: int, source: Sequence[float],
                      domain: Box | None = None) -> ScalarField:
    """Fundamental solution of the heat equation with pole at source.

    Caloric (Hu = 0) wherever s != t0; evaluate on domains that avoid the
    pole time.  Zero for s <= t0.
    """
    src = tuple(float(v) for v in source)
    if len(src) != n + 1:
        raise ValueError("source must have n spatial coordinates plus time")

    def fn(pts):
        return _log_kernel_derivs(pts, src, n, 0)[0]

    def grad_fn(pts):
        u, dg, _, ok = _log_kernel_derivs(pts, src, n, 1)
        return np.where(ok[:, None], u[:, None] * dg, 0.0)

    def hess_fn(pts):
        u, dg, hg, ok = _log_kernel_derivs(pts, src, n, 2)
        h = u[:, None, None] * (dg[:, :, None] * dg[:, None, :] + hg)
        return np.where(ok[:, None, None], h, 0.0)

    return ScalarField(n + 1, fn, grad_fn, hess_fn, domain=domain,
                       name="heat-kernel", params={"source": src})


_HEAT_POLYS = {
    0: {(0, 0): 1.0},
    1: {(1, 0): 1.0},
    2: {(2, 0): 1.0, (0, 1): 2.0},
    3: {(3, 0): 1.0, (1, 1): 6.0},
    4: {(4, 0): 1.0, (2, 1): 12.0, (0, 2): 12.0},
}


def heat_polynomial_field(k: int, axis: int = 0, dim: int = 2,
                          domain: Box | None = None) -> ScalarField:
    """Caloric polynomial v_k in one spatial coordinate and time.

    v_0..v_4 with (d/dx)^2 v = dv/dt; embedded in dim coordinates with time
    last, so Hv = 0 in any spatial dimension.
    """
    if k not in _HEAT_POLYS:
        raise ValueError(f"caloric polynomial degree {k} not tabulated")
    if not 0 <= axis < dim - 1:
        raise ValueError("axis must be a spatial coordinate")
    coeffs = {}
    for (i, j), c in _HEAT_POLYS[k].items():
        alpha = [0] * dim
        alpha[axis] = i
        alpha[-1] = j
        coeffs[tuple(alpha)] = c
    return polynomial_field(coeffs, dim=dim, domain=domain, name=f"caloric-{k}")


def monomial_field(k: int) -> ScalarField:
    """x^k on the interval (0, 1)."""
    return polynomial_field({(k,): 1.0}, dim=1, domain=Box((0.0,), (1.0,)),
                            name=f"x^{k}")


def neg_time_field(n: int) -> ScalarField:
    """u(x, t) = -t in n spatial dimensions, with no domain; Hu = 1 exactly."""
    coeffs = {tuple([0] * n + [1]): -1.0}
    return polynomial_field(coeffs, dim=n + 1, name="neg-time")


def random_laplace_one(seed: int, domain: Box | None = None) -> ScalarField:
    """Random C^2 field on the plane with Laplacian identically 1.

    |x - a|^2/4 plus a random harmonic polynomial; derivatives exact.
    """
    rng = np.random.default_rng(seed)
    if domain is None:
        domain = Box((0.0, 0.0), (1.0, 1.0))
    c = np.asarray(domain.center)
    hw = np.asarray(domain.halfwidths())
    a = c + rng.uniform(-0.5, 0.5, size=2) * hw
    quad = quadratic_field(2, center=a, coeff=0.25, domain=domain)
    scale = float(np.hypot(*hw))
    pairs = []
    for k in range(1, 6):
        g = (rng.normal(0, 1) + 1j * rng.normal(0, 1)) * 0.4 / (2.0**k)
        pairs.append((k, g))
    harm = harmonic_polynomial_field(pairs, center=tuple(c), scale=scale,
                                     domain=domain)
    return field_sum([quad, harm], name=f"laplace-one-{seed}")


def random_heat_one(seed: int, n: int = 1, domain: Box | None = None) -> ScalarField:
    """Random spacetime field with Hu = Delta u - u_t identically 1.

    |x|^2/(2n) centered randomly, plus a random caloric polynomial mixture.
    """
    rng = np.random.default_rng(seed)
    if domain is None:
        domain = Box((0.0,) * n + (0.0,), (1.0,) * n + (1.0,))
    c = np.asarray(domain.center)
    hw = domain.halfwidths()
    a = c + rng.uniform(-0.5, 0.5, size=n + 1) * hw
    quad = quadratic_field(n + 1, center=a, spatial=True, domain=domain)
    parts = [quad]
    coeffs = [1.0]
    for axis in range(n):
        for k in range(1, 5):
            parts.append(heat_polynomial_field(k, axis=axis, dim=n + 1,
                                               domain=domain))
            coeffs.append(rng.normal(0, 0.3 / math.factorial(k)))
    return field_sum(parts, coeffs, name=f"heat-one-{seed}")


def random_harmonic(seed: int, domain: Box | None = None) -> ScalarField:
    """Random harmonic polynomial of degree 4 on the plane (includes a
    constant term)."""
    rng = np.random.default_rng(seed)
    if domain is None:
        domain = Box((0.0, 0.0), (1.0, 1.0))
    c = np.asarray(domain.center)
    scale = float(np.hypot(*domain.halfwidths()))
    pairs = [(0, complex(rng.normal(0, 0.5)))]
    for k in range(1, 5):
        pairs.append((k, (rng.normal(0, 1) + 1j * rng.normal(0, 1)) / (2.0**k)))
    return harmonic_polynomial_field(pairs, center=tuple(c), scale=scale,
                                     domain=domain, name=f"harmonic-{seed}")


def random_caloric(seed: int, n: int = 1,
                   domain: Box | None = None) -> ScalarField:
    """Random caloric field (Hu = 0): three kernels with poles below the
    domain plus a caloric polynomial mixture and a constant."""
    rng = np.random.default_rng(seed)
    if domain is None:
        domain = Box((0.0,) * n + (0.0,), (1.0,) * n + (1.0,))
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    parts = [polynomial_field({(0,) * (n + 1): 1.0}, dim=n + 1, domain=domain)]
    coeffs = [rng.normal(0, 0.3)]
    for _ in range(3):
        x0 = rng.uniform(lo[:n] - 0.5, hi[:n] + 0.5)
        t0 = lo[-1] - rng.uniform(0.2, 0.8)
        parts.append(heat_kernel_field(n, tuple(x0) + (t0,), domain=domain))
        coeffs.append(rng.normal(0, 0.5))
    for axis in range(n):
        for k in range(1, 4):
            parts.append(heat_polynomial_field(k, axis=axis, dim=n + 1,
                                               domain=domain))
            coeffs.append(rng.normal(0, 0.2 / math.factorial(k)))
    return field_sum(parts, coeffs, name=f"caloric-{seed}")


@dataclass(frozen=True)
class LinearOperator:
    """Constant-coefficient operator sum_beta a_beta D^beta, order <= 2.

    terms maps multi-indices (as tuples) to coefficients.  apply() uses the
    field's exact derivatives.
    """

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]
    name: str = ""

    def __post_init__(self):
        terms = tuple((tuple(int(v) for v in b), float(a)) for b, a in self.terms)
        object.__setattr__(self, "terms", terms)
        for b, _ in terms:
            if len(b) != self.dim:
                raise ValueError("multi-index dimension mismatch")
            if any(v < 0 for v in b):
                raise ValueError("multi-index entries must be nonnegative")

    @property
    def order(self) -> int:
        return max(sum(b) for b, _ in self.terms)

    def adjoint(self) -> "LinearOperator":
        """Formal adjoint: D^beta picks up (-1)^{|beta|}."""
        terms = tuple((b, a * (-1.0) ** sum(b)) for b, a in self.terms)
        return LinearOperator(self.dim, terms, name=f"adj({self.name})")

    def _derivative(self, f: ScalarField, order: int, pts: np.ndarray):
        """f.fn, f.grad_fn or f.hess_fn at pts if some term has that order."""
        if all(sum(b) != order for b, _ in self.terms):
            return None
        attr = ("fn", "grad_fn", "hess_fn")[order]
        fn = getattr(f, attr, None)
        if fn is None:
            raise ValueError(f"field {getattr(f, 'name', '')!r} has no {attr}, "
                             f"which operator {self.name!r} needs")
        return fn(pts)

    def apply(self, f: ScalarField, p):
        if self.order > 2:
            raise NotImplementedError("operators of order > 2 are not applied")
        pts = _as_points(p, self.dim)
        out = np.zeros(len(pts))
        vals = self._derivative(f, 0, pts)
        g = self._derivative(f, 1, pts)
        h = self._derivative(f, 2, pts)
        for b, a in self.terms:
            k = sum(b)
            if k == 0:
                out += a * vals
            elif k == 1:
                out += a * g[:, b.index(1)]
            elif 2 in b:
                out += a * h[:, b.index(2), b.index(2)]
            else:
                i = b.index(1)
                out += a * h[:, i, b.index(1, i + 1)]
        return out


def laplacian_operator(d: int) -> LinearOperator:
    terms = []
    for i in range(d):
        b = [0] * d
        b[i] = 2
        terms.append((tuple(b), 1.0))
    return LinearOperator(d, tuple(terms), name=f"laplace-{d}")


def heat_operator(n: int) -> LinearOperator:
    """H = Delta_x - d/dt on R^n x R (time last)."""
    terms = []
    for i in range(n):
        b = [0] * (n + 1)
        b[i] = 2
        terms.append((tuple(b), 1.0))
    bt = [0] * (n + 1)
    bt[-1] = 1
    terms.append((tuple(bt), -1.0))
    return LinearOperator(n + 1, tuple(terms), name=f"heat-{n}")


def mixed_xy_operator() -> LinearOperator:
    """D = d^2/dxdy on the plane."""
    return LinearOperator(2, (((1, 1), 1.0),), name="dxdy")


def neg_hessian_det(f: ScalarField, p) -> np.ndarray:
    """-det(Hess u) at an (N, d) batch; on the plane (u_xy)^2 - u_xx u_yy."""
    return -np.linalg.det(f.hess_fn(_as_points(p, f.dim)))


def positive_part(f: ScalarField) -> ScalarField:
    """max(f, 0); values only (the positive part is not C^2)."""
    return ScalarField(f.dim, lambda pts: np.maximum(f.fn(pts), 0.0),
                       domain=f.domain, name=f"({f.name})_+",
                       params=dict(f.params))
