import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpbounds import counterexamples, fields
from lpbounds.geometry import Box
from lpbounds.fields import (
    ScalarField,
    field_sum,
    polynomial_field,
    quadratic_field,
    harmonic_polynomial_field,
    ccw_hessian_field,
    bump_function,
    heat_kernel_field,
    monomial_field,
    neg_time_field,
    random_laplace_one,
    random_heat_one,
    random_harmonic,
    random_caloric,
    laplacian_operator,
    heat_operator,
    mixed_xy_operator,
    neg_hessian_det,
)
from lpbounds.fields import _log_kernel_derivs
from lpbounds.averages import _positive_values, deriv1_rhs, deriv2_rhs

RNG = np.random.default_rng(0)


def _at(f, *p):
    """f at the one point p."""
    return f.fn(np.array([p], dtype=float))[0]


def _lap(f, pts):
    return laplacian_operator(f.dim).apply(f, pts)


def _heat(f, pts):
    return heat_operator(f.dim - 1).apply(f, pts)


def _fd_gradient(f, pts, h=1e-5):
    """Central-difference gradient of f at an (N, d) batch."""
    g = np.empty_like(pts)
    for i in range(f.dim):
        e = np.zeros(f.dim)
        e[i] = h
        g[:, i] = (f.fn(pts + e) - f.fn(pts - e)) / (2.0 * h)
    return g


def _fd_hessian(f, pts, h=1e-4):
    """Central-difference Hessian of f at an (N, d) batch."""
    d = f.dim
    out = np.empty((len(pts), d, d))
    base = f.fn(pts)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[:, i, i] = (f.fn(pts + ei) - 2.0 * base + f.fn(pts - ei)) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            mixed = (f.fn(pts + ei + ej) - f.fn(pts + ei - ej)
                     - f.fn(pts - ei + ej) + f.fn(pts - ei - ej)) / (4.0 * h**2)
            out[:, i, j] = mixed
            out[:, j, i] = mixed
    return out


def _check_derivatives(f, pts, rel=1e-6):
    """Exact gradient/Hessian against central differences (h = 1e-5)."""
    g = f.grad_fn(pts)
    gfd = _fd_gradient(f, pts)
    scale = np.maximum(np.abs(g).max(), 1.0)
    assert np.max(np.abs(g - gfd)) <= rel * scale
    h = f.hess_fn(pts)
    hfd = _fd_hessian(f, pts)
    hscale = np.maximum(np.abs(h).max(), 1.0)
    assert np.max(np.abs(h - hfd)) <= rel * hscale
    # symmetry of the exact Hessian
    assert np.max(np.abs(h - np.swapaxes(h, 1, 2))) <= 1e-12 * hscale


def test_polynomial_field_evaluation_and_derivs():
    # u = x^2 y + 3 y
    u = polynomial_field({(2, 1): 1.0, (0, 1): 3.0})
    p = np.array([[2.0, 0.5]])
    assert u.fn(p)[0] == pytest.approx(2.0 + 1.5)
    assert u.grad_fn(p)[0] == pytest.approx([2.0, 7.0])
    _check_derivatives(u, RNG.uniform(-1, 1, (50, 2)))


def test_quadratic_field_unit_laplacian():
    for d in (1, 2, 3):
        u = quadratic_field(d)
        pts = RNG.uniform(-1, 1, (20, d))
        assert np.allclose(_lap(u, pts), 1.0, atol=1e-12)


def test_quadratic_spatial_ignores_time():
    u = quadratic_field(3, spatial=True)  # two spatial dims + time
    pts = RNG.uniform(0, 1, (20, 3))
    assert np.allclose(_heat(u, pts), 1.0, atol=1e-12)


def test_harmonic_polynomial_exactly_harmonic():
    u = harmonic_polynomial_field([(3, 1.0 + 2.0j), (5, -0.7j)],
                                  center=(0.2, 0.1), scale=0.5)
    pts = RNG.uniform(-0.5, 0.5, (100, 2))
    assert np.max(np.abs(_lap(u, pts))) <= 1e-9
    _check_derivatives(u, pts)


def test_heat_polynomials_caloric():
    for k in range(5):
        v = polynomial_field(fields._heat_terms(k, 0, 2))
        pts = RNG.uniform(-1, 1, (30, 2))
        assert np.max(np.abs(_heat(v, pts))) <= 1e-10


def test_heat_kernel_field_caloric_above_source():
    u = heat_kernel_field(1, source=(0.5, -0.3))
    pts = np.column_stack([RNG.uniform(0, 1, 40), RNG.uniform(0.0, 1.0, 40)])
    vals = _heat(u, pts)
    assert np.max(np.abs(vals)) <= 1e-9
    _check_derivatives(u, pts, rel=2e-5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heat_kernel_lower_orders_match_order_two(n):
    # fn and grad_fn skip the derivatives they do not return, bit for bit
    src = (0.3,) * n + (-0.4,)
    u = heat_kernel_field(n, source=src)
    pts = RNG.uniform(-0.6, 1.0, (300, n + 1))  # some below the pole time
    v, dg, _, ok = _log_kernel_derivs(pts, src, n, 2)
    assert not ok.all() and ok.any()
    assert np.array_equal(u.fn(pts), v)
    assert np.array_equal(u.grad_fn(pts),
                          np.where(ok[:, None], v[:, None] * dg, 0.0))


def test_ccw_hessian_family_determinant():
    u = ccw_hessian_field(25.0)
    xs = np.linspace(0.0, 1.0, 17)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    det = neg_hessian_det(u, pts)
    assert np.max(np.abs(det - np.exp(2 * pts[:, 0]))) <= 1e-12 * math.e**2
    assert abs(_at(u, 0.0, 0.0) - (0.0 + math.e) / 25.0) <= 1e-15


def test_bump_function_support_and_derivs():
    b = bump_function((0.5, 0.5), 0.4)
    assert _at(b, 0.5, 0.5) == pytest.approx(math.exp(-1.0))
    assert _at(b, 0.95, 0.5) == 0.0
    assert _at(b, 0.5, 0.9000001) == 0.0
    inside = np.column_stack([RNG.uniform(0.25, 0.75, 60),
                              RNG.uniform(0.25, 0.75, 60)])
    _check_derivatives(b, inside, rel=5e-5)


def test_neg_time_field():
    u = neg_time_field(2)
    pts = RNG.uniform(0, 1, (20, 3))
    assert np.allclose(_heat(u, pts), 1.0)
    assert _at(u, 0.1, 0.2, 0.7) == pytest.approx(-0.7)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_random_laplace_one_has_unit_laplacian(seed):
    u = random_laplace_one(seed)
    pts = RNG.uniform(0, 1, (100, 2))
    assert np.max(np.abs(_lap(u, pts) - 1.0)) <= 1e-10
    _check_derivatives(u, pts)


@pytest.mark.parametrize("seed,n", [(0, 1), (3, 2), (9, 3)])
def test_random_heat_one_has_unit_excess(seed, n):
    u = random_heat_one(seed, n=n)
    pts = RNG.uniform(0, 1, (100, n + 1))
    assert np.max(np.abs(_heat(u, pts) - 1.0)) <= 1e-10


def test_random_harmonic_and_caloric_annihilated():
    h = random_harmonic(5)
    pts = RNG.uniform(0, 1, (80, 2))
    assert np.max(np.abs(_lap(h, pts))) <= 1e-9
    for n in (1, 2):
        w = random_caloric(5, n=n, domain=Box((0.0,) * (n + 1), (1.0,) * (n + 1)))
        pts = RNG.uniform(0.05, 0.95, (80, n + 1))
        assert np.max(np.abs(_heat(w, pts))) <= 1e-8


def test_linear_operator_apply_and_adjoint():
    D = laplacian_operator(2)
    u = polynomial_field({(2, 0): 1.0, (0, 2): 2.0})
    pts = RNG.uniform(-1, 1, (10, 2))
    assert np.allclose(D.apply(u, pts), 6.0)
    # order-2 terms keep their sign under the adjoint, order-1 flip
    H = heat_operator(1)
    Hs = H.adjoint()
    tm = polynomial_field({(0, 1): 1.0})  # u = t
    assert np.allclose(H.apply(tm, pts), -1.0)
    assert np.allclose(Hs.apply(tm, pts), 1.0)
    assert Hs.adjoint().terms == H.terms

    M = mixed_xy_operator()
    assert M.adjoint().terms == M.terms
    xy = polynomial_field({(1, 1): 1.0})
    assert np.allclose(M.apply(xy, pts), 1.0)


def test_field_sum_and_positive_part():
    a = polynomial_field({(1, 0): 1.0})
    b = polynomial_field({(0, 1): 1.0})
    s = field_sum([a, b], [2.0, -1.0])
    assert _at(s, 1.0, 1.0) == pytest.approx(1.0)
    assert s.grad_fn(np.array([[0.3, 0.4]]))[0] == pytest.approx([2.0, -1.0])
    # the MVI checkers' one clamp is the positive part
    pp = _positive_values(field_sum([a], [-1.0]))
    assert pp(np.array([[0.5, 0.0]]))[0] == 0.0
    assert pp(np.array([[-0.5, 0.0]]))[0] == pytest.approx(0.5)


def test_monomial_domain():
    f = monomial_field(2)
    assert f.domain.lo == (0.0,)
    assert f.domain.hi == (1.0,)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_polynomial_derivatives_property(i, j, c1, c2):
    u = polynomial_field({(i, j): c1, (1, 0): c2})
    pts = np.array([[0.7, -0.4], [0.1, 1.3]])
    _check_derivatives(u, pts, rel=2e-5)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.floats(0.1, 2.0))
def test_harmonic_pair_laplacian_property(k, scale):
    u = harmonic_polynomial_field([(k, 1.0 + 0.5j)], scale=scale)
    pts = np.array([[0.3, -0.2], [-0.8, 0.5], [0.0, 0.0]])
    assert np.max(np.abs(_lap(u, pts))) <= 1e-8


def test_scalar_field_missing_derivative():
    # a values-only field: every operator image refuses it
    pp = ScalarField(2, random_harmonic(1).fn)
    with pytest.raises(ValueError, match="hess_fn.*laplace-2"):
        laplacian_operator(2).apply(pp, [[0.5, 0.5]])
    with pytest.raises(ValueError, match="grad_fn.*heat-1"):
        heat_operator(1).apply(pp, [[0.5, 0.5]])
    with pytest.raises(ValueError, match="hess_fn"):
        deriv1_rhs(pp, (0.5, 0.5), 0.1, budget=100)
    with pytest.raises(ValueError, match="grad_fn"):
        deriv2_rhs(pp, (0.5, 0.9), 0.5, budget=100)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heat_operator_image_is_bit_identical_to_trace(n):
    pts = RNG.uniform(0.05, 0.95, (200, n + 1))
    dom = Box((0.0,) * (n + 1), (1.0,) * (n + 1))
    for u in (random_heat_one(4, n=n), random_caloric(4, n=n, domain=dom)):
        h = u.hess_fn(pts)
        g = u.grad_fn(pts)
        want = np.trace(h[:, :n, :n], axis1=1, axis2=2) - g[:, n]
        assert np.array_equal(heat_operator(n).apply(u, pts), want)


def test_laplacian_operator_image_is_bit_identical_to_trace():
    cubic = polynomial_field({(3, 0, 0): 1.0, (1, 2, 0): -0.5, (0, 1, 2): 2.0,
                              (0, 0, 2): 0.3})
    for u in (random_laplace_one(4), cubic):
        pts = RNG.uniform(0, 1, (200, u.dim))
        want = np.trace(u.hess_fn(pts), axis1=1, axis2=2)
        assert np.array_equal(laplacian_operator(u.dim).apply(u, pts), want)


def _polynomial_families():
    """(label, field) for every family built on polynomial_field, at every
    dimension the package uses: d = 1 through monomial_field, 2-4 else."""
    from lpbounds.counterexamples import build_comb, ccw_target

    out = [(f"caloric-{k}-d{d}", polynomial_field(fields._heat_terms(k, 0, d)))
           for d in (2, 3, 4) for k in range(5)]
    out += [(f"quadratic-d{d}", quadratic_field(d)) for d in (1, 2, 3, 4)]
    out += [(f"quadratic-spatial-d{d}", quadratic_field(d, spatial=True))
            for d in (2, 3, 4)]
    out.append(("quadratic-centred", quadratic_field(
        2, center=(0.5, 0.0), coeff=0.5, spatial=True)))
    out += [(f"x^{k}", monomial_field(k)) for k in range(9)]
    out += [(f"neg-time-n{n}", neg_time_field(n)) for n in (1, 2, 3)]
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            out.append((f"heat-one-{seed}-n{n}", random_heat_one(seed, n=n)))
            out.append((f"caloric-{seed}-n{n}", random_caloric(seed, n=n)))
    out.append(("t^2/2", ccw_target(build_comb(Fraction(1, 8))).v))
    return out


def _pinned_points(d):
    """4,096 seeded points in [-1.5, 1.5]^d; the first rows hold signed zeros
    and units, in each column and mixed, so the digest pins zero signs."""
    pts = np.random.default_rng(1_000 + d).uniform(-1.5, 1.5, (4096, d))
    pts[:8] = np.array([0.0, -0.0, 1.0, -1.0] * 2)[:, None]
    pts[4:8] *= (-1.0) ** np.arange(d)
    return pts


# First 16 hex digits of the SHA-256 of fn, grad_fn and hess_fn output bytes
# on _pinned_points.  The power ladder and the sums are correctly rounded
# IEEE products and additions in a fixed order, so the pure polynomial
# digests hold on any NumPy build and CPU.  The caloric-<seed>-n<n> digests
# also take np.exp and np.log from the heat kernels, whose last bits belong
# to one NumPy build and CPU (NumPy 2.4, AVX-512).
_POLYNOMIAL_DIGESTS = {
    "caloric-0-d2": "d6fb83dbe031c9dc",
    "caloric-1-d2": "a05aa72a4b1e101a",
    "caloric-2-d2": "f190637b36666b46",
    "caloric-3-d2": "2e6c3e3d77e49934",
    "caloric-4-d2": "290a609b380bd65a",
    "caloric-0-d3": "bfd61a44c0609e2d",
    "caloric-1-d3": "a1bc995949ebac5f",
    "caloric-2-d3": "505a0000487ffe0a",
    "caloric-3-d3": "20b7f431dcfb03f7",
    "caloric-4-d3": "cf4b94cef64fe7f8",
    "caloric-0-d4": "20733bf3c56179e6",
    "caloric-1-d4": "b9bb9b741d33ec04",
    "caloric-2-d4": "7e2aec80ce953c86",
    "caloric-3-d4": "62fca103fa625fcf",
    "caloric-4-d4": "d671d4ff43fd775d",
    "quadratic-d1": "734266db92441e42",
    "quadratic-d2": "51d5d9d911bfb79e",
    "quadratic-d3": "1fbffee7994e62be",
    "quadratic-d4": "e19f7e29d7b58db7",
    "quadratic-spatial-d2": "575362ae016cc9f1",
    "quadratic-spatial-d3": "984601663a2b1eab",
    "quadratic-spatial-d4": "9e73490a89178f02",
    "quadratic-centred": "9e79efca8dbfbf2a",
    "x^0": "fc562d66da9d608d",
    "x^1": "1981d5266f501792",
    "x^2": "cbf60d31cfd16573",
    "x^3": "4f4ba2a62f255d1a",
    "x^4": "c6212d95e92135f2",
    "x^5": "3fe4a81ee32f21cc",
    "x^6": "8bba831e84dec6df",
    "x^7": "7ae805b1815bde30",
    "x^8": "aea25bfc43523237",
    "neg-time-n1": "9ee543239203bef8",
    "neg-time-n2": "2d8c6e6c2d6bcbca",
    "neg-time-n3": "3c68569e791049ff",
    "heat-one-0-n1": "7a53e4ea437dea31",
    "caloric-0-n1": "74e186a16fe01798",
    "heat-one-1-n1": "6e286b93dbc9fddd",
    "caloric-1-n1": "f778440375d30358",
    "heat-one-2-n1": "e3da2e3513c7c240",
    "caloric-2-n1": "591bfa0f0600aeaf",
    "heat-one-0-n2": "1281dc4fddad1f79",
    "caloric-0-n2": "d8939f7c13adfc32",
    "heat-one-1-n2": "4e6c8f30e207eb8f",
    "caloric-1-n2": "1186c8fe78173a0b",
    "heat-one-2-n2": "6b58e55f24826ded",
    "caloric-2-n2": "6b133a0ee9c72144",
    "heat-one-0-n3": "90924f708bf1ed9c",
    "caloric-0-n3": "a1a5e63f906fc800",
    "heat-one-1-n3": "f78685dd2ded4040",
    "caloric-1-n3": "a8e5d9683f500052",
    "heat-one-2-n3": "b315237f70cb8dea",
    "caloric-2-n3": "62cb9e832cba5490",
    "t^2/2": "bb7324229ce3fad0",
}


def _field_digest(f, pts=None):
    import hashlib

    if pts is None:
        pts = _pinned_points(f.dim)
    h = hashlib.sha256()
    for out in (f.fn(pts), f.grad_fn(pts), f.hess_fn(pts)):
        h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_polynomial_field_bits_pinned():
    got = {label: _field_digest(f) for label, f in _polynomial_families()}
    assert got == _POLYNOMIAL_DIGESTS


def _harmonic_families():
    """(label, field, centre) for every field built on
    harmonic_polynomial_field: random_harmonic and random_laplace_one on the
    unit square and on an off-centre box, and the counterexample fit."""
    from lpbounds.counterexamples import build_comb, ccw_target, fit_harmonic

    out = []
    for where, dom in (("square", Box((0.0, 0.0), (1.0, 1.0))),
                       ("offset", Box((0.1, -0.3), (0.9, 1.7)))):
        for seed in (0, 1, 2):
            tag = f"{seed}-{where}"
            out.append((f"harmonic-{tag}", random_harmonic(seed, dom),
                        dom.center))
            out.append((f"laplace-one-{tag}", random_laplace_one(seed, dom),
                        dom.center))
    comb = build_comb(Fraction(1, 8))
    fit = fit_harmonic(ccw_target(comb), comb, 10)
    out.append(("ccw-fit-10", fit.as_field(), fit.center))
    return out


def _centre_line_points(centre):
    """_pinned_points(2) moved to centre, with rows 8-15 on x = cx and rows
    16-23 on y = cy, where x - cx or y - cy is exactly zero."""
    pts = _pinned_points(2) + np.asarray(centre)
    pts[8:16, 0] = centre[0]
    pts[16:24, 1] = centre[1]
    return pts


# _field_digest on _centre_line_points of each harmonic family.  They still
# belong to one NumPy build and CPU (NumPy 2.4, AVX-512): NumPy's complex
# multiply loop, which Horner's rule runs, fuses a product into the
# add or subtract (FMA) on that CPU and differs from the unfused
# ar*br - ai*bi in the last bit at about a quarter of random operands.
_HARMONIC_DIGESTS = {
    "harmonic-0-square": "f228256c6a6934bd",
    "laplace-one-0-square": "18f616e7ea727645",
    "harmonic-1-square": "78a95f3f9fbcf7c0",
    "laplace-one-1-square": "311cf222a3d8514a",
    "harmonic-2-square": "2dd93125c91e89c0",
    "laplace-one-2-square": "66e925cae760464a",
    "harmonic-0-offset": "631784afe6f8070d",
    "laplace-one-0-offset": "e5981f7f32fefe87",
    "harmonic-1-offset": "34b095aa13db2740",
    "laplace-one-1-offset": "59a1ee7e93af9ef9",
    "harmonic-2-offset": "65abec9fdd051825",
    "laplace-one-2-offset": "93b932f8e9264027",
    "ccw-fit-10": "5d73d71516de63b3",
}


def test_harmonic_field_bits_pinned():
    got = {label: _field_digest(f, _centre_line_points(c))
           for label, f, c in _harmonic_families()}
    assert got == _HARMONIC_DIGESTS


def _reference_quadratic(dim, a, coeff, spatial):
    """quadratic_field before it became a coefficient table: its own
    hand-written derivatives of coeff |x - a|^2 over a mask."""
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

    return ScalarField(dim, fn, grad_fn, hess_fn)


def _reference_heat_one(seed, n):
    """random_heat_one on its default unit box as a field_sum of the
    quadratic and one polynomial field per caloric part, drawing the same
    rng sequence."""
    rng = np.random.default_rng(seed)
    a = 0.5 + rng.uniform(-0.5, 0.5, size=n + 1) * 0.5
    parts = [_reference_quadratic(n + 1, a, 1.0 / (2.0 * n), True)]
    coeffs = [1.0]
    for axis in range(n):
        for k in range(1, 5):
            parts.append(polynomial_field(fields._heat_terms(k, axis, n + 1)))
            coeffs.append(rng.normal(0, 0.3 / math.factorial(k)))
    return field_sum(parts, coeffs)


def _reference_caloric(seed, n):
    """random_caloric on its default unit box as a field_sum of a constant,
    three kernels and one polynomial field per caloric part, drawing the
    same rng sequence."""
    rng = np.random.default_rng(seed)
    parts = [polynomial_field({(0,) * (n + 1): 1.0})]
    coeffs = [rng.normal(0, 0.3)]
    for _ in range(3):
        x0 = rng.uniform(np.full(n, -0.5), np.full(n, 1.5))
        t0 = 0.0 - rng.uniform(0.2, 0.8)
        parts.append(heat_kernel_field(n, tuple(x0) + (t0,)))
        coeffs.append(rng.normal(0, 0.5))
    for axis in range(n):
        for k in range(1, 4):
            parts.append(polynomial_field(fields._heat_terms(k, axis, n + 1)))
            coeffs.append(rng.normal(0, 0.2 / math.factorial(k)))
    return field_sum(parts, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_heat_families_match_per_part_reference(n):
    # one coefficient table moves each array by a few ulps of its largest
    # magnitude, no more; a reordered rng draw moves it by far more
    pts = _pinned_points(n + 1)
    for seed in (0, 1, 2):
        pairs = [(random_heat_one(seed, n=n), _reference_heat_one(seed, n)),
                 (random_caloric(seed, n=n), _reference_caloric(seed, n))]
        for new, ref in pairs:
            for attr in ("fn", "grad_fn", "hess_fn"):
                a, b = getattr(new, attr)(pts), getattr(ref, attr)(pts)
                tol = 8 * np.spacing(np.max(np.abs(b)))
                assert np.max(np.abs(a - b)) <= tol, (new.name, attr)


def _reference_field_sum(parts, coeffs=None, name="sum"):
    """field_sum before it summed in place: sum(c * f(pts) ...) per entry."""
    c = [1.0] * len(parts) if coeffs is None else [float(v) for v in coeffs]

    def combine(attr):
        return lambda pts: sum(ci * getattr(f, attr)(pts)
                               for ci, f in zip(c, parts))

    return ScalarField(parts[0].dim, combine("fn"), combine("grad_fn"),
                       combine("hess_fn"), name=name)


def _reference_heat_kernel_field(n, source, domain=None):
    """heat_kernel_field before it reused its buffers: out-of-place
    products and np.where."""
    src = tuple(float(v) for v in source)

    def grad_fn(pts):
        u, dg, _, ok = _log_kernel_derivs(pts, src, n, 1)
        return np.where(ok[:, None], u[:, None] * dg, 0.0)

    def hess_fn(pts):
        u, dg, hg, ok = _log_kernel_derivs(pts, src, n, 2)
        h = u[:, None, None] * (dg[:, :, None] * dg[:, None, :] + hg)
        return np.where(ok[:, None, None], h, 0.0)

    return ScalarField(n + 1, lambda pts: _log_kernel_derivs(pts, src, n, 0)[0],
                       grad_fn, hess_fn, domain=domain)


def test_in_place_sums_keep_the_bytes(monkeypatch):
    # field_sum and heat_kernel_field accumulate in place, with the bytes
    # of the out-of-place formulas, rows below the pole time included; -x
    # at x = 0 is 0 + (-1.0 * 0.0) = +0.0 in sum()
    def build():
        out = [random_caloric(0, n=n) for n in (1, 2, 3)]
        out += [fields.heat_kernel_field(n, (0.3,) * n + (-0.4,))
                for n in (1, 2, 3)]
        out.append(fields.field_sum([monomial_field(1)], [-1.0]))
        out.append(random_laplace_one(0))
        out.append(counterexamples.assemble_ccw_witness(
            Fraction(1, 8), 10, budget=1_000)["field"])
        return out

    new = build()
    for module in (fields, counterexamples):
        monkeypatch.setattr(module, "field_sum", _reference_field_sum)
    monkeypatch.setattr(fields, "heat_kernel_field",
                        _reference_heat_kernel_field)
    for f, ref in zip(new, build()):
        pts = _pinned_points(f.dim)
        for attr in ("fn", "grad_fn", "hess_fn"):
            a, b = getattr(f, attr)(pts), getattr(ref, attr)(pts)
            assert a.tobytes() == b.tobytes(), (f.name, attr)


def _reference_polynomial_field(coeffs, dim=None, domain=None, name="poly"):
    """polynomial_field before power tables: every term of every entry
    raises all d columns, np.prod(pts ** e, axis=1)."""
    terms = [(np.asarray(a, dtype=int), float(c)) for a, c in coeffs.items()]
    d = len(terms[0][0]) if dim is None else dim

    def _eval(pts, shift):
        out = np.zeros(len(pts))
        for a, c in terms:
            e = a - shift
            if np.any(e < 0):
                continue
            coef = c
            for ai, si in zip(a, shift):
                for k in range(si):
                    coef *= ai - k
            if coef == 0.0:
                continue
            out += coef * np.prod(pts**e, axis=1)
        return out

    unit = np.eye(d, dtype=int)

    def grad_fn(pts):
        return np.stack([_eval(pts, unit[i]) for i in range(d)], axis=1)

    def hess_fn(pts):
        h = np.empty((len(pts), d, d))
        for i in range(d):
            for j in range(i, d):
                h[:, i, j] = h[:, j, i] = _eval(pts, unit[i] + unit[j])
        return h

    return ScalarField(d, lambda pts: _eval(pts, 0 * unit[0]), grad_fn,
                       hess_fn, domain=domain, name=name)


def _special_points(d, n=2048):
    """Seeded points over zeros of both signs, units, infinities, NaN and
    values whose powers overflow or underflow."""
    vals = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 0.7,
                     -1.3, 1e-200, -1e200, 5e-324])
    return np.random.default_rng(d).choice(vals, size=(n, d))


_U = 2.0**-53


def _assert_within_bound(coeffs, d, pts, label):
    """polynomial_field of coeffs against the per-term reference at pts.

    An entry that is NaN, infinite or zero on either path must have the same
    bytes on both.  Any other entry must agree to the stated bound of both
    paths: each is within (D + T) u S of the exact value, where S is
    sum_alpha |c_alpha x^alpha|, and the reference's d np.power calls and
    d - 1 products over all columns add at most 3 u S per column."""
    new = polynomial_field(coeffs, dim=d)
    ref = _reference_polynomial_field(coeffs, dim=d)
    # the reference with |c_alpha| at |x| gives S for every entry
    mag = _reference_polynomial_field({a: abs(c) for a, c in coeffs.items()},
                                      dim=d)
    tol = (2 * (max(sum(a) for a in coeffs) + len(coeffs)) + 3 * d) * _U
    with np.errstate(all="ignore"):
        for attr in ("fn", "grad_fn", "hess_fn"):
            a, b = getattr(new, attr)(pts), getattr(ref, attr)(pts)
            assert a.shape == b.shape and a.dtype == b.dtype, (label, attr)
            special = ~np.isfinite(b) | (b == 0.0)
            assert np.array_equal(special, ~np.isfinite(a) | (a == 0.0))
            assert a[special].tobytes() == b[special].tobytes(), (label, attr)
            bound = tol * getattr(mag, attr)(np.abs(pts))
            assert np.all(np.abs(a - b)[~special] <= bound[~special]), \
                (label, attr)


def test_polynomial_field_matches_reference_path(monkeypatch):
    # every table the families in use build, d = 1 to 4, agrees with the
    # per-term path to the stated bound
    build, tables = fields.polynomial_field, []

    def record(coeffs, dim=None, domain=None, name="poly"):
        tables.append(coeffs)
        return build(coeffs, dim, domain, name)

    for module in (fields, counterexamples):
        monkeypatch.setattr(module, "polynomial_field", record)
    monkeypatch.setitem(globals(), "polynomial_field", record)
    _polynomial_families()
    monkeypatch.undo()
    assert len(tables) == 54  # one per family
    # tables the CLI and the suites build directly: deriv-check's quartics,
    # the constant fields, l1-linear's fields and the pmeans line
    tables += [{(4,) + (0,) * (n - 1): 1.0} for n in (1, 2, 3)]
    tables += [{(0,) * d: 1.0} for d in (1, 2, 3, 4)]
    tables += [{(1, 1): 1.0}, {(1, 1): 1.0, (2, 2): 0.25},
               {(1, 1): 1.0, (3, 1): 1.0 / 6.0}, {(1,): 1.0, (0,): 0.5}]
    for coeffs in tables:
        d = len(next(iter(coeffs)))
        _assert_within_bound(coeffs, d, _pinned_points(d), coeffs)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_polynomial_field_matches_reference_on_special_values(d):
    rng = np.random.default_rng(10 + d)
    for trial in range(20):
        coeffs = {tuple(int(v) for v in rng.integers(0, 6, d)):
                  float(rng.choice([0.0, -0.0, 1.0, -2.5, rng.normal()]))
                  for _ in range(int(rng.integers(1, 7)))}
        for pts in (_special_points(d), _pinned_points(d)):
            _assert_within_bound(coeffs, d, pts, coeffs)


def _exact_polynomial_entries(coeffs, d, x):
    """{slot: (exact entry, S, T)} of the table's value (slot ()), gradient
    (slot (i,)) and Hessian (slot (i, j), i <= j) at the float point x, with
    S = sum |c_alpha x^alpha| over the entry's T terms, in Fractions."""
    xs = [Fraction(v) for v in x]
    out = {}
    for order in range(3):
        for ix in itertools.combinations_with_replacement(range(d), order):
            val = mag = Fraction(0)
            count = 0
            for a, c in coeffs.items():
                e = [ai - ix.count(i) for i, ai in enumerate(a)]
                if min(e) < 0 or c == 0.0:
                    continue
                t = Fraction(c) * math.prod(
                    math.perm(ai, ai - ei) * xi**ei
                    for ai, ei, xi in zip(a, e, xs))
                val += t
                mag += abs(t)
                count += 1
            out[ix] = (val, mag, count)
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_polynomial_field_within_stated_bound(d):
    # random tables of total degree <= 5, evaluated exactly: every value,
    # gradient and Hessian entry is within (D + T) u S of the exact entry
    rng = np.random.default_rng(20 + d)
    for trial in range(8):
        coeffs = {}
        for _ in range(int(rng.integers(1, 7))):
            alpha = rng.multinomial(int(rng.integers(0, 6)), [1.0 / d] * d)
            coeffs[tuple(int(v) for v in alpha)] = float(rng.normal())
        top = max(sum(a) for a in coeffs)
        f = polynomial_field(coeffs, dim=d)
        pts = np.vstack([_pinned_points(d)[:8],
                         rng.uniform(-1.5, 1.5, (24, d))])
        got = (f.fn(pts), f.grad_fn(pts), f.hess_fn(pts))
        for p, x in enumerate(pts):
            exact = _exact_polynomial_entries(coeffs, d, x)
            for ix, (val, mag, count) in exact.items():
                err = abs(Fraction(float(got[len(ix)][(p,) + ix])) - val)
                assert err <= (top + count) * Fraction(_U) * mag, \
                    (coeffs, x, ix)


def _exact_harmonic_entries(pairs, center, scale, x):
    """[(re, im, B) for orders 0, 1, 2] at the float point x: the exact
    order-r complex derivative of sum gamma_k w^k over scale^r, in
    Fractions, and the stated bound (7n + 7 + m) u sum_j |c_j| |w|^j /
    scale^r as a float, with n the series' top power and m the most pairs
    that share a power."""
    s = Fraction(scale)
    wr = (Fraction(x[0]) - Fraction(center[0])) / s
    wi = (Fraction(x[1]) - Fraction(center[1])) / s
    absw = math.hypot(float(wr), float(wi))
    m = max(Counter(k for k, _ in pairs).values())
    out = []
    for r in range(3):
        re = im = Fraction(0)
        mag, top = 0.0, 0
        for k, g in pairs:
            if k < r:
                continue
            c = math.perm(k, r)
            pr, pi = Fraction(1), Fraction(0)
            for _ in range(k - r):
                pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
            gr, gi = Fraction(g.real) * c, Fraction(g.imag) * c
            re += gr * pr - gi * pi
            im += gr * pi + gi * pr
            mag += abs(g) * c * absw ** (k - r)
            top = max(top, k - r)
        out.append((re / s**r, im / s**r,
                    (7 * top + 7 + m) * _U * mag / scale**r))
    return out


def test_harmonic_field_within_stated_bound():
    # random series of degree <= 12, some powers repeated, and
    # fit_harmonic's degree-10 fit, evaluated exactly; rows 8-23 of each
    # point set lie on the lines through the centre
    from lpbounds.counterexamples import build_comb, ccw_target, fit_harmonic

    rng = np.random.default_rng(30)
    cases = []
    for trial in range(6):
        ks = rng.integers(0, 13, int(rng.integers(1, 9)))
        pairs = [(int(k), complex(rng.normal(), rng.normal()) / 2.0**k)
                 for k in ks]
        cases.append((pairs, tuple(rng.uniform(-1, 1, 2)),
                      float(rng.uniform(0.5, 2.0))))
    comb = build_comb(Fraction(1, 8))
    fit = fit_harmonic(ccw_target(comb), comb, 10)
    cases.append((list(enumerate(fit.gammas)), fit.center, fit.scale))
    for pairs, center, scale in cases:
        f = harmonic_polynomial_field(pairs, center=center, scale=scale)
        pts = _centre_line_points(center)[:48]
        v, g, h = f.fn(pts), f.grad_fn(pts), f.hess_fn(pts)
        for p, x in enumerate(pts):
            (r0, _, b0), (r1, i1, b1), (r2, i2, b2) = \
                _exact_harmonic_entries(pairs, center, scale, x)
            checks = [(v[p], r0, b0), (g[p, 0], r1, b1), (g[p, 1], -i1, b1),
                      (h[p, 0, 0], r2, b2), (h[p, 0, 1], -i2, b2),
                      (h[p, 1, 0], -i2, b2), (h[p, 1, 1], -r2, b2)]
            for got, want, bound in checks:
                assert float(abs(Fraction(float(got)) - want)) <= bound, \
                    (pairs, x)


@pytest.mark.parametrize("alpha", [(-1,), (1.5,), (2, -1), (1, 0.5)])
def test_polynomial_field_rejects_bad_exponents(alpha):
    # a negative exponent used to vanish as "underflowed" and 1.5 became 1
    with pytest.raises(ValueError, match="nonnegative integers"):
        polynomial_field({alpha: 1.0}, dim=len(alpha))
