import math

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
    heat_polynomial_field,
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
    positive_part,
)
from lpbounds.fields import _log_kernel_derivs
from lpbounds.averages import deriv1_rhs, deriv2_rhs

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
        v = heat_polynomial_field(k, axis=0, dim=2)
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
    pp = positive_part(field_sum([a], [-1.0]))
    assert _at(pp, 0.5, 0.0) == 0.0
    assert _at(pp, -0.5, 0.0) == pytest.approx(0.5)
    assert pp.grad_fn is None and pp.hess_fn is None


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
    # the positive part carries values only; every operator image refuses it
    pp = positive_part(random_harmonic(1))
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
    from fractions import Fraction
    from lpbounds.counterexamples import build_comb, ccw_target

    out = [(f"caloric-{k}-d{d}", heat_polynomial_field(k, dim=d))
           for d in (2, 3, 4) for k in range(5)]
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
# on _pinned_points.  The last bits of pts ** e come from NumPy's pow loops,
# so these digests belong to one NumPy build and CPU (NumPy 2.4, AVX-512).
_POLYNOMIAL_DIGESTS = {
    "caloric-0-d2": "d6fb83dbe031c9dc",
    "caloric-1-d2": "a05aa72a4b1e101a",
    "caloric-2-d2": "778efa843def9692",
    "caloric-3-d2": "67c4301b90d16e53",
    "caloric-4-d2": "0a3a8ce836108117",
    "caloric-0-d3": "bfd61a44c0609e2d",
    "caloric-1-d3": "a1bc995949ebac5f",
    "caloric-2-d3": "db0490407fec8057",
    "caloric-3-d3": "0ba266d4ff9cc9d6",
    "caloric-4-d3": "21cc075df1bdab4f",
    "caloric-0-d4": "20733bf3c56179e6",
    "caloric-1-d4": "b9bb9b741d33ec04",
    "caloric-2-d4": "3a06580f727d0240",
    "caloric-3-d4": "da7ed65214d326fb",
    "caloric-4-d4": "e14d496684b4a38b",
    "x^0": "fc562d66da9d608d",
    "x^1": "1981d5266f501792",
    "x^2": "cbf60d31cfd16573",
    "x^3": "7eedc67a3ffcdda6",
    "x^4": "784445f49db01f7a",
    "x^5": "610cef24cac2d88a",
    "x^6": "b78013b29bf1f12b",
    "x^7": "52fab8b65c1c53e0",
    "x^8": "675d7152914beb39",
    "neg-time-n1": "9ee543239203bef8",
    "neg-time-n2": "2d8c6e6c2d6bcbca",
    "neg-time-n3": "3c68569e791049ff",
    "heat-one-0-n1": "6873a30c6e490301",
    "caloric-0-n1": "1cb0273884efd448",
    "heat-one-1-n1": "a85ae28117d0caf0",
    "caloric-1-n1": "67bab36c37892be9",
    "heat-one-2-n1": "2d3e10684006038d",
    "caloric-2-n1": "7465e74362371c8d",
    "heat-one-0-n2": "018c90901bef3243",
    "caloric-0-n2": "4decd3049f39f683",
    "heat-one-1-n2": "b35af7e989038905",
    "caloric-1-n2": "7f6f5f1241b33a77",
    "heat-one-2-n2": "5999784df5a2d643",
    "caloric-2-n2": "a65a56155e32eadc",
    "heat-one-0-n3": "6eafa968b2e79160",
    "caloric-0-n3": "ca3c4d89f15ff838",
    "heat-one-1-n3": "08876c93294e23c2",
    "caloric-1-n3": "141d5dfc09308225",
    "heat-one-2-n3": "4529e6b2fafe7271",
    "caloric-2-n3": "486c8dc1237a71a5",
    "t^2/2": "863e9a1985d7f8d5",
}


def _field_digest(f):
    import hashlib

    pts = _pinned_points(f.dim)
    h = hashlib.sha256()
    for out in (f.fn(pts), f.grad_fn(pts), f.hess_fn(pts)):
        h.update(np.ascontiguousarray(out, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def test_polynomial_field_bits_pinned():
    got = {label: _field_digest(f) for label, f in _polynomial_families()}
    assert got == _POLYNOMIAL_DIGESTS


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


def _assert_same_bits(new, ref, pts, label):
    with np.errstate(all="ignore"):
        for attr in ("fn", "grad_fn", "hess_fn"):
            a, b = getattr(new, attr)(pts), getattr(ref, attr)(pts)
            assert a.shape == b.shape and a.dtype == b.dtype, (label, attr)
            assert np.array_equal(a, b, equal_nan=True), (label, attr)
            assert a.tobytes() == b.tobytes(), (label, attr)


def test_polynomial_field_matches_reference_path(monkeypatch):
    # every family in use, d = 1 to 4: the same bytes as the per-term path
    new = _polynomial_families()
    monkeypatch.setattr(fields, "polynomial_field", _reference_polynomial_field)
    monkeypatch.setattr(counterexamples, "polynomial_field",
                        _reference_polynomial_field)
    for (label, f), (_, ref) in zip(new, _polynomial_families()):
        _assert_same_bits(f, ref, _pinned_points(f.dim), label)
    # tables the CLI and the suites build directly: deriv-check's quartics,
    # the constant fields, l1-linear's fields and the pmeans line
    tables = [{(4,) + (0,) * (n - 1): 1.0} for n in (1, 2, 3)]
    tables += [{(0,) * d: 1.0} for d in (1, 2, 3, 4)]
    tables += [{(1, 1): 1.0}, {(1, 1): 1.0, (2, 2): 0.25},
               {(1, 1): 1.0, (3, 1): 1.0 / 6.0}, {(1,): 1.0, (0,): 0.5}]
    for coeffs in tables:
        d = len(next(iter(coeffs)))
        _assert_same_bits(polynomial_field(coeffs, dim=d),
                          _reference_polynomial_field(coeffs, dim=d),
                          _pinned_points(d), coeffs)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_polynomial_field_matches_reference_on_special_values(d):
    rng = np.random.default_rng(10 + d)
    for trial in range(20):
        coeffs = {tuple(int(v) for v in rng.integers(0, 6, d)):
                  float(rng.choice([0.0, -0.0, 1.0, -2.5, rng.normal()]))
                  for _ in range(int(rng.integers(1, 7)))}
        f = polynomial_field(coeffs, dim=d)
        ref = _reference_polynomial_field(coeffs, dim=d)
        for pts in (_special_points(d), _pinned_points(d)):
            _assert_same_bits(f, ref, pts, coeffs)


@pytest.mark.parametrize("alpha", [(-1,), (1.5,), (2, -1), (1, 0.5)])
def test_polynomial_field_rejects_bad_exponents(alpha):
    # a negative exponent used to vanish as "underflowed" and 1.5 became 1
    with pytest.raises(ValueError, match="nonnegative integers"):
        polynomial_field({alpha: 1.0}, dim=len(alpha))
