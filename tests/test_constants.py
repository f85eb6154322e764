import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpbounds.geometry import (Box, EuclideanBall, euclidean_shrink,
                               heatball_shrink, parabolic_box_system,
                               system_shrink, unit_ball_volume)
from lpbounds.fields import LinearOperator, laplacian_operator
from lpbounds.averages import SMAX
from lpbounds import constants
from lpbounds.constants import (
    ConstantReport,
    adjoint_constant,
    assemble_cp_heat,
    assemble_cp_laplace,
    constants_table,
    bracket_max,
    heatball_unit_volume,
    heatball_unit_volume_exact,
    heatball_unit_volume_quad,
    k_heat,
    k_heat_value,
    k_laplace,
    kappa,
    kappa_max,
    pmean_to_sublevel_bound,
    sublevel_to_pmean_bound,
)

# frozen: |E(1)| in one space dimension and the m = 3, n = 1 kernel max
E1_VOLUME_1D = 0.030629383078988447
KAPPA_MAX_31 = 147.22742281119645


def test_k_laplace_values():
    assert k_laplace(1) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert k_laplace(2) == 0.125
    assert k_laplace(3) == 0.1
    with pytest.raises(ValueError):
        k_laplace(0)


def test_heatball_volume_exact_vs_quad():
    for n in (1, 2, 3):
        ex = heatball_unit_volume_exact(n)
        qd = heatball_unit_volume_quad(n)
        assert abs(ex - qd) <= 1e-9 * ex
    assert heatball_unit_volume_exact(1) == pytest.approx(E1_VOLUME_1D,
                                                          rel=1e-14)


def test_heatball_volume_monte_carlo():
    for n in (1, 2, 3):
        ex = heatball_unit_volume_exact(n)
        mc = heatball_unit_volume(n, budget=200_000, seed=0)
        assert abs(mc.value - ex) <= 3 * mc.std_error
    with pytest.raises(ValueError):
        heatball_unit_volume(0)


def test_k_heat_regression_and_cross_check():
    assert k_heat_value(1) == pytest.approx(7.6247e-4, abs=1e-7)
    for n in (1, 2):
        rep = k_heat(n, budget=100_000, seed=1)
        assert rep.rel_gap < 0.02
    with pytest.raises(ValueError):
        k_heat_value(0)


def test_kappa_basic_values_and_boundary():
    m, n = 3, 1
    s = SMAX / math.e
    bigl = math.log(1.0 / (4.0 * math.pi * s))
    edge = math.sqrt(2.0 * s * (m + n) * bigl)
    # interior positive, boundary zero (up to the float round trip), apex 0
    assert kappa(m, n, [[0.0]], s)[0] > 0.0
    assert abs(kappa(m, n, [[edge]], s)[0]) <= 1e-12
    assert kappa(m, n, [[0.0]], 0.0)[0] == 0.0
    vals = kappa(m, n, np.array([[0.0], [0.1]]), s)
    assert vals.shape == (2,) and vals[1] < vals[0]
    both = kappa(m, n, [[0.0], [0.0]], np.array([s, 0.0]))
    assert both[0] == vals[0] and both[1] == 0.0


def test_kappa_domain_errors():
    with pytest.raises(ValueError, match="m must be"):
        kappa(2, 1, [[0.0]], 0.01)
    with pytest.raises(ValueError, match="n must be"):
        kappa(3, 0, [[0.0]], 0.01)
    with pytest.raises(ValueError, match="outside the modified heat ball"):
        kappa(3, 1, [[0.0]], -0.01)
    with pytest.raises(ValueError, match="outside the modified heat ball"):
        kappa(3, 1, [[0.0]], SMAX * 1.01)
    with pytest.raises(ValueError, match="outside the modified heat ball"):
        kappa(3, 1, [[5.0]], 0.01)
    with pytest.raises(ValueError, match="batch of points"):
        kappa(3, 2, [[0.1]], 0.01)  # y must have 2 coordinates
    with pytest.raises(ValueError, match="outside the modified heat ball"):
        kappa(3, 1, [[0.5]], 0.0)  # positive offset at age zero
    with pytest.raises(ValueError, match="batch of points"):
        kappa(3, 1, [0.0], 0.01)  # a bare point is not a batch


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("s", [1e-170, 1e-300])
def test_kappa_is_finite_at_the_axis_once_s_squared_underflows(m, s):
    # s * s is 0, so |y|^2/s^2 was 0/0 = NaN at y = 0; the term is 0 there
    n = 2
    got = kappa(m, n, np.zeros((1, n)), s)
    ss = np.array([s])
    bigl = np.log(1.0 / (4.0 * math.pi * ss))
    a2 = 2.0 * ss * (m + n) * bigl
    want = (unit_ball_volume(m) / (2.0 * m + 4.0) * a2 ** (m / 2.0)
            * (m * (m + n) * bigl / ss))
    assert np.isfinite(got[0]) and got[0] == want[0]


def test_kappa_integrates_to_one():
    from lpbounds.averages import _slice_samples
    m, n = 3, 1
    rng = np.random.default_rng(0)
    y, s, w = _slice_samples(n, m + n, 400_000, rng)
    vals = kappa(m, n, y, s) * w
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(float(np.mean(vals)) - 1.0) <= 3 * se


@pytest.mark.parametrize("peak", [0.3, 0.0, 1.0])
def test_bracket_max_finds_an_interior_or_end_maximum(peak):
    x, v = bracket_max(lambda t: -(t - peak) ** 2, 0.0, 1.0)
    assert abs(x - peak) <= 1e-9
    assert abs(v) <= 1e-18


def test_bracket_max_fails_closed_on_nan_near_the_maximum():
    # NaN on [0.25, 0.35], which holds the maximum at 0.3
    x, v = bracket_max(lambda t: np.where(abs(t - 0.3) <= 0.05, np.nan,
                                          -(t - 0.3) ** 2), 0.0, 1.0)
    assert math.isnan(v)


def test_kappa_max_searches_on_batches(monkeypatch):
    # the cross-check evaluates kappa a batch at a time, not point by point
    rows = []
    real = constants.kappa

    def counted(m, n, y, s):
        rows.append(len(y))
        return real(m, n, y, s)

    monkeypatch.setattr(constants, "kappa", counted)
    for m in (3, 6):
        for n in (1, 3):
            rows.clear()
            kappa_max(m, n)
            assert 0 < len(rows) <= 20 and min(rows) >= 64, (m, n, rows)


def test_kappa_max_regression_and_agreement():
    rep = kappa_max(3, 1)
    assert rep.closed_form == pytest.approx(KAPPA_MAX_31, rel=1e-12)
    assert rep.rel_gap <= 1e-6
    assert abs(rep.inputs["s_star"] - rep.inputs["s_star_numeric"]) <= 1e-8
    assert rep.inputs["y_slice_monotone"]
    with pytest.raises(ValueError):
        kappa_max(2, 1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kappa_max_grid(m, n):
    rep = kappa_max(m, n)
    assert rep.rel_gap <= 1e-6
    assert abs(rep.inputs["s_star"] - rep.inputs["s_star_numeric"]) <= 1e-8


def _bits(values) -> str:
    """sha256 of the float64 bytes of values: a pin on every bit."""
    return hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()


def test_kappa_max_bits_pinned():
    # the closed form, the bracket-search cross-check and both maximizers of
    # every (m, n) in 3..6 x 1..3, bit for bit
    vals = []
    for m in (3, 4, 5, 6):
        for n in (1, 2, 3):
            rep = kappa_max(m, n)
            vals += [rep.closed_form, rep.cross_check, rep.inputs["s_star"],
                     rep.inputs["s_star_numeric"]]
    assert _bits(vals) == ("0c4309ba61999cd7e33a9c41d7a9ccd9"
                           "65c5062d4cfdb7afbab136bf1d86a84b")


@pytest.mark.parametrize("y, s", [
    ([0.0], math.nan), ([math.nan], 0.0), ([math.nan], 0.01),
    ([0.0], math.inf), ([math.inf], 0.01)])
def test_kappa_raises_on_a_nan_or_infinite_point(y, s):
    # a NaN age failed neither range test, and a NaN offset at age zero
    # passed the |y| > 0 test, so both came out as kappa = 0.0
    with pytest.raises(ValueError, match="outside the modified heat ball"):
        kappa(3, 1, np.array([y]), np.array([s]))


def test_adjoint_constant_cross_check_and_guards():
    D = laplacian_operator(2)
    dom = Box((0.0, 0.0), (1.0, 1.0))
    rep = adjoint_constant(D, dom, (0.5, 0.5), 0.4, budget=100_000, seed=0)
    assert rep.closed_form > 0
    assert rep.rel_gap < 0.05
    with pytest.raises(ValueError):
        adjoint_constant(D, dom, (0.5, 0.5), 0.6)
    with pytest.raises(ValueError):
        adjoint_constant(D, Box((0.0,) * 3, (1.0,) * 3), (0.5, 0.5), 0.4)


def test_adjoint_constant_fails_closed_on_nan_sup(monkeypatch):
    # the builtin max() dropped a NaN found at the random sample points, and
    # `den <= 0` let a NaN through, so the constant came out finite
    apply = LinearOperator.apply

    def nan_at_one_sample(self, f, p):
        out = apply(self, f, p)
        if len(out) != 96 ** 2:  # the random points, not the lattice
            out[0] = np.nan
        return out

    monkeypatch.setattr(LinearOperator, "apply", nan_at_one_sample)
    with pytest.raises(ValueError, match="adjoint sup"):
        adjoint_constant(laplacian_operator(2), Box((0.0, 0.0), (1.0, 1.0)),
                         (0.5, 0.5), 0.4, budget=20_000)


def test_adjoint_constant_scaling():
    # c scales as radius^{d + order} = radius^4 for the plane Laplacian
    D = laplacian_operator(2)
    dom = Box((-2.0, -2.0), (2.0, 2.0))
    small = adjoint_constant(D, dom, (0.0, 0.0), 0.2, seed=3)
    big = adjoint_constant(D, dom, (0.0, 0.0), 0.4, seed=3)
    assert abs(big.closed_form / small.closed_form - 16.0) <= 1e-9


def test_assemble_cp_laplace():
    om = Box((0.0, 0.0), (1.0, 1.0))
    rep = assemble_cp_laplace(om, 0.5)
    assert rep.closed_form > 0
    assert rep.cross_check is None and rep.rel_gap is None
    assert rep.inputs["inradius"] == 0.5
    assert rep.inputs["R1"] + rep.inputs["R2"] < rep.inputs["inradius"]
    # the sublevel factor |c - K R2^2| is c itself
    assert rep.inputs["branch_sublevel"] == (rep.inputs["c"]
                                             * rep.inputs["vol_exact"] ** 2)
    with pytest.raises(TypeError):
        assemble_cp_laplace(EuclideanBall((0.0, 0.0), 1.0), 0.5)
    with pytest.raises(ValueError):
        assemble_cp_laplace(om, 1.5)


def test_assemble_cp_heat():
    om = Box((0.0, 0.0), (1.0, 1.0))
    rep = assemble_cp_heat(om, 0.5)
    assert rep.closed_form > 0
    assert rep.name == "c_p[heat,n=1,m=3,p=0.5]"
    assert rep.inputs["M"] == pytest.approx(KAPPA_MAX_31, rel=1e-12)
    with pytest.raises(ValueError):
        assemble_cp_heat(Box((0.0,), (1.0,)), 0.5)
    with pytest.raises(ValueError):
        assemble_cp_heat(om, 0.0)
    with pytest.raises(TypeError):
        assemble_cp_heat(EuclideanBall((0.0, 0.0), 1.0), 0.5)


# a square, a box thin in its last (for heat, time) axis, and one thin in
# its first (space) axis
_INRADIUS_BOXES = [Box((0.0, 0.0), (1.0, 1.0)),
                   Box((0.0, 0.0), (1.0, 0.01)),
                   Box((0.0, 0.0), (0.01, 1.0))]


@pytest.mark.parametrize("om", _INRADIUS_BOXES)
def test_laplace_inradius_is_the_sup(om):
    rho = assemble_cp_laplace(om, 0.5).inputs["inradius"]
    assert isinstance(euclidean_shrink(om, rho * (1 - 1e-12)), Box)
    assert euclidean_shrink(om, rho * (1 + 1e-12)) is None


@pytest.mark.parametrize("om", _INRADIUS_BOXES + [
    Box((0.0, 0.0, 0.0), (1.0, 0.7, 1.0)),
    Box((0.0, 0.0, 0.0), (1.0, 1.0, 0.01))])
def test_heat_inradii_are_the_sups(om):
    # the system ball of radius inradius_box, and then the heat ball of
    # radius inradius_heat inside s1 = system_shrink(om, R1), fits just
    # below the inradius and not just above it
    rep = assemble_cp_heat(om, 0.5)
    n = om.dim - 1
    sys = parabolic_box_system(3, n)
    rho, sigma = rep.inputs["inradius_box"], rep.inputs["inradius_heat"]
    assert isinstance(system_shrink(om, sys, rho * (1 - 1e-12)), Box)
    assert system_shrink(om, sys, rho * (1 + 1e-12)) is None
    s1 = system_shrink(om, sys, rep.inputs["R1"])
    assert isinstance(heatball_shrink(s1, sigma * (1 - 1e-12), n), Box)
    assert heatball_shrink(s1, sigma * (1 + 1e-12), n) is None


def test_sublevel_pmean_conversions_against_linear_field():
    # |{x in (0,1) : x <= eps}| = eps, i.e. C = 1, delta = 1; the exact
    # (-1/2)-mean of x is 1/4
    lower = sublevel_to_pmean_bound(1.0, 1.0, -0.5, 1.0)
    assert 0.0 < lower <= 0.25
    for eps in (0.05, 0.1, 0.3):
        cap = pmean_to_sublevel_bound(0.25, -0.5, 1.0, eps)
        assert cap >= eps
    with pytest.raises(ValueError):
        sublevel_to_pmean_bound(1.0, 1.0, -1.5, 1.0)
    with pytest.raises(ValueError):
        sublevel_to_pmean_bound(0.0, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        pmean_to_sublevel_bound(0.25, 0.5, 1.0, 0.1)
    with pytest.raises(ValueError):
        pmean_to_sublevel_bound(-1.0, -0.5, 1.0, 0.1)


def test_constant_report_rel_gap():
    rep = ConstantReport(name="x", closed_form=2.0, cross_check=2.1)
    assert rep.rel_gap == pytest.approx(0.05)
    assert ConstantReport(name="y", closed_form=1.0).rel_gap is None


def test_constants_table_shape():
    rows = constants_table(ns=(1, 2), ms=(3,), budget=20_000)
    names = [r.name for r in rows]
    assert len(rows) == 2 + 2 + 2 + 2
    assert names[0] == "k_laplace[n=1]"
    assert any(name.startswith("kappa_max") for name in names)
    assert all(r.rel_gap is None or r.rel_gap < 0.05 for r in rows)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.integers(1, 4))
def test_kappa_max_closed_form_property(m, n):
    rep = kappa_max(m, n)
    assert rep.rel_gap <= 1e-6
    # the kernel max grows with the augmenting dimension
    assert rep.closed_form > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3), st.floats(0.05, 0.95))
def test_sublevel_bound_is_sound_for_monomials(k, frac):
    # u = x^k on (0,1) has |{u <= eps}| = eps^{1/k} (C = 1, delta = 1/k)
    # and exact p-mean (kp + 1)^{-1/p} for p in (-1/k, 0)
    delta = 1.0 / k
    p = -delta * frac
    bound = sublevel_to_pmean_bound(1.0, delta, p, 1.0)
    exact = (k * p + 1.0) ** (-1.0 / p)
    assert 0.0 < bound <= exact * (1.0 + 1e-12)
