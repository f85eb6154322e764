import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpbounds import counterexamples, quadrature
from lpbounds.geometry import Box
from lpbounds.quadrature import EVAL_BLOCK
from lpbounds.fields import laplacian_operator, monomial_field
from lpbounds.counterexamples import (
    assemble_ccw_witness,
    build_comb,
    ccw_target,
    fit_harmonic,
    hessian_family_check,
    lift_check,
)


def test_comb_exact_measures():
    # count and measure in exact rational arithmetic
    expected = {
        Fraction(1, 4): (3, Fraction(21, 32)),
        Fraction(1, 8): (7, Fraction(105, 128)),
        Fraction(1, 16): (15, Fraction(465, 512)),
        Fraction(1, 32): (31, Fraction(1953, 2048)),
    }
    for d, (count, meas) in expected.items():
        comb = build_comb(d)
        assert comb.count == count
        assert comb.measure_exact == meas
        assert comb.measure_exact > 1 - 2 * d
        assert comb.measure == float(meas)


def test_comb_geometry_is_exact():
    comb = build_comb(Fraction(1, 8))
    d = comb.delta
    assert comb.separation == d * d / 4
    for (_, _, _, t1), (_, _, t0b, _) in zip(comb.rects, comb.rects[1:]):
        assert t0b - t1 == comb.separation
    for x0, x1, t0, t1 in comb.rects:
        assert x0 == d / 4 and x1 == 1 - d / 4
        assert t1 - t0 == d
    assert comb.rects[-1][3] <= 1 - d * d / 4
    bb = comb.bounding_box()
    assert bb.lo[0] == float(d / 4)


def test_build_comb_validation():
    with pytest.raises(ValueError):
        build_comb(0)
    with pytest.raises(ValueError):
        build_comb(Fraction(1, 2))
    assert build_comb(Fraction(49, 100)).count == 1


def test_comb_component_index():
    comb = build_comb(Fraction(1, 4))
    x0, x1, t0, t1 = (float(v) for v in comb.rects[0])
    mid = ((x0 + x1) / 2, (t0 + t1) / 2)
    idx = comb.component_index(np.array([mid, [0.0, 0.0]]))
    assert list(idx) == [0, -1]
    # a point just outside rectangle 0 is captured by a small inflation
    eps = comb.delta**2 / 16
    nudged = (x0 - float(eps) / 2, mid[1])
    assert list(comb.component_index([nudged])) == [-1]
    assert list(comb.component_index([nudged], inflate=eps)) == [0]
    with pytest.raises(ValueError):
        comb.component_index([mid], inflate=comb.separation / 2)
    with pytest.raises(ValueError, match="batch of points"):
        comb.component_index(mid)


def test_ccw_target_values_and_bound():
    comb = build_comb(Fraction(1, 8))
    target = ccw_target(comb)
    assert target.bound == float(comb.delta + comb.delta**2 / 8)
    for i, (_, _, t0, t1) in enumerate(comb.rects):
        c = float((t0 + t1) / 2)
        x = float((comb.rects[i][0] + comb.rects[i][1]) / 2)
        assert target.w1([[x, c]])[0] == pytest.approx(c * c / 2, rel=1e-15)
        # v - w1 stays below the bound across the rectangle
        top = target.v.fn(np.array([[x, float(t1)]]))[0]
        assert abs(top - c * c / 2) <= target.bound
    assert math.isnan(target.w1([[0.0, 0.0]])[0])


def test_fit_harmonic_reproduces_constants():
    # a single-rectangle comb has a constant target: the fit is exact
    comb = build_comb(Fraction(9, 20))
    assert comb.count == 1
    fit = fit_harmonic(ccw_target(comb), comb, degree=1)
    assert fit.residual_sup <= 1e-12
    assert fit.sample_rms <= 1e-12


def test_fit_sample_rms_monotone_in_degree():
    comb = build_comb(Fraction(1, 4))
    target = ccw_target(comb)
    rms = [fit_harmonic(target, comb, degree=k, seed=3).sample_rms
           for k in (5, 10, 20)]
    assert rms[0] >= rms[1] >= rms[2]


def test_fit_harmonic_guards():
    comb = build_comb(Fraction(1, 4))
    target = ccw_target(comb)
    with pytest.raises(ValueError):
        fit_harmonic(target, comb, degree=0)
    with pytest.raises(ValueError):
        fit_harmonic(target, comb, degree=20, samples_per_rect=2)


def test_fit_field_is_harmonic():
    comb = build_comb(Fraction(1, 8))
    fit = fit_harmonic(ccw_target(comb), comb, degree=8)
    f = fit.as_field()
    pts = np.random.default_rng(0).uniform(0, 1, (200, 2))
    assert np.max(np.abs(laplacian_operator(2).apply(f, pts))) <= 1e-8
    assert len(fit.gammas) == 9


def test_assemble_ccw_witness():
    out = assemble_ccw_witness(Fraction(1, 8), degree=12, budget=100_000)
    assert out["laplacian_max_err"] <= 1e-8
    assert out["comb_grid_within_tau"]
    hi = out["sublevel_measure"] + 3 * out["sublevel_se"]
    assert hi >= out["comb_measure"]
    assert out["passed"]
    assert out["sublevel_slack"] == hi - out["comb_measure"]
    assert 0 < out["tau"] < 0.5
    assert out["field"].domain == Box((0.0, 0.0), (1.0, 1.0))
    assert out["tau"] == pytest.approx(out["residual"] + out["target_bound"])


def test_hessian_family_determinant_and_collapse():
    small = hessian_family_check(10, 0.1)
    big = hessian_family_check(100, 0.1)
    for out in (small, big):
        assert out["max_rel_err"] <= 1e-11
        assert out["min_det"] >= 0.999
        assert out["sup_grid"] <= out["sup_bound"] * (1 + 1e-9)
    assert not small["superlevel_empty"]  # 2e/10 > 0.1
    assert big["superlevel_empty"] and big["superlevel_empty_on_grid"]
    ratio = small["sup_grid"] / big["sup_grid"]
    assert abs(ratio - 10.0) <= 0.5
    with pytest.raises(ValueError):
        hessian_family_check(0.5, 0.1)
    with pytest.raises(ValueError):
        hessian_family_check(10, 0.0)


# Every field of hessian_family_check(N, 0.1), floats as float.hex.  At
# N = 10 and 100 a sup-grid block holds many x-rows, at N = 1000 two, and
# at N = 2048 (ny = 65,536) exactly one.
_HESSIAN_FAMILY_BITS = {
    10: ("0x1.d17cf40a34d35p-51", "0x1.ffffffffffffep-1",
         "0x1.1659f756ceb5dp-1", "0x1.165a208dd12bap-1", False, False),
    100: ("0x1.bfb158b7591d7p-51", "0x1.ffffffffffffep-1",
          "0x1.bd5b72f04b09cp-5", "0x1.bd5d00e2e845dp-5", True, True),
    1000: ("0x1.fc4f564186e99p-51", "0x1.ffffffffffffcp-1",
           "0x1.644a671ba65f6p-8", "0x1.644a671bed04bp-8", True, True),
    2048: ("0x1.d17cf40a34d35p-51", "0x1.ffffffffffffcp-1",
           "0x1.5bf0a70b202ccp-9", "0x1.5bf0a8b145769p-9", True, True),
}


@pytest.mark.parametrize("N", sorted(_HESSIAN_FAMILY_BITS))
def test_hessian_family_bits_pinned(N):
    err, det, sup, bound, empty, empty_grid = _HESSIAN_FAMILY_BITS[N]
    out = hessian_family_check(N, 0.1)
    assert out == {"N": N, "c": 0.1, "max_rel_err": float.fromhex(err),
                   "min_det": float.fromhex(det),
                   "sup_grid": float.fromhex(sup),
                   "sup_bound": float.fromhex(bound),
                   "superlevel_empty": empty,
                   "superlevel_empty_on_grid": empty_grid}
    assert all(type(out[k]) is float for k in
               ("max_rel_err", "min_det", "sup_grid", "sup_bound"))


@pytest.mark.parametrize("threads", [1, 2])
def test_hessian_family_scans_whole_rows_in_bounded_blocks(monkeypatch,
                                                          threads):
    # a block holds as many whole x-rows as fit in EVAL_BLOCK points, and
    # at least one: at N = 10 the 128 x 1,024 sup grid is scanned eight
    # x-rows at a time, at N = 1000 the 128 x 32,000 grid one row at a time
    real = counterexamples.ccw_hessian_field
    sizes = []

    def recording(N):
        u = real(N)
        fn = u.fn

        def fn_rec(pts):
            sizes.append(len(pts))
            return fn(pts)

        return dataclasses.replace(u, fn=fn_rec)

    monkeypatch.setattr(counterexamples, "ccw_hessian_field", recording)
    assert EVAL_BLOCK == 8 * 1024 < 32_000
    for N, blocks in ((10, [8 * 1024] * 16), (1000, [32_000] * 128)):
        sizes.clear()
        with quadrature._workers(threads):
            out = hessian_family_check(N, 0.1)
        assert sorted(sizes) == blocks
        assert out["sup_grid"] == float.fromhex(_HESSIAN_FAMILY_BITS[N][2])


def test_lift_check_product_bound():
    u = monomial_field(1)  # ||x||_1 = 1/2 on (0, 1)
    wide = Box((0.0,), (2.0,))
    out = lift_check(u, wide, 1.0, 0.45, budget=50_000, seed=0)
    assert out["passed"]
    assert out["bound"] == pytest.approx(0.9)
    assert abs(out["lifted"] - 1.0) <= 0.01
    # doubling the second factor scales the bound by exactly 2^{1/p}
    for p in (1.0, 2.0):
        a = lift_check(u, Box((0.0,), (1.0,)), p, 0.3, budget=2000)
        b = lift_check(u, Box((0.0,), (2.0,)), p, 0.3, budget=2000)
        assert b["bound"] / a["bound"] == pytest.approx(2 ** (1 / p), rel=1e-12)
    with pytest.raises(ValueError):
        lift_check(u, wide, 0.0, 0.4)
    bare = lambda pts: pts[:, 0]  # noqa: E731
    with pytest.raises(ValueError):
        lift_check(bare, wide, 1.0, 0.4)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(3, 200))
def test_comb_properties_random_delta(num, den):
    d = Fraction(num, den)
    if not 0 < d < Fraction(1, 2):
        return
    comb = build_comb(d)
    assert 1 - 2 * d < comb.measure_exact <= 1
    # sharp containment bound; 1 - delta/4 fails at e.g. delta = 15/169
    assert comb.rects[-1][3] <= 1 - d * d / 4
    mids = [((float(r[0]) + float(r[1])) / 2, (float(r[2]) + float(r[3])) / 2)
            for r in comb.rects]
    assert sorted(comb.component_index(np.asarray(mids))) == list(
        range(comb.count))
