import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpbounds.geometry import (
    Box,
    EuclideanBall,
    Heatball,
    BallSystem,
    euclidean_system,
    parabolic_box_system,
    radius_function,
    euclidean_shrink,
    heatball_shrink,
    system_shrink,
    unit_ball_points,
    unit_ball_volume,
)

SMAX = 1.0 / (4.0 * math.pi)


def test_unit_ball_volume_known_values():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2.0)


# First 16 hex digits of the SHA-256 of unit_ball_points(d, 4096,
# default_rng(d), scale), and the generator's PCG64 state after the call,
# which fixes the order and the number of the draws
_UNIT_BALL_PINS = {
    (1, 1.0): ("63adeec3c91ca24e", 0xf65781f105604b1aa4d001629c8a4c3f),
    (1, 0.3): ("79210a4954f5d46f", 0xf65781f105604b1aa4d001629c8a4c3f),
    (2, 1.0): ("100871920a2fa0f7", 0x66096b6fa4296f550a7507d46f0b8bb8),
    (2, 0.3): ("35c478538609d69d", 0x66096b6fa4296f550a7507d46f0b8bb8),
    (3, 1.0): ("6417b9ae58a46e4c", 0xcec56fca005a602f368df94d69f6358f),
    (3, 0.3): ("0aeb971a4a498781", 0xcec56fca005a602f368df94d69f6358f),
}


@pytest.mark.parametrize("d, scale", list(_UNIT_BALL_PINS))
def test_unit_ball_points_pinned(d, scale):
    rng = np.random.default_rng(d)
    pts = unit_ball_points(d, 4096, rng, scale)
    assert pts.shape == (4096, d)
    digest = hashlib.sha256(np.ascontiguousarray(pts).tobytes()).hexdigest()
    state = rng.bit_generator.state["state"]["state"]
    assert (digest[:16], state) == _UNIT_BALL_PINS[d, scale]


def test_box_basics():
    b = Box((0.0, -1.0), (2.0, 1.0))
    assert b.dim == 2
    assert b.measure == pytest.approx(4.0)
    assert b.center == pytest.approx((1.0, 0.0))
    # the second point is on the boundary: boxes are closed
    assert list(b.contains([[1.0, 0.5], [0.0, -1.0], [2.1, 0.0]])) == [
        True, True, False]
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


@pytest.mark.parametrize("lo, hi", [
    ((0.0, 0.0), (1.0, math.nan)),  # a >= b is False for NaN
    ((math.nan,), (1.0,)),
    ((0.0, -math.inf), (1.0, 1.0)),
    ((0.0,), (math.inf,)),
    ((-1e200, -1e200), (1e200, 1e200)),  # finite bounds, measure overflows
    ((0.0, 0.0), (1e-200, 1e-200)),  # positive widths, measure underflows
])
def test_box_rejects_nonfinite_bounds_and_measure(lo, hi):
    # a NaN box used to build with measure NaN, an infinite one to fail
    # only later, in rng.uniform
    with pytest.raises(ValueError, match="box"):
        Box(lo, hi)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_sample_bits_match_per_axis_bounds(d):
    # a cube draws with scalar bounds; the bits must equal the per-axis draw
    cube = Box((-0.5,) * d, (1.25,) * d)
    got = cube.sample(1001, np.random.default_rng(7))
    want = np.random.default_rng(7).uniform(np.full(d, -0.5), np.full(d, 1.25),
                                            size=(1001, d))
    assert got.tobytes() == want.tobytes()


def _edge_batch(lo, hi, rng):
    """Random points around [lo, hi] plus its corners, NaN rows, a row
    that is NaN on one axis only, and the centre."""
    lo, hi = np.asarray(lo), np.asarray(hi)
    d = len(lo)
    span = hi - lo
    pts = [rng.uniform(lo - span / 2, hi + span / 2, size=(200, d)),
           np.where(rng.random((50, d)) < 0.5, lo, hi),
           np.full((1, d), np.nan), (lo + hi)[None, :] / 2]
    part = (lo + hi)[None, :] / 2
    part[0, -1] = np.nan
    pts.append(part)
    edge = np.where(rng.random((50, d)) < 0.5, lo, hi)
    edge[:, 0] = np.nextafter(edge[:, 0], np.inf)
    pts.append(edge)
    return np.concatenate(pts)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_and_heatball_contains_match_whole_batch_formulas(d):
    # membership is tested one column at a time; it must give the booleans
    # of the (N, d) compare reduced by np.all(axis=1)
    rng = np.random.default_rng(d)
    box = Box(tuple(rng.uniform(-1, 0, d)), tuple(rng.uniform(0.5, 2, d)))
    pts = _edge_batch(box.lo, box.hi, rng)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    want = np.all((pts >= lo) & (pts <= hi), axis=1)
    assert np.array_equal(box.contains(pts), want)
    assert want.any() and not want.all()
    if d < 2:
        return
    hb = Heatball(tuple(rng.uniform(-1, 1, d)), 0.8, m=1)
    bb = hb.bounding_box()
    pts = np.concatenate([_edge_batch(bb.lo, bb.hi, rng),
                          np.asarray(hb.center)[None, :]])
    c = np.asarray(hb.center)
    n = hb.spatial_dim
    tau = c[-1] - pts[:, -1]
    want = np.zeros(len(pts), dtype=bool)
    ok = (tau > 0) & (tau <= hb.depth)
    d2 = np.sum((pts[ok, :n] - c[:n]) ** 2, axis=1)
    want[ok] = d2 < 2.0 * hb.kernel_dim * tau[ok] * np.log(
        hb.radius ** 2 / (4.0 * math.pi * tau[ok]))
    want |= np.all(pts == c, axis=1)
    got = hb.contains(pts)
    assert np.array_equal(got, want)
    assert got[-1] and want[ok].any()


@pytest.mark.parametrize("p", [(1.0, 0.5), [[[1.0, 0.5]]], [[1.0, 0.5, 0.0]]])
def test_points_must_be_an_n_by_dim_batch(p):
    # one point is a (1, d) batch; a bare point or a wrong width raises
    dom = Box((0.0, 0.0), (2.0, 1.0))
    regions = [dom, EuclideanBall((1.0, 1.0), 0.5), Heatball((0.0, 0.0), 1.0)]
    for region in regions:
        with pytest.raises(ValueError, match="batch of points"):
            region.contains(p)
    with pytest.raises(ValueError, match="batch of points"):
        radius_function(euclidean_system(2), dom, p)


def test_box_sample_inside():
    b = Box((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    pts = b.sample(500, np.random.default_rng(0))
    assert pts.shape == (500, 3)
    assert np.all(b.contains(pts))


def test_euclidean_ball():
    ball = EuclideanBall((1.0, 1.0), 0.5)
    assert ball.measure == pytest.approx(math.pi * 0.25)
    # the second point is on the sphere: balls are open
    assert list(ball.contains([[1.0, 1.0], [1.5, 1.0]])) == [True, False]
    bb = ball.bounding_box()
    assert bb.lo == pytest.approx((0.5, 0.5))
    pts = ball.sample(400, np.random.default_rng(1))
    assert np.all(ball.contains(pts))


def test_heatball_center_and_strictness():
    hb = Heatball((0.0, 0.0), 1.0)
    s = SMAX / math.e
    w = math.sqrt(2.0 * s)  # slice half-width at log factor 1
    pts = [[0.0, 0.0],  # the center belongs to its own ball
           [0.0, 1e-9],  # the future is out
           [0.5, 0.0], [0.99 * w, -s], [1.01 * w, -s], [0.0, -SMAX * 1.01]]
    assert list(hb.contains(pts)) == [True, False, False, True, False, False]


def test_heatball_bounding_box_reach():
    r, n = 0.7, 2
    hb = Heatball((0.0, 0.0, 0.0), r)
    bb = hb.bounding_box()
    w = r * math.sqrt(n / (2.0 * math.pi * math.e))
    assert bb.hi[0] == pytest.approx(w)
    assert bb.lo[2] == pytest.approx(-r * r / (4.0 * math.pi))
    assert bb.hi[2] == pytest.approx(0.0)


def test_modified_heatball_contains_plain_one():
    # the m-augmented ball projects to a wider spatial slice
    hb = Heatball((0.0, 0.0), 1.0)
    mhb = Heatball((0.0, 0.0), 1.0, m=3)
    assert (hb.kernel_dim, mhb.kernel_dim) == (1, 4)
    rng = np.random.default_rng(2)
    pts = hb.bounding_box().sample(4000, rng)
    inside = pts[hb.contains(pts)]
    assert len(inside) > 100
    assert np.all(mhb.contains(inside))
    assert mhb.bounding_box().hi[0] == pytest.approx(
        math.sqrt(4.0 / (2.0 * math.pi * math.e)))
    with pytest.raises(ValueError):
        Heatball((0.0, 0.0), 1.0, m=-1)


def test_ball_systems():
    e2 = euclidean_system(2)
    assert e2.degree == pytest.approx(2.0)
    assert e2.unit_volume == pytest.approx(math.pi)
    pb = parabolic_box_system(3, 1)
    w = max(4.0 / (math.pi * math.e), math.sqrt(4.0 / (2.0 * math.pi * math.e)))
    assert pb.unit_ball.hi == pytest.approx((w, 1.0 / (2.0 * math.pi)))


def test_parabolic_box_dominates_unit_modified_ball():
    # containment of E_m(1) in the unit candidate box, all small m+n
    for m in (3, 4, 5):
        for n in (1, 2):
            pb = parabolic_box_system(m, n)
            mhb = Heatball((0.0,) * (n + 1), 1.0, m=m)
            box = mhb.bounding_box()
            unit = pb.unit_ball
            assert np.all(np.asarray(unit.lo) <= np.asarray(box.lo) + 1e-12)
            assert np.all(np.asarray(unit.hi) >= np.asarray(box.hi) - 1e-12)


def test_radius_function_box_exact():
    dom = Box((0.0, 0.0), (1.0, 1.0))
    # sup radius 0.5 at the center and 0.1 near the edge, over divisor 2
    got = radius_function(euclidean_system(2), dom, [[0.5, 0.5], [0.1, 0.5]])
    assert got == pytest.approx([0.25, 0.05], rel=1e-9)
    with pytest.raises(ValueError, match="center must lie in the domain"):
        radius_function(euclidean_system(2), dom, [[1.5, 0.5]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        radius_function(euclidean_system(3), dom, [[0.5, 0.5, 0.5]])


def test_radius_function_rejects_non_box_domain():
    with pytest.raises(TypeError):
        radius_function(euclidean_system(2), EuclideanBall((0.0, 0.0), 1.0),
                        [[0.0, 0.0]])


@pytest.mark.parametrize("dom", [Box((0.0, 0.0), (1.0, 1.0))])
def test_radius_function_batch_matches_per_point(dom):
    sys = euclidean_system(2)
    a = np.array([[0.5, 0.5], [0.1, 0.5], [0.3, 0.2], [0.0, 0.4]])
    batch = radius_function(sys, dom, a)
    assert batch.shape == (4,)
    assert np.array_equal(batch, [radius_function(sys, dom, p[None])[0]
                                  for p in a])
    with pytest.raises(ValueError):
        radius_function(sys, dom, np.vstack([a, [[5.0, 5.0]]]))


def _fits(dom, sys, a, r):
    """Whether both corners a -+ r^lambda w of the system ball B_r(a), for a
    box unit ball, lie in dom."""
    w = np.asarray(r) ** np.asarray(sys.lambdas) * sys.unit_ball.halfwidths()
    return bool(np.all(dom.contains([np.asarray(a) - w, np.asarray(a) + w])))


def test_radius_function_parabolic_divisor():
    dom = Box((0.0, 0.0), (1.0, 1.0))
    sys = parabolic_box_system(3, 1)
    # lambdas (1, 2) are all >= 1, so the sup radius min(0.5, 0.5^{1/2})
    # is divided by 2
    got = radius_function(sys, dom, [[0.5, 0.5]])[0]
    assert got == pytest.approx(0.25, rel=1e-12)
    assert _fits(dom, sys, (0.5, 0.5), 2.0 * got * (1 - 1e-9))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.45), st.floats(0.05, 0.45), st.floats(0.1, 2.0))
def test_radius_function_containment_property(ax, ay, lam):
    dom = Box((0.0, 0.0), (1.0, 1.0))
    sys = BallSystem(Box((-1.0, -1.0), (1.0, 1.0)), (1.0, lam))
    a = (ax, ay)
    # R(a) is the sup radius over 2 when every exponent is >= 1, else over 4
    divisor = 2.0 if lam >= 1.0 else 4.0
    sup = divisor * radius_function(sys, dom, [a])[0]
    assert sup > 0
    assert _fits(dom, sys, a, sup * (1 - 1e-9))
    assert not _fits(dom, sys, a, sup * 1.02)


def test_shrinks():
    b = Box((0.0, 0.0), (1.0, 1.0))
    s = euclidean_shrink(b, 0.1)
    assert s.lo == pytest.approx((0.1, 0.1))
    assert euclidean_shrink(b, 0.6) is None

    hs = heatball_shrink(b, 0.5, 1)
    w = 0.5 * math.sqrt(1.0 / (2.0 * math.pi * math.e))
    assert hs.lo[0] == pytest.approx(w)
    assert hs.lo[1] == pytest.approx(0.25 / (4.0 * math.pi))
    assert hs.hi[1] == pytest.approx(1.0)  # no shrink at the future end
    with pytest.raises(ValueError):
        heatball_shrink(Box((0.0,), (1.0,)), 0.1, 1)

    sys = parabolic_box_system(3, 1)
    ss = system_shrink(b, sys, 0.5)
    assert ss.lo[0] == pytest.approx(0.5 * sys.unit_ball.hi[0])
    with pytest.raises(TypeError):
        system_shrink(b, euclidean_system(2), 0.1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.floats(0.2, 2.0))
def test_heatball_measure_scaling_bbox(n, r):
    # |bbox(E(r))| = r^{n+2} |bbox(E(1))|, the carrier of the volume scaling
    unit = Heatball((0.0,) * (n + 1), 1.0).bounding_box().measure
    scaled = Heatball((0.0,) * (n + 1), r).bounding_box().measure
    assert scaled == pytest.approx(r ** (n + 2) * unit, rel=1e-9)

