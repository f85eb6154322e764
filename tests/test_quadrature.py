import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpbounds import quadrature
from lpbounds.averages import (
    ball_average,
    deriv1_rhs,
    deriv2_rhs,
    heatball_average,
    modified_heatball_average,
)
from lpbounds.counterexamples import hessian_family_check
from lpbounds.geometry import Box, EuclideanBall
from lpbounds.fields import (
    ScalarField,
    monomial_field,
    polynomial_field,
    random_caloric,
    random_laplace_one,
)
from lpbounds.quadrature import (
    EmptyRegionError,
    PMeanReport,
    QuadResult,
    agreement,
    box_gauss,
    integrate,
    measure,
    pmean,
    pmean_grid,
)

UNIT = Box((0.0,), (1.0,))
SQUARE = Box((0.0, 0.0), (1.0, 1.0))
XY = polynomial_field({(1, 1): 1.0})


class _NeverHit:
    """Region whose bounding box is fine but which accepts nothing."""

    def bounding_box(self):
        return SQUARE

    def contains(self, pts):
        return np.zeros(len(np.atleast_2d(pts)), dtype=bool)


class _BoxView:
    """A non-Box region with the same membership and bounding box as box,
    so the engine tests each draw where it would skip the test for box."""

    def __init__(self, box):
        self.box = box

    def bounding_box(self):
        return self.box

    def contains(self, pts):
        return self.box.contains(pts)


def test_integrate_xy_quarter():
    res = integrate(XY, SQUARE, budget=200_000, seed=3)
    assert abs(res.value - 0.25) <= 3 * res.std_error
    assert res.method == "mc-rejection"
    assert res.samples == 200_000


def test_integrate_deterministic_and_threaded():
    runs = [lambda **kw: integrate(XY, SQUARE, **kw),
            lambda **kw: measure(SQUARE, predicate=lambda p: p[:, 0] < p[:, 1],
                                 **kw)]
    for run in runs:
        a = run(budget=150_000, seed=11)
        b = run(budget=150_000, seed=11)
        assert a == b
        with quadrature._workers(2):
            c = run(budget=150_000, seed=11)
        assert c.value == a.value and c.std_error == a.std_error


def test_a_pooled_map_runs_its_inner_maps_inline():
    # a function mapped on the pool that maps again runs its inner calls on
    # its own worker, in turn, so no call waits on the pool it runs on
    def outer(i):
        here = threading.get_ident()
        inner = quadrature._pool_map(lambda j: threading.get_ident(), 4)
        return here, inner, quadrature._POOL.get()

    main = threading.get_ident()
    with quadrature._workers(2):
        pool = quadrature._POOL.get()
        out = quadrature._pool_map(outer, 8)
    assert pool is not None and quadrature._POOL.get() is None
    for here, inner, seen in out:
        assert here != main and inner == [here] * 4 and seen is None


def test_workers_reject_fewer_than_one_thread():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            with quadrature._workers(threads):
                pass
    with quadrature._workers(1):
        assert quadrature._POOL.get() is None


@pytest.mark.parametrize("threads", [1, 2])
def test_box_region_skips_membership_with_the_same_bits(threads):
    # a Box holds every draw from its own bounding box, so skipping the
    # membership test must change no bit; 150,001 is two full batches and
    # a ragged third
    box = Box((0.0, -1.0), (2.0, 0.5))
    f = polynomial_field({(2, 1): 1.0, (0, 0): 0.5})
    runs = [lambda r: integrate(f, r, budget=150_001, seed=5),
            lambda r: measure(r, budget=150_001, seed=5),
            lambda r: measure(r, predicate=lambda p: p[:, 0] < -p[:, 1],
                              budget=150_001, seed=5),
            lambda r: pmean_grid(f, r, [-0.5, 0.0, 0.5, 2.0],
                                 budget=150_001, seed=5)]
    with quadrature._workers(threads):
        for run in runs:
            assert run(box) == run(_BoxView(box))


def test_pmean_grid_splits_one_pass_into_doubling_groups(monkeypatch):
    # over one batch, threads 1 and 2 give equal reports on a Box and on a
    # view of it that tests membership; the doubling groups are the first
    # T // 7, the next 2 (T // 7) and the remaining T accepted values
    real = quadrature._divergence_verdict
    sizes = []

    def recording(groups, p):
        sizes.append([len(g) for g in groups])
        return real(groups, p)

    monkeypatch.setattr(quadrature, "_divergence_verdict", recording)
    box = Box((0.0, -1.0), (2.0, 0.5))
    f = polynomial_field({(2, 1): 1.0, (0, 0): 0.5})
    for region in (box, _BoxView(box)):
        sizes.clear()
        reps = []
        for threads in (1, 2):
            with quadrature._workers(threads):
                reps.append(pmean_grid(f, region, [-0.5, 0.0, 1.0],
                                       budget=150_001, seed=5))
        assert reps[0] == reps[1]
        total = reps[0][0].samples
        n1 = total // 7
        assert total == 150_001
        assert sizes == [[n1, 2 * n1, total - 3 * n1]] * 2


class _FullBatchesOnly(_BoxView):
    """A view of box that accepts draws of full batches only, so a ragged
    last batch has no accepted draw."""

    def contains(self, pts):
        return super().contains(pts) & (len(pts) == quadrature.BATCH_SIZE)


def test_pmean_grid_batch_without_accepted_draw_evaluates_nothing():
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        return pts[:, 0] + 1.0

    rep, = pmean_grid(fn, _FullBatchesOnly(SQUARE), [1.0],
                      budget=quadrature.BATCH_SIZE + 1000, seed=0)
    # the full batch is evaluated in sub-blocks; the ragged one not at all
    assert sum(sizes) == quadrature.BATCH_SIZE
    assert max(sizes) <= quadrature.EVAL_BLOCK
    assert rep.samples == quadrature.BATCH_SIZE


def test_integrate_rejects_to_ball_volume():
    ball = EuclideanBall((0.5, 0.5), 0.4)
    res = measure(ball, budget=300_000, seed=1)
    assert abs(res.value - math.pi * 0.16) <= 3 * res.std_error


def test_integrate_empty_region_raises():
    with pytest.raises(EmptyRegionError):
        integrate(XY, _NeverHit(), budget=5000, seed=0)
    with pytest.raises(EmptyRegionError):
        measure(_NeverHit(), budget=5000, seed=0)


def test_measure_false_predicate_is_zero():
    res = measure(SQUARE, predicate=lambda pts: np.zeros(len(pts), bool),
                  budget=5000, seed=0)
    assert res.value == 0.0
    assert res.std_error == 0.0


def test_integrate_bad_budget():
    with pytest.raises(ValueError):
        integrate(XY, SQUARE, budget=0)


def test_quadresult_ci():
    r = QuadResult(value=1.0, std_error=0.1, samples=10, method="mc-rejection")
    assert r.ci() == (0.7, 1.3)


def test_agreement_three_standard_errors():
    est = QuadResult(value=1.0, std_error=0.1, samples=10, method="mc")
    diff, tol = agreement(est, 1.25)
    assert diff == 0.25 and tol == 3.0 * 0.1 and diff <= tol
    # an estimate target combines both standard errors in quadrature, and
    # a PMeanReport reads the same way as a QuadResult
    other = PMeanReport(p=1.0, value=1.5, divergent=False, std_error=0.2,
                        samples=10, method="mc")
    diff, tol = agreement(est, other)
    assert diff == 0.5
    assert tol == 3.0 * math.hypot(0.1, 0.2)
    assert diff <= tol
    # the floor wins when 3 SE is smaller
    diff, tol = agreement(est, 1.5, floor=0.6)
    assert tol == 0.6 and diff <= tol
    assert agreement(est, 1.5, floor=0.4)[1] == 0.4
    # a NaN estimate never agrees, nor does one with a NaN standard error
    nan = QuadResult(value=math.nan, std_error=0.1, samples=10, method="mc")
    diff, tol = agreement(nan, 1.0, floor=1e9)
    assert not diff <= tol
    nan_se = QuadResult(value=1.0, std_error=math.nan, samples=10, method="mc")
    diff, tol = agreement(nan_se, 1.0, floor=1e9)
    assert not diff <= tol


# p-means of f(x) = x on (0, 1): closed forms for every regime.

def test_pmean_arithmetic_mean():
    r = pmean(monomial_field(1), UNIT, 1.0, budget=100_000, seed=5)
    assert abs(r.value - 0.5) <= 3 * r.std_error
    assert not r.divergent


def test_pmean_geometric_mean():
    r = pmean(monomial_field(1), UNIT, 0.0, budget=100_000, seed=5)
    assert abs(r.value - math.exp(-1.0)) <= 3 * r.std_error
    assert r.method == "mc-log-clamp"


def test_pmean_negative_convergent():
    # E[x^{-1/2}] = 2 so the (-1/2)-mean is 2^{-2} = 1/4
    r = pmean(monomial_field(1), UNIT, -0.5, budget=200_000, seed=5)
    assert not r.divergent
    assert abs(r.value - 0.25) <= max(5 * r.std_error, 0.02)


def test_pmean_negative_divergent():
    r = pmean(monomial_field(1), UNIT, -1.0, budget=100_000, seed=5)
    assert r.divergent
    assert r.value == 0.0
    assert r.method == "mc-truncated-doubling"


def test_pmean_detector_threshold_pair():
    # |x^2|^p integrable iff 2p > -1: p = -0.25 converges (mean x^{-1/2} = 2,
    # so the p-mean is 2^{-4}), p = -0.6 does not.  The detector is
    # deliberately conservative right at the threshold, so the convergent
    # probe stays well inside it.
    f = monomial_field(2)
    ok = pmean(f, UNIT, -0.25, budget=300_000, seed=2)
    bad = pmean(f, UNIT, -0.6, budget=300_000, seed=2)
    assert not ok.divergent
    assert abs(ok.value - 0.0625) <= max(5 * ok.std_error, 0.003)
    assert bad.divergent and bad.value == 0.0


def test_pmean_extremes():
    hi = pmean(monomial_field(1), UNIT, math.inf, budget=50_000, seed=0)
    lo = pmean(monomial_field(1), UNIT, -math.inf, budget=50_000, seed=0)
    assert 0.999 <= hi.value <= 1.0
    assert 0.0 <= lo.value <= 1e-3
    assert hi.method == "mc-extreme"


def test_pmean_zero_field_geometric_exact_zero():
    zero = ScalarField(1, lambda pts: np.zeros(len(pts)), domain=UNIT)
    r = pmean(zero, UNIT, 0.0, budget=10_000, seed=0)
    assert r.value == 0.0
    assert r.std_error == 0.0


def test_pmean_budget_validation():
    with pytest.raises(ValueError):
        pmean(monomial_field(1), UNIT, 1.0, budget=999)
    with pytest.raises(ValueError):
        pmean_grid(monomial_field(1), UNIT, [1.0], budget=999)


def test_pmean_grid_monotone_in_p():
    f = polynomial_field({(1, 0): 1.0, (0, 0): 0.25})
    rows = pmean_grid(f, SQUARE, [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf],
                      budget=50_000, seed=9)
    vals = [r.value for r in rows]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert not any(r.divergent for r in rows)


def test_pmean_reciprocal_product_is_one():
    f = polynomial_field({(1, 0): 1.0, (0, 0): 0.5})
    inv = ScalarField(2, lambda pts: 1.0 / (pts[:, 0] + 0.5), domain=SQUARE)
    a = pmean(f, SQUARE, 0.7, budget=50_000, seed=4)
    b = pmean(inv, SQUARE, -0.7, budget=50_000, seed=4)
    assert not b.divergent
    assert abs(a.value * b.value - 1.0) <= 1e-10


_NAN = ScalarField(2, lambda pts: np.full(len(pts), np.nan), domain=SQUARE,
                   name="all-nan")
_INF = ScalarField(2, lambda pts: np.full(len(pts), np.inf), domain=SQUARE,
                   name="all-inf")

# SQUARE is a Box, so these run the engine's path that skips membership
_NONFINITE_CALLS = {
    "integrate": lambda f: integrate(f, SQUARE, budget=1000),
    "pmean[p=-0.5]": lambda f: pmean(f, SQUARE, -0.5, budget=1000),
    "pmean[p=0.5]": lambda f: pmean(f, SQUARE, 0.5, budget=1000),
    "pmean_grid[p=0]": lambda f: pmean_grid(f, SQUARE, [0.0], budget=1000),
}


@pytest.mark.parametrize("name", list(_NONFINITE_CALLS))
def test_nan_integrand_raises(name):
    # these returned NaN, a divergent 0 or a clamped 0 instead of failing
    with pytest.raises(ValueError, match="NaN"):
        _NONFINITE_CALLS[name](_NAN)


@pytest.mark.parametrize("name", list(_NONFINITE_CALLS))
def test_inf_integrand_raises(name):
    # these returned inf with a NaN standard error, or a divergent 0
    with pytest.raises(ValueError, match="infinite"):
        _NONFINITE_CALLS[name](_INF)


@pytest.mark.parametrize("field", [_NAN, _INF])
def test_nonfinite_integrand_raises_on_tested_members(field):
    # the same fail-closed check on the path that tests membership
    with pytest.raises(ValueError, match="NaN or infinite"):
        integrate(field, _BoxView(SQUARE), budget=1000)
    with pytest.raises(ValueError, match="NaN or infinite"):
        pmean_grid(field, _BoxView(SQUARE), [0.5], budget=1000)


def test_box_gauss_exact_on_polynomials():
    res = box_gauss(XY, SQUARE)
    assert res.value == pytest.approx(0.25, abs=1e-14)
    assert res.std_error == 0.0
    assert res.refine_diff <= 1e-14
    assert res.method == "product-gauss"
    quartic = polynomial_field({(4, 0): 1.0})
    assert box_gauss(quartic, SQUARE).value == pytest.approx(0.2, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_pmean_positive_matches_quasinorm_property(k, seed):
    # on a measure-1 region the normalized and raw p-th means coincide
    f = monomial_field(k)
    r = pmean(f, UNIT, 2.0, budget=20_000, seed=seed)
    exact = (1.0 / (2 * k + 1)) ** 0.5
    assert abs(r.value - exact) <= 5 * max(r.std_error, 1e-4)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_integrate_seed_property(seed):
    a = integrate(XY, SQUARE, budget=2000, seed=seed)
    b = integrate(XY, SQUARE, budget=2000, seed=seed)
    assert a.value == b.value


def _third_call_nonfinite(bad):
    """Field on SQUARE that is finite except at one point of its third
    call, a later sub-block of the first batch."""
    calls = []

    def fn(pts):
        calls.append(len(pts))
        vals = pts[:, 0] + 1.0
        if len(calls) == 3:
            vals[-1] = bad
        return vals

    return ScalarField(2, fn, domain=SQUARE, name="late-nonfinite")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("region", [SQUARE, _BoxView(SQUARE)],
                         ids=["box", "view"])
def test_nonfinite_value_in_a_later_sub_block_raises(bad, region):
    # every sub-block is checked, not only the first of a batch
    assert 3 * quadrature.EVAL_BLOCK <= quadrature.BATCH_SIZE
    with pytest.raises(ValueError, match="NaN or infinite"):
        integrate(_third_call_nonfinite(bad), region, budget=70_000)
    with pytest.raises(ValueError, match="NaN or infinite"):
        pmean_grid(_third_call_nonfinite(bad), region, [0.5], budget=70_000)


_POLY = polynomial_field({(2, 1): 1.0, (0, 0): 0.5})
_LAP = random_laplace_one(0)
_CAL = random_caloric(0)
_TWO_BATCHES = quadrature.BATCH_SIZE + 4_465  # one full, one ragged

_EVAL_BLOCK_RUNS = {
    "integrate[box]": lambda: integrate(_POLY, SQUARE, _TWO_BATCHES, 1),
    "integrate[view]": lambda: integrate(_POLY, _BoxView(SQUARE),
                                         _TWO_BATCHES, 1),
    "measure[predicate]": lambda: measure(
        SQUARE, lambda p: p[:, 0] > p[:, 1] ** 2, _TWO_BATCHES, 2),
    "pmean_grid": lambda: pmean_grid(_POLY, SQUARE, [-0.5, 0.0, 0.5, math.inf],
                                     _TWO_BATCHES, 3),
    "ball_average": lambda: ball_average(_LAP, (0.5, 0.5), 0.3,
                                         _TWO_BATCHES, 4),
    "deriv1_rhs": lambda: deriv1_rhs(_LAP, (0.5, 0.5), 0.3, _TWO_BATCHES, 4),
    "heatball_average": lambda: heatball_average(_CAL, (0.5, 0.9), 0.3,
                                                 _TWO_BATCHES, 5),
    "deriv2_rhs": lambda: deriv2_rhs(_CAL, (0.5, 0.9), 0.3, _TWO_BATCHES, 5),
    "modified_heatball_average": lambda: modified_heatball_average(
        _CAL, (0.5, 0.9), 0.3, 3, _TWO_BATCHES, 6),
    "hessian_family_check": lambda: hessian_family_check(10, 0.1),
}


def _bits(result):
    """Hex of every value and standard error in result."""
    if isinstance(result, dict):
        return result["sup_grid"].hex()
    if isinstance(result, list):
        return [_bits(r) for r in result]
    return result.value.hex(), result.std_error.hex(), result.samples


@pytest.mark.parametrize("name", list(_EVAL_BLOCK_RUNS))
def test_eval_block_changes_no_bit(name, monkeypatch):
    # every row is evaluated on its own, so the sub-block size must not
    # move a bit: one block per batch, the default, and a ragged 7 * 1024
    run = _EVAL_BLOCK_RUNS[name]
    bits = []
    for block in (quadrature.BATCH_SIZE, quadrature.EVAL_BLOCK, 7 * 1024):
        monkeypatch.setattr(quadrature, "EVAL_BLOCK", block)
        bits.append(_bits(run()))
    assert bits[1] == bits[0]
    assert bits[2] == bits[0]
