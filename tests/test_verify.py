import dataclasses
import math
import pathlib
import zlib

import numpy as np
import pytest

from lpbounds import averages, constants, counterexamples, quadrature, verify
from lpbounds.fields import quadratic_field
from lpbounds.geometry import Box
from lpbounds.verify import (
    CheckResult,
    SUITE_NAMES,
    SuiteResult,
    default_config,
    run_suite,
)

VERIFY_SRC = (pathlib.Path(__file__).resolve().parents[1]
              / "src" / "lpbounds" / "verify.py").read_text()


def test_suite_names_stable():
    assert SUITE_NAMES == ("laplace-thm", "heat-thm", "l1-linear",
                           "prop-general", "claims", "deriv-formulas",
                           "mvi-family", "constants-audit", "counterexamples",
                           "pmeans")


_P_LIST = ("0.25", "0.5", "0.75")

STATEMENT_IDS = {
    "laplace-thm": [sid for p in _P_LIST for sid in
                    [f"laplace-thm/cp-positive[p={p}]"]
                    + [f"laplace-thm/lp-lower[p={p},field={i}]"
                       for i in range(4)]],
    "heat-thm": [sid for p in _P_LIST for sid in
                 [f"heat-thm/cp-positive[p={p}]"]
                 + [f"heat-thm/lp-lower[p={p},field={i}]" for i in range(4)]],
    "l1-linear": [
        "l1-linear/adjoint-constant",
        "l1-linear/du-at-least-one[xy]", "l1-linear/l1-lower[xy]",
        "l1-linear/du-at-least-one[xy+x2y2/4]",
        "l1-linear/l1-lower[xy+x2y2/4]",
        "l1-linear/du-at-least-one[xy+x3y/6]",
        "l1-linear/l1-lower[xy+x3y/6]",
    ],
    "prop-general": ["prop-general/adjoint-constant"] + [
        sid for i in range(2) for sid in
        [f"prop-general/l1-lower[field={i}]"]
        + [f"prop-general/holder-chain[p={p},field={i}]"
           for p in ("1", "2", "inf")]],
    "claims": [
        "claims/laplace-drop[R=0.1,field=0]",
        "claims/laplace-drop[R=0.2,field=0]",
        "claims/laplace-drop[R=0.1,field=1]",
        "claims/laplace-drop[R=0.2,field=1]",
        "claims/heat-drop[R=0.3,field=0]",
        "claims/heat-drop[R=0.3,field=1]",
    ],
    "deriv-formulas": [
        "deriv/ball-average-quadratic",
        "deriv/ball-rhs-quadratic",
        "deriv/ball-fd-vs-rhs[r=0.1,field=0]",
        "deriv/ball-fd-vs-rhs[r=0.2,field=0]",
        "deriv/ball-fd-vs-rhs[r=0.1,field=1]",
        "deriv/ball-fd-vs-rhs[r=0.2,field=1]",
        "deriv/heatball-normalization[n=1]",
        "deriv/heatball-normalization[n=2]",
        "deriv/heatball-neg-time-value",
        "deriv/heatball-neg-time-rhs",
        "deriv/heatball-fd-vs-rhs[field=0]",
        "deriv/heatball-fd-vs-rhs[field=1]",
        "deriv/temperature-rhs-zero",
        "deriv/family-continuity",
    ],
    "mvi-family": [
        "mvi/plain-harmonic",
        "mvi/plain-halved-constant-fails",
        "mvi/power[p=0.25]",
        "mvi/power[p=0.5]",
        "mvi/power[p=0.75]",
        "mvi/power-tiny-constant-fails",
        "mvi/pmvi-constant-closed-form",
        "mvi/concave-constant-closed-form",
        "mvi/admissible-pairs-inside-domain",
        "mvi/concave[sqrt]",
        "mvi/concave[identity]",
        "mvi/concave[t^0.75]",
        "mvi/modified-normalization",
        "mvi/modified-caloric",
        "mvi/modified-subtemperature",
        "mvi/modified-tenth-constant-fails",
    ],
    "constants-audit": (
        [f"constants/k-laplace[n={n}]" for n in (1, 2, 3)]
        + [f"constants/heatball-volume[n={n}]" for n in (1, 2, 3)]
        + ["constants/heatball-volume-n1-regression",
           "constants/heatball-scaling",
           "constants/k-heat[n=1]",
           "constants/k-heat[n=2]",
           "constants/k-heat-n1-regression",
           "constants/kappa-boundary-zero"]
        + [f"constants/kappa-max[m={m},n={n}]"
           for m in (3, 4, 5, 6) for n in (1, 2, 3)]
        + ["constants/bracket-max-known-argmax",
           "constants/adjoint-laplace",
           "constants/adjoint-scaling",
           "constants/assemble-laplace-positive",
           "constants/assemble-heat-positive",
           "constants/table-shape"]),
    "counterexamples": [
        "ce/comb-measure[delta=1/4]",
        "ce/comb-measure[delta=1/8]",
        "ce/comb-measure[delta=1/16]",
        "ce/comb-measure[delta=1/32]",
        "ce/comb-separation",
        "ce/target-bound",
        "ce/fit-residual-monotone",
        "ce/witness",
        "ce/steinerberger-product",
        "ce/hessian-family[N=10]",
        "ce/hessian-family[N=100]",
        "ce/hessian-family[N=1000]",
        "ce/hessian-family-sup-decade",
        "ce/lift[p=1]",
        "ce/lift[p=2]",
    ],
    "pmeans": [
        "pmeans/grid-monotone",
        "pmeans/reciprocal",
        "pmeans/chebyshev",
        "pmeans/geometric-mean-x",
        "pmeans/negative-mean[x^1]",
        "pmeans/divergent[x^1]",
        "pmeans/negative-mean[x^2]",
        "pmeans/divergent[x^2]",
        "pmeans/negative-mean[x^3]",
        "pmeans/divergent[x^3]",
        "pmeans/zero-field-geometric",
        "pmeans/sublevel-to-pmean",
        "pmeans/pmean-to-sublevel",
    ],
}


def test_statement_ids_pinned():
    # no refactor may drop, add, rename or reorder a check
    assert tuple(STATEMENT_IDS) == SUITE_NAMES
    cfg = {"budget": 2000, "trials": 20, "samples": 64}
    for name in SUITE_NAMES:
        got = [c.statement for c in run_suite(name, cfg).checks]
        assert got == STATEMENT_IDS[name], name
    assert sum(len(ids) for ids in STATEMENT_IDS.values()) == 140


# deterministic checks: they draw no random numbers and record the base seed
BASE_SEED_IDS = (
    [f"constants/k-laplace[n={n}]" for n in (1, 2, 3)]
    + ["constants/heatball-volume-n1-regression",
       "constants/k-heat-n1-regression",
       "constants/kappa-boundary-zero"]
    + [f"constants/kappa-max[m={m},n={n}]"
       for m in (3, 4, 5, 6) for n in (1, 2, 3)]
    + ["constants/bracket-max-known-argmax",
       "constants/table-shape"]
    + [f"ce/comb-measure[delta=1/{2**k}]" for k in (2, 3, 4, 5)]
    + ["ce/comb-separation",
       "ce/target-bound"]
    + [f"ce/hessian-family[N={N}]" for N in (10, 100, 1000)]
    + ["ce/hessian-family-sup-decade"])


def test_seed_rule_pinned():
    # every check records (seed + crc32(statement)) mod 2^31, except the 30
    # base-seed checks and prop-general's l1-lower, which records the seed of
    # the field it integrates
    def derived(sid):
        return (5 + zlib.crc32(sid.encode())) % 2**31

    assert len(BASE_SEED_IDS) == 30
    want = {sid: 5 for sid in BASE_SEED_IDS}
    for i in range(2):
        want[f"prop-general/l1-lower[field={i}]"] = derived(
            f"prop-general/field[{i}]")
    cfg = {"seed": 5, "budget": 2000, "trials": 20, "samples": 64}
    seen = set()
    for name in SUITE_NAMES:
        for c in run_suite(name, cfg).checks:
            assert c.seed == want.get(c.statement, derived(c.statement)), \
                c.statement
            seen.add(c.statement)
    assert set(want) <= seen


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_default_config_materialization():
    cfg = default_config()
    assert cfg["budget"] == 100_000
    assert cfg["p_list"] == [0.25, 0.5, 0.75]
    over = default_config({"budget": 5000, "p_list": (0.5,)})
    assert over["budget"] == 5000 and over["p_list"] == [0.5]
    # None means "use the default", mirroring absent CLI flags
    assert default_config({"budget": None})["budget"] == 100_000
    with pytest.raises(ValueError):
        default_config({"budgets": 5000})


def test_claims_suite_deterministic():
    cfg = {"budget": 20_000, "trials": 50}
    a = run_suite("claims", cfg)
    b = run_suite("claims", cfg)
    assert a.overall and b.overall
    assert a.as_dict() == b.as_dict()
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 16


def test_config_hash_sensitivity():
    a = run_suite("claims", {"budget": 20_000, "trials": 50})
    b = run_suite("claims", {"budget": 20_001, "trials": 50})
    assert a.config_hash != b.config_hash


def test_constants_audit_suite_passes():
    res = run_suite("constants-audit", {"budget": 30_000})
    assert res.overall, [c.statement for c in res.checks if not c.passed]
    assert all(isinstance(c, CheckResult) for c in res.checks)


def _small_check(suite: str, statement: str) -> CheckResult:
    res = run_suite(suite, {"budget": 2000, "trials": 20, "samples": 64})
    return next(c for c in res.checks if c.statement == statement)


def test_target_bound_fails_on_nan_target(monkeypatch):
    real = verify.ccw_target

    def nan_target(comb):
        return dataclasses.replace(
            real(comb), w1=lambda pts: np.full(len(pts), np.nan))

    monkeypatch.setattr(verify, "ccw_target", nan_target)
    c = _small_check("counterexamples", "ce/target-bound")
    assert not c.passed and type(c.margin) is float


def test_hessian_family_fails_on_nan_sup_row(monkeypatch):
    # a NaN anywhere on the sup grid must reach sup_grid and fail the checks
    # built on it, however that grid is scanned
    real = counterexamples.ccw_hessian_field
    x_nan = np.linspace(0.0, 1.0, 128)[77]

    def nan_row(N):
        u = real(N)
        fn = u.fn
        return dataclasses.replace(u, fn=lambda pts: np.where(
            pts[:, 0] == x_nan, np.nan, fn(pts)))

    monkeypatch.setattr(counterexamples, "ccw_hessian_field", nan_row)
    assert math.isnan(counterexamples.hessian_family_check(1000, 0.1)["sup_grid"])
    res = run_suite("counterexamples", {"budget": 2000, "trials": 20,
                                        "samples": 64})
    passed = {c.statement: c.passed for c in res.checks}
    assert not passed["ce/hessian-family[N=1000]"]
    assert not passed["ce/hessian-family-sup-decade"]


def test_bracket_max_check_fails_on_nan_value(monkeypatch):
    monkeypatch.setattr(verify, "bracket_max",
                        lambda *args, **kwargs: (1.0, math.nan))
    c = _small_check("constants-audit", "constants/bracket-max-known-argmax")
    assert not c.passed and type(c.margin) is float


def test_kappa_boundary_check_fails_on_nan_kernel(monkeypatch):
    real = verify.kappa
    monkeypatch.setattr(verify, "kappa", lambda m, n, y, s: np.where(
        np.asarray(s) > 0, math.nan, real(m, n, y, s)))
    c = _small_check("constants-audit", "constants/kappa-boundary-zero")
    assert not c.passed and type(c.margin) is float


def test_value_only_callers_run_no_bracket_search(monkeypatch):
    # the assembled heat c_p, the modified MVI check and the heat-thm and
    # mvi-family suites read only M_{m,n}'s closed form, so none of them
    # may run kappa_max's bracket-search cross-check
    calls = []
    real = constants.bracket_max

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constants, "bracket_max", counted)
    constants.kappa_max(3, 1)
    assert len(calls) == 1  # the counter sees a search
    calls.clear()
    square = Box((0.0, 0.0), (1.0, 1.0))
    constants.assemble_cp_heat(square, 0.5)
    averages.check_modified_heatball_mvi(
        quadratic_field(2, spatial=True, domain=square), 3, [(0.5, 0.9)],
        budget=2000)
    for name in ("heat-thm", "mvi-family"):
        run_suite(name, {"budget": 2000, "trials": 20, "samples": 64})
    assert calls == []


def test_pmeans_suite_passes():
    res = run_suite("pmeans", {"budget": 30_000})
    assert res.overall, [c.statement for c in res.checks if not c.passed]


def test_multi_batch_monte_carlo_runs_on_the_config_threads(monkeypatch):
    # run_suite opens one quadrature._workers(cfg["threads"]) block, and
    # every Monte Carlo mean (mc_mean, integrate, measure, pmean and
    # pmean_grid) runs its batches through quadrature._batches: at
    # threads=2 each multi-batch call of every suite but claims, which runs
    # no Monte Carlo mean, sees the pool, and at threads=1 none does
    real = quadrature._batches
    calls = []

    def recording(fn, budget, seed):
        calls.append((budget, quadrature._POOL.get()))
        return real(fn, budget, seed)

    monkeypatch.setattr(quadrature, "_batches", recording)
    budget = quadrature.BATCH_SIZE + 1000
    for name in SUITE_NAMES:
        rows = {}
        pooled = {}
        for threads in (1, 2):
            calls.clear()
            res = run_suite(name, {"budget": budget, "fields": 2,
                                   "threads": threads})
            rows[threads] = [c.as_dict() for c in res.checks]
            pooled[threads] = [pool is not None for b, pool in calls
                               if b > quadrature.BATCH_SIZE]
        assert not any(pooled[1]), name
        if name == "claims":
            assert pooled[2] == [], name
        else:
            assert pooled[2] and all(pooled[2]), name
        assert rows[1] == rows[2], name


def test_a_suite_opens_one_pool(monkeypatch):
    # one pool per run_suite: counterexamples makes twelve multi-batch or
    # multi-block calls, and they all share it
    real = quadrature.ThreadPoolExecutor
    made = []

    def counting(*args, **kwargs):
        pool = real(*args, **kwargs)
        made.append(pool._max_workers)
        return pool

    monkeypatch.setattr(quadrature, "ThreadPoolExecutor", counting)
    run_suite("counterexamples", {"budget": quadrature.BATCH_SIZE + 1000,
                                  "threads": 2})
    assert made == [2]
    made.clear()
    run_suite("counterexamples", {"budget": quadrature.BATCH_SIZE + 1000,
                                  "threads": 1})
    assert made == []


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_rejected(threads):
    with pytest.raises(ValueError, match="threads must be at least 1"):
        default_config({"threads": threads})
    with pytest.raises(ValueError, match="threads must be at least 1"):
        run_suite("claims", {"threads": threads})


def test_suite_result_overall_tracks_checks():
    good = CheckResult("ok", True, 0.5, 1)
    bad = CheckResult("broken", False, -0.5, 2)
    res = SuiteResult(name="x", checks=[good, bad], config=default_config())
    assert not res.overall
    d = res.as_dict()
    assert d["schema_version"] == "1"
    assert d["checks"][1]["passed"] is False


def test_every_reported_operation_is_exercised():
    # the verification layer must touch every public operation of the
    # computational modules it reports on (result types ride along for free)
    for mod in (averages, constants, counterexamples):
        for name in mod.__all__:
            if name == "SMAX" or isinstance(getattr(mod, name), type):
                continue
            assert name in VERIFY_SRC, f"verify.py never touches {name}"
