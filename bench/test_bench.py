"""Self-test of the benchmark: every workload at a tiny budget.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no check fails, that traced and untraced runs give the same result rows,
and that the result line a run ends with has exactly the agreed keys.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--seconds", "0", "--scale", "0.05")

# Field families and calls each workload makes, so a renamed or lost
# family shows up here rather than as a silently missing metric.
FAMILY_CALLS = {
    "heat-deriv": [f"{call}.{fam}_n{n}" for call in ("fn", "grad", "hess")
                   for fam in ("heat_one", "caloric") for n in (1, 2, 3)],
    "mvi-audit": ["fn.harmonic", "fn.caloric_n1"],
    "lp-thm": ["fn.laplace_one", "fn.heat_one_n1"],
    "sharpness": ["fn.laplace_one"],
}
QUADRATURE_WORKLOADS = ("lp-thm", "sharpness")


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _assert_metric(table: dict, name: str, unit: str) -> float:
    assert name in table, f"{name} missing"
    value, got = table[name]
    assert got == unit, f"{name} in {got}, not {unit}"
    assert isinstance(value, (int, float)) and math.isfinite(value), name
    return value


@pytest.fixture(scope="module")
def record(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("bench") / "record.json"
    proc = _run("--all", "--record", str(path), *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(path.read_text())


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [
        w.why for w in WORKLOADS.values()]


def test_record_has_machine_facts(record):
    assert record["seed"] == 0
    assert record["nproc"] >= 1
    assert set(record["versions"]) == {"python", "numpy", "scipy"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric_and_fails_nothing(record, name):
    w = record["workloads"][name]
    assert w["fail_frac"] == 0.0 and w["attempted"] > 0
    assert w["deterministic"] and w["trace_digest_matches"] and w["correct"]
    assert len(w["output_digest"]) == 64

    for m in SPEC["end_to_end"]:
        assert _assert_metric(w["end_to_end"], m["name"], m["unit"]) > 0
    for m in SPEC["per_layer"]:
        _assert_metric(w["layers"], m["name"], m["unit"])
    for layer in LAYERS:
        _assert_metric(w["layers"], f"{layer}.self_s", "s")
        _assert_metric(w["layers"], f"{layer}.calls", "count")
        assert _assert_metric(w["layers"], f"{layer}.import_ms", "ms") > 0
    for key in FAMILY_CALLS[name]:
        assert _assert_metric(w["layers"], f"fields.ms_per_65k.{key}",
                              "ms") > 0
    _assert_metric(w["layers"], "geometry.points_tested", "count")
    drawn = _assert_metric(w["layers"], "quadrature.points_drawn", "count")
    if name in QUADRATURE_WORKLOADS:
        assert drawn > 0
        ratio = _assert_metric(w["layers"], "quadrature.accept_ratio",
                               "ratio")
        assert 0.0 < ratio <= 1.0
        _assert_metric(w["layers"], "quadrature.parallelism", "ratio")
        assert _assert_metric(w["layers"], "verify.calls", "count") > 0


def test_layer_shares_follow_the_workload_design(record):
    def shares(name):
        layers = record["workloads"][name]["layers"]
        total = sum(layers[f"{layer}.self_s"][0] for layer in LAYERS)
        return {layer: layers[f"{layer}.self_s"][0] / total
                for layer in LAYERS}

    heat, lp = shares("heat-deriv"), shares("lp-thm")
    assert max(heat, key=heat.get) == "fields"
    assert (lp["quadrature"] + lp["geometry"]
            > heat["quadrature"] + heat["geometry"])
    sharp = record["workloads"]["sharpness"]["layers"]
    assert sharp["counterexamples.calls"][0] > 0
    assert sharp["constants.calls"][0] > 0


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_result_line_has_exactly_the_agreed_keys(trace, key):
    proc = _run("--workload", "mvi-audit", "--seed", "3", "--trace", trace,
                *TINY)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in SPEC[key]}
    for m in SPEC[key]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "heat-deriv", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
