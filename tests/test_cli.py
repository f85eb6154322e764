import csv
import json
import math
import os
import subprocess
import sys

import pytest

from lpbounds.cli import main


def _read(path):
    return path.read_bytes()


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_constants_command(tmp_path, capsys):
    code = main(["constants", "--n", "1,2", "--m", "3..4",
                 "--budget", "20000", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = _rows(tmp_path / "constants.csv")
    assert rows[0] == ["name", "closed_form", "cross_check", "rel_gap",
                       "inputs"]
    assert len(rows) - 1 == 2 + 2 + 2 + 4
    echo = capsys.readouterr().out.splitlines()[0]
    cfg = json.loads(echo)
    assert cfg["ns"] == [1, 2] and cfg["ms"] == [3, 4]
    assert cfg["threads"] >= 1
    assert json.dumps(cfg, sort_keys=True) == echo
    assert (tmp_path / "constants_config.json").exists()


def test_deriv_check_command(tmp_path):
    code = main(["deriv-check", "--op", "laplace", "--n", "2", "--r", "0.2",
                 "--fields", "1", "--budget", "20000",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = _rows(tmp_path / "deriv_check.csv")
    assert rows[0][:4] == ["op", "n", "field", "r"]
    assert rows[1][0] == "laplace" and rows[1][-1] == "True"


@pytest.mark.parametrize("args, rows", [
    (["--op", "heat", "--n", "2", "--fields", "3", "--r", "0.3,0.5"], 6),
    (["--op", "laplace", "--n", "2", "--fields", "2", "--r", "0.1,0.2"], 4),
])
def test_deriv_check_same_bytes_at_any_thread_count(tmp_path, args, rows):
    # --threads 2 runs the fd column on a worker beside the rhs column
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["deriv-check", *args, "--budget", "3000",
                     "--threads", threads, "--out-dir", str(out)]) in (0, 1)
        outs.append(_read(out / "deriv_check.csv"))
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + rows


@pytest.mark.parametrize("radii, message", [
    ("0.3,5.0", "heat ball escapes the field's domain"),
    # rhs says "radius must be positive"; a serial run meets fd's error first
    ("0.3,-0.2", "need 0 < h < r"),
])
def test_deriv_check_bad_radius_same_error(tmp_path, capsys, radii, message):
    for threads in ("1", "2"):
        code = main(["deriv-check", "--op", "heat", "--n", "1",
                     "--fields", "2", "--r", radii, "--budget", "2000",
                     "--threads", threads, "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "deriv_check.csv").exists()


def test_deriv_check_without_fields_exits_2(tmp_path, capsys):
    # no field means no row: an empty CSV must not read as a pass
    code = main(["deriv-check", "--op", "laplace", "--n", "2", "--fields", "0",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: --fields must be at least 1\n"
    assert not (tmp_path / "deriv_check.csv").exists()


@pytest.mark.parametrize("args, message", [
    (["--samples", "0"], "samples per trial must be at least 2"),
    (["--samples", "1"], "samples per trial must be at least 2"),
    (["--trials", "0"], "trials must be at least 1"),
    (["--kind", "modified", "--m", "6"], "heat ball escapes the field's domain"),
])
def test_mvi_check_bad_sizes_exit_2(tmp_path, capsys, args, message):
    # E_6 of radius 0.5 reaches 0.32 in space, past x = 0 from x = 0.3
    code = main(["mvi-check", *args, "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "mvi_check.csv").exists()


def test_mvi_check_overwrites_and_appends(tmp_path):
    args = ["mvi-check", "--kind", "plain", "--trials", "20",
            "--samples", "128", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert main(args) == 0
    check = _rows(tmp_path / "mvi_check.csv")
    audit = _rows(tmp_path / "mvi_audit.csv")
    assert len(check) == 2  # header + one row, overwritten each run
    assert len(audit) == 3  # header + one row per run
    assert check[1][0] == "mvi" and check[1] != check[0]
    assert float(check[1][1]) == 1.0 / math.pi
    assert check[1][3] == "0"


def test_counterexample_command(tmp_path):
    code = main(["counterexample", "ccw", "--delta", "1/8", "--degree", "8",
                 "--budget", "50000", "--out-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "counterexample.json").read_text())
    assert summary["delta"] == "1/8"
    assert summary["comb_measure_exact"] == "105/128"
    assert summary["rects"] == 7
    assert summary["passed"] is True
    rows = _rows(tmp_path / "counterexample.csv")
    assert rows[0][0] == "delta" and rows[1][0] == "1/8"


def test_pmeans_divergent_row(tmp_path):
    code = main(["pmeans", "--family", "monomial", "--k", "1",
                 "--p=-1,1", "--budget", "20000",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    rows = _rows(tmp_path / "pmeans.csv")
    assert rows[0] == ["family", "k", "p", "value", "divergent", "std_error",
                       "samples", "method"]
    div = {r[2]: r for r in rows[1:]}
    assert div["-1.0"][3] == "0.0" and div["-1.0"][4] == "True"
    assert div["1.0"][4] == "False"


def test_pmeans_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["pmeans", "--k", "2", "--p", "0,2,inf", "--budget", "30000"]
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert _read(a / "pmeans.csv") == _read(b / "pmeans.csv")
    assert _read(a / "pmeans_config.json") == _read(b / "pmeans_config.json")


def test_config_file_roundtrip(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pmeans", "--k", "3", "--p", "0.5,1", "--budget", "20000",
                 "--seed", "7", "--out-dir", str(a)]) == 0
    assert main(["pmeans", "--config", str(a / "pmeans_config.json"),
                 "--out-dir", str(b)]) == 0
    assert _read(a / "pmeans.csv") == _read(b / "pmeans.csv")


def test_config_flags_override_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["pmeans", "--k", "1", "--budget", "20000",
                 "--out-dir", str(a)]) == 0
    assert main(["pmeans", "--config", str(a / "pmeans_config.json"),
                 "--k", "2", "--out-dir", str(b)]) == 0
    cfg = json.loads((b / "pmeans_config.json").read_text())
    assert cfg["k"] == 2 and cfg["budget"] == 20000


def test_suite_command(tmp_path, capsys):
    code = main(["suite", "claims", "--budget", "20000", "--trials", "50",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    blob = json.loads((tmp_path / "suite_claims.json").read_text())
    assert blob["overall"] is True
    passes = [ln for ln in out if ln.startswith("PASS ")]
    assert len(passes) == len(blob["checks"])
    assert not any(ln.startswith("FAIL ") for ln in out)


def test_usage_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["suite", "no-such-suite", "--out-dir", out]) == 2
    assert main(["suite", "--out-dir", out]) == 2  # missing name
    assert main(["pmeans", "--no-such-flag", "1"]) == 2
    assert main(["counterexample", "frobnicate", "--out-dir", out]) == 2
    assert main(["counterexample", "ccw", "--delta", "0/0",
                 "--out-dir", out]) == 2
    # a library-level ValueError surfaces as a usage failure, not a traceback
    assert main(["constants", "--n", "0", "--budget", "20000",
                 "--out-dir", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["suite", "claims", "--threads", "-3"],
    ["mvi-check", "--threads", "0"],
    ["constants", "--threads", "0"],
])
def test_threads_below_one_exit_2_and_write_nothing(tmp_path, capsys, argv):
    # a thread count below one is a usage error on every command, so no
    # config holding it is echoed or persisted
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --threads must be at least 1\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_config_file_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["pmeans", "--config", str(bad),
                 "--out-dir", str(tmp_path)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"command": "constants"}))
    assert main(["pmeans", "--config", str(wrong),
                 "--out-dir", str(tmp_path)]) == 2
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"command": "pmeans", "bogus": 1}))
    assert main(["pmeans", "--config", str(extra),
                 "--out-dir", str(tmp_path)]) == 2
    missing = tmp_path / "nope.json"
    assert main(["pmeans", "--config", str(missing),
                 "--out-dir", str(tmp_path)]) == 2


def test_import_loads_no_scipy():
    # scipy costs about 0.6 s to import, so the few functions that use it
    # import it on their first call, never at package import
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, lpbounds.cli, lpbounds; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_suites_and_constants_load_no_scipy(tmp_path):
    # every numeric path runs on numpy and math alone: all ten suites and
    # the constants table, in one fresh process, leave scipy unloaded
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "from lpbounds.cli import main\n"
            "from lpbounds.verify import SUITE_NAMES, run_suite\n"
            "for name in SUITE_NAMES:\n"
            "    run_suite(name, {'budget': 2000})\n"
            f"assert main(['constants', '--budget', '2000', '--out-dir', "
            f"{str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
