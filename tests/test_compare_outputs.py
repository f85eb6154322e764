import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

_BASE = {"run/out.csv": "field,r,value,passed\nheat-one[0],0.3,0.25,True\n"
                        "caloric,0.3,-2.4e-23,True\n",
         "run/exit_code.txt": "0\n",
         "run/config.json": '{"config_hash": "8ebb008f", "seed": 0}\n'}


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def _compare(tmp_path, edits):
    changed = {**_BASE, **edits}
    changed = {k: v for k, v in changed.items() if v is not None}
    return compare_outputs.main([_tree(tmp_path / "a", _BASE),
                                 _tree(tmp_path / "b", changed)])


def test_float_drift_is_measured(tmp_path, capsys):
    out = _BASE["run/out.csv"].replace("0.25", "0.25000000000001")
    out = out.replace("-2.4e-23", "4.1e-23")
    assert _compare(tmp_path, {"run/out.csv": out}) == 0
    report = capsys.readouterr().out
    assert "run/out.csv: max_rel_drift=4e-14 below_floor=1\n" in report


def test_tiny_float_drift_is_bounded_by_sign(tmp_path, capsys):
    # a same-sign pair below the 1e-15 floor gets a relative drift; the
    # sign flip of the test above is only counted
    out = _BASE["run/out.csv"].replace("-2.4e-23", "-3e-23")
    assert _compare(tmp_path, {"run/out.csv": out}) == 0
    report = capsys.readouterr().out
    assert ("run/out.csv: max_rel_drift=0 below_floor=1 "
            "below_floor_drift=0.2") in report
    assert "largest relative drift 0, below the floor 0.2" in report


@pytest.mark.parametrize("edits", [
    {"run/exit_code.txt": "2\n"},
    {"run/out.csv": _BASE["run/out.csv"].replace("0.25,True", "0.25,False")},
    {"run/out.csv": _BASE["run/out.csv"] + "caloric,0.5,0.1,True\n"},
    {"run/config.json": _BASE["run/config.json"].replace("008f", "009f")},
    {"run/config.json": _BASE["run/config.json"].replace('"seed": 0',
                                                         '"seed": 1')},
    {"run/extra.txt": "1\n"},
    {"run/exit_code.txt": None},
])
def test_anything_but_a_float_must_match(tmp_path, edits):
    # verdicts, exit codes, integers, row counts, hashes and the file list
    assert _compare(tmp_path, edits) == 1
