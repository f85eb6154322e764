import importlib.util
import json
import pathlib

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "cold_start.py"
_spec = importlib.util.spec_from_file_location("cold_start", _TOOL)
cold_start = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_start)


def _one_run_of(monkeypatch, command):
    monkeypatch.setattr(cold_start, "default_sizes",
                        lambda: {command: ("budget", 2000)})
    monkeypatch.setattr(cold_start, "REPS", 1)
    monkeypatch.setattr(cold_start, "SCALES", (1,))


def test_one_cold_run_is_timed_and_measured(tmp_path, monkeypatch, capsys):
    _one_run_of(monkeypatch, "suite prop-general")
    out = tmp_path / "cold.json"
    assert cold_start.main([str(out)]) == 0
    record = json.loads(out.read_text())
    (run,) = record["runs"]
    assert run["command"] == "suite prop-general" and run["budget"] == 2000
    assert run["exit_code"] == 0
    assert run["wall_s"] > 0.0 and run["max_rss_mb"] > 10.0
    (row,) = record["medians"]
    assert row["tree"]["median_wall_s"] == run["wall_s"]
    assert "suite prop-general" in capsys.readouterr().out


def test_a_failing_command_stops_the_tool_without_a_record(
        tmp_path, monkeypatch, capsys):
    _one_run_of(monkeypatch, "suite no-such-suite")
    out = tmp_path / "cold.json"
    assert cold_start.main([str(out)]) == 1
    assert not out.exists()
    assert "exited 2" in capsys.readouterr().err


def test_every_command_has_a_default_size():
    sizes = cold_start.default_sizes()
    assert sizes["mvi-check"] == ("trials", 1000)
    assert sizes["constants"] == ("budget", 200_000)
    assert len([name for name in sizes if name.startswith("suite ")]) == 10
