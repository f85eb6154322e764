import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [1.51, 1.57, 1.51, 1.49, 1.55, 1.53, 1.50, 1.56, 1.52, 1.54]


def test_clear_gain_is_claimed():
    change = [v - 0.5 for v in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["parent"] == pytest.approx((1.5100, 1.525, 1.5475))
    assert s["change"][1] == pytest.approx(1.025)
    assert (s["wins"], s["pairs"], s["gain"]) == (10, 10, True)


def test_eight_wins_of_ten_is_no_gain():
    change = [v - 0.5 for v in PARENT[:8]] + PARENT[8:]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert (s["wins"], s["gain"]) == (8, False)


def test_fewer_than_ten_pairs_is_no_gain():
    change = [v - 0.5 for v in PARENT]
    s = bench_pairs.summarize(PARENT[:9], change[:9], "lower")
    assert (s["wins"], s["pairs"], s["gain"]) == (9, 9, False)


def test_gap_inside_parent_spread_is_no_gain():
    # every pair won, but by less than the parent's quartile spread
    change = [v - 0.01 for v in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["gain"]


def test_ties_count_for_neither_and_direction_follows_better():
    s = bench_pairs.summarize(PARENT, list(PARENT), "lower")
    assert (s["wins"], s["gain"]) == (0, False)
    change = [v + 0.5 for v in PARENT]
    assert bench_pairs.summarize(PARENT, change, "higher")["gain"]
    assert bench_pairs.summarize(PARENT, change, "lower")["wins"] == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.summarize(PARENT, PARENT[:9], "lower")


def _run(wall, failed=0, correct=True, digest="d0", attempted=10):
    return {"metrics": {"wall_s": wall}, "correct": correct,
            "attempted": attempted, "failed": failed, "digest": digest}


def test_voids_name_each_pair_the_change_run_makes_worse():
    parent = [_run(1.5), _run(1.5, failed=2, correct=False), _run(1.5),
              _run(1.5)]
    change = [_run(1.0), _run(1.0, failed=2, correct=False),
              _run(1.0, failed=1, correct=False), _run(1.0, digest="d1")]
    assert bench_pairs.voids(parent, change) == [
        "pair 2: change failed 1 of 10, parent 0 of 10",
        "pair 2: change run not correct",
        "pair 3: digests differ: d0 vs d1",
    ]
    assert bench_pairs.voids(parent[:2], change[:2]) == []
    # the void rule compares failure shares: a faster change run that fails
    # more operations at the same share, 21/84 against 19/76, is not void
    parent = [_run(0.9, failed=19, correct=False, attempted=76),
              _run(0.9, failed=1, correct=False)]
    change = [_run(0.7, failed=21, correct=False, attempted=84),
              _run(0.7, failed=2, correct=False)]
    assert bench_pairs.voids(parent, change) == [
        "pair 1: change failed 2 of 10, parent 1 of 10"]


def test_gain_reads_void_when_a_change_run_fails_more(tmp_path, monkeypatch,
                                                      capsys):
    # a clear wall_s gain on every pair, but one change run failed an
    # operation its parent run did not; the run length is the benchmark's
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(
        '{"run_seconds": 7, "end_to_end": '
        '[{"name": "wall_s", "better": "lower"}]}')
    lengths = []

    def fake_run(tree, workload, seed, seconds):
        lengths.append(seconds)
        if tree == parent:
            return _run(PARENT[seed])
        return _run(PARENT[seed] - 0.5, failed=int(seed == 4),
                    correct=seed != 4)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    bench_pairs.main([str(parent), str(change), "--workload", "lp-thm"])
    out = capsys.readouterr().out
    row = next(ln for ln in out.splitlines() if ln.startswith("wall_s"))
    assert row.split()[-2:] == ["10/10", "void"]
    assert "VOID: pair 4: change failed 1 of 10, parent 0 of 10" in out
    assert set(lengths) == {7}
    with pytest.raises(SystemExit):
        bench_pairs.main([str(parent), str(change), "--workload", "lp-thm",
                          "--seconds", "3"])


def test_regression_beyond_the_bound_is_flagged():
    # heat-deriv setup_s went from 0.126 to 0.181 s (+44%) against a 0.25
    # bound; a +20% move stays inside it, and a gain never regresses
    s = bench_pairs.summarize([0.126] * 10, [0.181] * 10, "lower")
    assert bench_pairs.regressed(s, "lower", 0.25)
    s = bench_pairs.summarize([0.126] * 10, [0.1512] * 10, "lower")
    assert not bench_pairs.regressed(s, "lower", 0.25)
    s = bench_pairs.summarize([2.0] * 10, [1.0] * 10, "higher")
    assert bench_pairs.regressed(s, "higher", 0.25)
    assert not bench_pairs.regressed(s, "lower", 0.25)


def test_main_prints_one_regressed_line_per_metric(tmp_path, monkeypatch,
                                                  capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(
        '{"run_seconds": 7, "end_to_end": ['
        '{"name": "wall_s", "better": "lower", "bound": 0.25},'
        '{"name": "setup_s", "better": "lower", "bound": 0.25},'
        '{"name": "cpu_s", "better": "lower", "bound": 0.25}]}')

    def fake_run(tree, workload, seed, seconds):
        wall = PARENT[seed] - (0.5 if tree == change else 0.0)
        setup = 0.181 if tree == change else 0.126
        cpu = 1.2 * wall if tree == change else wall
        return {"metrics": {"wall_s": wall, "setup_s": setup,
                            "cpu_s": cpu},
                "correct": True, "attempted": 10, "failed": 0,
                "digest": "d0"}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    bench_pairs.main([str(parent), str(change), "--workload", "heat-deriv"])
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("REGRESSED")] == [
        "REGRESSED: setup_s +43.7%, bound 25%"]


def _main_out(tmp_path, monkeypatch, capsys, fake_change, *flags):
    """main's output over ten pairs whose change runs fake_change(seed)
    builds, against parent runs of PARENT[seed] with digest d0."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir(exist_ok=True)
    (parent / "BENCHMARK.json").write_text(
        '{"run_seconds": 7, "end_to_end": '
        '[{"name": "wall_s", "better": "lower"}]}')

    def fake_run(tree, workload, seed, seconds):
        return _run(PARENT[seed]) if tree == parent else fake_change(seed)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    bench_pairs.main([str(parent), str(change), "--workload", "lp-thm",
                      *flags])
    return capsys.readouterr().out


def test_declared_output_change_turns_digest_mismatch_into_no_void(
        tmp_path, monkeypatch, capsys):
    # every change run prints a new digest; without the flag the gain is
    # void, with it the gain stands and each pair gets a DIGEST: line
    def fake_change(seed):
        return _run(PARENT[seed] - 0.5, digest="d1")

    out = _main_out(tmp_path, monkeypatch, capsys, fake_change)
    row = next(ln for ln in out.splitlines() if ln.startswith("wall_s"))
    assert row.split()[-1] == "void"
    assert "VOID: pair 0: digests differ: d0 vs d1" in out
    out = _main_out(tmp_path, monkeypatch, capsys, fake_change,
                    "--declared-output-change")
    row = next(ln for ln in out.splitlines() if ln.startswith("wall_s"))
    assert row.split()[-2:] == ["10/10", "yes"]
    assert "VOID" not in out
    assert [ln for ln in out.splitlines() if ln.startswith("DIGEST:")] == [
        f"DIGEST: pair {i}: digests differ: d0 vs d1" for i in range(10)]


def test_declared_output_change_keeps_the_failure_share_void(
        tmp_path, monkeypatch, capsys):
    # a change run that fails a larger share still voids the gain
    def fake_change(seed):
        return _run(PARENT[seed] - 0.5, failed=int(seed == 4),
                    digest="d1")

    out = _main_out(tmp_path, monkeypatch, capsys, fake_change,
                    "--declared-output-change")
    row = next(ln for ln in out.splitlines() if ln.startswith("wall_s"))
    assert row.split()[-1] == "void"
    assert [ln for ln in out.splitlines() if ln.startswith("VOID:")] == [
        "VOID: pair 4: change failed 1 of 10, parent 0 of 10"]
    assert bench_pairs.voids([_run(1.5)], [_run(1.0, correct=False)],
                             True) == ["pair 0: change run not correct"]


def test_aa_pairs_run_after_each_pair_and_get_their_own_summary(
        tmp_path, monkeypatch, capsys):
    # each claim pair is followed by an A/A pair of the parent against a
    # second checkout, in the same order; the A/A summary reads its own
    # runs: here the second checkout is slower and prints another digest,
    # so only the A/A summary regresses and reads void
    parent, change, parent2 = (tmp_path / n for n in
                               ("parent", "change", "parent2"))
    parent.mkdir()
    (parent / "BENCHMARK.json").write_text(
        '{"run_seconds": 7, "end_to_end": '
        '[{"name": "wall_s", "better": "lower", "bound": 0.25}]}')
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree.name, seed))
        if tree == change:
            return _run(PARENT[seed] - 0.5)
        if tree == parent2:
            return _run(PARENT[seed] + 0.5, digest="d1")
        return _run(PARENT[seed])

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    bench_pairs.main([str(parent), str(change), "--workload", "lp-thm",
                      "--aa", str(parent2)])
    assert calls[:8] == [("parent", 0), ("change", 0), ("parent", 0),
                         ("parent2", 0), ("change", 1), ("parent", 1),
                         ("parent2", 1), ("parent", 1)]
    assert len(calls) == 40
    out = capsys.readouterr().out
    assert "A/A pair 1 seed 1 change: wall_s 2.07" in out
    rows = [ln.split()[-2:] for ln in out.splitlines()
            if ln.startswith("wall_s")]
    assert rows == [["10/10", "yes"], ["0/10", "void"]]
    aa = out[out.index("\nA/A lp-thm"):]
    assert "REGRESSED: wall_s +32.8%, bound 25%" in aa
    assert "VOID: pair 0: digests differ: d0 vs d1" in aa
    assert "REGRESSED" not in out[:out.index("\nA/A lp-thm")]
