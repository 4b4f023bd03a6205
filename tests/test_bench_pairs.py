import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(name, parent, change, count=10):
    def run(value):
        return {"result": {"metrics": {name: {"value": value}}}}
    return [{"parent": run(parent), "change": run(change)} for _ in range(count)]


def test_rounding_level_move_is_a_tie():
    # split-coupled max_error, parent against a change that moved the final
    # field by 1.3e-14 relative: no side wins
    summary = bench_pairs.summarise(
        _pairs("max_error", 1.14233677584e-6, 1.14233680781e-6), {"max_error": "lower"})
    assert summary["max_error"]["wins"] == {"parent": 0, "change": 0}
    assert summary["max_error"]["ties"] == 10
    assert not summary["max_error"]["resolved"] and not summary["max_error"]["gain"]


def test_higher_steps_per_s_is_a_change_win():
    summary = bench_pairs.summarise(_pairs("steps_per_s", 427.0, 809.0),
                                    {"steps_per_s": "higher"})
    assert summary["steps_per_s"]["wins"] == {"parent": 0, "change": 10}
    assert summary["steps_per_s"]["ties"] == 0


def test_lower_wall_s_is_a_change_win():
    summary = bench_pairs.summarise(_pairs("wall_s", 3.2, 3.1, count=4), {"wall_s": "lower"})
    assert summary["wall_s"]["wins"] == {"parent": 0, "change": 4}
    assert summary["wall_s"]["ties"] == 0
    assert summary["wall_s"]["change"]["median"] == 3.1


def _paired(name, parents, changes):
    def run(value):
        return {"result": {"metrics": {name: {"value": value}}}}
    return [{"parent": run(a), "change": run(b)} for a, b in zip(parents, changes)]


def test_wins_inside_the_parent_spread_are_unresolved():
    # the change reads 1 higher in every pair, but the parent's own runs
    # spread over 90
    parents = [100.0 + 10 * i for i in range(10)]
    summary = bench_pairs.summarise(
        _paired("steps_per_s", parents, [v + 1.0 for v in parents]), {"steps_per_s": "higher"})
    s = summary["steps_per_s"]
    assert s["wins"] == {"parent": 0, "change": 10}
    assert not s["resolved"] and not s["gain"]


@pytest.mark.parametrize("losses, gain", [(1, True), (2, False)])
def test_a_resolved_gap_is_a_gain_with_nine_of_ten_pairs(losses, gain):
    parents = [100.0 + i for i in range(10)]
    changes = [v + 20.0 for v in parents[:10 - losses]] + [90.0] * losses
    summary = bench_pairs.summarise(_paired("steps_per_s", parents, changes),
                                    {"steps_per_s": "higher"})
    s = summary["steps_per_s"]
    assert s["wins"] == {"parent": losses, "change": 10 - losses}
    assert s["resolved"] and s["gain"] == gain
    # the same runs read as wall seconds, where lower is better, are no gain
    assert not bench_pairs.summarise(_paired("wall_s", parents, changes),
                                     {"wall_s": "lower"})["wall_s"]["gain"]


def _cold(seconds, rss, exit_code=0):
    return {"seconds": seconds, "peak_rss_mb": rss, "exit_code": exit_code, "stderr": None}


def test_cold_start_summary_spreads_the_runs_that_exited_0():
    runs = [_cold(s, r) for s, r in ((0.52, 56.0), (0.48, 55.5), (0.61, 56.5),
                                     (0.50, 55.0), (0.55, 57.0))]
    runs.append(_cold(9.9, 99.0, exit_code=1))
    summary = bench_pairs.summarise_cold(runs)
    assert summary["runs"] == runs and summary["failed"] == 1
    assert summary["seconds"]["n"] == 5
    assert summary["seconds"]["min"] == 0.48 and summary["seconds"]["median"] == 0.52
    assert (summary["seconds"]["q1"], summary["seconds"]["q3"]) == (0.50, 0.55)
    assert summary["peak_rss_mb"]["min"] == 55.0 and summary["peak_rss_mb"]["median"] == 56.0


def test_cold_start_summary_of_failed_runs_has_no_spread():
    summary = bench_pairs.summarise_cold([_cold(0.1, 50.0, exit_code=2)])
    assert summary["failed"] == 1 and "seconds" not in summary and "peak_rss_mb" not in summary


def test_cold_start_commands_read_perfbench_workloads():
    workloads = bench_pairs.load_workloads(Path(__file__).resolve().parent.parent)
    argv = workloads["sbdf4-startup"].argv("out.csv")
    assert argv[:3] == ["solve", "--problem", "model_dirichlet"]
    assert argv[-2:] == ["--out", "out.csv"]


def test_cold_run_records_the_scipy_modules_it_loaded():
    # a cold process names what it loaded on stderr's last line; the record
    # keeps that list apart from the rest of stderr
    root = Path(__file__).resolve().parent.parent
    sparse = bench_pairs.run_cold(root, [*bench_pairs.CLI_ARGV, "solve", "--problem",
                                         "model_dirichlet", "--scheme", "etdrk4p22", "--m", "9",
                                         "--k", "0.05", "--T", "0.05", "--out", "u.csv"])
    assert sparse["exit_code"] == 0 and sparse["stderr"] is None
    assert "scipy.sparse" in sparse["scipy"]
    assert not any(m.startswith("scipy._") for m in sparse["scipy"])
    bare = bench_pairs.run_cold(root, list(bench_pairs.IMPORT_ARGV))
    assert bare["exit_code"] == 0 and bare["stderr"] is None and bare["scipy"] == []
    warned = bench_pairs.run_cold(root, ["-c", "import sys; sys.stderr.write('warning\\n'); "
                                         + bench_pairs._REPORT_SCIPY])
    assert warned["stderr"] == "warning" and warned["scipy"] == []
    assert bench_pairs.split_scipy_report("Traceback ...\nValueError: x\n") == (
        "Traceback ...\nValueError: x", None)
    summary = bench_pairs.summarise_cold([
        dict(_cold(0.5, 30.0), scipy=[]), dict(_cold(0.6, 31.0), scipy=["scipy.fft"]),
        dict(_cold(0.7, 32.0, exit_code=1), scipy=["scipy.sparse"])])
    assert summary["scipy"] == ["scipy.fft"]


def test_cold_start_reports_per_command_whether_the_medians_resolved(monkeypatch):
    # the parent's seconds spread over 0.9 s and the change is 0.05 s faster:
    # unresolved; its peak RSS is 25 MB lower against a 0.2 MB spread: resolved
    class Workload:
        def argv(self, out):
            return ["solve", "--out", out]

    def fake_run(root, args):
        runs = calls.setdefault(root.name, [])
        runs.append(args)
        step = (len(runs) - 1) // 2  # the import and the workload alternate
        if root.name == "parent":
            return _cold(1.0 + 0.1 * step, 58.8 + 0.02 * step)
        return _cold(0.95 + 0.1 * step, 33.3)

    calls = {}
    monkeypatch.setattr(bench_pairs, "load_workloads", lambda root: {"w": Workload()})
    monkeypatch.setattr(bench_pairs, "run_cold", fake_run)
    record = bench_pairs.cold_start({"parent": Path("parent"), "change": Path("change")}, ["w"])
    assert set(record) == {"import", "w"}
    assert len(calls["parent"]) == len(calls["change"]) == 2 * bench_pairs.COLD_RUNS == 20
    for name in record:
        assert record[name]["parent"]["seconds"]["n"] == 10
        assert record[name]["resolved"] == {"seconds": False, "peak_rss_mb": True}
        parent, change = record[name]["parent"], record[name]["change"]
        assert record[name]["resolved"]["seconds"] == bench_pairs.resolved(
            parent["seconds"], change["seconds"])


def test_resolved_is_the_rule_summarise_applies():
    parents = [100.0 + i for i in range(10)]
    for shift in (-20.0, -1.0, 0.0, 3.0, 20.0):
        changes = [v + shift for v in parents]
        s = bench_pairs.summarise(_paired("wall_s", parents, changes), {"wall_s": "lower"})
        assert s["wall_s"]["resolved"] == bench_pairs.resolved(
            bench_pairs.quartiles(parents), bench_pairs.quartiles(changes))
        assert s["wall_s"]["resolved"] == (abs(shift) > 4.5)


def test_cold_start_leaves_resolved_out_for_a_side_whose_runs_all_failed(monkeypatch):
    monkeypatch.setattr(bench_pairs, "load_workloads", lambda root: {})
    monkeypatch.setattr(bench_pairs, "run_cold", lambda root, args: _cold(
        0.5, 30.0, exit_code=int(root.name == "change")))
    record = bench_pairs.cold_start({"parent": Path("parent"), "change": Path("change")}, [])
    assert record["import"]["change"]["failed"] == bench_pairs.COLD_RUNS
    assert record["import"]["resolved"] == {}


def _aa_cold_start(monkeypatch, parent_rss, change_rss, aa=None):
    # every run of a side reads the same seconds and peak RSS
    class Workload:
        def argv(self, out):
            return ["solve", "--out", out]

    monkeypatch.setattr(bench_pairs, "load_workloads", lambda root: {"w": Workload()})
    monkeypatch.setattr(bench_pairs, "run_cold", lambda root, args: _cold(
        1.0, parent_rss if root.name == "parent" else change_rss))
    return bench_pairs.cold_start({"parent": Path("parent"), "change": Path("change")}, ["w"],
                                  aa)


def test_an_offset_the_aa_record_matches_is_unresolved(monkeypatch):
    # two copies of one checkout read 0.14 MB apart in peak RSS; a change
    # that reads the same offset is no change, and a 16 MB drop still is
    parents = [64.10 + 0.001 * i for i in range(10)]
    aa = bench_pairs.summarise(_paired("peak_rss_mb", parents, [v - 0.14 for v in parents]),
                               {"peak_rss_mb": "lower"})
    assert aa["peak_rss_mb"]["resolved"] and aa["peak_rss_mb"]["aa_gap"] == 0.0
    for drop, want in ((0.14, False), (16.0, True)):
        pairs = _paired("peak_rss_mb", parents, [v - drop for v in parents])
        s = bench_pairs.summarise(pairs, {"peak_rss_mb": "lower"}, aa)["peak_rss_mb"]
        assert s["aa_gap"] == pytest.approx(0.14)
        assert s["resolved"] == want and s["gain"] == want, drop
    aa_cold = _aa_cold_start(monkeypatch, 64.1, 64.1 - 0.14)
    assert aa_cold["w"]["resolved"]["peak_rss_mb"]
    for drop, want in ((0.14, False), (16.0, True)):
        record = _aa_cold_start(monkeypatch, 64.1, 64.1 - drop, aa_cold)
        assert record["w"]["aa_gap"]["peak_rss_mb"] == pytest.approx(0.14)
        assert record["w"]["resolved"]["peak_rss_mb"] == want, drop
        assert record["import"]["resolved"]["peak_rss_mb"] == want, drop
