import importlib.util
from pathlib import Path

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
