import importlib.util
import itertools
import statistics
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("step_pairs", _ROOT / "scripts" / "step_pairs.py")
step_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_pairs)


def _ratios(centre, spread, count=400, seed=0):
    rng = np.random.default_rng(seed)
    return list(centre + spread * rng.standard_normal(count))


def test_summary_brackets_the_median_and_counts_each_side_of_1():
    ratios = _ratios(0.9, 0.02)
    s = step_pairs.summarise(ratios)
    assert s["median"] == statistics.median(ratios) and s["n"] == 400
    assert s["ci_low"] < s["median"] < s["ci_high"]
    assert s["ci_high"] - s["ci_low"] < 0.01
    assert s["below_1"] + s["above_1"] == 400 and s["below_1"] >= 399
    # a tenth of the rounds gives a wider interval around the same median
    few = step_pairs.summarise(ratios[:40])
    assert few["ci_high"] - few["ci_low"] > s["ci_high"] - s["ci_low"]


def test_bootstrap_is_repeatable_and_exact_on_constant_ratios():
    ratios = _ratios(1.0, 0.05, count=101)
    assert step_pairs.bootstrap_median(ratios) == step_pairs.bootstrap_median(ratios)
    assert step_pairs.bootstrap_median([0.9] * 50) == (0.9, 0.9)


def test_a_gap_inside_the_aa_floor_is_unresolved():
    # the A/A floor is a band around 1 out to its CI's farthest end: an A/B
    # at the A/A's centre, at 1 or as far the other side of 1 is no change,
    # even where its CI misses the A/A's; one 10% faster is a change, and so
    # is one 10% slower.  Two copies of one code have read 1.4% apart.
    for aa_centre in (0.995, 1.014):
        aa = step_pairs.summarise(_ratios(aa_centre, 0.01, seed=1))
        assert (aa["ci_high"] < 1.0) if aa_centre < 1.0 else (aa["ci_low"] > 1.0)
        for centre, want in ((aa_centre, False), (1.0, False), (2.0 - aa_centre, False),
                             (0.9, True), (1.1, True)):
            ab = step_pairs.summarise(_ratios(centre, 0.002, seed=3))
            assert step_pairs.resolved(ab, aa) == want, (aa_centre, centre)


def test_rounds_cycle_every_order_and_advance_each_run():
    # each side's step adds 1 to its state; every round times each side once
    runs = {side: (lambda u, t: u + 1, 0, 0) for side in step_pairs.SIDES}
    rounds = step_pairs.time_rounds(runs, 0.5, 12)
    assert [tuple(r["order"]) for r in rounds] == list(itertools.permutations(
        step_pairs.SIDES)) * 2
    assert all(r[side] >= 0.0 for r in rounds for side in step_pairs.SIDES)
    assert all(runs[side][1:] == (12, 12) for side in step_pairs.SIDES)
    for a, b in itertools.combinations(step_pairs.SIDES, 2):
        first = [r["order"].index(a) < r["order"].index(b) for r in rounds]
        assert sum(first) == len(rounds) // 2


def test_workload_grids_and_a_package_under_its_own_name():
    table = step_pairs.load_workloads(_ROOT)
    assert step_pairs.workload_grid(table["split-coupled"].args) == {
        "problem": "brusselator", "scheme": "etdrk4p22if", "m": 79, "k": 0.0125}
    assert step_pairs.workload_grid(table["sbdf4-startup"].args)["k"] == 0.05
    package = step_pairs.load_module("etdsplit_step_pairs_test",
                                     _ROOT / "src" / "etdsplit" / "__init__.py", package=True)
    assert package.steppers.__name__ == "etdsplit_step_pairs_test.steppers"
    step, u, done = step_pairs.start_run(
        package, {"problem": "enzyme", "scheme": "etdrk4p22if", "m": 5, "k": 0.25}, 2)
    assert done == 2 and u.shape == (1, 5, 5) and step(u, 0.5).shape == u.shape
