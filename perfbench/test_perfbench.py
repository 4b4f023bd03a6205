"""Tests of the benchmark itself: the gate, the tracer and one tiny invocation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import invoke  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import check_field_csv, check_study_csv  # noqa: E402


def _field_csv(x, y, u):
    lines = ["x,y,u"]
    for xi, yi, ui in zip(x, y, u):
        lines.append(f"{xi:.17g},{yi:.17g},{ui:.17g}")
    return "\n".join(lines) + "\n"


def _model_grid(p=9):
    nodes = np.linspace(-np.pi / 2, np.pi / 2, p + 2)[1:-1]
    y, x = np.meshgrid(nodes, nodes, indexing="ij")
    return x.ravel(), y.ravel()


def _field_at_error(reference, T=1.0):
    """A field whose max-norm error against the exact solution is `reference`."""
    x, y = _model_grid()
    u = workloads.model_exact(x, y, T)
    u[len(u) // 2] += reference
    return x, y, u


def test_field_gate_accepts_reference_error():
    x, y, u = _field_at_error(4.456e-11)
    result = check_field_csv(_field_csv(x, y, u), 1.0, u.reshape(1, 9, 9), 4.456e-11)
    assert result.ok, result.reason
    assert result.max_error == pytest.approx(4.456e-11, rel=1e-3)


def test_field_gate_rejects_perturbed_field():
    x, y, u = _field_at_error(4.456e-11)
    perturbed = u.copy()
    perturbed[3] += 1e-9
    result = check_field_csv(_field_csv(x, y, perturbed), 1.0, None, 4.456e-11)
    assert not result.ok
    assert "deviates" in result.reason


def test_field_gate_rejects_csv_that_differs_from_computed_field():
    x, y, u = _field_at_error(4.456e-11)
    written = u.copy()
    written[0] = np.nextafter(written[0], 1.0)
    result = check_field_csv(_field_csv(x, y, written), 1.0, u.reshape(1, 9, 9), 4.456e-11)
    assert not result.ok
    assert "parse back" in result.reason


def test_field_gate_rejects_short_digits():
    x, y, u = _field_at_error(4.456e-11)
    text = "x,y,u\n" + "".join(f"{a:.17g},{b:.17g},{c:.8g}\n" for a, b, c in zip(x, y, u))
    assert not check_field_csv(text, 1.0, None, 4.456e-11).ok


def _study_csv(error):
    return ("scheme,problem,k,h,m,error,order,seconds\n"
            f"etdrk4p22,enzyme_nonsmooth,0.050000000000000003,0.0083333333333333332,"
            f"119,{error:.17g},,2.2665466580001521\n")


def test_study_gate_checks_error_range_and_fields():
    a = np.full((1, 3, 3), 0.5)
    b = a.copy()
    b[0, 1, 1] += 1.4609e-10
    err = float(np.max(np.abs(a - b)))
    assert check_study_csv(_study_csv(err), [a, b], 1.4609e-10, (0.0, 1.0)).ok
    # The reported error must equal the fields' difference exactly.
    assert not check_study_csv(_study_csv(err * 1.01), [a, b], 1.4609e-10).ok
    # A field outside [0, 1] fails even with the right error.
    c, d = a + 0.6, b + 0.6
    err_cd = float(np.max(np.abs(c - d)))
    assert not check_study_csv(_study_csv(err_cd), [c, d], 1.4609e-10, (0.0, 1.0)).ok
    # An error far from the reference fails.
    assert not check_study_csv(_study_csv(2e-10), [], 1.4609e-10).ok


def test_failed_exit_fails_gate():
    result = workloads.check_run(workloads.WORKLOADS["split-fine"], 2, "x,y,u\n", [])
    assert not result.ok and math.isnan(result.max_error)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    def middle():
        tracer.span("leaf", "linsolve.solve", leaf)
        time.sleep(0.01)

    tracer.span("root", "cli.io", middle)
    self_s = tracer.self_times()
    root = tracer.spans[0]
    assert sum(self_s.values()) == pytest.approx(root[3] - root[2], rel=1e-9)
    assert self_s["linsolve.solve"] >= 0.02
    assert 0.01 <= self_s["cli.io"] < self_s["linsolve.solve"]


def test_missing_name_is_unmeasured_not_fatal(monkeypatch):
    sites = tracing.TRACED_SITES + (("etdsplit.steppers", "no_such_function", "linsolve.solve"),
                                    ("etdsplit.no_such_module", "f", "cli.io"))
    monkeypatch.setattr(tracing.Tracer, "sites", sites)
    with tracing.Tracer() as tracer:
        pass
    assert tracer.unmeasured == ["etdsplit.steppers.no_such_function",
                                 "etdsplit.no_such_module.f"]


def test_plan_of_unexpected_shape_is_not_fatal():
    class Fact:
        pass

    class Plan:
        axis_facts = {"c1": (1, 2), ("c2", "x", 0): [3]}
        full_facts = {"sbdf1": Fact()}

    tracer = tracing.Tracer()
    tracer._after_plan("build_plan", None, (), {}, Plan())
    assert tracer._full_label({"self": Plan.full_facts["sbdf1"]}) == "sbdf1"
    assert tracer._axis_label({"fact": (1, 2), "axis": "x"}) == "unknown.x"


def test_wrappers_are_removed_after_use():
    import etdsplit.steppers as steppers

    original = steppers.build_plan
    with tracing.Tracer():
        assert steppers.build_plan is not original
    assert steppers.build_plan is original


def test_traced_counts_on_a_small_split_run(tmp_path, monkeypatch):
    tiny = workloads.Workload(
        name="tiny", kind=workloads.FIELD, reference=1.0,
        args=("solve", "--problem", "model_dirichlet", "--scheme", "etdrk4p22if",
              "--m", "15", "--k", "0.25", "--T", "1"))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    record = invoke.run("tiny", tmp_path, traced=True)
    assert record["exit_code"] == 0
    assert record["steppers.steps"] == 4
    assert record["linsolve.solve_calls"] == 4 * 14
    assert record["problems.reaction_calls"] == 4 * 4
    assert record["linsolve.solve_calls.c2.x"] + record["linsolve.solve_calls.c1.x"] == 4 * 8
    assert record["linsolve.solve_calls.c2.y"] + record["linsolve.solve_calls.c1.y"] == 4 * 6
    layer_sum = sum(record[f"{layer}_s"] for layer in tracing.LAYERS)
    assert layer_sum == pytest.approx(record["wall_s"], rel=0.05)
    coarse = invoke.run("tiny", tmp_path, traced=False)
    assert coarse["steps"] == 4 and coarse["setup_s"] > 0
