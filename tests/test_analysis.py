import numpy as np
import pytest

from etdsplit.analysis import (
    COUPLING_FIXED_H,
    COUPLING_K_EQ_H,
    MODE_EXACT,
    MODE_SELF,
    linf_error,
    observed_order,
    run_study,
    time_run,
)
from etdsplit.errors import ShapeError, ValidationError
from etdsplit.problems import make_problem
from etdsplit.steppers import ETDRK4P22IF
from helpers import parse_report_csv, report_csv


def test_linf_error_basics():
    u = np.zeros((1, 4, 4))
    assert linf_error(u, u) == 0.0
    v = u.copy()
    v[0, 2, 1] = 3e-5
    assert linf_error(u, v) == pytest.approx(3e-5)
    with pytest.raises(ShapeError):
        linf_error(u, np.zeros((1, 4, 5)))


def test_observed_order_values():
    assert observed_order(1.639e-7, 1.0805e-8) == pytest.approx(3.92, abs=0.005)
    assert observed_order(16.0, 1.0) == pytest.approx(4.0)
    assert observed_order(4.2433e-7, 7.2737e-9) == pytest.approx(5.87, abs=0.005)
    assert observed_order(0.0, 1e-8) is None
    assert observed_order(1e-8, 0.0) is None


def test_time_run():
    out, secs = time_run(lambda: 41 + 1)
    assert out == 42
    assert secs >= 0.0


@pytest.fixture(scope="module")
def enzyme_study():
    return run_study(make_problem("enzyme"), ETDRK4P22IF, 0.1, 3, MODE_SELF,
                     COUPLING_FIXED_H, 1.0, h_target=0.05)


def test_self_reference_study_matches_benchmark(enzyme_study):
    errors = enzyme_study.errors()
    for got, want in zip(errors, (4.2433e-7, 7.2737e-9, 4.666e-10)):
        assert got == pytest.approx(want, rel=0.05)
    orders = enzyme_study.orders()
    assert orders[0] == pytest.approx(5.87, abs=0.1)
    assert orders[1] == pytest.approx(3.96, abs=0.1)


def test_study_error_monotone_and_order_near_four(enzyme_study):
    errors = enzyme_study.errors()
    assert errors[0] > errors[1] > errors[2]
    # self-reference orders settle near the scheme order
    assert abs(enzyme_study.orders()[-1] - 4.0) <= 0.25


def test_study_rows_metadata(enzyme_study):
    rows = enzyme_study.rows
    assert [r.k for r in rows] == [0.1, 0.05, 0.025]
    assert all(r.m == 19 for r in rows)
    assert rows[0].order is None
    assert all(r.seconds >= 0 for r in rows)


def test_study_determinism(enzyme_study):
    again = run_study(make_problem("enzyme"), ETDRK4P22IF, 0.1, 3, MODE_SELF,
                      COUPLING_FIXED_H, 1.0, h_target=0.05)
    assert again.errors() == enzyme_study.errors()


def test_single_level_study():
    report = run_study(make_problem("model_dirichlet"), ETDRK4P22IF, 0.25, 1,
                       MODE_EXACT, COUPLING_K_EQ_H, 1.0, h_target=0.2)
    assert len(report.rows) == 1
    assert report.rows[0].order is None
    assert report.rows[0].error > 0


def test_k_eq_h_grid_doubling():
    report = run_study(make_problem("model_dirichlet"), ETDRK4P22IF, 0.5, 2,
                       MODE_EXACT, COUPLING_K_EQ_H, 1.0, h_target=0.3)
    # base m+1 = round(pi / 0.3) = 10, doubling each level
    assert [r.m for r in report.rows] == [9, 19]
    assert [r.k for r in report.rows] == [0.5, 0.25]


def test_study_validations():
    spec = make_problem("enzyme")
    with pytest.raises(ValidationError):
        run_study(spec, ETDRK4P22IF, 0.1, 2, MODE_EXACT, COUPLING_FIXED_H, 1.0, m=19)
    with pytest.raises(ValidationError):
        run_study(spec, ETDRK4P22IF, 0.1, 2, MODE_SELF, COUPLING_K_EQ_H, 1.0)
    with pytest.raises(ValidationError):
        run_study(spec, ETDRK4P22IF, 0.1, 0, MODE_SELF, COUPLING_FIXED_H, 1.0, m=19)
    with pytest.raises(ValidationError):
        run_study(spec, "euler", 0.1, 2, MODE_SELF, COUPLING_FIXED_H, 1.0, m=19)
    with pytest.raises(ValidationError):
        run_study(spec, ETDRK4P22IF, 0.1, 2, MODE_SELF, COUPLING_FIXED_H, 1.0)


def test_csv_round_trip(enzyme_study):
    text = report_csv(enzyme_study)
    assert text.startswith("scheme,problem,k,h,m,error,order,seconds\n")
    assert "\r" not in text
    parsed = parse_report_csv(text)
    for row, rec in zip(enzyme_study.rows, parsed):
        assert rec["scheme"] == enzyme_study.scheme
        assert rec["problem"] == enzyme_study.problem
        assert rec["k"] == row.k
        assert rec["h"] == row.h
        assert rec["m"] == row.m
        assert rec["error"] == row.error
        assert rec["order"] == row.order
        assert rec["seconds"] == row.seconds


def test_format_table(enzyme_study):
    text = enzyme_study.format_table()
    assert "scheme=etdrk4p22if" in text
    assert "4.2433e-07" in text
    lines = text.splitlines()
    assert len(lines) == 2 + len(enzyme_study.rows)
