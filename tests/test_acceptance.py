"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
The heavy refinement cascades are shared through module-scoped fixtures;
the full module takes a few minutes (the semi-implicit baseline's startup
substeps and the finest unsplit solve dominate).
"""

import time

import mpmath
import numpy as np
import pytest

import etdsplit.cli as cli
from etdsplit.analysis import (
    COUPLING_FIXED_H,
    COUPLING_K_EQ_H,
    MODE_EXACT,
    MODE_SELF,
    run_study,
)
from etdsplit.problems import discretize, make_problem
from etdsplit.spatial import AXIS_X, AXIS_Y, axis_matrix
from etdsplit.steppers import (
    ETDRK4P22,
    ETDRK4P22IF,
    PADE,
    SBDF4,
    SBDF_STARTUP_SUBSTEPS,
    SMOOTHER_ONLY,
    build_plan,
    etdrk4p22_step,
    etdrk4p22if_step,
    integrate,
    sbdf1_step,
    smoother_step,
)
from helpers import apply_axis, dense_axis_solvers, etdrk4p22if_kernel, zero_reaction_disc


# Published reference values the gates compare against (tables 1 and 2,
# and the order columns of tables 4, 5 and A1).  These are the contract;
# cli._REF must hold the same numbers (test_cli_reference_table_matches).
TABLE1_SPLIT_ERRORS = (1.639e-7, 1.0805e-8, 6.958e-10, 4.456e-11)
TABLE1_SPLIT_ORDERS = (3.92, 3.96, 3.96)
TABLE1_UNSPLIT_ERRORS = (9.069e-7, 5.6131e-8, 3.496e-9, 2.1391e-10)
TABLE2_SPLIT_ERRORS = (1.0836e-5, 6.8127e-7, 4.2638e-8, 2.6657e-9)
TABLE2_SPLIT_ORDERS = (3.99, 4.00, 4.00)
TABLE4_SMOOTHED_ORDERS = (3.46, 3.54, 3.77)
TABLE5_SPLIT_ORDERS = (4.18, 4.00, 3.99)
TABLEA1_SBDF4_ORDERS = (4.16, 4.00, 3.65)


def _gate(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _within(got, want, rel):
    return all(abs(g - w) <= rel * abs(w) for g, w in zip(got, want))


def _orders_within(got, want, tol):
    return all(abs(g - w) <= tol for g, w in zip(got, want))


@pytest.fixture(scope="module")
def table1_if():
    return run_study(make_problem("model_dirichlet"), ETDRK4P22IF, 0.1, 4,
                     MODE_EXACT, COUPLING_K_EQ_H, 1.0, h_target=0.0785)


@pytest.fixture(scope="module")
def table1_unsplit():
    return run_study(make_problem("model_dirichlet"), ETDRK4P22, 0.1, 4,
                     MODE_EXACT, COUPLING_K_EQ_H, 1.0, h_target=0.0785)


def test_criterion_1_dirichlet_model_tables(table1_if, table1_unsplit):
    ok = (_within(table1_if.errors(), TABLE1_SPLIT_ERRORS, 0.10)
          and _orders_within(table1_if.orders(), TABLE1_SPLIT_ORDERS, 0.15)
          and _within(table1_unsplit.errors(), TABLE1_UNSPLIT_ERRORS, 0.10))
    detail = (f"split errors {['%.3e' % e for e in table1_if.errors()]} "
              f"orders {['%.2f' % o for o in table1_if.orders()]}; "
              f"unsplit errors {['%.3e' % e for e in table1_unsplit.errors()]}")
    _gate(1, "Dirichlet model problem reproduction", ok, detail)


def test_cli_reference_table_matches():
    # the CLI's preset tables print the same published numbers the gates use
    studies = {(table, study["label"]): study
               for table, preset in cli._REF.items() for study in preset["studies"]}
    assert studies["1", ETDRK4P22IF]["errors"] == TABLE1_SPLIT_ERRORS
    assert studies["1", ETDRK4P22IF]["orders"] == TABLE1_SPLIT_ORDERS
    assert studies["1", ETDRK4P22]["errors"] == TABLE1_UNSPLIT_ERRORS
    assert studies["2", ETDRK4P22IF]["errors"] == TABLE2_SPLIT_ERRORS
    assert studies["2", ETDRK4P22IF]["orders"] == TABLE2_SPLIT_ORDERS
    assert studies["4", "etdrk4p22if (3 smoothing steps)"]["orders"] == TABLE4_SMOOTHED_ORDERS
    assert studies["5", ETDRK4P22IF]["orders"] == TABLE5_SPLIT_ORDERS
    assert studies["A1", SBDF4]["orders"] == TABLEA1_SBDF4_ORDERS


def test_criterion_2_neumann_model_table():
    report = run_study(make_problem("model_neumann"), ETDRK4P22IF, 0.1, 4,
                       MODE_EXACT, COUPLING_K_EQ_H, 1.0, h_target=0.31416)
    ok = (_within(report.errors(), TABLE2_SPLIT_ERRORS, 0.15)
          and _orders_within(report.orders(), TABLE2_SPLIT_ORDERS, 0.15))
    _gate(2, "Neumann model problem reproduction", ok,
          f"errors {['%.3e' % e for e in report.errors()]} "
          f"orders {['%.2f' % o for o in report.orders()]}")


def test_criterion_3_enzyme_pattern():
    report = run_study(make_problem("enzyme"), ETDRK4P22IF, 0.1, 4,
                       MODE_SELF, COUPLING_FIXED_H, 1.0, h_target=0.05)
    errors = report.errors()
    orders = report.orders()
    ok = (all(errors[i] > errors[i + 1] for i in range(3))
          and all(3.7 <= p <= 4.3 for p in orders[-2:]))
    _gate(3, "enzyme kinetics convergence pattern", ok,
          f"errors {['%.3e' % e for e in errors]} "
          f"final orders {['%.2f' % o for o in orders[-2:]]}")


def test_criterion_4_presmoothing():
    spec = make_problem("enzyme_nonsmooth")
    smoothed = run_study(spec, ETDRK4P22IF, 0.1, 4, MODE_SELF,
                         COUPLING_FIXED_H, 1.0, smoothing_steps=3, h_target=0.05)
    raw = run_study(spec, ETDRK4P22IF, 0.1, 1, MODE_SELF,
                    COUPLING_FIXED_H, 1.0, h_target=0.05)
    disc = discretize(spec, 19)
    field = integrate(disc, ETDRK4P22IF, 0.1, 1.0, smoothing_steps=3)
    in_bounds = field.min() >= -1e-6 and field.max() <= 1.0 + 1e-6
    ratio = raw.errors()[0] / smoothed.errors()[0]
    ok = (_orders_within(smoothed.orders(), TABLE4_SMOOTHED_ORDERS, 0.3)
          and in_bounds and ratio >= 1e5)
    _gate(4, "presmoothing of non-smooth data", ok,
          f"smoothed orders {['%.2f' % o for o in smoothed.orders()]}, "
          f"field range [{field.min():.2e}, {field.max():.2e}], "
          f"raw/smoothed error ratio {ratio:.1e}")


def test_criterion_5_brusselator_pattern():
    report = run_study(make_problem("brusselator"), ETDRK4P22IF, 0.05, 4,
                       MODE_SELF, COUPLING_FIXED_H, 2.0, h_target=0.0125)
    ok = _orders_within(report.orders(), TABLE5_SPLIT_ORDERS, 0.3)
    _gate(5, "Brusselator convergence pattern", ok,
          f"orders {['%.2f' % o for o in report.orders()]}")


def test_criterion_6_sbdf4_baseline():
    report = run_study(make_problem("model_dirichlet"), SBDF4, 0.1, 4,
                       MODE_EXACT, COUPLING_K_EQ_H, 1.0, h_target=0.0785)
    errors = report.errors()
    # The clock at each step's snapshot: startup runs from step 1 to step 3
    # (two of the three startup intervals), main from step 3 to step 10.
    clock = []
    disc = discretize(make_problem("model_dirichlet"), 39)
    integrate(disc, SBDF4, 0.1, 1.0, snapshot_every=1,
              snapshot_cb=lambda step, t, u: clock.append(time.perf_counter()))
    startup_s, main_s = clock[2] - clock[0], clock[9] - clock[2]
    ok = (_orders_within(report.orders(), TABLEA1_SBDF4_ORDERS, 0.3)
          and all(errors[i] > errors[i + 1] for i in range(3))
          and len(clock) == 10 and startup_s > main_s)
    _gate(6, "semi-implicit BDF4 baseline", ok,
          f"orders {['%.2f' % o for o in report.orders()]}, startup "
          f"{startup_s:.2f}s vs main {main_s:.2f}s")


def test_criterion_7_splitting_speedup(table1_if, table1_unsplit):
    t_split = table1_if.rows[-1].seconds
    t_unsplit = table1_unsplit.rows[-1].seconds
    ok = t_split <= 0.5 * t_unsplit
    _gate(7, "dimensional-splitting speedup", ok,
          f"split {t_split:.2f}s vs unsplit {t_unsplit:.2f}s "
          f"({t_unsplit / t_split:.1f}x)")


def test_criterion_8_property_suite():
    failures = []

    # structured vs dense-solve step equality, nonlinear F, both boundaries
    for name in ("enzyme", "brusselator"):
        spec = make_problem(name)
        for m in (3, 4, 5, 6):
            disc = discretize(spec, m)
            plan = build_plan(ETDRK4P22IF, disc, 0.1)
            u = disc.initial()
            got = etdrk4p22if_step(plan, u, 0.0)
            solve_x, solve_y = dense_axis_solvers(disc.grid, disc.spec.diffusion, 0.1)
            want = etdrk4p22if_kernel(u, 0.0, 0.1, disc.reaction, solve_x, solve_y)
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            if rel > 1e-10:
                failures.append(f"oracle equality {name} m={m}: {rel:.1e}")

    # partial-fraction identities
    c = PADE
    for z in np.linspace(0.0, 10.0, 200):
        checks = (
            (12 - 6 * z + z * z) / (12 + 6 * z + z * z) - (1 + 2 * (c.w11 / (z - c.c1)).real),
            (48 - 12 * z + z * z) / (48 + 12 * z + z * z) - (1 + 4 * (c.w11 / (z - c.c2)).real),
            (2 - z) / (12 + 6 * z + z * z) - 2 * (c.w21 / (z - c.c1)).real,
            2 / (12 + 6 * z + z * z) - 4 * (c.w31 / (z - c.c1)).real,
            (2 + z) / (12 + 6 * z + z * z) - 2 * (c.w41 / (z - c.c1)).real,
            24 / (48 + 12 * z + z * z) - 48 * (c.w51 / (z - c.c2)).real,
        )
        if max(abs(v) for v in checks) > 1e-12:
            failures.append(f"partial fractions at z={z:.3f}")
            break

    # local order five of the rational exponential (asymptotic halving ratio)
    mpmath.mp.dps = 50

    def gap(z):
        z = mpmath.mpf(z)
        return abs((12 - 6 * z + z ** 2) / (12 + 6 * z + z ** 2) - mpmath.e ** (-z))

    z = 1.0 / 8
    while z > 1e-3:
        ratio = float(gap(z) / gap(z / 2))
        if not 32 * 0.9 <= ratio <= 32 * 1.1:
            failures.append(f"order-5 ratio at z={z}: {ratio:.2f}")
        z /= 2

    # Kronecker commutation on every oracle grid
    rng = np.random.default_rng(0)
    for name in ("enzyme", "model_neumann"):
        spec = make_problem(name)
        for m in (3, 4, 5, 6):
            disc = discretize(spec, m)
            p = disc.grid.p1d
            u = rng.normal(size=(1, p, p))
            grid, d = disc.grid, disc.spec.diffusion
            xy = apply_axis(grid, d, apply_axis(grid, d, u, AXIS_X, 0)[np.newaxis], AXIS_Y, 0)
            yx = apply_axis(grid, d, apply_axis(grid, d, u, AXIS_Y, 0)[np.newaxis], AXIS_X, 0)
            norm_a = np.max(np.abs(axis_matrix(grid))) * d[0]
            bound = 1e-12 * np.max(np.abs(u)) * (2 * norm_a) ** 2
            if np.max(np.abs(xy - yx)) > bound:
                failures.append(f"commutation {name} m={m}")

    # constant preservation on a zero-flux grid with no reaction
    disc = zero_reaction_disc("model_neumann", 4)
    const = np.full((1, disc.grid.p1d, disc.grid.p1d), 5.0)
    sbdf_plan = build_plan(SBDF4, disc, 0.2 * SBDF_STARTUP_SUBSTEPS)
    steps = {
        "split": etdrk4p22if_step(build_plan(ETDRK4P22IF, disc, 0.2), const, 0.0),
        "unsplit": etdrk4p22_step(build_plan(ETDRK4P22, disc, 0.2), const, 0.0),
        "smoother": smoother_step(build_plan(SMOOTHER_ONLY, disc, 0.2), const, 0.0),
        "sbdf1": sbdf1_step(sbdf_plan, const, 0.0,
                            sbdf_plan.solvers["sbdf1"].basis.forward(const))[0],
    }
    for label, out in steps.items():
        if np.max(np.abs(out - 5.0)) > 1e-12 * 5.0:
            failures.append(f"constant preservation: {label}")

    _gate(8, "oracle equivalence and scheme properties", not failures,
          "; ".join(failures) if failures else
          "22-step oracle, partial fractions, local order, commutation, constants")
