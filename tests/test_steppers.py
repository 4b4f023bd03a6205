import math
import time
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etdsplit.linsolve as linsolve
from etdsplit.errors import DivergenceError, ShapeError, ValidationError
from etdsplit.linsolve import (
    AxisEigenbasis,
    AxisMap,
    AxisSolver,
    SparseFactorization,
    TensorEigenSolver,
    axis_solver,
    tensor_eigen_solver,
)
from etdsplit.problems import ProblemSpec, discretize, make_problem
from etdsplit.spatial import AXIS_X, AXIS_Y, DIRICHLET, NEUMANN
import etdsplit.steppers as steppers
from etdsplit.steppers import (
    ETDRK4P22,
    ETDRK4P22IF,
    PADE,
    SBDF4,
    SBDF_STARTUP_SUBSTEPS,
    SCHEMES,
    SMOOTHER_ONLY,
    SplitWork,
    StepPlan,
    build_plan,
    etdrk4p22_step,
    etdrk4p22if_step,
    integrate,
    sbdf1_step,
    scheme_entry,
    smoother_step,
)
from helpers import (
    ETD_POLES,
    SMOOTHER_POLES,
    dense_axis_operator,
    dense_axis_solvers,
    dense_full_operator,
    dense_full_solvers,
    etdrk4p22if_kernel,
    exact_etdrk4_reference_step,
    rational_r03,
    rational_r22,
    sbdf4_long_double_reference,
    smoother_kernel,
    zero_reaction_disc,
)


# ---- plan construction ----

def test_plan_axis_factorization_keys():
    # one axis solver per pole, covering both axes and species, in one basis
    disc = discretize(make_problem("brusselator"), 4)
    plan = build_plan(ETDRK4P22IF, disc, 0.1)
    assert set(plan.solvers) == {"c1", "c2"}
    assert all(isinstance(f, AxisSolver) for f in plan.solvers.values())
    assert all(f.kd == (0.1 * 2e-3,) * 2 for f in plan.solvers.values())
    assert {f.parity for f in plan.solvers.values()} == {False}


def test_plan_pole_sets_per_scheme():
    disc = discretize(make_problem("enzyme"), 4)
    assert set(build_plan(ETDRK4P22, disc, 0.1).solvers) == {"c1", "c2"}
    assert set(build_plan(SMOOTHER_ONLY, disc, 0.1).solvers) == {"f1", "f2", "e1", "e2"}
    assert set(build_plan(SBDF4, disc, 0.1).solvers) == {"sbdf4", "sbdf1"}
    # the startup system steps k / SBDF_STARTUP_SUBSTEPS, the step sbdf1_step takes
    assert scheme_entry(SBDF4, 0.1)[1]["sbdf1"] == (0.1 / 2000.0, -1.0)


@pytest.mark.parametrize("scheme", [SMOOTHER_ONLY, SBDF4])
def test_plan_full_operator_eigen_solvers_share_one_basis(scheme):
    disc = discretize(make_problem("brusselator"), 4)
    facts = build_plan(scheme, disc, 0.1).solvers.values()
    assert all(isinstance(f, TensorEigenSolver) for f in facts)
    assert len({id(f.basis) for f in facts}) == 1
    assert all(f.inv_symbol.shape == (2, 6, 6) for f in facts)


def test_unsplit_plan_keeps_sparse_lu():
    disc = discretize(make_problem("enzyme"), 4)
    facts = build_plan(ETDRK4P22, disc, 0.1).solvers.values()
    assert all(isinstance(f, SparseFactorization) for f in facts)


def test_plan_rebuild_identical_pole_set():
    disc = discretize(make_problem("enzyme"), 4)
    p1 = build_plan(ETDRK4P22IF, disc, 0.05)
    p2 = build_plan(ETDRK4P22IF, disc, 0.05)
    assert set(p1.solvers) == set(p2.solvers)
    with pytest.raises(ValidationError):
        build_plan("leapfrog", disc, 0.05)
    with pytest.raises(ValidationError):
        build_plan(ETDRK4P22IF, disc, 0.0)


# ---- split scheme against dense oracles ----

@pytest.mark.parametrize("name", ["model_dirichlet", "model_neumann"])
def test_split_plan_memory_is_linear_in_p(name):
    # the split plan holds no array; a run builds B when it starts: a dense
    # B alone would take 32 MB at m = 2000
    tracemalloc.start()
    try:
        build_plan(ETDRK4P22IF, discretize(make_problem(name), 2000), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("base,m", [("model_dirichlet", 3), ("model_dirichlet", 6),
                                    ("model_neumann", 4)])
def test_if_step_zero_reaction_is_rational_propagator(base, m):
    disc = zero_reaction_disc(base, m)
    k = 0.2
    plan = build_plan(ETDRK4P22IF, disc, k)
    rng = np.random.default_rng(m)
    p = disc.grid.p1d
    u = rng.normal(size=(1, p, p))
    got = etdrk4p22if_step(plan, u, 0.0)
    r1 = rational_r22(k * dense_axis_operator(disc.grid, disc.spec.diffusion, "y", 0))
    r2 = rational_r22(k * dense_axis_operator(disc.grid, disc.spec.diffusion, "x", 0))
    want = (r1 @ (r2 @ u[0].ravel())).reshape(1, p, p)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_if_step_neumann_preserves_constants():
    disc = zero_reaction_disc("model_neumann", 4)
    plan = build_plan(ETDRK4P22IF, disc, 0.3)
    u = np.full((1, disc.grid.p1d, disc.grid.p1d), 5.0)
    got = etdrk4p22if_step(plan, u, 0.0)
    assert np.max(np.abs(got - 5.0)) <= 1e-12 * 5.0


@pytest.mark.parametrize("name,m", [("enzyme", 3), ("enzyme", 4), ("enzyme", 5),
                                    ("enzyme", 6), ("brusselator", 4)])
def test_if_step_structured_equals_dense_22_steps(name, m):
    # same 22-entry sequence, banded solves vs dense complex solves
    disc = discretize(make_problem(name), m)
    k = 0.1
    plan = build_plan(ETDRK4P22IF, disc, k)
    u = disc.initial()
    got = etdrk4p22if_step(plan, u, 0.0)
    solve_x, solve_y = dense_axis_solvers(disc.grid, disc.spec.diffusion, k)
    want = etdrk4p22if_kernel(u, 0.0, k, disc.reaction, solve_x, solve_y)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _coupled_reaction(u, t):
    # nonlinear in every species; the second species feeds back on the first
    if u.shape[0] == 1:
        return np.sin(u) - u ** 2 + np.cos(t)
    return np.stack([u[0] * u[1] - u[0] + 0.5, u[0] ** 2 - u[1] * np.cos(u[0])])


@settings(max_examples=60, deadline=None)
@given(m=st.integers(3, 8), bc=st.sampled_from((DIRICHLET, NEUMANN)),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2).map(tuple),
       k=st.floats(0.01, 1.0), t=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_if_step_equals_22_step_oracle(m, bc, diffusion, k, t, seed):
    # the transform-space step against the published 22-entry sequence run
    # on dense Kronecker solves
    spec = ProblemSpec(name="coupled", a=0.0, b=1.0, bc=bc, species=len(diffusion),
                       diffusion=diffusion, reaction=_coupled_reaction,
                       initial=None, exact=None, default_T=1.0)
    disc = discretize(spec, m)
    plan = build_plan(ETDRK4P22IF, disc, k)
    p = disc.grid.p1d
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(diffusion), p, p))
    got = etdrk4p22if_step(plan, u, t)
    assert got.dtype == np.dtype(float) and got.shape == u.shape
    solve_x, solve_y = dense_axis_solvers(disc.grid, disc.spec.diffusion, k)
    want = etdrk4p22if_kernel(u, t, k, disc.reaction, solve_x, solve_y)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_if_integration_matches_benchmark_value():
    # coarsest level of the Dirichlet model-problem study
    disc = discretize(make_problem("model_dirichlet"), 39)
    u = integrate(disc, ETDRK4P22IF, 0.1, 1.0)
    err = np.max(np.abs(u - disc.exact(1.0)))
    assert err == pytest.approx(1.639e-7, rel=0.05)


# ---- unsplit scheme ----

def test_unsplit_step_zero_reaction_is_rational_propagator():
    disc = zero_reaction_disc("model_neumann", 4)
    k = 0.25
    plan = build_plan(ETDRK4P22, disc, k)
    rng = np.random.default_rng(1)
    p = disc.grid.p1d
    u = rng.normal(size=(1, p, p))
    got = etdrk4p22_step(plan, u, 0.0)
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    want = (rational_r22(k * a_dense) @ u[0].ravel()).reshape(1, p, p)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    assert np.all(etdrk4p22_step(plan, np.zeros_like(u), 0.0) == 0)


def test_unsplit_step_matches_dense_8_steps():
    disc = discretize(make_problem("enzyme"), 5)
    k = 0.1
    plan = build_plan(ETDRK4P22, disc, k)
    u = disc.initial()
    got = etdrk4p22_step(plan, u, 0.0)
    oracle = replace(plan, solvers=dense_full_solvers(disc.grid, disc.spec.diffusion, k,
                                                      ETD_POLES))
    want = etdrk4p22_step(oracle, u, 0.0)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_unsplit_integration_matches_benchmark_value():
    disc = discretize(make_problem("model_dirichlet"), 39)
    u = integrate(disc, ETDRK4P22, 0.1, 1.0)
    err = np.max(np.abs(u - disc.exact(1.0)))
    assert err == pytest.approx(9.069e-7, rel=0.05)


# ---- smoother ----

def test_smoother_preserves_constants_and_matches_rational():
    disc = zero_reaction_disc("model_neumann", 4)
    k = 0.2
    plan = build_plan(SMOOTHER_ONLY, disc, k)
    p = disc.grid.p1d
    const = np.full((1, p, p), 3.0)
    got = smoother_step(plan, const, 0.0)
    assert np.max(np.abs(got - 3.0)) <= 1e-12 * 3.0

    rng = np.random.default_rng(4)
    u = rng.normal(size=(1, p, p))
    got = smoother_step(plan, u, 0.0)
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    want = (rational_r03(k * a_dense) @ u[0].ravel()).reshape(1, p, p)
    assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(u))


def test_smoother_matches_dense_12_steps():
    # the eigen-space stage equations against the 12-entry solve sequence
    # run on dense Kronecker solves
    disc = discretize(make_problem("enzyme_nonsmooth"), 5)
    k = 0.1
    plan = build_plan(SMOOTHER_ONLY, disc, k)
    u = disc.initial()
    got = smoother_step(plan, u, 0.0)
    want = smoother_kernel(u, 0.0, k, disc.reaction,
                           dense_full_solvers(disc.grid, disc.spec.diffusion, k, SMOOTHER_POLES))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(m=st.integers(3, 8), bc=st.sampled_from((DIRICHLET, NEUMANN)),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2).map(tuple),
       k=st.floats(1e-3, 0.5), t=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_smoother_step_equals_12_step_oracle(m, bc, diffusion, k, t, seed):
    spec = ProblemSpec(name="coupled", a=0.0, b=1.0, bc=bc, species=len(diffusion),
                       diffusion=diffusion, reaction=_coupled_reaction,
                       initial=None, exact=None, default_T=1.0)
    disc = discretize(spec, m)
    plan = build_plan(SMOOTHER_ONLY, disc, k)
    p = disc.grid.p1d
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(len(diffusion), p, p))
    got = smoother_step(plan, u, t)
    assert got.dtype == np.dtype(float) and got.shape == u.shape
    want = smoother_kernel(u, t, k, disc.reaction,
                           dense_full_solvers(disc.grid, diffusion, k, SMOOTHER_POLES))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(3, 8),
       diffusion=st.lists(st.floats(0.1, 2.0), min_size=1, max_size=2).map(tuple),
       k=st.floats(1e-3, 0.5), value=st.floats(-10.0, 10.0))
@example(m=3, diffusion=(1.0,), k=0.5, value=5e-324)
def test_smoother_step_preserves_constants_on_neumann_grids(m, diffusion, k, value):
    # zero-flux walls and no reaction: every rational of kA leaves a constant
    # be.  The absolute floor, 1e-12 * tiny, keeps the bound above the
    # spacing of subnormal values, as in the eigen-solve constant test
    spec = ProblemSpec(name="still", a=0.0, b=1.0, bc=NEUMANN, species=len(diffusion),
                       diffusion=diffusion, reaction=lambda u, t: np.zeros_like(u),
                       initial=None, exact=None, default_T=1.0)
    disc = discretize(spec, m)
    const = np.full((len(diffusion), disc.grid.p1d, disc.grid.p1d), value)
    got = smoother_step(build_plan(SMOOTHER_ONLY, disc, k), const, 0.0)
    assert np.max(np.abs(got - value)) <= 1e-12 * abs(value) + 1e-12 * np.finfo(float).tiny


def test_smoother_step_makes_five_forward_and_four_inverse_transforms(monkeypatch):
    # every field the step transforms, either way, is real
    calls = []

    def counting(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            assert not np.iscomplexobj(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((AxisEigenbasis, "forward"), (AxisEigenbasis, "inverse")):
        counting(cls, name)
    disc = discretize(make_problem("brusselator"), 5)
    smoother_step(build_plan(SMOOTHER_ONLY, disc, 0.1), disc.initial(), 0.0)
    assert (calls.count("forward"), calls.count("inverse")) == (5, 4)


def test_presmoothing_benchmark_value():
    # three smoothing steps then the split scheme; reference is the k/2 run
    disc = discretize(make_problem("enzyme_nonsmooth"), 19)
    u1 = integrate(disc, ETDRK4P22IF, 0.1, 1.0, smoothing_steps=3)
    u2 = integrate(disc, ETDRK4P22IF, 0.05, 1.0, smoothing_steps=3)
    err = np.max(np.abs(u1 - u2))
    assert err == pytest.approx(1.0894e-9, rel=0.05)


# ---- semi-implicit BDF ----

def _artificial_plan(k, a_coef=1.0):
    """sbdf4 plan whose operator is a*I on a 3x3 Dirichlet grid, zero reaction.

    a*I = -d (B kron I + I kron B) for d = 1 and B = -a/2 I: the eigenbasis
    V = I with every eigenvalue -a/2.
    """
    spec = ProblemSpec(name="scalar", a=0.0, b=1.0, bc=DIRICHLET, species=1,
                       diffusion=(1.0,), reaction=lambda u, t: np.zeros_like(u),
                       initial=lambda x, y: np.full_like(x, 0.7)[np.newaxis],
                       exact=None, default_T=1.0)
    disc = discretize(spec, 3)
    eye = np.eye(3)
    basis = AxisEigenbasis(lam=np.full(3, -0.5 * a_coef), v=eye, v_t=eye, v_inv=eye, v_inv_t=eye)
    facts = {"sbdf4": tensor_eigen_solver(basis, (1.0,), 12.0 * k, -25.0),
             "sbdf1": tensor_eigen_solver(basis, (1.0,), k / 2000.0, -1.0)}
    return StepPlan(k=k, disc=disc, solvers=facts)


def _integrate_artificial(monkeypatch, k, a_coef):
    """integrate an sbdf4 run on the _artificial_plan operator to T = 2."""
    plan = _artificial_plan(k, a_coef)
    monkeypatch.setattr(steppers, "build_plan", lambda scheme, disc, k: plan)
    return integrate(plan.disc, SBDF4, k, 2.0)


def test_sbdf1_identity_and_scalar_decay():
    # an sbdf4 plan at k = 500 takes startup substeps of 0.25
    plan = _artificial_plan(0.25 * SBDF_STARTUP_SUBSTEPS, a_coef=0.0)
    u = np.full((1, 3, 3), 1.3)
    np.testing.assert_allclose(sbdf1_step(plan, u, 0.0, u)[0], u, rtol=1e-14)  # V = I

    a = 2.0
    plan = _artificial_plan(0.25 * SBDF_STARTUP_SUBSTEPS, a_coef=a)
    got = sbdf1_step(plan, u, 0.0, u)[0]
    np.testing.assert_allclose(got, u / (1.0 + 0.25 * a), rtol=1e-13)


def test_sbdf1_first_order_against_dense_exponential():
    # substep to t=k and compare against the semi-discrete exact propagator
    spec = make_problem("model_dirichlet")
    disc = discretize(spec, 6)
    # diffusion plus -u
    a_full = dense_full_operator(disc.grid, disc.spec.diffusion, 0) + np.eye(36)
    u0 = disc.initial()
    exact = (scipy.linalg.expm(-0.1 * a_full) @ u0.ravel()).reshape(u0.shape)
    errs = []
    for n_sub in (50, 100):
        k0 = 0.1 / n_sub
        plan = build_plan(SBDF4, disc, k0 * SBDF_STARTUP_SUBSTEPS)
        u, u_hat, t = u0, plan.solvers["sbdf1"].basis.forward(u0), 0.0
        for _ in range(n_sub):
            u, u_hat, _ = sbdf1_step(plan, u, t, u_hat)
            t += k0
        errs.append(np.max(np.abs(u - exact)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)


def test_sbdf4_identity_dynamics(monkeypatch):
    got = _integrate_artificial(monkeypatch, 0.25, a_coef=0.0)
    np.testing.assert_allclose(got, np.full((1, 3, 3), 0.7), rtol=0, atol=1e-13)


def test_sbdf4_scalar_fourth_order_decay(monkeypatch):
    errs = []
    for k in (0.4, 0.2, 0.1):
        u = _integrate_artificial(monkeypatch, k, a_coef=1.0)
        errs.append(abs(u[0, 0, 0] - 0.7 * math.exp(-2.0)))
    assert errs[0] > errs[1] > errs[2]
    overall_order = math.log2(errs[0] / errs[2]) / 2.0
    assert 3.0 <= overall_order <= 4.7


def test_sbdf4_benchmark_value_and_stats():
    # the clock at each step's snapshot: startup runs from step 1 to step 3
    # (two startup intervals), main from step 3 to step 10 (seven BDF4 steps)
    disc = discretize(make_problem("model_dirichlet"), 39)
    clock = []
    u = integrate(disc, SBDF4, 0.1, 1.0, snapshot_every=1,
                  snapshot_cb=lambda step, t, field: clock.append(time.perf_counter()))
    err = np.max(np.abs(u - disc.exact(1.0)))
    assert err == pytest.approx(2.2150e-4, rel=0.05)
    assert len(clock) == 10
    assert clock[2] - clock[0] > clock[9] - clock[2]


@pytest.mark.parametrize("name,k,T", [("brusselator", 0.0125, 0.5), ("model_dirichlet", 0.05, 1.0)])
def test_sbdf4_rounding_drift_against_long_double_reference(name, k, T):
    # the 6000 near-identity startup substeps add up each substep's rounding
    # coherently; a run kept in the eigenbasis stays within 1e-12 of the
    # field's max from the same run in long double (it measures 1.9e-13 and
    # 2.9e-13, where forward-solve-inverse per substep measured 5.0e-12 and
    # 2.9e-12)
    disc = discretize(make_problem(name), 7)
    want = sbdf4_long_double_reference(disc, k, T)
    got = integrate(disc, SBDF4, k, T)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sbdf4_run_carries_its_transform(monkeypatch):
    # a step from the array the previous step returned starts from its kept
    # transform, and a startup interval's first substep gives the history's
    # reaction transform: one forward for the initial field, one per
    # reaction evaluation, one inverse per substep and main step
    calls = []

    def counting(name):
        original = getattr(AxisEigenbasis, name)

        def wrapper(self, x):
            calls.append(name)
            return original(self, x)

        monkeypatch.setattr(AxisEigenbasis, name, wrapper)

    counting("forward")
    counting("inverse")
    disc = discretize(make_problem("enzyme"), 4)
    k, n = 0.05, SBDF_STARTUP_SUBSTEPS
    per_step = []

    def count_step(step, t, u):
        per_step.append((calls.count("forward"), calls.count("inverse")))
        calls.clear()

    integrate(disc, SBDF4, k, 5 * k, snapshot_every=1, snapshot_cb=count_step)
    assert per_step == [(n + 1, n), (n, n), (n, n), (1, 1), (1, 1)]
    # any other array than the one the last step returned is transformed
    plan = build_plan(SBDF4, disc, k)
    step, u = scheme_entry(SBDF4)[2](plan), disc.initial()
    for i in range(4):
        u = step(u, i * k)
    calls.clear()
    copied = step(u.copy(), 4 * k)
    assert (calls.count("forward"), calls.count("inverse")) == (2, 1)
    step, u = scheme_entry(SBDF4)[2](plan), disc.initial()
    for i in range(4):
        u = step(u, i * k)
    assert np.max(np.abs(step(u, 4 * k) - copied)) <= 1e-13 * np.max(np.abs(copied))


def test_sbdf4_validations():
    disc = discretize(make_problem("enzyme"), 4)
    with pytest.raises(ValidationError):
        integrate(disc, SBDF4, 0.5, 1.0)  # only 2 steps


# ---- dense exponential reference step ----

def test_reference_step_zero_reaction_is_exponential():
    disc = zero_reaction_disc("model_dirichlet", 4)
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    u0 = disc.initial().ravel()
    got = exact_etdrk4_reference_step(a_dense, u0, 0.0, 0.3,
                                      lambda v, t: np.zeros_like(v))
    want = scipy.linalg.expm(-0.3 * a_dense) @ u0
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_reference_step_small_k_limit():
    disc = discretize(make_problem("enzyme"), 4)
    p = disc.grid.p1d
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    u0 = disc.initial().ravel()
    reaction = lambda v, t: disc.reaction(v.reshape(1, p, p), t).ravel()
    got = exact_etdrk4_reference_step(a_dense, u0, 0.0, 1e-9, reaction)
    assert np.max(np.abs(got - u0)) <= 1e-8 * np.max(np.abs(u0))


def test_reference_step_size_cap():
    with pytest.raises(ValidationError):
        exact_etdrk4_reference_step(np.eye(65 * 65), np.ones(65 * 65), 0.0, 0.1,
                                    lambda v, t: v)


def test_reference_step_handles_singular_neumann_operator():
    disc = zero_reaction_disc("model_neumann", 3)
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    p = disc.grid.p1d
    const = np.full(p * p, 2.0)
    got = exact_etdrk4_reference_step(a_dense, const, 0.0, 0.5,
                                      lambda v, t: np.zeros_like(v))
    np.testing.assert_allclose(got, const, rtol=1e-12)


def test_pade_step_approaches_reference_at_fifth_order():
    # difference of the two one-step maps is O(k^5); the halving ratio
    # climbs to 32 once k*||A|| is small (29.8, 30.9 for this setup)
    spec = ProblemSpec(name="enzyme_small", a=0.0, b=1.0, bc=DIRICHLET, species=1,
                       diffusion=(0.01,), reaction=lambda u, t: -u / (1.0 + u),
                       initial=lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y))[np.newaxis],
                       exact=None, default_T=1.0)
    disc = discretize(spec, 5)
    p = disc.grid.p1d
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    u0 = disc.initial()
    reaction = lambda v, t: disc.reaction(v.reshape(1, p, p), t).ravel()
    gaps = []
    for k in (0.08, 0.04, 0.02):
        plan = build_plan(ETDRK4P22, disc, k)
        gap = np.max(np.abs(etdrk4p22_step(plan, u0, 0.0).ravel()
                            - exact_etdrk4_reference_step(a_dense, u0.ravel(), 0.0, k, reaction)))
        gaps.append(gap)
    for ratio in (gaps[0] / gaps[1], gaps[1] / gaps[2]):
        assert 32.0 * 0.9 <= ratio <= 32.0 * 1.1


def test_pade_step_reference_gap_preasymptotic_regime():
    # stiffer operator: ratios below 32 but growing toward it (19.6, 24.8)
    disc = discretize(make_problem("enzyme"), 5)
    p = disc.grid.p1d
    a_dense = dense_full_operator(disc.grid, disc.spec.diffusion, 0)
    u0 = disc.initial()
    reaction = lambda v, t: disc.reaction(v.reshape(1, p, p), t).ravel()
    gaps = []
    for k in (0.02, 0.01, 0.005):
        plan = build_plan(ETDRK4P22, disc, k)
        gaps.append(np.max(np.abs(
            etdrk4p22_step(plan, u0, 0.0).ravel()
            - exact_etdrk4_reference_step(a_dense, u0.ravel(), 0.0, k, reaction))))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    assert 16.0 < r1 < r2 < 32.0


# ---- integration driver ----

def test_integrate_equals_manual_steps():
    # every one-step scheme, alone and after presmoothing steps, bit for bit;
    # the split steps carry their transformed state through one SplitWork,
    # as integrate's do
    disc = discretize(make_problem("enzyme"), 5)
    k = 0.25
    smooth_plan = build_plan(SMOOTHER_ONLY, disc, k)
    for scheme, step_fn, smoothing in ((ETDRK4P22IF, etdrk4p22if_step, 0),
                                       (ETDRK4P22, etdrk4p22_step, 0),
                                       (SMOOTHER_ONLY, smoother_step, 0),
                                       (ETDRK4P22IF, etdrk4p22if_step, 2),
                                       (SMOOTHER_ONLY, smoother_step, 2)):
        got = integrate(disc, scheme, k, 1.0, smoothing_steps=smoothing)
        plan = build_plan(scheme, disc, k)
        if scheme == ETDRK4P22IF:
            step_fn = partial(step_fn, work=SplitWork(plan))
        u = disc.initial()
        for step in range(4):
            if step < smoothing:
                u = smoother_step(smooth_plan, u, step * k)
            else:
                u = step_fn(plan, u, step * k)
        assert np.array_equal(got, u), (scheme, smoothing)


@pytest.fixture
def parity_plans(monkeypatch):
    """Split plans built from here on run in the even/odd basis, two blocks per map, whatever p."""
    monkeypatch.setattr(steppers, "axis_solver",
                        lambda *args: replace(axis_solver(*args), parity=True))


@pytest.mark.parametrize("name", ["enzyme", "brusselator"])
@pytest.mark.parametrize("smoothing", [0, 2])
def test_carried_split_state_matches_grid_value_steps(parity_plans, name, smoothing):
    # starting each step from the kept transform in place of fwd(u) changes
    # the result by rounding only
    disc = discretize(make_problem(name), 9)
    k = 0.05
    got = integrate(disc, ETDRK4P22IF, k, 4 * k, smoothing_steps=smoothing)
    plan, smooth_plan = build_plan(ETDRK4P22IF, disc, k), build_plan(SMOOTHER_ONLY, disc, k)
    u = disc.initial()
    for step in range(4):
        if step < smoothing:
            u = smoother_step(smooth_plan, u, step * k)
        else:
            u = etdrk4p22if_step(plan, u, step * k)
    assert np.max(np.abs(got - u)) <= 1e-13 * np.max(np.abs(u))


@pytest.mark.parametrize("name", ["enzyme", "brusselator"])
def test_split_step_transform_count(monkeypatch, parity_plans, name):
    # nine 2-D transforms from grid values, eight from the carried state
    calls = []

    def counting(method):
        original = getattr(AxisSolver, method)

        def wrapper(self, *args, **kwargs):
            calls.append(method)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AxisSolver, method, wrapper)

    counting("forward")
    counting("inverse")
    disc = discretize(make_problem(name), 5)
    per_step = []

    def count_step(step, t, u):
        per_step.append((calls.count("forward"), calls.count("inverse")))
        calls.clear()

    for smoothing, want in ((0, [(5, 4), (4, 4), (4, 4), (4, 4)]),
                            (2, [(0, 0), (0, 0), (5, 4), (4, 4)])):
        per_step.clear()
        integrate(disc, ETDRK4P22IF, 0.05, 0.2, smoothing_steps=smoothing,
                  snapshot_every=1, snapshot_cb=count_step)
        assert per_step == want, smoothing
    # a step starts from the kept transform only given the run's SplitWork
    # and the very array the previous step returned
    plan = build_plan(ETDRK4P22IF, disc, 0.05)
    work = SplitWork(plan)

    def counted_step(u, w):
        calls.clear()
        out = etdrk4p22if_step(plan, u, 0.0, w)
        return out, (calls.count("forward"), calls.count("inverse"))

    u, counts = counted_step(disc.initial(), work)
    assert counts == (5, 4)
    assert counted_step(u, None)[1] == (5, 4)
    u_next, counts = counted_step(u, work)
    assert counts == (4, 4)
    assert counted_step(u_next.copy(), work)[1] == (5, 4)


@pytest.mark.parametrize("basis", ["grid space", "even/odd"])
def test_split_step_writes_into_no_input_or_earlier_state(request, basis):
    # in place transforms and maps write only into the run's buffers: a step
    # leaves the u it is given alone, whether it starts from the kept
    # transform or not, and never writes into an array an earlier step
    # returned, which callers keep as snapshots.  Inputs and results are
    # made read-only, so a write into one raises
    if basis == "even/odd":
        request.getfixturevalue("parity_plans")
    disc = discretize(make_problem("brusselator"), 7)
    k = 0.05
    plan = build_plan(ETDRK4P22IF, disc, k)
    assert {s.parity for s in plan.solvers.values()} == {basis == "even/odd"}
    work = SplitWork(plan)
    u = disc.initial()
    kept = []
    for step in range(6):
        if step == 3:
            u = u.copy()  # not the array the last step returned: transformed afresh
        u.flags.writeable = False
        kept.append((u, u.copy()))
        u = etdrk4p22if_step(plan, u, step * k, work)
        assert not any(np.shares_memory(u, f) for f in work.fields)
    kept.append((u, u.copy()))
    for got, want in kept:
        assert np.array_equal(got, want)
    assert all(not np.shares_memory(a, b) for (a, _), (b, _) in zip(kept, kept[1:]))


@pytest.mark.parametrize("name,m", [("model_dirichlet", 9), ("brusselator", 7)])
def test_one_and_two_block_split_steps_match_dense_solves(name, m):
    # the grid picks grid space, where each map is one dense matrix; the
    # same plan stepped in the even/odd basis, two blocks per map, gives the
    # states of the 22-solve sequence on dense Kronecker solves to rounding
    disc = discretize(make_problem(name), m)
    k = 0.05
    plan = build_plan(ETDRK4P22IF, disc, k)
    assert not any(s.parity for s in plan.solvers.values())
    parity_plan = replace(plan, solvers={pole: replace(s, parity=True)
                                         for pole, s in plan.solvers.items()})
    solve_x, solve_y = dense_axis_solvers(disc.grid, disc.spec.diffusion, k)
    dense = disc.initial()
    for step in range(4):
        dense = etdrk4p22if_kernel(dense, step * k, k, disc.reaction, solve_x, solve_y)
    for p in (plan, parity_plan):
        u, work = disc.initial(), SplitWork(p)
        for step in range(4):
            u = etdrk4p22if_step(p, u, step * k, work)
        assert np.max(np.abs(u - dense)) <= 1e-13 * np.max(np.abs(dense)), p is plan


def test_split_plans_on_one_grid_share_a_read_only_basis():
    # two equal grids, two step sizes: one basis, which no plan can change,
    # and a run's grid-space matrices, which no step can change
    disc, again = (discretize(make_problem("brusselator"), 7) for _ in range(2))
    assert disc.grid == again.grid and disc.grid is not again.grid
    plan = build_plan(ETDRK4P22IF, disc, 0.05)
    solvers = [*plan.solvers.values(), *build_plan(ETDRK4P22IF, again, 0.1).solvers.values()]
    assert {s.parity for s in solvers} == {False}
    with pytest.raises(AttributeError):
        solvers[0].parity = True
    matrices = [block for m in SplitWork(plan).maps for block in m.blocks]
    assert len(matrices) == 10
    for a in matrices:
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_split_work_serves_one_plan():
    # a SplitWork steps its own plan as a throwaway one does, and rejects
    # any other plan, even an equal one
    disc = discretize(make_problem("brusselator"), 5)
    u = disc.initial()
    plan = build_plan(ETDRK4P22IF, disc, 0.05)
    work = SplitWork(plan)
    assert np.array_equal(etdrk4p22if_step(plan, u, 0.0, work),
                          etdrk4p22if_step(plan, u, 0.0))
    for other in (build_plan(ETDRK4P22IF, disc, 0.1), build_plan(ETDRK4P22IF, disc, 0.05)):
        with pytest.raises(ValidationError, match="SplitWork"):
            etdrk4p22if_step(other, u, 0.0, work)


@pytest.mark.parametrize("scheme", [ETDRK4P22IF, SBDF4])
def test_runs_from_one_plan_keep_their_own_state(scheme):
    # each start(plan) is a run of its own: two runs stepped alternately
    # give, bit for bit, the states they give stepped one after the other
    disc = discretize(make_problem("brusselator"), 5)
    k = 0.05
    plan = build_plan(scheme, disc, k)
    start = scheme_entry(scheme)[2]
    u0 = disc.initial()
    starts = (u0, 0.5 * u0)

    def run_alone(u):
        step, states = start(plan), []
        for i in range(6):
            u = step(u, i * k)
            states.append(u)
        return states

    alone = [run_alone(u) for u in starts]
    steps, states = (start(plan), start(plan)), ([], [])
    us = list(starts)
    for i in range(6):
        for j in (0, 1):
            us[j] = steps[j](us[j], i * k)
            states[j].append(us[j])
    for got, want in zip(states, alone):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not np.array_equal(alone[0][-1], alone[1][-1])


@pytest.mark.parametrize("name", ["enzyme", "brusselator"])
def test_split_step_axis_map_budget(monkeypatch, parity_plans, name):
    # the four stage equations apply fifteen axis maps per step, and those
    # are the step's only applications of an axis operator; counting starts
    # once the run's SplitWork has built its maps
    calls = []
    original, made = AxisMap.__call__, SplitWork.__init__

    def counting(self, *args, **kwargs):
        calls.append(self.axis)
        return original(self, *args, **kwargs)

    def make_work(self, plan):
        made(self, plan)
        calls.clear()

    monkeypatch.setattr(AxisMap, "__call__", counting)
    monkeypatch.setattr(SplitWork, "__init__", make_work)
    per_step = []

    def count_step(step, t, u):
        per_step.append((calls.count(AXIS_X), calls.count(AXIS_Y)))
        calls.clear()

    integrate(discretize(make_problem(name), 5), ETDRK4P22IF, 0.05, 0.2,
              snapshot_every=1, snapshot_cb=count_step)
    assert per_step == [(9, 6)] * 4


def test_split_run_states_share_no_memory():
    # the run's buffers never leak into a returned state: every snapshot is
    # its own array and stays equal to a run stopped at its time, and a
    # later run leaves an earlier result alone
    disc = discretize(make_problem("brusselator"), 6)
    k = 0.05
    snaps = []
    final = integrate(disc, ETDRK4P22IF, k, 4 * k, snapshot_every=1,
                      snapshot_cb=lambda step, t, u: snaps.append(u))
    assert len(snaps) == 4 and snaps[-1].base is final
    for i, u in enumerate(snaps):
        assert all(not np.shares_memory(u, v) for v in snaps[i + 1:])
        assert np.array_equal(u, integrate(disc, ETDRK4P22IF, k, (i + 1) * k))
    kept = final.copy()
    integrate(disc, ETDRK4P22IF, k, 4 * k, smoothing_steps=1)
    assert np.array_equal(final, kept)


def test_scheme_table_resolves_functions_per_call(monkeypatch):
    # integrate reaches plans and steps through the module's names at call
    # time, so a wrapper installed on them (as a tracer does) sees every call
    calls = []

    def counting(name):
        original = getattr(steppers, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(steppers, name, wrapper)

    for name in ("build_plan", "etdrk4p22if_step", "smoother_step", "sbdf1_step"):
        counting(name)
    disc = discretize(make_problem("enzyme"), 4)
    integrate(disc, ETDRK4P22IF, 0.25, 1.0, smoothing_steps=1)
    assert calls == ["build_plan", "build_plan", "smoother_step"] + ["etdrk4p22if_step"] * 3
    calls.clear()
    integrate(disc, SBDF4, 0.25, 1.0)
    assert calls == ["build_plan"] + ["sbdf1_step"] * (3 * steppers.SBDF_STARTUP_SUBSTEPS)


def test_scheme_entry_is_the_one_name_check():
    disc = discretize(make_problem("enzyme"), 4)
    for scheme in SCHEMES:
        _, systems, start = scheme_entry(scheme)
        plan = build_plan(scheme, disc, 0.1)
        assert set(systems) == set(plan.solvers)
        assert callable(start(plan))
    # sbdf1, the sbdf4 startup substep, is no scheme of its own
    for call in (lambda: scheme_entry("sbdf1"), lambda: scheme_entry("rk45"),
                 lambda: build_plan("sbdf1", disc, 0.1),
                 lambda: integrate(disc, "sbdf1", 0.25, 1.0)):
        with pytest.raises(ValidationError, match="unknown scheme"):
            call()


def test_integrate_t_zero_returns_initial():
    # with or without presmoothing steps, which T = 0 accepts in any number
    disc = discretize(make_problem("brusselator"), 4)
    for smoothing in (0, 3):
        np.testing.assert_array_equal(
            integrate(disc, ETDRK4P22IF, 0.1, 0.0, smoothing_steps=smoothing), disc.initial())


def test_integrate_t_zero_still_validates_scheme_and_k():
    disc = discretize(make_problem("enzyme"), 4)
    with pytest.raises(ValidationError):
        integrate(disc, "rk45", 0.1, 0.0)
    for k in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValidationError):
            integrate(disc, ETDRK4P22IF, k, 0.0)


@pytest.mark.parametrize("k,T", [(0.1, math.nan), (0.1, math.inf), (0.1, -math.inf),
                                 (math.nan, 1.0), (math.inf, 1.0)])
def test_integrate_rejects_non_finite_k_and_T(k, T):
    disc = discretize(make_problem("enzyme"), 4)
    for scheme in (ETDRK4P22IF, SBDF4):
        with pytest.raises(ValidationError):
            integrate(disc, scheme, k, T)


@pytest.mark.parametrize("scheme", [ETDRK4P22, ETDRK4P22IF])
def test_presmoothing_every_step_builds_no_main_plan(monkeypatch, scheme):
    # with smoothing_steps == T/k the main scheme takes no step, so its plan
    # is never built nor its run started, and the field is smoother-only's
    built = []
    monkeypatch.setattr(steppers, "factorize_full",
                        lambda *a, real=steppers.factorize_full: built.append(a) or real(*a))
    made = SplitWork.__init__

    def make_work(self, plan):
        built.append(plan)
        made(self, plan)

    monkeypatch.setattr(SplitWork, "__init__", make_work)
    disc = discretize(make_problem("enzyme_nonsmooth"), 9)
    got = integrate(disc, scheme, 0.05, 0.15, smoothing_steps=3)
    assert built == []
    assert np.array_equal(got, integrate(disc, SMOOTHER_ONLY, 0.05, 0.15))
    integrate(disc, scheme, 0.05, 0.15, smoothing_steps=2)
    assert built


def test_integrate_validations():
    disc = discretize(make_problem("enzyme"), 4)
    with pytest.raises(ValidationError):
        integrate(disc, ETDRK4P22IF, 0.3, 1.0)  # T/k not integral
    with pytest.raises(ValidationError):
        integrate(disc, ETDRK4P22IF, 0.25, 1.0, smoothing_steps=5)
    with pytest.raises(ValidationError):
        integrate(disc, SBDF4, 0.25, 1.0, smoothing_steps=1)
    with pytest.raises(ValidationError):
        integrate(disc, "rk45", 0.25, 1.0)


def test_integrate_divergence_detection():
    spec = ProblemSpec(name="explosive", a=0.0, b=1.0, bc=DIRICHLET, species=1,
                       diffusion=(1.0,),
                       reaction=lambda u, t: np.exp(u * 1e4),
                       initial=lambda x, y: np.ones_like(x)[np.newaxis],
                       exact=None, default_T=1.0)
    disc = discretize(spec, 4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
        integrate(disc, ETDRK4P22IF, 0.5, 2.0)


def test_threaded_divergence_reported_once_without_warnings(monkeypatch):
    # a split run on two threads overflows on both; the worker runs in the
    # caller's np.errstate, so only the finite check speaks
    monkeypatch.setattr(steppers, "axis_solver",
                        lambda *args: replace(axis_solver(*args), parity=True, threaded=True))
    spec = ProblemSpec(name="explosive", a=0.0, b=1.0, bc=DIRICHLET, species=1,
                       diffusion=(1.0,), reaction=lambda u, t: np.exp(u * 1e4),
                       initial=lambda x, y: np.ones_like(x)[np.newaxis],
                       exact=None, default_T=1.0)
    disc = discretize(spec, 300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError, match="after step 1 "):
            integrate(disc, ETDRK4P22IF, 0.5, 2.0)
    assert all(s.threaded for s in build_plan(ETDRK4P22IF, disc, 0.5).solvers.values())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


BAD_REACTIONS = {
    "row": (lambda u, t: u[0, 0], ShapeError),
    "float": (lambda u, t: 1.0, ShapeError),
    "complex": (lambda u, t: -u + 0j, ValidationError),
}


REACTION_PATHS = ["split-grid-space", "split-even-odd", SBDF4, SMOOTHER_ONLY, ETDRK4P22]


def _reaction_path(monkeypatch, path):
    """The scheme that runs path, with the split step's even/odd basis forced for that path."""
    if path == "split-even-odd":
        monkeypatch.setattr(steppers, "axis_solver",
                            lambda *args: replace(axis_solver(*args), parity=True))
    return ETDRK4P22IF if path.startswith("split") else path


@pytest.mark.parametrize("bad", list(BAD_REACTIONS))
@pytest.mark.parametrize("path", REACTION_PATHS)
def test_every_scheme_rejects_a_bad_reaction_alike(monkeypatch, path, bad):
    # DiscretizedProblem.reaction checks what the user's function returns,
    # so every path answers a wrong shape or dtype with one error class,
    # before any state comes back
    reaction, error = BAD_REACTIONS[bad]
    scheme = _reaction_path(monkeypatch, path)
    disc = discretize(replace(make_problem("model_dirichlet"), reaction=reaction), 15)
    with pytest.raises(error, match="reaction of 'model_dirichlet' returned"):
        integrate(disc, scheme, 0.1, 0.4)


@pytest.mark.parametrize("path", REACTION_PATHS)
def test_a_reaction_may_return_u_itself(monkeypatch, path):
    # the split step copies the reaction into its own buffers and the other
    # schemes read it before u changes, so a view of u is a valid return
    scheme = _reaction_path(monkeypatch, path)
    spec = make_problem("model_dirichlet")
    got = [integrate(discretize(replace(spec, reaction=reaction), 15), scheme, 0.1, 0.4)
           for reaction in (lambda u, t: u, lambda u, t: u.copy())]
    assert np.array_equal(*got)


def test_integrate_snapshot_callback():
    disc = discretize(make_problem("enzyme"), 4)
    seen = []
    integrate(disc, ETDRK4P22IF, 0.25, 1.0, snapshot_every=2,
              snapshot_cb=lambda step, t, u: seen.append((step, t)))
    assert [s for s, _ in seen] == [2, 4]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_snapshots_are_read_only(scheme):
    # a callback cannot change the state a run carries on from
    def halve(step, t, u):
        u *= 0.5

    disc = discretize(make_problem("enzyme"), 4)
    with pytest.raises(ValueError, match="read-only"):
        integrate(disc, scheme, 0.25, 1.0, snapshot_every=1, snapshot_cb=halve)


def test_integrate_interrupt_names_step_and_t():
    # Ctrl-C inside the loop (here in the snapshot callback) leaves it as a
    # KeyboardInterrupt naming the last step done and its t
    def interrupt(step, t, u):
        if step == 3:
            raise KeyboardInterrupt

    disc = discretize(make_problem("enzyme"), 4)
    with pytest.raises(KeyboardInterrupt, match=r"^interrupted after step 3 \(t = 0\.75\)$"):
        integrate(disc, ETDRK4P22IF, 0.25, 2.0, snapshot_every=1, snapshot_cb=interrupt)


def test_smoothing_keeps_nonsmooth_solution_in_bounds():
    disc = discretize(make_problem("enzyme_nonsmooth"), 19)
    u = integrate(disc, ETDRK4P22IF, 0.1, 1.0, smoothing_steps=3)
    assert u.min() >= -1e-6 and u.max() <= 1.0 + 1e-6
