import math

import numpy as np
import pytest

from etdsplit.errors import ShapeError, ValidationError
from etdsplit.problems import (
    PROBLEM_NAMES,
    discretize,
    eval_exact,
    eval_initial,
    eval_reaction,
    interior_count_for_h,
    make_problem,
)
from etdsplit.spatial import AXIS_X, AXIS_Y, DIRICHLET, NEUMANN, Grid2D
from helpers import apply_axis


def test_registry_contents():
    assert set(PROBLEM_NAMES) == {"model_dirichlet", "model_neumann", "enzyme",
                                  "enzyme_nonsmooth", "brusselator"}
    with pytest.raises(ValidationError):
        make_problem("gray_scott")


def test_model_problem_parameters():
    spec = make_problem("model_dirichlet")
    assert (spec.a, spec.b, spec.bc) == (-np.pi / 2, np.pi / 2, DIRICHLET)
    spec = make_problem("model_neumann")
    assert (spec.a, spec.b, spec.bc) == (-np.pi, np.pi, NEUMANN)
    spec = make_problem("enzyme")
    assert spec.diffusion == (0.25,) and spec.bc == DIRICHLET
    spec = make_problem("enzyme_nonsmooth")
    assert spec.diffusion == (1.0,)
    spec = make_problem("brusselator")
    assert spec.species == 2 and spec.diffusion == (2e-3, 2e-3)
    assert spec.bc == NEUMANN and spec.default_T == 2.0


def test_exact_value_at_origin():
    # grid with m+1 even contains the node (0, 0) where cos*cos = 1
    spec = make_problem("model_dirichlet")
    disc = discretize(spec, 9)
    u = disc.exact(1.0)
    assert u.max() == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert math.exp(-3.0) == pytest.approx(4.9787e-2, rel=1e-4)


def test_model_reaction_is_negation():
    spec = make_problem("model_neumann")
    rng = np.random.default_rng(0)
    u = rng.normal(size=(1, 5, 5))
    np.testing.assert_array_equal(eval_reaction(spec, u, 0.3), -u)


def test_enzyme_reaction_values():
    spec = make_problem("enzyme")
    u = np.full((1, 3, 3), 1.0)
    np.testing.assert_allclose(eval_reaction(spec, u, 0.0), -0.5)
    z = np.zeros((1, 3, 3))
    np.testing.assert_array_equal(eval_reaction(spec, z, 0.0), z)
    # |F| bounded by 1/2 on [0, 1]
    grid_vals = np.linspace(0.0, 1.0, 11).reshape(1, 11, 1) * np.ones((1, 11, 11))
    f = eval_reaction(spec, grid_vals, 0.0)
    assert np.max(np.abs(f)) <= 0.5


def test_brusselator_reaction_values():
    spec = make_problem("brusselator")
    w = np.ones((2, 3, 3))
    f = eval_reaction(spec, w, 0.0)
    np.testing.assert_allclose(f[0], 1.0 + 1.0 - 4.4)   # alpha + u^2 v - (beta+1) u
    np.testing.assert_allclose(f[1], 3.4 - 1.0)         # beta u - u^2 v
    assert f[0][0, 0] == pytest.approx(-2.4)
    assert f[1][0, 0] == pytest.approx(2.4)


def test_reaction_shape_validation():
    spec = make_problem("brusselator")
    with pytest.raises(ShapeError):
        eval_reaction(spec, np.zeros((1, 3, 3)), 0.0)


def test_initial_values():
    spec = make_problem("model_neumann")
    grid = Grid2D(spec.a, spec.b, 9, spec.bc)  # m+1 = 10 even: node at 0
    u0 = eval_initial(spec, grid)
    assert u0.max() == pytest.approx(1.0, rel=1e-12)

    bruss = make_problem("brusselator")
    grid = Grid2D(bruss.a, bruss.b, 3, bruss.bc)
    w0 = eval_initial(bruss, grid)
    x, y = grid.meshgrid()
    np.testing.assert_allclose(w0[0], 0.5 + y)
    np.testing.assert_allclose(w0[1], 1.0 + 5.0 * x)


@pytest.mark.parametrize("name", ["model_dirichlet", "model_neumann"])
def test_exact_matches_initial_at_t0(name):
    disc = discretize(make_problem(name), 7)
    np.testing.assert_allclose(disc.exact(0.0), disc.initial(), rtol=1e-14)


@pytest.mark.parametrize("name", ["enzyme", "enzyme_nonsmooth", "brusselator"])
def test_exact_absent_when_unknown(name):
    disc = discretize(make_problem(name), 4)
    assert disc.exact(1.0) is None
    assert eval_exact(make_problem(name), disc.grid, 0.5) is None


def test_evaluators_deterministic():
    spec = make_problem("brusselator")
    rng = np.random.default_rng(5)
    w = rng.normal(size=(2, 4, 4))
    assert np.array_equal(eval_reaction(spec, w, 0.1), eval_reaction(spec, w, 0.1))


@pytest.mark.parametrize("name", ["model_dirichlet", "model_neumann"])
def test_exact_solution_discrete_residual_fourth_order(name):
    # du/dt + A u - F = (A - 2 I) u_exact shrinks ~16x per halving away from
    # the walls (Dirichlet edge rows are locally third order, max ~8x)
    spec = make_problem(name)
    t = 0.3
    res_int = []
    for m in (15, 31):
        disc = discretize(spec, m)
        u = disc.exact(t)
        grid, d = disc.grid, disc.spec.diffusion
        au = apply_axis(grid, d, u, AXIS_X, 0) + apply_axis(grid, d, u, AXIS_Y, 0)
        residual = np.abs(-3.0 * u[0] + au + u[0])
        res_int.append(np.max(residual[1:-1, 1:-1]))
    assert 16.0 * 0.8 <= res_int[0] / res_int[1] <= 16.0 * 1.2


def test_interior_count_for_h():
    spec = make_problem("enzyme")
    assert interior_count_for_h(spec, 0.05) == 19
    spec = make_problem("model_dirichlet")
    assert interior_count_for_h(spec, 0.0785) == 39
    with pytest.raises(ValidationError):
        interior_count_for_h(spec, 0.0)
    with pytest.raises(ValidationError):
        interior_count_for_h(spec, 2.0)  # too coarse, m < 3


def test_discretize_binds_grid():
    disc = discretize(make_problem("enzyme"), 19)
    assert disc.grid.h == pytest.approx(0.05)
    assert disc.grid.p1d == 19
    assert disc.initial().shape == (1, 19, 19)
