"""Fourth-order exponential time differencing with dimensional splitting
for 2-D reaction-diffusion systems, plus a convergence benchmark harness."""

from .analysis import ConvergenceReport, linf_error, observed_order, run_study
from .errors import DivergenceError, ShapeError, SingularSystemError, ValidationError
from .linsolve import FullOperator, assemble_full
from .problems import (
    PROBLEM_NAMES,
    DiscretizedProblem,
    ProblemSpec,
    discretize,
    make_problem,
)
from .spatial import (
    AXIS_X,
    AXIS_Y,
    DIRICHLET,
    NEUMANN,
    Grid2D,
    axis_matrix,
)
from .steppers import (
    ETDRK4P22,
    ETDRK4P22IF,
    PADE,
    SBDF4,
    SCHEMES,
    SMOOTHER,
    SMOOTHER_ONLY,
    StepPlan,
    build_plan,
    etdrk4p22_step,
    etdrk4p22if_step,
    integrate,
    sbdf1_step,
    smoother_step,
)

__version__ = "0.1.0"
