"""Spans around the calls into each layer of etdsplit, recorded from outside.

The benchmark never edits the package.  It replaces public names in the
namespace that calls them (``etdsplit.cli.integrate``,
``etdsplit.steppers.solve_axis_system``, ...) with wrappers that record
spans, and it reads everything else off the objects those calls return.

Two recorders share the wrapping:

* ``CoarseTimer`` -- the untraced pass.  It times only ``discretize``,
  ``build_plan`` and ``integrate``: a handful of calls per invocation, so
  the end-to-end timings carry no measurable tracing cost.
* ``Tracer`` -- the traced pass.  It records a span (name, start, end,
  parent) for every call into every layer, keeps them in memory, and at the
  end turns them into self times per layer and call counts per pole/axis.

A wrapped name that no longer exists (a later change may delete the banded
path or SuperLU) is skipped and listed as unmeasured; the pass keeps going.
"""

import importlib
import inspect
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

# Layer each wrapped call belongs to; a layer's time is its spans' self time.
LAYERS = (
    "cli.io",
    "analysis.study",
    "problems.discretize",
    "problems.reaction",
    "spatial.assemble",
    "steppers.plan",
    "steppers.driver",
    "steppers.combine",
    "linsolve.factor",
    "linsolve.solve",
)

# (module that calls the name, attribute path inside it, layer).  Each public
# name is wrapped where its caller looks it up, so a call is seen exactly once.
TRACED_SITES = (
    ("etdsplit.cli", "run_study", "analysis.study"),
    ("etdsplit.cli", "discretize", "problems.discretize"),
    ("etdsplit.analysis", "discretize", "problems.discretize"),
    ("etdsplit.cli", "integrate", "steppers.driver"),
    ("etdsplit.analysis", "integrate", "steppers.driver"),
    ("etdsplit.steppers", "sbdf4_integrate", "steppers.driver"),
    ("etdsplit.steppers", "build_plan", "steppers.plan"),
    ("etdsplit.steppers", "etdrk4p22if_step", "steppers.combine"),
    ("etdsplit.steppers", "etdrk4p22_step", "steppers.combine"),
    ("etdsplit.steppers", "smoother_step", "steppers.combine"),
    ("etdsplit.steppers", "sbdf1_step", "steppers.combine"),
    ("etdsplit.problems", "assemble_split", "spatial.assemble"),
    ("etdsplit.steppers", "assemble_full", "spatial.assemble"),
    ("etdsplit.steppers", "factorize_axis", "linsolve.factor"),
    ("etdsplit.steppers", "factorize_full", "linsolve.factor"),
    ("etdsplit.steppers", "solve_axis_system", "linsolve.solve"),
    ("etdsplit.linsolve", "SparseFactorization.solve", "linsolve.solve"),
    ("etdsplit.problems", "DiscretizedProblem.reaction", "problems.reaction"),
)

# The untraced pass: set-up and time-stepping boundaries only.
COARSE_SITES = tuple(site for site in TRACED_SITES
                     if site[1] in ("discretize", "build_plan", "integrate"))

# The pole/axis labels the benchmark's workloads solve with: axis solves are
# "<pole>.<axis>", full-operator solves "<pole>".  Absent labels report 0;
# others (the unsplit and presmoother poles) are printed separately.
SOLVE_LABELS = ("c1.x", "c1.y", "c2.x", "c2.y", "sbdf1", "sbdf4")


def _resolve(module_name, path):
    """(owner object, attribute name, current value) or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def _bound_args(func, args, kwargs):
    try:
        return inspect.signature(func).bind_partial(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def step_count(steppers, scheme, k, T):
    """Time steps one integrate(scheme, k, T) call completes.

    One-step schemes take T/k steps.  SBDF4 takes three startup intervals of
    SBDF_STARTUP_SUBSTEPS first-order substeps, then T/k - 3 main steps;
    every substep is a step (one solve, one reaction evaluation).
    """
    if not T:
        return 0
    n = int(round(T / k))
    if scheme == "sbdf4":
        # 2000 is the scheme's published startup ratio, used should the
        # package stop exposing the constant.
        substeps = getattr(steppers, "SBDF_STARTUP_SUBSTEPS", 2000)
        return 3 * substeps + n - 3
    return n


@dataclass
class IntegrateCall:
    """One integrate call: the steps it took and the field it returned."""

    steps: int
    field: object


class _Recorder:
    """Wrapping shared by both passes: captures integrate calls for the gate.

    Subclasses name their ``sites`` and build wrappers in ``_make_wrapper``.
    Entering installs the wrappers at their call sites; leaving restores the
    originals.  Sites that do not resolve are listed in ``unmeasured``.
    """

    def __init__(self):
        self.integrate_calls = []
        self.unmeasured = []
        self._saved = []
        self._steppers = importlib.import_module("etdsplit.steppers")

    def __enter__(self):
        for module_name, path, layer in self.sites:
            found = _resolve(module_name, path)
            if found is None:
                self.unmeasured.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._make_wrapper(f"{module_name}.{path}", layer, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _note_integrate(self, original, args, kwargs, field):
        bound = _bound_args(original, args, kwargs)
        scheme, k, T = bound.get("scheme"), bound.get("k"), bound.get("T")
        steps = step_count(self._steppers, scheme, k, T) if k else 0
        self.integrate_calls.append(IntegrateCall(steps, field))

    def steps(self):
        return sum(c.steps for c in self.integrate_calls)


class CoarseTimer(_Recorder):
    """Summed seconds per coarse layer; nothing below integrate is wrapped."""

    sites = COARSE_SITES

    def __init__(self):
        super().__init__()
        self.seconds = defaultdict(float)

    def _make_wrapper(self, name, layer, original):
        seconds = self.seconds
        is_driver = layer == "steppers.driver"

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = original(*args, **kwargs)
            seconds[layer] += time.perf_counter() - t0
            if is_driver:
                self._note_integrate(original, args, kwargs, out)
            return out

        return wrapper


class Tracer(_Recorder):
    """Every span into every layer, kept in memory until the end.

    A span is (name, layer, start, end, parent index); parent is -1 for the
    root.  Spans nest strictly because the CLI runs on one thread.
    """

    sites = TRACED_SITES

    def __init__(self):
        super().__init__()
        self.spans = []
        self._stack = []
        self.solve_calls = defaultdict(int)
        self.factor_count = 0
        self.fill_nnz = 0
        self._pole_of = {}  # id(factorization) -> (pole name, weak reference)

    def span(self, name, layer, func, *args, **kwargs):
        """Run func inside a span; the root span is opened this way too."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return func(*args, **kwargs)
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    def _make_wrapper(self, name, layer, original):
        span = self.span
        after = {
            "steppers.driver": self._after_integrate,
            "steppers.plan": self._after_plan,
            "linsolve.factor": self._after_factor,
        }.get(layer)
        if layer == "linsolve.solve":
            signature = inspect.signature(original)
            label = self._axis_label if name.endswith("solve_axis_system") else self._full_label

            def solve_wrapper(*args, **kwargs):
                self.solve_calls[label(signature.bind(*args, **kwargs).arguments)] += 1
                return span(name, layer, original, *args, **kwargs)

            return solve_wrapper

        def wrapper(*args, **kwargs):
            out = span(name, layer, original, *args, **kwargs)
            if after is not None:
                after(name, original, args, kwargs, out)
            return out

        return wrapper

    # Bookkeeping after a call returns; runs outside the callee's span.

    def _after_integrate(self, name, original, args, kwargs, out):
        if not name.endswith("sbdf4_integrate"):
            self._note_integrate(original, args, kwargs, out)

    def _after_plan(self, name, original, args, kwargs, plan):
        facts = list(getattr(plan, "axis_facts", {}).items())
        facts += list(getattr(plan, "full_facts", {}).items())
        for key, fact in facts:
            pole = key[0] if isinstance(key, tuple) else key
            # Weak references: holding the factorizations would keep a
            # finished level's plan alive and inflate the traced run's memory.
            try:
                self._pole_of[id(fact)] = (pole, weakref.ref(fact))
            except TypeError:  # not weak-referenceable: its solves stay unlabelled
                pass

    def _after_factor(self, name, original, args, kwargs, fact):
        self.factor_count += 1
        for lu in getattr(fact, "factors", ()):
            self.fill_nnz += int(getattr(lu, "nnz", 0))

    def _pole(self, fact):
        entry = self._pole_of.get(id(fact))
        return entry[0] if entry is not None and entry[1]() is fact else "unknown"

    def _axis_label(self, arguments):
        return f"{self._pole(arguments.get('fact'))}.{arguments.get('axis')}"

    def _full_label(self, arguments):
        return self._pole(arguments.get("self"))

    def self_times(self):
        """Seconds per layer: each span's duration minus its children's."""
        out = {layer: 0.0 for layer in LAYERS}
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[i]
        return out

    def call_counts(self):
        counts = defaultdict(int)
        for name, layer, *_ in self.spans:
            counts[layer] += 1
        return counts

