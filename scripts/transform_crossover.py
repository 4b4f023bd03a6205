"""Time one warm split step with one-block, two-block and threaded two-block maps, per grid size.

    python3 scripts/transform_crossover.py [--repeats 5] [--p-min 79] \
        [--p-max 239] [--p-step 8] [--parent DIR] [--out FILE]

For each boundary kind, one and two species, and each p in the range, this
builds the split plan on a grid of p unknowns per axis and times
``etdrk4p22if_step`` as a run makes it, carrying its state through one
``SplitWork``, in three paths switched by the ``parity`` and ``threaded``
fields of the plan's axis solvers: in grid space (every axis map one dense
p x p block), in its even/odd basis (every map an even and an odd
half-size block, every 2-D transform a butterfly), and in that basis with
each map's blocks and each butterfly's halves on two threads.  With
``--parent``, a fourth path steps that checkout's own package, loaded in
this process under a name of its own, on the same grid.  One species runs
the model problem of its boundary kind, two the Brusselator.  Each repeat
starts every path's run afresh, with new buffers, takes two warm steps and
times a loop of steps of about 30 ms; the paths take turns, their order
reversed every other repeat.  Where a run's arrays land in memory moves
its step time: two loaded copies of one code, each stepping one run, read
11% apart at p=143, and 0.2% apart over twenty fresh runs.  The record
gives each path's milliseconds per step in every repeat, with their min and
median; ratios of two paths as the median over repeats of the ratio within
a repeat, which a burst of load on the shared host moves less than a ratio
of medians; the path the package takes at that p and, with a parent, its
ratio to the parent's; for each case the largest p up to which one
block won at every swept p and the smallest p from which threads won at
every swept p; the ``GRID_SPACE_MAX_P`` and ``THREAD_MIN_P`` the package
uses, and the core count, CPU and BLAS it ran on.  BLAS runs on one
thread, as in the benchmark: the variables below are set before numpy is
imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))

import numpy as np  # noqa: E402
from invoke import environment  # noqa: E402

from etdsplit.linsolve import GRID_SPACE_MAX_P, THREAD_MIN_P  # noqa: E402
from etdsplit.problems import discretize, make_problem  # noqa: E402
from etdsplit.spatial import DIRICHLET, NEUMANN  # noqa: E402
from etdsplit.steppers import ETDRK4P22IF, SplitWork, build_plan, etdrk4p22if_step  # noqa: E402
from step_pairs import load_module  # noqa: E402

TARGET_S = 0.03  # length of one timed loop
K = 0.01
PATHS = {"one_block": (False, False), "two_blocks": (True, False),
         "threaded": (True, True)}  # (parity, threaded)


def problem(bc: str, species: int):
    spec = make_problem("brusselator" if species == 2 else
                        "model_dirichlet" if bc == DIRICHLET else "model_neumann")
    return replace(spec, bc=bc)


def package_path(p: int) -> str:
    """The path the package takes on p unknowns per axis."""
    if p <= GRID_SPACE_MAX_P:
        return "one_block"
    return "two_blocks" if p < THREAD_MIN_P else "threaded"


def time_paths(bc: str, species: int, p: int, repeats: int, parent=None) -> dict:
    m = p if bc == DIRICHLET else p - 2
    disc = discretize(problem(bc, species), m)
    plan = build_plan(ETDRK4P22IF, disc, K)
    starts = {}  # per path, a function that starts a run: its step(u, t) and u
    for name, (parity, threaded) in PATHS.items():
        path_plan = replace(plan, solvers={pole: replace(s, parity=parity, threaded=threaded)
                                           for pole, s in plan.solvers.items()})
        starts[name] = lambda path_plan=path_plan: (
            partial(etdrk4p22if_step, path_plan, work=SplitWork(path_plan)), disc.initial())
    if parent is not None:
        spec = replace(parent.make_problem(problem(bc, species).name), bc=bc)
        parent_disc = parent.discretize(spec, m)
        parent_plan = parent.build_plan(ETDRK4P22IF, parent_disc, K)
        starts["parent"] = lambda: (parent.steppers.scheme_entry(ETDRK4P22IF)[2](parent_plan),
                                    parent_disc.initial())

    def loop(run, steps):
        step, u = run
        t0 = time.perf_counter()
        for _ in range(steps):
            u = step(u, 0.0)
        seconds = (time.perf_counter() - t0) / steps
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite state on {bc} p={p} species={species}")
        run[1] = u
        return seconds

    steps, samples = {}, {name: [] for name in starts}
    for index in range(repeats):
        order = list(starts) if index % 2 == 0 else list(starts)[::-1]
        runs = {name: list(starts[name]()) for name in order}  # fresh buffers every repeat
        for name in order:  # two warm steps; the first repeat sizes loops to about TARGET_S
            warm = loop(runs[name], 2)
            steps.setdefault(name, max(1, int(TARGET_S / warm)))
        for name in order:
            samples[name].append(loop(runs[name], steps[name]) * 1e3)
    row = {"bc": bc, "species": species, "p": p, "package_path": package_path(p)}
    for name, ms in samples.items():
        row[name] = {"min_ms": min(ms), "median_ms": statistics.median(ms),
                     "ms": [round(x, 4) for x in ms]}

    def ratio(top, bottom):  # the median over repeats of the paths' paired ratio
        return statistics.median(a / b for a, b in zip(samples[top], samples[bottom]))

    row["two_over_one"] = ratio("two_blocks", "one_block")
    row["threaded_over_two"] = ratio("threaded", "two_blocks")
    if parent is not None:
        row["package_over_parent"] = ratio(row["package_path"], "parent")
    return row


def one_block_wins_up_to(rows: list) -> dict:
    """Per case, the largest swept p up to which one block won at every p."""
    out = {}
    for bc, species in sorted({(row["bc"], row["species"]) for row in rows}):
        best = None
        for row in sorted((r for r in rows if (r["bc"], r["species"]) == (bc, species)),
                          key=lambda r: r["p"]):
            if row["two_over_one"] <= 1.0:
                break
            best = row["p"]
        out[f"{bc}-{species}"] = best
    return out


def threads_win_from(rows: list) -> dict:
    """Per case, the smallest swept p from which threads won at every p."""
    out = {}
    for bc, species in sorted({(row["bc"], row["species"]) for row in rows}):
        best = None
        for row in sorted((r for r in rows if (r["bc"], r["species"]) == (bc, species)),
                          key=lambda r: -r["p"]):
            if row["threaded_over_two"] >= 1.0:
                break
            best = row["p"]
        out[f"{bc}-{species}"] = best
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--p-min", type=int, default=79)
    parser.add_argument("--p-max", type=int, default=239)
    parser.add_argument("--p-step", type=int, default=8)
    parser.add_argument("--parent", type=Path, default=None,
                        help="a checkout whose package is timed as a fourth path")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("need --repeats >= 5")
    if args.p_min < 5:
        parser.error("need --p-min >= 5")

    parent = None
    if args.parent is not None:
        parent = load_module("etdsplit_parent", args.parent.resolve() / "src" / "etdsplit"
                             / "__init__.py", package=True)
    rows = []
    for p in range(args.p_min, args.p_max + 1, args.p_step):
        for bc in (DIRICHLET, NEUMANN):
            for species in (1, 2):
                row = time_paths(bc, species, p, args.repeats, parent)
                rows.append(row)
                print(f"{bc:9s} species={species} p={p:4d}  one block "
                      f"{row['one_block']['median_ms']:8.3f} ms  two blocks "
                      f"{row['two_blocks']['median_ms']:8.3f} ms  threaded "
                      f"{row['threaded']['median_ms']:8.3f} ms  ratios "
                      f"{row['two_over_one']:.2f} {row['threaded_over_two']:.2f}"
                      + (f"  package/parent {row['package_over_parent']:.3f}"
                         if parent is not None else ""), flush=True)
    record = {"environment": {**environment(), "affinity_cores": len(os.sched_getaffinity(0))},
              "repeats": args.repeats, "k": K, "grid_space_max_p": GRID_SPACE_MAX_P,
              "thread_min_p": THREAD_MIN_P,
              "parent": None if args.parent is None else str(args.parent.resolve()),
              "one_block_wins_up_to": one_block_wins_up_to(rows),
              "threads_win_from": threads_win_from(rows), "rows": rows}
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
