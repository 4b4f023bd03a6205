"""Time one warm split step with one-block and with two-block axis maps, per grid size.

    python3 scripts/transform_crossover.py [--repeats 5] [--p-min 79] \
        [--p-max 239] [--p-step 8] [--out FILE]

For each boundary kind, one and two species, and each p in the range, this
builds the split plan on a grid of p unknowns per axis and times
``etdrk4p22if_step`` as a run makes it, carrying its state through one
``SplitWork``, once in grid space (every axis map one dense p x p block)
and once in its even/odd basis (every map an even and an odd half-size
block, every 2-D transform a butterfly), switched by the ``parity`` field
of the plan's axis solvers.  One species runs the model problem of its
boundary kind, two the Brusselator.  Each repeat times a loop of steps of
about 30 ms, after two warm steps, and the two paths alternate repeat by
repeat.  The record gives
each path's milliseconds per step (min and median over repeats), the ratio
of the medians, for each case the largest p up to which one block won at
every swept p, the ``GRID_SPACE_MAX_P`` the package uses, and the core
count, CPU and BLAS it ran on.  BLAS runs on one thread, as in the
benchmark: the variables below are set before numpy is imported.
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
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from invoke import environment  # noqa: E402

from etdsplit.linsolve import GRID_SPACE_MAX_P  # noqa: E402
from etdsplit.problems import discretize, make_problem  # noqa: E402
from etdsplit.spatial import DIRICHLET, NEUMANN  # noqa: E402
from etdsplit.steppers import ETDRK4P22IF, SplitWork, build_plan, etdrk4p22if_step  # noqa: E402

TARGET_S = 0.03  # length of one timed loop
K = 0.01
PATHS = ("one_block", "two_blocks")


def problem(bc: str, species: int):
    spec = make_problem("brusselator" if species == 2 else
                        "model_dirichlet" if bc == DIRICHLET else "model_neumann")
    return replace(spec, bc=bc)


def time_paths(bc: str, species: int, p: int, repeats: int) -> dict:
    disc = discretize(problem(bc, species), p if bc == DIRICHLET else p - 2)
    plan = build_plan(ETDRK4P22IF, disc, K)
    runs = {}
    for name in PATHS:
        path_plan = replace(plan, solvers={pole: replace(s, parity=name == "two_blocks")
                                           for pole, s in plan.solvers.items()})
        runs[name] = [path_plan, SplitWork(path_plan), disc.initial()]

    def loop(name, steps):
        path_plan, work, u = runs[name]
        t0 = time.perf_counter()
        for _ in range(steps):
            u = etdrk4p22if_step(path_plan, u, 0.0, work)
        seconds = (time.perf_counter() - t0) / steps
        if not np.all(np.isfinite(u)):
            raise RuntimeError(f"non-finite state on {bc} p={p} species={species}")
        runs[name][2] = u
        return seconds

    steps = {}
    for name in PATHS:  # warm up and size each loop to about TARGET_S
        steps[name] = max(1, int(TARGET_S / loop(name, 2)))
    samples = {name: [] for name in PATHS}
    for index in range(repeats):
        for name in PATHS if index % 2 == 0 else PATHS[::-1]:
            samples[name].append(loop(name, steps[name]) * 1e3)
    row = {"bc": bc, "species": species, "p": p}
    for name, ms in samples.items():
        row[name] = {"min_ms": min(ms), "median_ms": statistics.median(ms)}
    row["two_over_one"] = row["two_blocks"]["median_ms"] / row["one_block"]["median_ms"]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--p-min", type=int, default=79)
    parser.add_argument("--p-max", type=int, default=239)
    parser.add_argument("--p-step", type=int, default=8)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("need --repeats >= 5")
    if args.p_min < 5:
        parser.error("need --p-min >= 5")

    rows = []
    for p in range(args.p_min, args.p_max + 1, args.p_step):
        for bc in (DIRICHLET, NEUMANN):
            for species in (1, 2):
                row = time_paths(bc, species, p, args.repeats)
                rows.append(row)
                print(f"{bc:9s} species={species} p={p:4d}  one block "
                      f"{row['one_block']['median_ms']:8.3f} ms  two blocks "
                      f"{row['two_blocks']['median_ms']:8.3f} ms  "
                      f"ratio {row['two_over_one']:.2f}", flush=True)
    record = {"environment": {**environment(), "affinity_cores": len(os.sched_getaffinity(0))},
              "repeats": args.repeats, "k": K, "grid_space_max_p": GRID_SPACE_MAX_P,
              "one_block_wins_up_to": one_block_wins_up_to(rows), "rows": rows}
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
