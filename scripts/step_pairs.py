"""Time warm steps of two checkouts in one process, in alternated rounds, and write a BENCH file.

    python3 scripts/step_pairs.py --parent DIR --change DIR \
        --copy DIR --workload split-coupled:1500 --out BENCH_label.json

Three sides are loaded in this one process, each ``src/etdsplit`` under a
module name of its own (``importlib.util.spec_from_file_location`` with
``submodule_search_locations``, so each package's relative imports resolve
within its own copy): the parent, the change, and a second copy of the
change (``--copy``, a directory of its own).
A workload's grid, its problem, scheme, m and k, is read from the parent's
``perfbench/workloads.py``.  Every side builds its plan on that grid,
starts one run and takes WARM_STEPS untimed steps.  Then each round times
one step per side with ``time.perf_counter``, with the garbage collector
off, in an order that cycles through all six orders of the three sides,
so each two sides run in each order equally often.

A round gives two paired ratios of step times: change / parent, the A/B,
and copy / change, the A/A.  Each ratio's median over the rounds comes
with a bootstrap 95% CI (BOOTSTRAP_RESAMPLES resamples of the rounds).
The A/A is the floor, a band around 1 as wide as the A/A CI's farthest
end from 1 (two copies of the same code may differ by a percent or more,
each way): an A/B result is resolved only when its CI lies wholly outside
that band.  The record keeps every round's step time per side, in
microseconds to the nanosecond (round i ran in orders[i % 6]), and
perfbench's environment record: the core count, the CPU, the versions and
the BLAS.

Limits: it times steps only.  Import, plan build, run start, CSV output and
process start stay out; ``bench_pairs.py``'s cold start records those, and
perfbench stays the gate.  All sides share one interpreter, one numpy and
one BLAS (one thread, set before numpy loads), so a change to any of those
cannot show here.  Each side steps its own run from its own last state, so
an sbdf4 workload times main steps once WARM_STEPS have passed its three
startup steps.
"""

import argparse
import gc
import importlib.util
import itertools
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import load_workloads, src_digest  # noqa: E402

SIDES = ("parent", "change", "copy")
ORDERS = tuple(itertools.permutations(SIDES))

BOOTSTRAP_RESAMPLES = 2000
WARM_STEPS = 20


def load_module(name: str, path: Path, package: bool = False):
    """The file at path as the module `name`, writing no bytecode beside it.

    With package, path is a package's __init__.py, and the package's
    relative imports resolve within path's directory.
    """
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def workload_grid(args) -> dict:
    """problem, scheme, m and k of a perfbench workload's CLI arguments."""
    opts = dict(zip(args[1::2], args[2::2]))  # args[0] is the subcommand
    return {"problem": opts["--problem"], "scheme": opts["--scheme"], "m": int(opts["--m"]),
            "k": float(opts.get("--k", opts.get("--k0")))}


def start_run(package, grid: dict, warm: int):
    """A run of grid's scheme on package, past its warm steps: (step(u, t), u, steps taken)."""
    disc = package.discretize(package.make_problem(grid["problem"]), grid["m"])
    plan = package.build_plan(grid["scheme"], disc, grid["k"])
    step = package.steppers.scheme_entry(grid["scheme"])[2](plan)
    u = disc.initial()
    for i in range(warm):
        u = step(u, i * grid["k"])
    return step, u, warm


def bootstrap_median(values: list, resamples: int = BOOTSTRAP_RESAMPLES, seed: int = 0) -> tuple:
    """The 2.5th and 97.5th percentiles of the median over resamples of values."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(resamples))
    return medians[int(0.025 * resamples)], medians[-int(0.025 * resamples) - 1]


def summarise(ratios: list, resamples: int = BOOTSTRAP_RESAMPLES) -> dict:
    """Median of paired ratios with its bootstrap 95% CI, and the rounds below and above 1."""
    low, high = bootstrap_median(ratios, resamples)
    return {"median": statistics.median(ratios), "ci_low": low, "ci_high": high,
            "n": len(ratios), "below_1": sum(r < 1.0 for r in ratios),
            "above_1": sum(r > 1.0 for r in ratios)}


def resolved(ab: dict, aa: dict) -> bool:
    """Whether an A/B CI lies wholly outside 1 +- d, d the A/A CI's farthest gap from 1."""
    floor = max(abs(aa["ci_low"] - 1.0), abs(aa["ci_high"] - 1.0))
    return ab["ci_high"] < 1.0 - floor or ab["ci_low"] > 1.0 + floor


def time_rounds(runs: dict, k: float, rounds: int) -> list:
    """rounds rounds of one timed step per side, sides in ORDERS' cycle."""
    records = []
    gc.collect()
    gc.disable()
    try:
        for index in range(rounds):
            order = ORDERS[index % len(ORDERS)]
            record = {"order": list(order)}
            for side in order:
                step, u, done = runs[side]
                start = time.perf_counter()
                u = step(u, done * k)
                record[side] = time.perf_counter() - start
                runs[side] = (step, u, done + 1)
            records.append(record)
    finally:
        gc.enable()
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--copy", required=True, type=Path,
                        help="second copy of the change, for the A/A")
    parser.add_argument("--workload", required=True, action="append",
                        help="NAME:ROUNDS, repeatable")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy first loads, below

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve(),
             "copy": args.copy.resolve()}
    packages = {side: load_module(f"etdsplit_{side}", root / "src" / "etdsplit" / "__init__.py",
                                  package=True) for side, root in roots.items()}
    table = load_workloads(roots["parent"])
    # perfbench's record of cores, CPU, versions, BLAS and its threads
    invoke = load_module("perfbench_invoke", roots["parent"] / "perfbench" / "invoke.py")
    record = {"environment": invoke.environment(), "resamples": BOOTSTRAP_RESAMPLES,
              "sides": {side: {"root": str(root), "src_sha256": src_digest(root)}
                        for side, root in roots.items()},
              "workloads": {}}
    for spec in args.workload:
        name, _, count = spec.partition(":")
        grid = workload_grid(table[name].args)
        runs = {side: start_run(packages[side], grid, WARM_STEPS) for side in SIDES}
        rounds = time_rounds(runs, grid["k"], int(count or 1))
        ab = summarise([r["change"] / r["parent"] for r in rounds])
        aa = summarise([r["copy"] / r["change"] for r in rounds])
        record["workloads"][name] = {
            "grid": grid, "warm": WARM_STEPS, "ab": ab, "aa": aa, "resolved": resolved(ab, aa),
            "median_step_us": {side: statistics.median(r[side] for r in rounds) * 1e6
                               for side in SIDES},
            "orders": [list(order) for order in ORDERS],  # round i ran in orders[i % 6]
            "step_us": {side: [round(r[side] * 1e6, 3) for r in rounds] for side in SIDES}}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: change/parent {ab['median']:.4f} ({ab['ci_low']:.4f}-{ab['ci_high']:.4f})"
              f"  A/A {aa['median']:.4f} ({aa['ci_low']:.4f}-{aa['ci_high']:.4f})"
              f"  resolved={resolved(ab, aa)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
