"""Time a split run's map build and measure its maps' accuracy in two checkouts.

    python3 scripts/split_work_sweep.py --parent DIR --change DIR --out BENCH_label.json

Build time: for each grid in GRIDS, one fresh process per checkout (the
package from that checkout's ``src/``, one BLAS thread; the order of the two
alternates from grid to grid) builds the split plan at k = 0.0125, times its
first ``SplitWork(plan)``, then REPEATS more.  ``SplitWork`` is where a run
builds its ten axis maps.  The warm builds' milliseconds are summarised per
side as min, quartiles and median, beside the first build's.

Accuracy: one process per checkout builds ``SplitWork`` on every grid of
ACCURACY_M, both boundary kinds, one species with each d of ACCURACY_D, at
each k of ACCURACY_K (all grid space, one block per map).  To cover all six
poles of the package, the run's pole pair (c1, c2) is set in turn to each
pair of POLE_PAIRS by replacing ``steppers.PADE``; the weights stay the
split step's.  Each map's block is compared with shift*I + 2 Re(w X),
transposed along x, where X is (-k d B - pole I)^-1 for the dense
``spatial.axis_matrix`` B: a float64 inverse refined by two Newton-Schulz
steps in ``np.clongdouble``.  (pole, axis, w, shift) of the ten maps are
listed in ``SplitWork``'s order.  The record keeps the largest error,
relative to max |2 Re(w X)|, per grid, d and k, and overall.

Both go into ``--out`` under ``split_work_build`` and ``map_accuracy``; a
record ``bench_pairs.py`` wrote is kept and extended.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from bench_pairs import SIDES, child_env, quartiles

# (label, boundary kind, m, species)
GRIDS = tuple((f"{bc} p={p}" + (" species=2" if species == 2 else ""), bc,
               p if bc == "dirichlet" else p - 2, species)
              for p, species in ((39, 1), (79, 1), (81, 2), (319, 1))
              for bc in ("dirichlet", "neumann"))
REPEATS = 9  # warm builds per grid and side
ACCURACY_M = (3, 4, 5, 8, 16, 31, 40, 63, 79)
ACCURACY_K = (0.0125, 0.1, 1.0)
ACCURACY_D = (1.0, 2.0)

CHILD_TIME = """
import json, sys, time
from dataclasses import replace
from etdsplit.problems import discretize, make_problem
from etdsplit.steppers import ETDRK4P22IF, SplitWork, build_plan
bc, m, species, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
spec = replace(make_problem("brusselator" if species == 2 else "model_dirichlet"), bc=bc)
plan = build_plan(ETDRK4P22IF, discretize(spec, m), 0.0125)
ms = []
for _ in range(repeats + 1):
    start = time.perf_counter()
    SplitWork(plan)
    ms.append(1e3 * (time.perf_counter() - start))
print(json.dumps(ms))
"""

CHILD_ACCURACY = """
import json, sys
import numpy as np
from dataclasses import replace
from etdsplit.problems import discretize, make_problem
import etdsplit.steppers as steppers
from etdsplit.spatial import AXIS_X, axis_matrix
from etdsplit.steppers import ETDRK4P22IF, PADE, SMOOTHER, SplitWork, build_plan
ms, ks, ds = (json.loads(arg) for arg in sys.argv[1:4])
POLE_PAIRS = ((PADE.c1, PADE.c2), (SMOOTHER.e1, SMOOTHER.f1), (SMOOTHER.e2, SMOOTHER.f2))


def specs(k):
    w11, w51 = PADE.w11, 24.0 * k * PADE.w51
    return (("c2", "x", 2.0 * w11, 1.0), ("c2", "y", 2.0 * w11, 1.0), ("c2", "x", w51, 0.0),
            ("c2", "x", 2.0 * w51, 0.0), ("c1", "x", w11, 1.0), ("c1", "y", w11, 1.0),
            ("c1", "y", -w11, -1.0), ("c1", "x", k * PADE.w21, 0.0),
            ("c1", "x", 4.0 * k * PADE.w31, 0.0), ("c1", "x", k * PADE.w41, 0.0))


def reference_inverse(a):
    eye = np.eye(len(a), dtype=np.clongdouble)
    a = a.astype(np.clongdouble)
    x = np.linalg.inv(a.astype(complex)).astype(np.clongdouble)
    for _ in range(2):
        x = x @ (2.0 * eye - a @ x)
    return x


out = {}
for bc in ("dirichlet", "neumann"):
    for m in ms:
        for d in ds:
            disc = discretize(replace(make_problem("model_dirichlet"), bc=bc, diffusion=(d,)), m)
            b = axis_matrix(disc.grid).astype(np.longdouble)
            p = len(b)
            for k in ks:
                worst = 0.0
                for c1, c2 in POLE_PAIRS:
                    steppers.PADE = replace(PADE, c1=c1, c2=c2)
                    maps = SplitWork(build_plan(ETDRK4P22IF, disc, k)).maps
                    kdb = -np.longdouble(k * d) * b
                    inverses = {name: reference_inverse(kdb - pole * np.eye(p))
                                for name, pole in (("c1", c1), ("c2", c2))}
                    for amap, (name, axis, w, shift) in zip(maps, specs(k)):
                        assert amap.axis == axis and len(amap.blocks) == 1
                        part = 2.0 * (np.clongdouble(w) * inverses[name]).real
                        if axis == AXIS_X:
                            part = part.T
                        err = np.max(np.abs(amap.blocks[0][0] - shift * np.eye(p) - part))
                        worst = max(worst, float(err / np.max(np.abs(part))))
                out[f"{bc} m={m} d={d} k={k}"] = worst
print(json.dumps(out))
"""


def run_child(root: Path, code: str, *args) -> object:
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=child_env(root), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    builds = {}
    for index, (label, bc, m, species) in enumerate(GRIDS):
        row = {}
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            first, *warm = run_child(roots[side], CHILD_TIME, bc, m, species, REPEATS)
            row[side] = {"first_ms": first, "ms": warm, "warm_ms": quartiles(warm)}
        builds[label] = {side: row[side] for side in SIDES}
        print(f"{label}: " + "  ".join(
            f"{side} min={row[side]['warm_ms']['min']:.3f} "
            f"median={row[side]['warm_ms']['median']:.3f} ms" for side in SIDES), flush=True)
    accuracy = {}
    for side in SIDES:
        errors = run_child(roots[side], CHILD_ACCURACY, json.dumps(ACCURACY_M),
                           json.dumps(ACCURACY_K), json.dumps(ACCURACY_D))
        accuracy[side] = {"max": max(errors.values()), "cases": errors}
        print(f"map accuracy {side}: max {accuracy[side]['max']:.3g}", flush=True)
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record["split_work_build"] = {"repeats": REPEATS, "blas_threads": 1, "k": 0.0125,
                                  "grids": builds}
    record["map_accuracy"] = {"m": ACCURACY_M, "k": ACCURACY_K, "d": ACCURACY_D, "reference":
                              "float64 inverse refined by two Newton-Schulz steps in "
                              "np.clongdouble", **accuracy}
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
