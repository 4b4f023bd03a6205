"""Time one 2-D type-1 transform as two dense matrix products and by pocketfft.

    python3 scripts/transform_crossover.py [--species 2] [--repeats 7] \
        [--p-min 39] [--p-max 161] [--p-step 2] [--out FILE]

For each boundary kind (Dirichlet: sine transform, Neumann: cosine
transform) and each p in the range, this times ``AxisTransformBasis.forward``
followed by ``inverse`` on a (species, p, p) field with ``overwrite_x=True``,
as the split step calls them, once on the dense path and once on scipy.fft's
dstn/dctn, switched by the basis's ``dense`` flag.  Each repeat runs such
pairs in a loop of about 20 ms and the two paths alternate repeat by repeat.
The record gives each path's microseconds per transform (half a pair; min
and median over repeats), the ratio of the medians, the crossover
``DENSE_TRANSFORM_MAX_P`` the package uses, and the core count, CPU and BLAS
it ran on.  BLAS runs on one thread, as in the benchmark: the variables below
are set before numpy is imported.
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

from etdsplit.linsolve import DENSE_TRANSFORM_MAX_P, axis_transform_basis  # noqa: E402
from etdsplit.spatial import DIRICHLET, NEUMANN, Grid2D  # noqa: E402

TARGET_S = 0.02  # length of one timed loop


def grid_with_p(bc: str, p: int) -> Grid2D:
    return Grid2D(a=0.0, b=1.0, m=p if bc == DIRICHLET else p - 2, bc=bc)


def time_paths(bc: str, p: int, species: int, repeats: int) -> dict:
    basis = axis_transform_basis(grid_with_p(bc, p))
    paths = {"dense": replace(basis, dense=True), "pocketfft": replace(basis, dense=False)}
    buf = np.random.default_rng(p).normal(size=(species, p, p))

    def loop(b, calls):
        t0 = time.perf_counter()
        for _ in range(calls):
            b.inverse(b.forward(buf, overwrite_x=True), overwrite_x=True)
        return (time.perf_counter() - t0) / (2 * calls)

    calls = {}
    for name, b in paths.items():  # warm up and size each loop to about TARGET_S
        calls[name] = max(1, int(TARGET_S / loop(b, 3)))
    samples = {name: [] for name in paths}
    for _ in range(repeats):
        for name, b in paths.items():
            samples[name].append(loop(b, calls[name]) * 1e6)
    row = {"bc": bc, "p": p}
    for name, us in samples.items():
        row[name] = {"min_us": min(us), "median_us": statistics.median(us)}
    row["pocketfft_over_dense"] = row["pocketfft"]["median_us"] / row["dense"]["median_us"]
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--species", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--p-min", type=int, default=39)
    parser.add_argument("--p-max", type=int, default=161)
    parser.add_argument("--p-step", type=int, default=2)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.repeats < 5:
        parser.error("need --repeats >= 5")

    rows = []
    for p in range(args.p_min, args.p_max + 1, args.p_step):
        for bc in (DIRICHLET, NEUMANN):
            row = time_paths(bc, p, args.species, args.repeats)
            rows.append(row)
            print(f"{bc:9s} p={p:4d}  dense {row['dense']['median_us']:8.1f} us  "
                  f"pocketfft {row['pocketfft']['median_us']:8.1f} us  "
                  f"ratio {row['pocketfft_over_dense']:.2f}", flush=True)
    record = {"environment": {**environment(), "affinity_cores": len(os.sched_getaffinity(0))},
              "species": args.species, "repeats": args.repeats,
              "dense_transform_max_p": DENSE_TRANSFORM_MAX_P, "rows": rows}
    text = json.dumps(record, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
