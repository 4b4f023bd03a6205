"""Run perfbench on two checkouts in interleaved pairs and write a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --workload split-fine:10 --workload split-coupled:5 --out BENCH_label.json \
        [--aa AA.json]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
same seed and ``--seconds``; even pairs run the parent first, odd pairs the
change.  Every run's perfbench output is kept as printed: its environment
record and its last-line JSON.  This script measures nothing itself; it only
orders the runs and summarises the medians perfbench reports, per metric and
side, as min, quartiles and median, with the number of pairs each side won
and the number tied, whether the gap between the medians is resolved and
whether it is a gain.  Directions (lower or higher is better) come from the
parent's ``BENCHMARK.json``.

Two checkouts of the same code can read apart: a directory's path alone
moves ``peak_rss_mb`` by 0.1-0.14 MB.  So ``--aa`` takes an A/A record, this
script's output for the parent against a second copy of itself (``--change``
naming the copy), and a gap is then resolved only if it also exceeds the
A/A record's gap between the medians of the same metric and workload, or
cold-start command, which the record keeps as ``aa_gap``.

perfbench's ``wall_s`` starts after the package import, so the record also
keeps a cold start under ``cold_start``: COLD_RUNS fresh processes per side
of ``import etdsplit.cli`` and of each requested workload's whole CLI
command (its argv read from the parent's ``perfbench/workloads.py``), with
one BLAS thread, the sides interleaved.  Each process's wall seconds, from
spawn to exit, and its own peak RSS, from ``os.wait4``, are kept, and
summarised per side as min, quartiles and median, with whether the sides'
medians differ by more than the parent's spread and the A/A gap
(``resolved``, the rule ``summarise`` applies to perfbench's metrics).
Each process also names, as the last line of its stderr, the public scipy
modules (scipy.sparse, ...) it loaded; the record keeps them per run and
their union per side.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

SIDES = ("parent", "change")

# Fresh processes per side for each cold-start command.  Five could not
# resolve a 0.15 s difference: one pair of checkouts read +0.46 s, then -0.25 s.
COLD_RUNS = 10

# The last stderr line of every cold process: this prefix, then the public
# top-level scipy modules (scipy.sparse, ...) in sys.modules at exit.
SCIPY_PREFIX = "scipy modules loaded:"
_REPORT_SCIPY = (f"print({SCIPY_PREFIX!r}, *sorted({{'.'.join(m.split('.')[:2]) "
                 "for m in sys.modules if m.startswith('scipy.') "
                 "and not m.split('.')[1].startswith('_')}), file=sys.stderr)")

IMPORT_ARGV = ("-c", "import sys; import etdsplit.cli; " + _REPORT_SCIPY)
CLI_ARGV = ("-c", "import sys; from etdsplit.cli import main; code = main(); "
            + _REPORT_SCIPY + "; sys.exit(code)")

# Two values of a pair within this relative distance are a tie, not a win:
# far below every metric's bound, above the rounding moves of a computed error.
TIE_RTOL = 1e-6

# Share of the untied pairs the change must win for a resolved gap to be a gain.
GAIN_SHARE = 0.9


def src_digest(root: Path) -> str:
    """sha256 over the checkout's package sources, so a record names the code it ran."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=str(root), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line)["environment"] for line in lines
                if line.startswith('{"environment"')), None)
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"exit_code": proc.returncode, "environment": env, "result": last,
            "stderr": proc.stderr.strip()[-2000:] or None}


def load_workloads(root: Path) -> dict:
    """perfbench's WORKLOADS table, loaded from the checkout without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.WORKLOADS


def child_env(root: Path) -> dict:
    """The environment perfbench gives its children: the checkout's src/, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_cold(root: Path, args: list) -> dict:
    """One fresh interpreter on args, in a scratch directory: seconds, peak RSS, exit code."""
    with tempfile.TemporaryDirectory() as workdir, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=workdir, env=child_env(root),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
        err.seek(0)
        stderr, scipy = split_scipy_report(err.read().decode(errors="replace"))
    return {"seconds": seconds, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode, "stderr": stderr[-2000:] or None, "scipy": scipy}


def split_scipy_report(stderr: str) -> tuple:
    """(the rest of stderr, the scipy modules its last line names, or None without one)."""
    head, _, last = stderr.strip().rpartition("\n")
    if not last.startswith(SCIPY_PREFIX):
        return stderr.strip(), None
    return head.strip(), last[len(SCIPY_PREFIX):].split()


def cold_start(roots: dict, workloads: list, aa: Optional[dict] = None) -> dict:
    """COLD_RUNS fresh processes per side and command, interleaved, each summarised.

    aa is an A/A record's cold_start, whose medians' gaps resolved must exceed.
    """
    table = load_workloads(roots["parent"])
    commands = {"import": list(IMPORT_ARGV)}
    commands.update({w: [*CLI_ARGV, *table[w].argv("out.csv")] for w in workloads})
    runs = {name: {side: [] for side in SIDES} for name in commands}
    for index in range(COLD_RUNS):
        for name, args in commands.items():
            for side in SIDES if index % 2 == 0 else SIDES[::-1]:
                runs[name][side].append(run_cold(roots[side], args))
    record = {}
    for name, args in commands.items():
        sides = {side: summarise_cold(runs[name][side]) for side in SIDES}
        keys = [key for key in ("seconds", "peak_rss_mb") if all(key in s for s in sides.values())]
        same = (aa or {}).get(name, {})
        gaps = {key: median_gap(same.get("parent", {}).get(key), same.get("change", {}).get(key))
                for key in keys}
        record[name] = {"argv": args, **sides, "aa_gap": gaps, "resolved": {
            key: resolved(sides["parent"][key], sides["change"][key], gaps[key])
            for key in keys}}
    return record


def summarise_cold(runs: list) -> dict:
    """One side's cold-start runs, with the spread and scipy modules of those that exited 0."""
    ok = [r for r in runs if r["exit_code"] == 0]
    summary = {"runs": runs, "failed": len(runs) - len(ok)}
    if ok:
        summary.update({key: quartiles([r[key] for r in ok])
                        for key in ("seconds", "peak_rss_mb")})
        summary["scipy"] = sorted(set().union(*(r.get("scipy") or () for r in ok)))
    return summary


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"min": values[0], "q1": q1, "median": median, "q3": q3, "max": values[-1],
            "n": len(values)}


def resolved(parent: dict, change: dict, aa_gap: float = 0.0) -> bool:
    """Whether two sides' quartiles() differ.

    Their medians must be further apart than the parent's interquartile
    spread, than a tie and than aa_gap, the medians' gap of an A/A record.
    """
    return abs(change["median"] - parent["median"]) > max(
        parent["q3"] - parent["q1"], TIE_RTOL * abs(parent["median"]), aa_gap)


def median_gap(parent: Optional[dict], change: Optional[dict]) -> float:
    """|change median - parent median| of two quartiles(), 0 when either is missing."""
    if not parent or not change:
        return 0.0
    return abs(change["median"] - parent["median"])


def metric(run: dict, name: str):
    """A run's value of one metric, None when the run printed no result."""
    return ((run["result"] or {}).get("metrics", {}).get(name) or {}).get("value")


def summarise(pairs: list, better: dict, aa: Optional[dict] = None) -> dict:
    """Per metric: each side's spread over runs, the pairs each side won and the ties.

    resolved: the medians differ by more than the parent's interquartile
    spread, by more than a tie and by more than aa_gap, the medians' gap in
    aa, an A/A record's summary of the same workload.  gain: resolved, in
    the change's favour, and the change won at least GAIN_SHARE of the
    pairs that were not tied.
    """
    summary = {}
    for name, direction in better.items():
        sides = {side: [v for p in pairs if (v := metric(p[side], name)) is not None]
                 for side in SIDES}
        if not all(sides.values()):
            continue
        wins, ties = {side: 0 for side in SIDES}, 0
        for p in pairs:
            old, new = metric(p["parent"], name), metric(p["change"], name)
            if old is None or new is None:
                continue
            if abs(new - old) <= TIE_RTOL * max(abs(old), abs(new)):
                ties += 1
            else:
                improved = new < old if direction == "lower" else new > old
                wins["change" if improved else "parent"] += 1
        spread = {side: quartiles(values) for side, values in sides.items()}
        gap = spread["change"]["median"] - spread["parent"]["median"]
        same = (aa or {}).get(name, {})
        aa_gap = median_gap(same.get("parent"), same.get("change"))
        apart = resolved(spread["parent"], spread["change"], aa_gap)
        decided = wins["parent"] + wins["change"]
        gain = (apart and (gap < 0 if direction == "lower" else gap > 0)
                and decided > 0 and wins["change"] >= GAIN_SHARE * decided)
        summary[name] = {"better": direction, "wins": wins, "ties": ties, "aa_gap": aa_gap,
                         "resolved": apart, "gain": gain, **spread}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True, action="append",
                        help="NAME:PAIRS, repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run; default BENCHMARK.json's run_seconds")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--aa", type=Path, default=None,
                        help="A/A record: this script's output for the parent against a copy")
    args = parser.parse_args(argv)
    aa = json.loads(args.aa.read_text(encoding="utf-8")) if args.aa else {}

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else float(bench["run_seconds"])
    record = {"seconds": seconds, "seed": args.seed,
              "src_sha256": {side: src_digest(root) for side, root in roots.items()},
              "aa": str(args.aa) if args.aa else None, "workloads": {}}
    for spec in args.workload:
        workload, _, count = spec.partition(":")
        pairs = []
        for index in range(int(count or 1)):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_perfbench(roots[side], workload, args.seed, seconds)
            pairs.append(pair)
            print(f"{workload} pair {index + 1}: " + "  ".join(
                f"{side} steps_per_s={metric(pair[side], 'steps_per_s')}" for side in SIDES),
                flush=True)
        aa_summary = aa.get("workloads", {}).get(workload, {}).get("summary")
        record["workloads"][workload] = {"pairs": pairs,
                                         "summary": summarise(pairs, better, aa_summary)}
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["cold_start"] = cold_start(roots, list(record["workloads"]), aa.get("cold_start"))
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, sides in record["cold_start"].items():
        print(f"cold {name}: " + "  ".join(
            f"{side} seconds={sides[side].get('seconds', {}).get('median')} "
            f"scipy={sides[side].get('scipy')}" for side in SIDES)
            + f"  resolved={sides['resolved']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
