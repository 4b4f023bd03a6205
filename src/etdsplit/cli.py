"""Command-line benchmark harness.

Three subcommands:

* ``converge`` -- run one refinement study; aligned table to stdout, CSV to
  --out, optional two-column log-log data to --plot-out.
* ``solve``    -- one integration; final field as an (x, y, species...) CSV
  grid, with optional snapshot cadence.
* ``table``    -- preset studies reproducing the stored reference results,
  printed side by side with relative deviations.

argparse is the one table of options and their defaults.  Options may also
come from a ``--config`` file of ``key=value`` lines (``#`` comments
allowed): each key must name one of the command's options exactly, and each
line is parsed as a ``--key=value`` flag placed before the command-line
flags, so a file value gets the flag's type and choices and a flag overrides
it.  Exit codes: 0 success, 1 invalid configuration (including a grid too
large to allocate), 2 numerical failure, 130 interrupted (Ctrl-C), 141
stdout closed early (a broken pipe; nothing is printed).
"""

import argparse
import csv
import os
import sys
from typing import Optional

import numpy as np

from .analysis import (
    COUPLING_FIXED_H,
    COUPLING_K_EQ_H,
    MODE_EXACT,
    MODE_SELF,
    _fmt,
    run_study,
)
from .errors import DivergenceError, SingularSystemError, ValidationError
from .problems import PROBLEM_NAMES, discretize, interior_count_for_h, make_problem
from .steppers import ETDRK4P22, ETDRK4P22IF, SBDF4, SCHEMES, check_run, integrate


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; the CLI contract wants 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _config_tokens(path: str, command: argparse.ArgumentParser) -> list:
    """The key = value lines of a config file as --key=value tokens of one command.

    A key must name one of the command's options exactly (with - or _), so
    argparse never prefix-matches it; --config itself is not one.
    """
    options = {action.dest: action.option_strings[-1] for action in command._actions
               if action.option_strings and action.dest not in ("help", "config")}
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                flag = options.get(key.replace("-", "_"))
                if flag is None:
                    raise ValidationError(f"{path}:{lineno}: {command.prog} takes no "
                                          f"config key {key!r}")
                tokens.append(f"{flag}={value}")
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    return tokens


def _check_writable(path: str) -> None:
    """Reject an output path that cannot be written, before any compute."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise ValidationError(f"cannot write {path}: no directory {parent}")
    target = path if os.path.exists(path) else parent
    if not os.access(target, os.W_OK):
        raise ValidationError(f"cannot write {path}: permission denied")


def _pick_m(spec, cfg) -> Optional[int]:
    if cfg.m is not None and cfg.h is not None:
        raise ValidationError("give --m or --h, not both")
    if cfg.m is not None:
        return cfg.m
    if cfg.h is not None:
        return interior_count_for_h(spec, cfg.h)
    return None


def cmd_converge(cfg: argparse.Namespace) -> int:
    if cfg.problem is None or cfg.scheme is None or cfg.k0 is None:
        raise ValidationError("converge needs --problem, --scheme and --k0")
    if cfg.coupling == COUPLING_K_EQ_H and cfg.m is not None:
        raise ValidationError("--m needs --coupling fixed_h; k_eq_h grids follow --h or --k0")
    spec = make_problem(cfg.problem)
    m = _pick_m(spec, cfg) if cfg.coupling == COUPLING_FIXED_H else None
    T = cfg.T if cfg.T is not None else spec.default_T
    report = run_study(
        spec, cfg.scheme, cfg.k0, cfg.levels, cfg.mode, cfg.coupling, T,
        smoothing_steps=cfg.smoothing_steps, h_target=cfg.h, m=m)
    print(report.format_table())
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            report.write_csv(fh)
    if cfg.plot_out:
        with open(cfg.plot_out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["k", "error"])
            for row in report.rows:
                writer.writerow([_fmt(row.k), _fmt(row.error)])
    return 0


# Rows formatted by one %-operation in the field CSV writer.
_CSV_BLOCK_ROWS = 1024


def _write_field_csv(fileobj, grid, u) -> None:
    """Write an (x, y, species...) CSV row per node, y-major, x fastest.

    Values carry 17 significant digits, the same text as _fmt.  Rows go out
    in blocks, each formatted by a single %-operation.
    """
    species = u.shape[0]
    names = ["u"] if species == 1 else [f"u{i + 1}" for i in range(species)]
    fileobj.write(",".join(["x", "y"] + names) + "\n")
    x, y = grid.meshgrid()
    table = np.column_stack([x.ravel(), y.ravel()] + [u[s].ravel() for s in range(species)])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    full_block = row * _CSV_BLOCK_ROWS
    for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
        block = table[start:start + _CSV_BLOCK_ROWS]
        fmt = full_block if len(block) == _CSV_BLOCK_ROWS else row * len(block)
        fileobj.write(fmt % tuple(block.ravel().tolist()))


def cmd_solve(cfg: argparse.Namespace) -> int:
    if cfg.problem is None:
        raise ValidationError("solve needs --problem")
    spec = make_problem(cfg.problem)
    T = cfg.T if cfg.T is not None else spec.default_T
    if T != 0 and cfg.k is None:
        raise ValidationError("solve needs --k (unless --T 0)")
    k = cfg.k if cfg.k is not None else 1.0
    check_run(cfg.scheme, k, T, cfg.smoothing_steps)
    m = _pick_m(spec, cfg)
    if m is None:
        raise ValidationError("solve needs a grid: give --m or --h")
    if cfg.snapshot_every is not None and cfg.snapshot_every < 1:
        raise ValidationError(f"need --snapshot-every >= 1, got {cfg.snapshot_every}")
    if cfg.snapshot_every and not cfg.out:
        raise ValidationError("--snapshot-every needs --out to name the files")
    disc = discretize(spec, m)

    def snapshot(step, t, field):
        stem, dot, ext = cfg.out.rpartition(".")
        base = stem if dot else cfg.out
        ext = ext if dot else "csv"
        path = f"{base}_step{step:06d}.{ext}"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_field_csv(fh, disc.grid, field)

    u = integrate(disc, cfg.scheme, k, T, smoothing_steps=cfg.smoothing_steps,
                  snapshot_every=cfg.snapshot_every,
                  snapshot_cb=snapshot if cfg.snapshot_every else None)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            _write_field_csv(fh, disc.grid, u)
    else:
        _write_field_csv(sys.stdout, disc.grid, u)
    return 0


# Stored reference results for the preset studies (errors per level, orders
# between consecutive levels).  The second-order ETDRDP-IF columns of the
# published appendix tables come from a different method family and are not
# reproduced; presets note the omission.
_REF = {
    "1": {
        "title": "model problem, Dirichlet boundaries, exact errors, k=h cascade, T=1",
        "studies": [
            dict(label=ETDRK4P22IF, problem="model_dirichlet", scheme=ETDRK4P22IF,
                 k0=0.1, mode=MODE_EXACT, coupling=COUPLING_K_EQ_H, h=0.0785, T=1.0,
                 errors=(1.639e-7, 1.0805e-8, 6.958e-10, 4.456e-11),
                 orders=(3.92, 3.96, 3.96)),
            dict(label=ETDRK4P22, problem="model_dirichlet", scheme=ETDRK4P22,
                 k0=0.1, mode=MODE_EXACT, coupling=COUPLING_K_EQ_H, h=0.0785, T=1.0,
                 errors=(9.069e-7, 5.6131e-8, 3.496e-9, 2.1391e-10),
                 orders=(4.01, 4.01, 4.03)),
        ],
        "notes": [],
    },
    "2": {
        "title": "model problem, Neumann boundaries, exact errors, k=h cascade, T=1",
        "studies": [
            dict(label=ETDRK4P22IF, problem="model_neumann", scheme=ETDRK4P22IF,
                 k0=0.1, mode=MODE_EXACT, coupling=COUPLING_K_EQ_H, h=0.31416, T=1.0,
                 errors=(1.0836e-5, 6.8127e-7, 4.2638e-8, 2.6657e-9),
                 orders=(3.99, 4.00, 4.00)),
            dict(label=ETDRK4P22, problem="model_neumann", scheme=ETDRK4P22,
                 k0=0.1, mode=MODE_EXACT, coupling=COUPLING_K_EQ_H, h=0.31416, T=1.0,
                 errors=(1.1580e-5, 7.2661e-7, 4.5439e-8, 2.8397e-9),
                 orders=(3.99, 4.00, 4.00)),
        ],
        "notes": [],
    },
    "3": {
        "title": "enzyme kinetics, self-reference errors at fixed h=0.05, T=1",
        "studies": [
            dict(label=ETDRK4P22IF, problem="enzyme", scheme=ETDRK4P22IF,
                 k0=0.1, mode=MODE_SELF, coupling=COUPLING_FIXED_H, m=19, T=1.0,
                 errors=(4.2433e-7, 7.2737e-9, 4.666e-10, 3.0407e-11),
                 orders=(5.87, 3.96, 3.94)),
            dict(label=ETDRK4P22, problem="enzyme", scheme=ETDRK4P22,
                 k0=0.1, mode=MODE_SELF, coupling=COUPLING_FIXED_H, m=19, T=1.0,
                 errors=(1.9274e-6, 1.1628e-7, 7.1638e-9, 4.4488e-10),
                 orders=(4.05, 4.02, 4.01)),
        ],
        "notes": [],
    },
    "4": {
        "title": "non-smooth enzyme kinetics with and without presmoothing, h=0.05, T=1",
        "studies": [
            dict(label="etdrk4p22if (no smoothing)", problem="enzyme_nonsmooth",
                 scheme=ETDRK4P22IF, k0=0.1, mode=MODE_SELF,
                 coupling=COUPLING_FIXED_H, m=19, T=1.0, smoothing_steps=0,
                 errors=(6.1306e-3, 2.0160e-5, 7.2147e-11, 4.7483e-15),
                 orders=(8.25, 18.09, 13.89)),
            dict(label="etdrk4p22if (3 smoothing steps)", problem="enzyme_nonsmooth",
                 scheme=ETDRK4P22IF, k0=0.1, mode=MODE_SELF,
                 coupling=COUPLING_FIXED_H, m=19, T=1.0, smoothing_steps=3,
                 errors=(1.0894e-9, 9.9321e-11, 8.5536e-12, 6.2814e-13),
                 orders=(3.46, 3.54, 3.77)),
        ],
        "notes": [],
    },
    "5": {
        "title": "Brusselator system, self-reference errors at fixed h=0.0125, T=2",
        "studies": [
            dict(label=ETDRK4P22IF, problem="brusselator", scheme=ETDRK4P22IF,
                 k0=0.05, mode=MODE_SELF, coupling=COUPLING_FIXED_H, m=79, T=2.0,
                 errors=(3.1532e-4, 1.7359e-5, 1.0814e-6, 6.7987e-8),
                 orders=(4.18, 4.00, 3.99)),
            dict(label=ETDRK4P22, problem="brusselator", scheme=ETDRK4P22,
                 k0=0.05, mode=MODE_SELF, coupling=COUPLING_FIXED_H, m=79, T=2.0,
                 errors=(3.1384e-4, 1.7592e-5, 1.1859e-6, 7.6968e-8),
                 orders=(4.16, 3.89, 3.95)),
        ],
        "notes": [
            "Reference errors track the first species only; this harness "
            "reports the max over both species, which sits a little higher "
            "on the finer rows.",
        ],
    },
    "A1": {
        "title": "semi-implicit BDF4 baseline on the Dirichlet model problem",
        "studies": [
            dict(label=SBDF4, problem="model_dirichlet", scheme=SBDF4,
                 k0=0.1, mode=MODE_EXACT, coupling=COUPLING_K_EQ_H, h=0.0785, T=1.0,
                 errors=(2.2150e-4, 1.2419e-5, 7.752e-7, 6.1782e-8),
                 orders=(4.16, 4.00, 3.65)),
        ],
        "notes": ["ETDRDP-IF columns are not reproduced (scheme out of scope)."],
    },
    "A2": {
        "title": "semi-implicit BDF4 baseline on the Neumann model problem",
        "studies": [
            dict(label=SBDF4, problem="model_neumann", scheme=SBDF4,
                 k0=0.1, mode=MODE_EXACT, coupling=COUPLING_K_EQ_H, T=1.0,
                 m_schedule=[41, 81, 161, 321],
                 errors=(2.3248e-4, 1.3094e-5, 8.1722e-7, 6.4410e-8),
                 orders=(4.15, 4.00, 3.67)),
        ],
        "notes": ["ETDRDP-IF columns are not reproduced (scheme out of scope)."],
    },
    "A3": {
        "title": "semi-implicit BDF4 baseline on the enzyme problem, fixed h=0.05",
        "studies": [
            dict(label=SBDF4, problem="enzyme", scheme=SBDF4,
                 k0=0.1, mode=MODE_SELF, coupling=COUPLING_FIXED_H, m=19, T=1.0,
                 errors=(3.3077e-4, 1.6554e-5, 8.4646e-7, 4.2354e-8),
                 orders=(4.32, 4.29, 4.32)),
        ],
        "notes": [
            "ETDRDP-IF columns are not reproduced (scheme out of scope).",
            "Reference values were published for a coarser grid print (h=0.1653); "
            "deviations reflect the main-table grid h=0.05 used here.",
        ],
    },
    "A5-sbdf": {
        "title": "semi-implicit BDF4 baseline on the Brusselator, fixed h=0.0125",
        "studies": [
            dict(label=SBDF4, problem="brusselator", scheme=SBDF4,
                 k0=0.05, mode=MODE_SELF, coupling=COUPLING_FIXED_H, m=79, T=2.0,
                 errors=(6.7785e-2, 1.4339e-3, 1.0627e-4, 6.8328e-6),
                 orders=(5.56, 3.75, 3.96)),
        ],
        "notes": [
            "ETDRDP-IF columns are not reproduced (scheme out of scope).",
            "Reference errors track the first species only; this harness "
            "reports the max over both species.",
        ],
    },
}

TABLE_IDS = tuple(_REF)


def cmd_table(table_id: str, levels: Optional[int] = None) -> int:
    if table_id not in _REF:
        raise ValidationError(f"unknown table id {table_id!r}; choose from {', '.join(TABLE_IDS)}")
    if levels is not None and levels < 1:
        raise ValidationError(f"need at least one level, got {levels}")
    preset = _REF[table_id]
    print(f"table {table_id}: {preset['title']}")
    for note in preset["notes"]:
        print(f"  note: {note}")
    for study in preset["studies"]:
        spec = make_problem(study["problem"])
        n_levels = levels if levels is not None else len(study["errors"])
        n_levels = min(n_levels, len(study["errors"]))
        m_schedule = study.get("m_schedule")
        report = run_study(
            spec, study["scheme"], study["k0"], n_levels, study["mode"],
            study["coupling"], study["T"],
            smoothing_steps=study.get("smoothing_steps", 0),
            h_target=study.get("h"), m=study.get("m"),
            m_schedule=m_schedule[:n_levels] if m_schedule else None)
        print(f"\n  {study['label']}  (problem={study['problem']}, mode={study['mode']})")
        print(f"  {'k':>10} {'error':>12} {'reference':>12} {'dev':>7} "
              f"{'order':>6} {'ref':>6} {'seconds':>9}")
        for j, row in enumerate(report.rows):
            ref_err = study["errors"][j]
            dev = abs(row.error - ref_err) / ref_err * 100.0
            order = f"{row.order:.2f}" if row.order is not None else "--"
            ref_order = f"{study['orders'][j - 1]:.2f}" if j > 0 else "--"
            print(f"  {row.k:>10.6g} {row.error:>12.4e} {ref_err:>12.4e} "
                  f"{dev:>6.1f}% {order:>6} {ref_order:>6} {row.seconds:>9.3f}")
    return 0


def _add_common(p: _Parser) -> None:
    p.add_argument("--problem", choices=PROBLEM_NAMES)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--T", type=float)
    p.add_argument("--m", type=int, help="interior nodes per axis")
    p.add_argument("--h", type=float, help="target mesh width; realized h is (b-a)/(m+1)")
    p.add_argument("--smoothing-steps", dest="smoothing_steps", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--config", help="key=value file of this command's options; flags override")


def _build_parser() -> tuple:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="etdsplit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("converge", help="run a refinement study")
    _add_common(pc)
    pc.add_argument("--k0", type=float, help="coarsest time step of the cascade")
    pc.add_argument("--levels", type=int, default=4)
    pc.add_argument("--coupling", choices=(COUPLING_K_EQ_H, COUPLING_FIXED_H),
                    default=COUPLING_K_EQ_H)
    pc.add_argument("--mode", choices=(MODE_EXACT, MODE_SELF), default=MODE_EXACT)
    pc.add_argument("--plot-out", dest="plot_out",
                    help="write two-column k,error data for log-log plotting")

    ps = sub.add_parser("solve", help="run a single integration")
    _add_common(ps)
    ps.set_defaults(scheme=ETDRK4P22IF)
    ps.add_argument("--k", type=float, help="time step")
    ps.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                    help="also write the field every N steps (needs --out)")

    pt = sub.add_parser("table", help="reproduce a stored reference table")
    pt.add_argument("table_id", choices=TABLE_IDS, metavar="TABLE",
                    help=f"one of: {', '.join(TABLE_IDS)}")
    pt.add_argument("--levels", type=int, help="run only the first N levels")
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            return cmd_table(args.table_id, levels=args.levels)
        if args.config:
            # argv[0] is the command; file tokens go before the flags, so flags win.
            args = parser.parse_args(
                argv[:1] + _config_tokens(args.config, commands[args.command]) + argv[1:])
        for path in (args.out, getattr(args, "plot_out", None)):
            if path:
                _check_writable(path)
        if args.command == "converge":
            return cmd_converge(args)
        return cmd_solve(args)
    except ValidationError as exc:
        print(f"etdsplit: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the interpreter's
        # final flush stays quiet, and exit as SIGPIPE would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except OSError as exc:
        print(f"etdsplit: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"etdsplit: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except (DivergenceError, SingularSystemError) as exc:
        print(f"etdsplit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        print(f"etdsplit: {str(exc) or 'interrupted'}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
