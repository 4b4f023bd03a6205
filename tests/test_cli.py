import contextlib
import csv
import io
import json
import math
import os
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import etdsplit.analysis as analysis
import etdsplit.cli as cli
import etdsplit.problems as problems
import etdsplit.steppers as steppers
from etdsplit.analysis import _fmt
from etdsplit.errors import DivergenceError, SingularSystemError
from etdsplit.problems import PROBLEM_NAMES, discretize, make_problem
from etdsplit.spatial import DIRICHLET, NEUMANN, Grid2D
from helpers import block_field_csv


def test_converge_writes_csv_and_table(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if",
                     "--k0", "0.1", "--levels", "2", "--mode", "self",
                     "--coupling", "fixed_h", "--h", "0.05",
                     "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "scheme=etdrk4p22if" in captured.out
    raw = out.read_bytes()
    assert b"\r" not in raw
    rows = list(csv.DictReader(raw.decode("utf-8").splitlines()))
    assert len(rows) == 2
    assert rows[0]["order"] == ""
    assert float(rows[0]["error"]) == pytest.approx(4.2433e-7, rel=0.05)
    assert float(rows[1]["order"]) == pytest.approx(5.87, abs=0.1)
    assert rows[0]["scheme"] == "etdrk4p22if" and rows[0]["problem"] == "enzyme"


def test_converge_single_level_empty_order(tmp_path):
    out = tmp_path / "one.csv"
    code = cli.main(["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if",
                     "--k0", "0.1", "--levels", "1", "--mode", "self",
                     "--coupling", "fixed_h", "--m", "19", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1 and rows[0]["order"] == ""


def test_converge_plot_out(tmp_path):
    plot = tmp_path / "plot.csv"
    code = cli.main(["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if",
                     "--k0", "0.1", "--levels", "2", "--mode", "self",
                     "--coupling", "fixed_h", "--m", "19",
                     "--plot-out", str(plot)])
    assert code == 0
    rows = list(csv.DictReader(plot.read_text().splitlines()))
    assert [r["k"] for r in rows] == ["0.10000000000000001", "0.050000000000000003"]
    assert all(float(r["error"]) > 0 for r in rows)


def test_converge_missing_required_flags(capsys):
    code = cli.main(["converge", "--problem", "enzyme"])
    assert code == 1
    assert "k0" in capsys.readouterr().err


def test_bad_flag_values_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", "--problem", "not_a_problem", "--scheme",
                  "etdrk4p22if", "--k0", "0.1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "99"])
    assert exc.value.code == 1


def test_converge_numerical_failure_exit_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise DivergenceError("level 1 (k = 0.05): non-finite state after step 3")
    monkeypatch.setattr(cli, "run_study", boom)
    code = cli.main(["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if",
                     "--k0", "0.1", "--mode", "self", "--coupling", "fixed_h",
                     "--m", "19"])
    assert code == 2
    assert "level 1" in capsys.readouterr().err


def test_solve_singular_system_exit_two(monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise SingularSystemError("1-D eigenvector matrix too ill-conditioned")
    monkeypatch.setattr(steppers, "build_plan", singular)
    code = cli.main(["solve", "--problem", "model_dirichlet", "--scheme", "sbdf4",
                     "--m", "9", "--k", "0.25", "--T", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "ill-conditioned" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--T", "--k"])
def test_solve_non_finite_time_exit_one(flag, value, capsys):
    args = {"--T": "1", "--k": "0.25", flag: value}
    code = cli.main(["solve", "--problem", "enzyme", "--m", "9"]
                    + [f"{name}={v}" for name, v in args.items()])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "enzyme", "--m", "9", "--k", "0.25", "--T", "1", "--out"],
    ["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if", "--k0", "0.1",
     "--levels", "1", "--mode", "self", "--coupling", "fixed_h", "--m", "9",
     "--plot-out"],
])
def test_unwritable_output_rejected_before_compute(argv, tmp_path, monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the output path was checked")
    monkeypatch.setattr(cli, "integrate", no_compute)
    monkeypatch.setattr(cli, "run_study", no_compute)
    code = cli.main(argv + [str(tmp_path / "missing" / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "missing" in err


def test_output_path_that_is_a_directory_rejected(tmp_path, capsys):
    code = cli.main(["solve", "--problem", "enzyme", "--m", "9", "--T", "0",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "directory" in capsys.readouterr().err


_SOLVE_9 = ["solve", "--problem", "enzyme", "--m", "9", "--k", "0.25", "--T", "1"]


@pytest.mark.parametrize("error, code", [(KeyboardInterrupt, 130), (OSError, 1)])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_field_write_leaves_no_partial_file(error, code, existing, tmp_path,
                                                   monkeypatch, capsys):
    # a write that fails after the whole field went out leaves no --out
    # file, or the one that was there untouched, and no temporary file
    out = tmp_path / "u.csv"
    if existing:
        out.write_text("old\n")
    write = cli._write_field_csv

    def failing(fileobj, grid, u):
        write(fileobj, grid, u)
        raise error("write failed")

    monkeypatch.setattr(cli, "_write_field_csv", failing)
    assert cli.main(_SOLVE_9 + ["--out", str(out)]) == code
    assert capsys.readouterr().err == "etdsplit: write failed\n"
    assert [path.name for path in tmp_path.iterdir()] == (["u.csv"] if existing else [])
    assert not existing or out.read_text() == "old\n"


def test_output_replaces_the_file_a_symlink_names(tmp_path):
    # the field lands whole in the link's target, with the mode a new file
    # gets from the umask, and the link stays a link
    plain, target, link = tmp_path / "plain.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert cli.main(_SOLVE_9 + ["--out", str(plain)]) == 0
    assert cli.main(_SOLVE_9 + ["--out", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == plain.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert (target.stat().st_mode & 0o777) == 0o666 & ~umask
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "plain.csv",
                                                                "target.csv"]


def test_fifo_output_is_written_in_place(tmp_path):
    # an existing target that is not a regular file is written as it stands
    plain, fifo = tmp_path / "plain.csv", tmp_path / "fifo"
    assert cli.main(_SOLVE_9 + ["--out", str(plain)]) == 0
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert cli.main(_SOLVE_9 + ["--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive() and got == [plain.read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_existing_output_needs_a_writable_directory(tmp_path, monkeypatch, capsys):
    # the file is replaced, not rewritten, so its directory must take a new file
    out = tmp_path / "u.csv"
    out.write_text("old\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        os.fspath(path) != str(tmp_path) and access(path, mode)))
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: pytest.fail("computed"))
    assert cli.main(_SOLVE_9 + ["--out", str(out)]) == 1
    assert "permission denied" in capsys.readouterr().err
    assert out.read_text() == "old\n"


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# study configuration\n"
        "problem = enzyme\n"
        "scheme = etdrk4p22if\n"
        "k0 = 0.1\n"
        "levels = 3\n"
        "mode = self\n"
        "coupling = fixed_h\n"
        "m = 19\n")
    out = tmp_path / "merged.csv"
    # flag overrides the file's levels = 3
    code = cli.main(["converge", "--config", str(cfg), "--levels", "1",
                     "--out", str(out)])
    assert code == 0
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 1


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem enzyme\n")
    assert cli.main(["converge", "--config", str(bad)]) == 1
    bad.write_text("planet = mars\n")
    assert cli.main(["converge", "--config", str(bad)]) == 1
    assert cli.main(["converge", "--config", str(tmp_path / "missing.cfg")]) == 1


def _exit_code(argv):
    """cli.main's exit code, also when argparse rejects the input by SystemExit."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command,line,words", [
    pytest.param("solve", "k0 = 0.1", "'k0'", id="solve-k0"),
    pytest.param("converge", "k = 0.1", "'k'", id="converge-k"),
    pytest.param("converge", "snapshot_every = 2", "'snapshot_every'",
                 id="converge-snapshot_every"),
    pytest.param("converge", "lev = 1", "'lev'", id="prefix-lev"),
    pytest.param("solve", "config = other.cfg", "'config'", id="config"),
    pytest.param("solve", "m = x", "invalid int value", id="m-not-int"),
    pytest.param("converge", "scheme = rk45", "invalid choice", id="scheme-rk45"),
])
def test_config_key_contract(command, line, words, tmp_path, monkeypatch, capsys):
    # a key the command does not take, or a value its flag would reject, exits 1
    # with one line before any compute
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the config file was checked")
    monkeypatch.setattr(cli, "discretize", no_compute)
    monkeypatch.setattr(cli, "run_study", no_compute)
    valid = {"solve": "k = 0.25\n",
             "converge": "k0 = 0.25\nlevels = 1\nmode = self\ncoupling = fixed_h\n"}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = enzyme\nscheme = etdrk4p22if\nm = 5\nT = 1\n"
                   + valid[command] + line + "\n")
    code = _exit_code([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and words in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("line,flag", [
    pytest.param("m = 3", ["--m", "5"], id="int"),
    pytest.param("k = 0.5", ["--k", "0.25"], id="float"),
    pytest.param("scheme = sbdf4", ["--scheme", "etdrk4p22if"], id="choices"),
])
def test_config_flag_overrides_file(line, flag, tmp_path):
    argv = ["solve", "--problem", "enzyme", "--m", "5", "--k", "0.25", "--T", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "flags.csv")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = enzyme\nT = 1\nm = 5\nk = 0.25\n" + line + "\n")
    assert cli.main(["solve", "--config", str(cfg)] + flag
                    + ["--out", str(tmp_path / "merged.csv")]) == 0
    assert (tmp_path / "merged.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_solve_t_zero_echoes_initial(tmp_path):
    out = tmp_path / "field.csv"
    code = cli.main(["solve", "--problem", "model_dirichlet", "--m", "9",
                     "--T", "0", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 81
    # node values are cos(x)cos(y)
    for rec in rows[:5]:
        x, y, u = (float(rec[c]) for c in ("x", "y", "u"))
        assert u == pytest.approx(math.cos(x) * math.cos(y), rel=1e-12)


def test_solve_stdout_and_max_abs(capsys):
    # final-time field peak matches the decayed exact amplitude
    code = cli.main(["solve", "--problem", "model_neumann", "--m", "159",
                     "--k", "0.0125", "--T", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert len(rows) == 161 * 161
    max_abs = max(abs(float(r["u"])) for r in rows)
    assert abs(max_abs - math.exp(-3.0)) <= 3e-9


def test_solve_brusselator_two_species_columns(tmp_path):
    out = tmp_path / "bruss.csv"
    code = cli.main(["solve", "--problem", "brusselator", "--m", "4",
                     "--T", "0", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert set(rows[0]) == {"x", "y", "u1", "u2"}


def test_solve_snapshots(tmp_path):
    # sbdf4 steps through the same loop as the one-step schemes, snapshots included
    for scheme, m, T, last in (("etdrk4p22if", "9", "1", 4), ("sbdf4", "5", "2", 8)):
        out = tmp_path / f"{scheme}.csv"
        code = cli.main(["solve", "--problem", "enzyme", "--scheme", scheme, "--m", m,
                         "--k", "0.25", "--T", T, "--out", str(out), "--snapshot-every", "2"])
        assert code == 0
        names = sorted(path.name for path in tmp_path.glob(f"{scheme}_step*.csv"))
        assert names == [f"{scheme}_step{step:06d}.csv" for step in range(2, last + 1, 2)]
        assert (tmp_path / names[-1]).read_bytes() == out.read_bytes()


@pytest.mark.parametrize("out, snapshot", [
    (os.path.join("res.d", "field"), os.path.join("res.d", "field_step000001.csv")),
    (".hidden", ".hidden_step000001.csv"),
])
def test_snapshot_names_take_the_extension_from_the_file_name(out, snapshot, tmp_path,
                                                              monkeypatch):
    # A dot in a directory name, or a leading dot, is no extension.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.d").mkdir()
    code = cli.main(["solve", "--problem", "enzyme", "--m", "4", "--k", "0.25",
                     "--T", "0.25", "--out", out, "--snapshot-every", "1"])
    assert code == 0
    assert (tmp_path / snapshot).read_bytes() == (tmp_path / out).read_bytes()
    made = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert made == sorted([out, snapshot])


@pytest.mark.parametrize("every", ["0", "-2"])
def test_solve_rejects_snapshot_cadence_below_one(every, tmp_path, monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("discretized before --snapshot-every was checked")
    monkeypatch.setattr(cli, "discretize", no_compute)
    out = tmp_path / "run.csv"
    code = cli.main(["solve", "--problem", "enzyme", "--m", "5", "--k", "0.25",
                     "--T", "1", "--out", str(out), "--snapshot-every", every])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "snapshot-every" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def _solve_argv(k, T, *extra):
    return ["solve", "--problem", "enzyme", "--m", "4000", "--k", k, "--T", T, *extra]


def _converge_argv(k0, *extra):
    return ["converge", "--problem", "enzyme", "--k0", k0, "--levels", "2", "--mode", "self",
            "--coupling", "fixed_h", "--m", "1000", "--T", "1", *extra]


@pytest.mark.parametrize("argv,words", [
    pytest.param(_solve_argv("0.3", "1"), "multiple of k", id="0.3-1"),
    pytest.param(_solve_argv("0.25", "-1"), "multiple of k", id="0.25--1"),
    pytest.param(_solve_argv("1e-310", "1"), "T/k", id="tiny-k"),
    pytest.param(_solve_argv("1e-300", "1"), "T/k", id="step-count-beyond-int64"),
    pytest.param(_solve_argv("0.5", "1", "--scheme", "sbdf4"), "T/k >= 4", id="sbdf4-short"),
    pytest.param(_solve_argv("0.25", "1", "--scheme", "sbdf4", "--smoothing-steps", "1"),
                 "presmoothing", id="sbdf4-presmoothed"),
    pytest.param(_solve_argv("0.25", "1", "--smoothing-steps", "9"),
                 "smoothing_steps must lie", id="smoothing-above-step-count"),
    pytest.param(_solve_argv("0.5", "0", "--smoothing-steps", "-1"),
                 "smoothing_steps must lie", id="smoothing-negative-at-T-0"),
    pytest.param(_converge_argv("0.5", "--scheme", "sbdf4"), "T/k >= 4", id="converge-sbdf4-short"),
    pytest.param(_converge_argv("1e-310", "--scheme", "etdrk4p22if"), "T/k",
                 id="converge-tiny-k0"),
])
def test_solve_rejects_t_not_a_multiple_of_k_before_discretize(argv, words, monkeypatch, capsys):
    # every invalid run is rejected before either command builds a grid
    calls = []
    monkeypatch.setattr(cli, "discretize", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(analysis, "discretize", lambda *args, **kwargs: calls.append(args))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and calls == []
    assert captured.err.count("\n") == 1 and words in captured.err
    assert captured.out == ""


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.mark.parametrize("scheme,loads_sparse", [("etdrk4p22if", False), ("sbdf4", False),
                                                 ("etdrk4p22", True)])
def test_only_the_sparse_baseline_imports_scipy_sparse(scheme, loads_sparse, tmp_path):
    # a fresh interpreter runs one solve, then lists the scipy.sparse modules it holds
    argv = ["solve", "--problem", "enzyme", "--scheme", scheme, "--m", "5",
            "--k", "0.25", "--T", "1", "--out", str(tmp_path / "u.csv")]
    script = ("import sys\n"
              "from etdsplit.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, [m for m in sys.modules if m.startswith('scipy.sparse')])\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, modules = proc.stdout.split(" ", 1)
    assert code == "0"
    assert (modules.strip() != "[]") == loads_sparse, modules


@pytest.mark.parametrize("argv", [
    pytest.param(None, id="import-only"),
    pytest.param(["solve", "--problem", "model_dirichlet", "--scheme", "sbdf4", "--m", "9",
                  "--k", "0.25", "--T", "1"], id="sbdf4"),
    pytest.param(["solve", "--problem", "brusselator", "--scheme", "smoother-only", "--m", "9",
                  "--k", "0.25", "--T", "0.5"], id="smoother-only"),
    pytest.param(["solve", "--problem", "model_dirichlet", "--m", "103", "--k", "0.05",
                  "--T", "0.05"], id="grid-space-dirichlet-p103"),
    pytest.param(["converge", "--problem", "model_neumann", "--scheme", "etdrk4p22if",
                  "--k0", "0.05", "--levels", "1", "--coupling", "fixed_h", "--m", "101",
                  "--T", "0.05"], id="grid-space-neumann-p103"),
    pytest.param(["solve", "--problem", "model_dirichlet", "--m", "104", "--k", "0.05",
                  "--T", "0.05"], id="parity-p104"),
    pytest.param(["solve", "--problem", "model_dirichlet", "--m", "319", "--k", "0.05",
                  "--T", "0.05"], id="parity-p319"),
    pytest.param(["solve", "--problem", "model_dirichlet", "--m", "104", "--k", "0.05",
                  "--T", "0"], id="parity-p104-no-step"),
    pytest.param(["converge", "--problem", "model_neumann", "--scheme", "etdrk4p22if",
                  "--k0", "0.05", "--levels", "1", "--coupling", "fixed_h", "--m", "102",
                  "--T", "0"], id="parity-neumann-p104-no-step"),
])
def test_no_run_imports_scipy_fft(argv, tmp_path):
    # a fresh interpreter imports the CLI and runs one command, then lists
    # the scipy modules it holds: none, as every split run, in grid space or
    # in its even/odd basis above GRID_SPACE_MAX_P, steps with numpy alone
    script = ("import json, sys\n"
              "import etdsplit.cli as cli\n"
              f"argv = {argv!r}\n"
              "code = None if argv is None else cli.main(argv + ['--out', sys.argv[1]])\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.split('.')[0] == 'scipy')]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.csv")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == (None if argv is None else 0) and modules == [], modules


def test_interrupt_exits_130_with_one_line(tmp_path):
    # SIGINT once the first snapshot is written: one stderr line naming the
    # step and t reached, exit 130 and no final --out file
    out = tmp_path / "u.csv"
    argv = ["solve", "--problem", "model_dirichlet", "--m", "39", "--k", "0.0125",
            "--T", "1000", "--out", str(out), "--snapshot-every", "10"]
    # a shell that starts a background job ignores SIGINT in it; restore the
    # default handler so the child sees the interrupt a terminal would send
    script = ("import signal, sys\n"
              "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
              "from etdsplit.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120.0
        while not list(tmp_path.glob("u_step*.csv")):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "no snapshot within 120 s"
            time.sleep(0.02)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("etdsplit: interrupted after step "), err
    assert "(t = " in lines[0]
    assert not out.exists()


def test_closed_stdout_exits_141_quietly():
    # the reader takes one line of the field and closes the pipe (as
    # `| head -1` does): exit 141 as SIGPIPE would, with nothing on stderr
    argv = ["solve", "--problem", "enzyme", "--m", "60", "--k", "0.25", "--T", "0"]
    script = ("import sys\n"
              "from etdsplit.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == "x,y,u\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert proc.returncode == 141, err
    assert err == ""


@pytest.mark.parametrize("message", ["Unable to allocate 71.1 PiB for an array", ""])
def test_out_of_memory_exits_one_with_one_line(message, monkeypatch, capsys):
    def oversized(*args, **kwargs):
        raise MemoryError(message)
    monkeypatch.setattr(cli, "discretize", oversized)
    code = cli.main(["solve", "--problem", "enzyme", "--m", "100000000", "--k", "0.25",
                     "--T", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "out of memory" in captured.err
    assert (message or "allocation failed") in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--problem", "enzyme", "--m", "100000000", "--k", "0.25", "--T", "1"],
                 id="solve"),
    pytest.param(["solve", "--problem", "enzyme", "--m", "100000000", "--k", "0.25", "--T", "0"],
                 id="solve-T0"),
    pytest.param(["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if", "--k0", "0.1",
                  "--levels", "2", "--mode", "self", "--coupling", "fixed_h",
                  "--m", "100000000"], id="converge"),
])
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_unallocatable_grid_exits_one_before_any_axis_array(argv):
    # m = 1e8 passes the index-range check, but its (p, p) field (72.8 PiB)
    # cannot be allocated.  The grid's own check must refuse it before any
    # p-length array: the axis nodes alone take 800 MB.  The child runs with
    # one BLAS thread under a 1 GiB address-space cap, so a wrong order fails
    # at once instead of filling the host's memory.  It reports its peak RSS
    # as VmHWM: Linux carries the forking process's peak into ru_maxrss.
    script = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from etdsplit.cli import main\n"
              f"code = main({argv!r})\n"
              "with open('/proc/self/status') as fh:\n"
              "    print(code, next(ln.split()[1] for ln in fh if ln.startswith('VmHWM')))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    code, maxrss_kib = proc.stdout.split()
    assert code == "1", proc.stderr
    assert proc.stderr.count("\n") == 1 and "out of memory" in proc.stderr
    assert int(maxrss_kib) < 256 * 1024


@pytest.mark.parametrize("argv", [
    pytest.param(["solve", "--problem", "enzyme", "--h", "1e-310", "--k", "0.25", "--T", "1"],
                 id="h-1e-310"),
    pytest.param(["solve", "--problem", "enzyme", "--h", "1e-20", "--k", "0.25", "--T", "1"],
                 id="h-1e-20"),
    pytest.param(["solve", "--problem", "enzyme", "--m", "100000000000", "--k", "0.25",
                  "--T", "1"], id="m-1e11"),
    pytest.param(["converge", "--problem", "enzyme", "--scheme", "etdrk4p22if", "--k0", "0.1",
                  "--levels", "2", "--mode", "self", "--coupling", "fixed_h",
                  "--m", "100000000000"], id="converge-m-1e11"),
    pytest.param(["converge", "--problem", "model_dirichlet", "--scheme", "etdrk4p22if",
                  "--k0", "0.1", "--levels", "2", "--h", "1e-20"], id="converge-h-1e-20"),
])
def test_oversized_grid_exits_one_before_any_array(argv, monkeypatch, capsys):
    # the grid size is checked before any field is allocated; DiscretizedProblem
    # is the first call after the check
    def no_arrays(*args, **kwargs):
        raise AssertionError("an array was allocated before the grid size was checked")
    monkeypatch.setattr(problems, "DiscretizedProblem", no_arrays)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_solve_smoothed_nonsmooth_bounds(tmp_path):
    out = tmp_path / "smooth.csv"
    code = cli.main(["solve", "--problem", "enzyme_nonsmooth", "--h", "0.05",
                     "--k", "0.1", "--T", "1", "--smoothing-steps", "3",
                     "--out", str(out)])
    assert code == 0
    vals = [float(r["u"]) for r in csv.DictReader(out.read_text().splitlines())]
    assert min(vals) >= -1e-6 and max(vals) <= 1.0 + 1e-6


def test_solve_validations(capsys):
    assert cli.main(["solve", "--problem", "enzyme"]) == 1           # no grid
    assert cli.main(["solve", "--problem", "enzyme", "--m", "9"]) == 1  # no k
    assert cli.main(["solve", "--problem", "enzyme", "--m", "9", "--h", "0.1",
                     "--k", "0.1"]) == 1                              # both m and h
    assert cli.main(["solve", "--problem", "enzyme", "--m", "9", "--k", "0.25",
                     "--snapshot-every", "2"]) == 1                   # snapshots need out


def test_table_preset_runs(capsys):
    code = cli.main(["table", "3", "--levels", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "reference" in captured.out
    assert "etdrk4p22if" in captured.out and "etdrk4p22" in captured.out
    # reproduced values sit on top of the reference ones
    for line in captured.out.splitlines():
        if "%" in line:
            dev = float(line.split("%")[0].rsplit(None, 1)[-1])
            assert dev <= 10.0


def test_table_notes_mention_out_of_scope_columns(capsys):
    code = cli.main(["table", "A3", "--levels", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ETDRDP-IF" in captured.out
    assert "out of scope" in captured.out


def test_solve_divergence_reported_once_without_warnings(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["solve", "--problem", "brusselator", "--m", "9", "--k", "5",
                         "--T", "50", "--scheme", "sbdf4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "non-finite state" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_table_rejects_levels_before_printing(levels, capsys):
    code = cli.main(["table", "1", "--levels", levels])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "level" in captured.err


def test_threads_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--problem", "enzyme", "--m", "5", "--k", "0.5",
                  "--T", "1", "--threads", "2"])
    assert exc.value.code == 1
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("problem = enzyme\nm = 5\nk = 0.5\nT = 1\nthreads = 2\n")
    assert cli.main(["solve", "--config", str(cfg)]) == 1
    assert "threads" in capsys.readouterr().err


# ---- field CSV: the writer against the one-row-at-a-time and block forms ----

def _assert_same_text(got: str, want: str) -> None:
    """Exact equality, reported by the first differing line: a whole-text diff takes minutes."""
    bad = [i for i, (a, b) in enumerate(zip(got.split("\n"), want.split("\n"))) if a != b]
    assert not bad and got == want, f"{len(bad)} lines differ, the first is line {bad[:1]}"


def _row_by_row_field_csv(grid, u) -> str:
    """The field CSV as csv.writer writes it from _fmt-formatted cells."""
    buf = io.StringIO()
    species = u.shape[0]
    writer = csv.writer(buf, lineterminator="\n")
    names = ["u"] if species == 1 else [f"u{i + 1}" for i in range(species)]
    writer.writerow(["x", "y"] + names)
    nodes = grid.axis_nodes()
    for iy in range(grid.p1d):
        for ix in range(grid.p1d):
            writer.writerow([_fmt(nodes[ix]), _fmt(nodes[iy])]
                            + [_fmt(float(u[s, iy, ix])) for s in range(species)])
    return buf.getvalue()


@pytest.mark.parametrize("species", [1, 2])
@pytest.mark.parametrize("grid", [Grid2D(a=-1.5, b=2.0, m=5, bc=DIRICHLET),
                                  Grid2D(a=0.0, b=1.0, m=40, bc=NEUMANN)])
def test_field_csv_matches_row_by_row_form(grid, species):
    # m=40 Neumann spans one full row block and a partial one
    p = grid.p1d
    rng = np.random.default_rng(p + species)
    u = rng.normal(size=(species, p, p)) * 10.0 ** rng.integers(-300, 300, size=(species, p, p))
    u.flat[:6] = [0.0, -0.0, 1.0, -1e-320, 0.1, 2.0 ** 60]
    got = io.StringIO()
    cli._write_field_csv(got, grid, u)
    _assert_same_text(got.getvalue(), _row_by_row_field_csv(grid, u))


@pytest.mark.parametrize("species", [1, 2])
@pytest.mark.parametrize("grid", [Grid2D(a=-1.5, b=2.0, m=33, bc=DIRICHLET),
                                  Grid2D(a=0.0, b=1.0, m=40, bc=NEUMANN),
                                  Grid2D(a=0.0, b=1.0, m=3, bc=DIRICHLET)])
def test_field_csv_matches_the_block_writer(grid, species):
    # m=33 Dirichlet (1089 rows) and m=40 Neumann (1764) pass one full
    # 1024-row block of the block writer and end in a partial one
    p = grid.p1d
    rng = np.random.default_rng(7 * p + species)
    u = rng.normal(size=(species, p, p)) * 10.0 ** rng.integers(-300, 300, size=(species, p, p))
    u.flat[-4:] = [-0.0, 5e-324, np.nextafter(1.0, 2.0), -1e300]
    got = io.StringIO()
    cli._write_field_csv(got, grid, u)
    _assert_same_text(got.getvalue(), block_field_csv(grid, u))


def test_field_csv_value_text_is_fmt():
    grid = Grid2D(a=0.0, b=1.0, m=3, bc=DIRICHLET)
    u = np.full((1, 3, 3), 0.1)
    got = io.StringIO()
    cli._write_field_csv(got, grid, u)
    lines = got.getvalue().splitlines()
    assert lines[0] == "x,y,u"
    assert lines[1] == ",".join([_fmt(0.25), _fmt(0.25), _fmt(0.1)])
    assert lines[1] == "0.25,0.25,0.10000000000000001"


def test_snapshot_file_matches_row_by_row_form(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["solve", "--problem", "brusselator", "--m", "6", "--k", "0.05",
                     "--T", "0.2", "--out", str(out), "--snapshot-every", "2"])
    assert code == 0
    disc = discretize(make_problem("brusselator"), 6)
    at_step_2 = steppers.integrate(disc, steppers.ETDRK4P22IF, 0.05, 0.1)
    snapshot = (tmp_path / "run_step000002.csv").read_bytes().decode("utf-8")
    _assert_same_text(snapshot, _row_by_row_field_csv(disc.grid, at_step_2))


# ---- input contract: misplaced grid flags, a given --k, and a fuzz ----

@pytest.mark.parametrize("grid_flags", [
    ["--h", "0.0785", "--m", "5"],                               # k_eq_h, default coupling
    ["--coupling", "fixed_h", "--mode", "self", "--h", "0.3", "--m", "5"],
])
def test_converge_rejects_conflicting_grid_flags(grid_flags, monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the grid flags were checked")
    monkeypatch.setattr(cli, "run_study", no_compute)
    code = cli.main(["converge", "--problem", "model_dirichlet", "--scheme", "etdrk4p22if",
                     "--k0", "0.1", "--levels", "1"] + grid_flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "--m" in captured.err
    assert captured.out == ""


def test_solve_validates_given_k_at_t_zero(capsys):
    code = cli.main(["solve", "--problem", "enzyme", "--m", "5", "--k", "-1", "--T", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1 and "k" in captured.err
    assert captured.out == ""


_NUMBERS = ("0", "-1", "0.25", "0.5", "1", "nan", "inf")
_STEPS = _NUMBERS + ("1e-310",)  # 1e-310 makes T/k overflow to inf


def _flag(values):
    return st.none() | st.sampled_from(values)


# The flags each command requires are always given, so most draws get past
# the missing-flag checks (tested above) to the values.
_COMMON_FLAGS = {
    "--problem": st.sampled_from(PROBLEM_NAMES),
    "--m": _flag(("-1", "0", "2", "3", "5", "9", "100000000000")),
    "--h": _flag(("0.25", "-1", "nan", "1e-310", "1e-20")),
    "--T": _flag(_NUMBERS),
    "--smoothing-steps": _flag(("-1", "0", "1", "3")),
}
_COMMAND_FLAGS = {
    "solve": {"--k": st.sampled_from(_STEPS),
              "--snapshot-every": _flag(("-1", "0", "2"))},
    "converge": {"--k0": st.sampled_from(_STEPS),
                 "--levels": _flag(("-1", "0", "1", "2", "3")),
                 "--mode": _flag(("exact", "self")),
                 "--coupling": _flag(("k_eq_h", "fixed_h"))},
}


@st.composite
def _cli_inputs(draw):
    """argv for solve or converge; the scheme goes by flag or config file.

    The config file also gets one more key = value line, drawn from the
    options of either command.
    """
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    for name, values in {**_COMMON_FLAGS, **_COMMAND_FLAGS[command]}.items():
        value = draw(values)
        if value is not None:
            argv += [name, value]
    scheme = draw(st.sampled_from(steppers.SCHEMES + ("rk45",)))
    in_config = draw(st.booleans())
    flags = {**_COMMON_FLAGS, **_COMMAND_FLAGS["solve"], **_COMMAND_FLAGS["converge"]}
    key = draw(st.sampled_from(sorted(flags)))
    config_line = f"{key[2:]} = {draw(flags[key].filter(lambda v: v is not None))}\n"
    with_out = draw(st.booleans())
    return argv, scheme, in_config, config_line, with_out


@settings(max_examples=100, deadline=None)
@given(_cli_inputs())
def test_cli_fuzz_exit_code_and_one_line(inputs):
    argv, scheme, in_config, config_line, with_out = inputs
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if in_config:
            config = os.path.join(tmp, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(f"scheme = {scheme}\n" + config_line)
            argv += ["--config", config]
        else:
            argv += ["--scheme", scheme]
        if with_out:
            argv += ["--out", os.path.join(tmp, "out.csv")]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert text.count("\n") + len(caught) <= 1, (argv, text, [str(w.message) for w in caught])
    assert "Traceback" not in text
    if code != 0:
        assert text.count("\n") == 1, (argv, text)
