import contextlib
import ctypes
import dataclasses
import json
import math
import os
import pickle
import re
import shutil
import signal
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import fednb.cli
import fednb.config
import fednb.experiment
import fednb.weights
from fednb.cli import main
from fednb.config import config_from_dict
from fednb.errors import CellError, ConfigError, FedNBError, PartitionError
from fednb.experiment import CellResult, ExperimentRecord, GridResult, emit_results_csv, prepare_cell
from fednb.partition import jsd_heterogeneity

ROOT = Path(__file__).resolve().parents[1]
SYNTH_CFG = ROOT / "configs" / "synth.cfg"
PLOT_FILES = (
    "gradient_curves.tsv",
    "alignment_bars.tsv",
    "weight_trajectories.tsv",
    "density_profiles.tsv",
)

SMALL_CFG = """\
[experiment]
name = cli-test
seed = 7
alphas = 0.1, 0.5, 1.0
reps = 1
proposals = C, B, E, A
train_frac = 0.6
val_frac = 0.2
test_frac = 0.2
lambda = 0.10
floor_delta = 0.05
max_iters = 500
n_starts = 5

[synth]
n_rows = 900
n_classes = 2
n_categorical = 1
n_numerical = 2
n_categories = 4
class_sep = 2.0
node_noise = 0.0, 0.2, 0.45

[profiles]
Financial = 4, 0.82, 0.12, 3.2
Health = 3, 0.70, 0.25, 5.1
Government = 2, 0.55, 0.40, 6.8
"""


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.cfg"
    p.write_text(SMALL_CFG)
    return p


@pytest.fixture(scope="module")
def grid_dir(cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    code = main(["run-grid", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return out


def test_run_grid_outputs(grid_dir):
    for name in ("results.csv", "grid.json", "verification.txt", "verification.kv"):
        assert (grid_dir / name).exists()
    for name in PLOT_FILES:
        assert (grid_dir / "plots" / name).exists()
    rows = fednb.cli._load_bundle(str(grid_dir)).rows
    assert len(rows) == 3 * 1 * 4


def test_run_grid_verification_text(grid_dir, capsys):
    text = (grid_dir / "verification.txt").read_text()
    assert "15/15" in text
    kv = dict(
        line.split("=", 1) for line in (grid_dir / "verification.kv").read_text().split()
    )
    assert kv["passed_count"] == "15"
    assert kv["total"] == "15"


ONE_REP_CFG = """\
[experiment]
name = one-rep
seed = 7
alphas = 0.10, 1.00
reps = 1
proposals = C, B, E, A

[synth]
n_rows = 600
n_classes = 2
n_categorical = 2
n_numerical = 3
n_categories = 4
class_sep = 2.0
node_noise = 0.0, 0.2, 0.45

[profiles]
Financial = 4, 0.82, 0.12, 3.2
Health = 3, 0.70, 0.25, 5.1
Government = 2, 0.55, 0.40, 6.8
"""


def test_one_rep_grid_passes_whatever_its_single_partition_draws(tmp_path, capsys):
    # at this seed the one Dirichlet draw at alpha 0.10 is less heterogeneous
    # than the one at 1.00, so a per-rep JSD drop would fail a correct grid
    cfg = tmp_path / "one-rep.cfg"
    cfg.write_text(ONE_REP_CFG)
    assert main(["run-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "[PASS] jsd_gradient_per_rep: single rep (vacuous)" in out
    assert out.rstrip().endswith("15/15 passed")


def test_run_grid_deterministic_csv(cfg_path, tmp_path, grid_dir):
    out2 = tmp_path / "again"
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out2 / "results.csv").read_bytes() == (grid_dir / "results.csv").read_bytes()


def test_verify_on_fresh_results(grid_dir, capsys):
    assert main(["verify", "--results", str(grid_dir)]) == 0
    out = capsys.readouterr().out
    assert "15/15" in out
    assert out == (grid_dir / "verification.txt").read_text()  # what run-grid printed


def _cells_copy(grid_dir, dest, edit):
    """A copy of grid_dir at dest whose grid.json holds its grid after
    edit(cells), which changes the grid's list of CellResults in place; its
    results.csv is the CSV of the edited grid."""
    shutil.copytree(grid_dir, dest)
    result = fednb.cli._load_bundle(str(grid_dir))
    edit(result.cells)
    fednb.cli._save_bundle(result, str(dest))
    emit_results_csv(result, dest / "results.csv")
    return dest


def _keep_grid(monkeypatch, path):
    """Patch cli.run_grid to pickle the GridResult it returns into the file
    path, from the process that calls it: the grid process, where the cells
    run in workers."""
    real_run_grid = fednb.cli.run_grid

    def run_grid(*args):
        outcomes = real_run_grid(*args)
        path.write_bytes(pickle.dumps(outcomes[0]))  # the GridResult, beside the replayed cells
        return outcomes

    monkeypatch.setattr(fednb.cli, "run_grid", run_grid)


def test_grid_json_keeps_the_records_of_run_grid_exactly(cfg_path, tmp_path, monkeypatch, capsys):
    _keep_grid(monkeypatch, tmp_path / "grid.pickle")
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(out)]) == 0
    loaded = fednb.cli._load_bundle(str(out))
    assert loaded.rows == pickle.loads((tmp_path / "grid.pickle").read_bytes()).rows
    assert [type(x) for x in dataclasses.astuple(loaded.cells[-1].records[-1])] == [str, float, float, tuple, float]


def test_verify_detects_corruption(grid_dir, tmp_path, capsys):
    def heavier_last_a(cells):  # tamper the learned weights of the final A record
        last = cells[-1].records[-1]
        last.weights = (last.weights[0] + 0.2, *last.weights[1:])

    corrupt = _cells_copy(grid_dir, tmp_path / "corrupt", heavier_last_a)
    assert main(["verify", "--results", str(corrupt)]) == 2
    assert "weights_sum_to_one" in capsys.readouterr().out


def test_verify_names_the_first_field_where_the_rerun_diverges(grid_dir, tmp_path, capsys):
    first = fednb.cli._load_bundle(str(grid_dir)).cells[0].records[0]  # proposal C of the cell check 2 re-runs
    moved_f1 = first.f1_macro - 1e-6 if first.f1_macro > 0.5 else first.f1_macro + 1e-6

    def move_first_f1(cells):
        cells[0].records[0].f1_macro = moved_f1

    moved = _cells_copy(grid_dir, tmp_path / "moved", move_first_f1)
    assert main(["verify", "--results", str(moved)]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    # both F1 values are quoted at full precision
    want = re.escape("[FAIL] seed_reproducibility: first cell re-run diverges at cells[0].records[0].f1_macro = "
                     ) + r"0\.\d+" + re.escape(f", recorded {moved_f1}")
    assert len(failed) == 1 and re.fullmatch(want, failed[0]), failed


def test_a_last_ulp_change_to_a_rerun_record_fails_check_2_alone(grid_dir, tmp_path, capsys):
    """The change is far below results.csv's 6 decimals, so that file stays as it is."""
    f1 = json.loads((grid_dir / "grid.json").read_text())["cells"][0]["records"][0]["f1_macro"]  # C of the re-run cell
    up = math.nextafter(f1, math.inf)
    edit = _set("cells", 0, "records", 0, "f1_macro", value=up)
    moved = _corrupt_copy(grid_dir, tmp_path / "moved", "grid.json", edit)
    assert (moved / "results.csv").read_bytes() == (grid_dir / "results.csv").read_bytes()
    assert main(["verify", "--results", str(moved)]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert failed == [
        f"[FAIL] seed_reproducibility: first cell re-run diverges at cells[0].records[0].f1_macro = {f1}, recorded {up}"
    ]


def test_a_results_csv_edited_alone_exits_1_naming_it_and_the_row(grid_dir, tmp_path, capsys):
    def other_last_f1(text):
        lines = text.splitlines()
        fields = lines[-1].split(",")  # proposal A of the last cell, which check 2 does not re-run
        fields[4] = f"{float(fields[4]) / 2:.6f}"  # f1_macro, still a valid number
        lines[-1] = ",".join(fields)
        return "\n".join(lines) + "\n"

    edited = _corrupt_copy(grid_dir, tmp_path / "edited", "results.csv", other_last_f1)
    for argv in (["verify"], ["emit-plots", "--out", str(tmp_path / "plots")]):
        assert main([*argv, "--results", str(edited)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited / 'results.csv'}: row 12 is [") and "grid.json" in err, err
        assert err.count("\n") == 1
    assert not (tmp_path / "plots").exists()


def test_a_nan_final_objective_fails_check_15_alone(grid_dir, tmp_path, capsys):
    """np.argmin returns the index of the first NaN, so a chosen NaN start
    would pass a check that only compared it with the lowest objective. The
    trace is the last cell's, which check 2 does not re-run."""
    def nan_chosen_start(text):
        bundle = json.loads(text)
        trace = bundle["cells"][-1]["trace"]
        trace["starts"][0]["final_objective"] = math.nan
        trace["chosen"] = 0
        return json.dumps(bundle)

    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", nan_chosen_start)
    assert main(["verify", "--results", str(bad)]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] trace_sanity: ")
    assert re.search(r"; trace \(alpha_index, rep\) \(2, 0\) has final objectives \[nan, [^]]+\]$", failed[0]), failed


def test_verify_exits_2_on_an_infinite_anll_and_check_5_alone_names_it(grid_dir, tmp_path, capsys):
    def infinite_last_anll(cells):
        cells[-1].records[-1].anll = math.inf  # proposal A of the last cell, which check 2 does not re-run

    bad = _cells_copy(grid_dir, tmp_path / "bad", infinite_last_anll)
    assert main(["verify", "--results", str(bad)]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert failed == ["[FAIL] mog_scores_finite: bad scores at (alpha, rep, proposal) (1.0, 0, 'A'): anll = inf"]


def test_verify_names_a_cell_row_replaced_by_another_of_the_same_cell(grid_dir, tmp_path, capsys):
    def e_row_as_c_row(cells):
        records = cells[-1].records  # C, B, E, A
        records[-2] = records[-4]

    replaced = _cells_copy(grid_dir, tmp_path / "replaced", e_row_as_c_row)
    assert main(["verify", "--results", str(replaced)]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] grid_completeness: 12/12 records; (alpha, rep, proposal) (1.0, 0, 'C') appears 2 times"
    ]


def test_grid_json_keys_stage_times_by_cell_and_stage(grid_dir):
    cells = json.loads((grid_dir / "grid.json").read_text())["cells"]
    assert [(cell["alpha_index"], cell["rep"]) for cell in cells] == [(0, 0), (1, 0), (2, 0)]
    for cell in cells:
        assert list(cell["stage_ms"]) == ["split", "partition", "degrade", "fit", "stack", "optimize", "score"]
        assert all(isinstance(ms, float) for ms in cell["stage_ms"].values())
    # read back as the plain dict it was saved as
    assert [cell.stage_ms for cell in fednb.cli._load_bundle(str(grid_dir)).cells] == [
        cell["stage_ms"] for cell in cells
    ]


def test_grid_json_holds_the_config_and_the_cells_of_run_grid_but_their_timings(
    cfg_path, tmp_path, monkeypatch, capsys
):
    _keep_grid(monkeypatch, tmp_path / "grid.pickle")
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(out)]) == 0
    held = pickle.loads((tmp_path / "grid.pickle").read_bytes())
    bundle = json.loads((out / "grid.json").read_text())
    assert list(bundle) == ["config", "cells"]
    assert all(list(cell) == [f.name for f in dataclasses.fields(CellResult)] for cell in bundle["cells"])
    # a record holds its proposal's results alone; alpha, rep, JSD and dataset name are its cell's
    assert [f.name for f in dataclasses.fields(ExperimentRecord)] == [
        "proposal", "f1_macro", "anll", "weights", "mcnemar_p_vs_B"
    ]
    assert all(list(r) == ["proposal", "f1_macro", "anll", "weights", "mcnemar_p_vs_B"]
               for cell in bundle["cells"] for r in cell["records"])
    loaded = fednb.cli._load_bundle(str(out))
    assert loaded.config == held.config
    for got, want in zip(loaded.cells, held.cells, strict=True):
        assert (got.alpha_index, got.rep, got.records) == (want.alpha_index, want.rep, want.records)
        assert got.counts == want.counts
        assert all(type(n) is int for row in got.counts for n in row)
        assert got.density.dtype == want.density.dtype and got.density.shape == want.density.shape
        assert got.density.tobytes() == want.density.tobytes()
        assert got.trace.chosen == want.trace.chosen and len(got.trace.starts) == len(want.trace.starts)
        for s, t in zip(got.trace.starts, want.trace.starts):
            assert (s.final_objective, s.evaluations, s.iterations, s.converged) == (
                t.final_objective, t.evaluations, t.iterations, t.converged
            )
            assert s.initial_theta.tobytes() == t.initial_theta.tobytes()
            assert s.final_theta.tobytes() == t.final_theta.tobytes()


def test_verify_missing_directory(tmp_path, capsys):
    assert main(["verify", "--results", str(tmp_path / "nope")]) == 1


def test_run_grid_with_overrides(cfg_path, tmp_path):
    out = tmp_path / "o"
    code = main(
        ["run-grid", "--config", str(cfg_path), "--out", str(out), "--set", "alphas=0.05,1.0"]
    )
    assert code == 0
    rows = fednb.cli._load_bundle(str(out)).rows
    assert len(rows) == 2 * 1 * 4
    bundle = json.loads((out / "grid.json").read_text())
    assert bundle["config"]["alphas"] == [0.05, 1.0]


def test_unknown_override_is_usage_error(cfg_path, tmp_path, capsys):
    code = main(
        ["run-grid", "--config", str(cfg_path), "--out", str(tmp_path), "--set", "bogus=1"]
    )
    assert code == 64


def test_infeasible_floor_is_usage_error(cfg_path, tmp_path, capsys):
    code = main(
        ["run-grid", "--config", str(cfg_path), "--out", str(tmp_path), "--set", "delta=0.4"]
    )
    assert code == 64
    assert "floor" in capsys.readouterr().err


def test_failed_cell_exits_1_and_names_the_cell(cfg_path, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise PartitionError("forced failure")

    monkeypatch.setattr(fednb.experiment, "dirichlet_partition", broken)
    code = main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "alpha=0.1" in err and "rep=0" in err and "forced failure" in err


def test_a_nan_objective_exits_1_and_names_the_cell(cfg_path, tmp_path, monkeypatch, capsys, pin_cpus):
    # the first cell (alpha 0.1) makes 1492 objective evaluations, so the
    # 2001st, the first NaN, falls in the second; the counters live in this
    # process, so the cells must run here
    pin_cpus(1)
    real, calls, cells = fednb.weights.anll_from_stacked, [], []

    def turns_nan(*args):
        calls.append(1)
        return real(*args) if len(calls) <= 2000 else float("nan")

    real_cell = fednb.experiment.run_cell

    def recording_cell(config, alpha, rep, *rest):
        cells.append((alpha, rep))
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.weights, "anll_from_stacked", turns_nan)
    monkeypatch.setattr(fednb.experiment, "run_cell", recording_cell)
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert cells == [(0.1, 0), (0.5, 0)] and len(calls) == 2001
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: cell \(alpha=0\.5, rep=0\) failed: objective not finite at \[[^]]+\]: nan\n", err
    ), err


def _no_child_process_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _log_forks(monkeypatch, log):
    """Patch os.fork to append "parent child" pids to the file log at each
    fork, from the child before it returns, so that a parent killed at once
    misses none: the grid process's forks of its workers too, since it
    inherits the patch."""
    real_fork = os.fork

    def fork():
        parent = os.getpid()  # not the child's getppid(), which reads 1 once an orphan
        pid = real_fork()
        if pid == 0:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{parent} {os.getpid()}\n")
        return pid

    monkeypatch.setattr(os, "fork", fork)


def _forks(log):
    """The (parent, child) pids of each fork _log_forks logged, in order."""
    return [tuple(map(int, line.split())) for line in log.read_text(encoding="utf-8").splitlines()]


def _gone(pid):
    """True once no process runs as pid: none has it, or a zombie does, one
    that has ended but that its parent (init, for an orphan) has not reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "Z"


def _grid_process_and_workers(log, here):
    """The grid process this process forked (one, after _log_forks) and the
    workers that it forked."""
    forks = _forks(log)
    (grid,) = [child for parent, child in forks if parent == here]
    assert all(parent in (here, grid) for parent, _ in forks), forks
    return grid, [child for parent, child in forks if parent == grid]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process once seconds pass, so that a hung
    command fails its test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _untimed_grid(out):
    bundle = json.loads((out / "grid.json").read_text())
    for cell in bundle["cells"]:
        del cell["stage_ms"]
    return bundle


def _one_and_two_cpus_write_the_same_outputs(cfg_path, tmp_path, monkeypatch, pin_cpus):
    """Run the grid on one CPU, which forks nothing, and then on two, where
    this process forks the grid process and it forks two workers; both runs
    write the same outputs, all but the timings in grid.json."""
    log = tmp_path / "forks"
    _log_forks(monkeypatch, log)
    outs = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        outs.append(tmp_path / f"cpus{cpus}")
        with _deadline(120):
            assert main(["run-grid", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
        assert log.exists() == (cpus == 2)
    _, workers = _grid_process_and_workers(log, os.getpid())
    assert len(workers) == 2
    serial, pooled = outs
    for name in ["results.csv", "verification.txt", "verification.kv", *(f"plots/{f}" for f in PLOT_FILES)]:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name
    assert _untimed_grid(serial) == _untimed_grid(pooled)
    assert _no_child_process_left()


def test_one_and_two_workers_write_the_same_outputs(cfg_path, tmp_path, monkeypatch, pin_cpus):
    _one_and_two_cpus_write_the_same_outputs(cfg_path, tmp_path, monkeypatch, pin_cpus)


def test_a_grid_process_report_larger_than_a_pipe_is_read_whole(cfg_path, tmp_path, monkeypatch, pin_cpus):
    """Cells 0 and 1 and the replay get a (2, 2**14) density, 256 kB each,
    in whichever process runs them, so the grid process's report holds more
    than a pipe's 64 kB. Were the grid process reaped before its pipe is
    read, each would wait for the other. The last cell, whose density the
    plots draw, keeps its own."""
    real_cell = fednb.experiment.run_cell

    def cell(config, alpha, rep, *rest):
        result = real_cell(config, alpha, rep, *rest)
        if alpha != 1.0:
            result.density = np.zeros((2, 2**14))
        return result

    monkeypatch.setattr(fednb.experiment, "run_cell", cell)
    _one_and_two_cpus_write_the_same_outputs(cfg_path, tmp_path, monkeypatch, pin_cpus)


def test_the_earliest_failing_cell_is_named_though_a_later_one_fails_first(
    cfg_path, tmp_path, monkeypatch, capsys, pin_cpus
):
    """Of the three cells, worker 0 runs cells 0 and 2 and worker 1 runs cell 1
    (and then check 2's replay of cell 0). Cell 2 fails first; cell 1 fails
    after it, and is the one named."""
    pin_cpus(2)
    failed_late, real_cell = tmp_path / "cell 2 failed", fednb.experiment.run_cell

    def failing_cell(config, alpha, rep, *rest):
        if alpha == 1.0:
            failed_late.touch()
            raise PartitionError("the later cell")
        if alpha == 0.5:
            for _ in range(6000):  # up to a minute
                if failed_late.exists():
                    break
                time.sleep(0.01)
            raise PartitionError("the earlier cell")
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.experiment, "run_cell", failing_cell)
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: cell (alpha=0.5, rep=0) failed: the earlier cell\n"
    assert failed_late.exists() and _no_child_process_left()


def test_a_worker_killed_inside_run_cell_exits_1_naming_its_cell(cfg_path, tmp_path, monkeypatch, capsys, pin_cpus):
    pin_cpus(2)
    parent, real_cell = os.getpid(), fednb.experiment.run_cell

    def killed_cell(config, alpha, rep, *rest):
        if alpha == 0.5 and os.getpid() != parent:  # worker 1's first cell
            os.kill(os.getpid(), signal.SIGKILL)
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.experiment, "run_cell", killed_cell)
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: cell (alpha=0.5, rep=0) failed: its worker process was killed by signal 9 before reporting it\n"
    )
    assert _no_child_process_left()


def test_a_worker_killed_in_its_second_cell_exits_1_naming_that_cell(cfg_path, tmp_path, monkeypatch, capsys, pin_cpus):
    """Worker 0 reports cell 0 (alpha 0.1) and dies in cell 2 (alpha 1.0)."""
    pin_cpus(2)
    parent, real_cell = os.getpid(), fednb.experiment.run_cell

    def killed_cell(config, alpha, rep, *rest):
        if alpha == 1.0 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.experiment, "run_cell", killed_cell)
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: cell (alpha=1.0, rep=0) failed: its worker process was killed by signal 9 before reporting it\n"
    )
    assert _no_child_process_left()


def _log_cells(monkeypatch, log, hook=lambda alpha, ran: None):
    """Patch run_cell to append "pid alpha rep" to the file log and then call
    hook(alpha, ran), ran being the alphas of the cells this process ran
    before (each worker gets a copy of the parent's at its fork)."""
    real_cell, ran = fednb.experiment.run_cell, []

    def cell(config, alpha, rep, *rest):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {alpha} {rep}\n")
        hook(alpha, ran)
        ran.append(alpha)
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.experiment, "run_cell", cell)


def _logged(log):
    """The (pid, alpha, rep) lines _log_cells wrote, in order."""
    return [tuple(line.split()) for line in log.read_text(encoding="utf-8").splitlines()]


def test_on_one_cpu_the_replay_runs_here_after_the_grid(cfg_path, tmp_path, monkeypatch, capsys, pin_cpus):
    pin_cpus(1)
    _log_cells(monkeypatch, tmp_path / "cells")
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    here = str(os.getpid())
    assert _logged(tmp_path / "cells") == [(here, alpha, "0") for alpha in ("0.1", "0.5", "1.0", "0.1")]


def test_on_two_cpus_the_parent_runs_no_cell_and_the_last_worker_replays_cell_0(
    cfg_path, tmp_path, monkeypatch, capsys, pin_cpus
):
    """Worker 0 runs cells 0 and 2, worker 1 runs cell 1 and then the replay
    of cell 0 that check 2 compares with it."""
    pin_cpus(2)
    _log_cells(monkeypatch, tmp_path / "cells")
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    logged = _logged(tmp_path / "cells")
    pids = {alpha: {pid for pid, a, _ in logged if a == alpha} for alpha in ("0.1", "0.5", "1.0")}
    assert sorted((a, rep) for _, a, rep in logged) == [("0.1", "0"), ("0.1", "0"), ("0.5", "0"), ("1.0", "0")]
    assert str(os.getpid()) not in pids["0.1"] | pids["0.5"] | pids["1.0"]
    assert len(pids["0.1"]) == 2 and pids["0.1"] == pids["0.5"] | pids["1.0"] and pids["0.5"] != pids["1.0"]
    assert _no_child_process_left()


def _assert_check_2_alone_failed(out, grid_dir, message):
    """out holds grid_dir's outputs, but check 2 FAILs with message."""
    for name in ["results.csv", *(f"plots/{f}" for f in PLOT_FILES)]:
        assert (out / name).read_bytes() == (grid_dir / name).read_bytes(), name
    assert _untimed_grid(out) == _untimed_grid(grid_dir)
    passed = "[PASS] seed_reproducibility: first cell re-run matches"
    text = (grid_dir / "verification.txt").read_text()
    assert passed in text
    want = text.replace(passed, f"[FAIL] seed_reproducibility: {message}").replace("15/15 passed", "14/15 passed")
    assert (out / "verification.txt").read_text() == want
    kv = (grid_dir / "verification.kv").read_text()
    want = kv.replace("check.seed_reproducibility=pass", "check.seed_reproducibility=fail")
    assert (out / "verification.kv").read_text() == want.replace("passed_count=15", "passed_count=14")


def _in_the_replay(alpha, ran):
    """True in the run_cell call of the replay: the only second cell of alpha 0.1 in one process."""
    return alpha == 0.1 and bool(ran)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_replay_that_raises_fails_check_2_alone(cfg_path, grid_dir, tmp_path, monkeypatch, capsys, pin_cpus, cpus):
    pin_cpus(cpus)

    def raises(alpha, ran):
        if _in_the_replay(alpha, ran):
            raise PartitionError("forced replay failure")

    _log_cells(monkeypatch, tmp_path / "cells", raises)
    out = tmp_path / "out"
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(out)]) == 2
    _assert_check_2_alone_failed(out, grid_dir, "re-run failed: forced replay failure")
    assert _no_child_process_left()


def test_a_worker_killed_in_the_replay_fails_check_2_alone(cfg_path, grid_dir, tmp_path, monkeypatch, capsys, pin_cpus):
    """Worker 1 reports cell 1 and dies in the replay, after its grid cells."""
    pin_cpus(2)

    def killed(alpha, ran):
        if _in_the_replay(alpha, ran):
            os.kill(os.getpid(), signal.SIGKILL)

    _log_cells(monkeypatch, tmp_path / "cells", killed)
    out = tmp_path / "out"
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(out)]) == 2
    _assert_check_2_alone_failed(
        out, grid_dir, "re-run failed: its worker process was killed by signal 9 before reporting it")
    assert _no_child_process_left()


def test_no_worker_waits_on_a_full_pipe(cfg_path, tmp_path, pin_cpus, monkeypatch):
    """Worker 0 holds cell 0 until worker 1 has run cell 1 and the replay,
    each of whose reports holds more than a pipe's 64 kB. Were the pipes read
    one after another, worker 1 would wait for the parent, which would wait
    for worker 0."""
    pin_cpus(2)
    config = fednb.config.load_config(cfg_path, {})
    dataset = fednb.experiment.materialize_dataset(config)
    released, real_cell, ran = tmp_path / "worker 1 done", fednb.experiment.run_cell, []

    def cell(config, alpha, rep, *rest):
        ran.append(alpha)
        if ran == [0.1]:  # worker 0's first cell
            for _ in range(3000):  # up to 30 s
                if released.exists():
                    break
                time.sleep(0.01)
            else:
                raise TimeoutError("worker 1 did not finish")
        result = real_cell(config, alpha, rep, *rest)
        if ran[0] == 0.5:  # worker 1
            result.density = np.zeros((2, 2**14))  # 256 kB of report
            if len(ran) == 2:
                released.touch()
        return result

    monkeypatch.setattr(fednb.experiment, "run_cell", cell)
    with _deadline(120):
        grid, (rerun,) = fednb.experiment.run_grid(config, dataset, [(0.1, 0)])
    assert grid.cells[1].density.shape == rerun.density.shape == (2, 2**14)
    assert _no_child_process_left()


@pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
def test_run_grid_leaves_no_child_process(cfg_path, tmp_path, monkeypatch, pin_cpus, fails):
    """On failure, cell 0 fails in worker 0 while worker 1 still runs cell 1,
    and then the replay of cell 0."""
    pin_cpus(2)
    assert _no_child_process_left()
    real_cell, log = fednb.experiment.run_cell, tmp_path / "forks"

    def cell(config, alpha, rep, *rest):
        if fails and alpha == 0.1:
            raise PartitionError("forced failure")
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.experiment, "run_cell", cell)
    _log_forks(monkeypatch, log)
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == (1 if fails else 0)
    grid, workers = _grid_process_and_workers(log, os.getpid())
    assert len(workers) == 2 and all(map(_gone, [grid, *workers]))
    assert _no_child_process_left()


def test_an_interrupted_run_grid_stops_and_reaps_its_workers(cfg_path, tmp_path, monkeypatch, pin_cpus):
    """The SIGINT reaches the run-grid process alone, which passes it on to
    the grid process, which kills and reaps its workers."""
    pin_cpus(2)
    parent, log = os.getpid(), tmp_path / "forks"

    def stuck_cell(config, alpha, rep, *rest):
        if alpha == 0.5:  # worker 1 interrupts the parent, by then waiting for the report
            time.sleep(0.5)
            os.kill(parent, signal.SIGINT)
        time.sleep(30)
        raise PartitionError("not interrupted")

    monkeypatch.setattr(fednb.experiment, "run_cell", stuck_cell)
    _log_forks(monkeypatch, log)
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    finally:
        signal.signal(signal.SIGINT, old)
    assert time.perf_counter() - t0 < 20
    grid, workers = _grid_process_and_workers(log, parent)
    assert len(workers) == 2 and all(map(_gone, [grid, *workers]))
    assert _no_child_process_left()


_STUCK_RUN_GRID = """\
import os, sys, time
import fednb.cli, fednb.experiment

def stuck_cell(*args):
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()} {os.getppid()}\\n")
    time.sleep(30)

fednb.experiment.run_cell = stuck_cell
sys.exit(fednb.cli.main(["run-grid", "--config", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_a_sigint_to_the_process_group_of_run_grid_stops_and_reaps_every_process(cfg_path, tmp_path, pin_cpus):
    """As a terminal's Ctrl-C does, the SIGINT reaches the run-grid process,
    the grid process and the workers at once. run-grid runs in a session of
    its own, so that the SIGINT reaches no other process."""
    pin_cpus(2)
    cells = tmp_path / "cells"  # "pid parent" of each cell's worker
    argv = [sys.executable, "-c", _STUCK_RUN_GRID, str(cells), str(cfg_path), str(tmp_path / "out")]
    proc = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, start_new_session=True,
                            stderr=subprocess.PIPE)
    try:
        with _deadline(120):
            while not cells.exists() or len(cells.read_text(encoding="utf-8").splitlines()) < 2:
                time.sleep(0.01)  # until both workers are in a cell
        t0 = time.perf_counter()
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert time.perf_counter() - t0 < 20
    assert proc.returncode == -signal.SIGINT and b"KeyboardInterrupt" in err
    logged = [tuple(map(int, line.split())) for line in cells.read_text(encoding="utf-8").splitlines()]
    workers, (grid,) = {pid for pid, _ in logged}, {parent for _, parent in logged}
    assert len(workers) == 2 and grid != proc.pid
    assert all(map(_gone, [grid, *workers]))


def test_a_killed_grid_process_exits_1_naming_the_signal(cfg_path, tmp_path, monkeypatch, capsys, pin_cpus):
    """Worker 1 kills the grid process in its first cell. No results are
    written, and each worker stops at its next report, which has no reader."""
    pin_cpus(2)
    parent, log, real_cell = os.getpid(), tmp_path / "forks", fednb.experiment.run_cell

    def cell(config, alpha, rep, *rest):
        if alpha == 0.5 and os.getppid() != parent:  # in worker 1, not in this process or the grid process
            os.kill(os.getppid(), signal.SIGKILL)
        return real_cell(config, alpha, rep, *rest)

    monkeypatch.setattr(fednb.experiment, "run_cell", cell)
    _log_forks(monkeypatch, log)
    out = tmp_path / "out"
    with _deadline(120):
        assert main(["run-grid", "--config", str(cfg_path), "--out", str(out)]) == 1
        grid, workers = _grid_process_and_workers(log, parent)
        while not all(map(_gone, workers)):
            time.sleep(0.01)
    assert capsys.readouterr().err == "error: the grid process was killed by signal 9 before reporting its results\n"
    assert len(workers) == 2 and _gone(grid) and not (out / "results.csv").exists()
    assert _no_child_process_left()


_interrupt_at_fork = []  # the pid of a process whose next fork interrupts it


def _interrupt_after_fork():
    """An after-fork hook in the parent, as logging registers one: off until
    a pid is put in _interrupt_at_fork, then it sends SIGINT to that process
    once."""
    if _interrupt_at_fork and _interrupt_at_fork[0] == os.getpid():
        os.kill(_interrupt_at_fork.pop(), signal.SIGINT)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_parent=_interrupt_after_fork)


def test_a_sigint_while_the_workers_are_forked_stops_and_reaps_them(cfg_path, monkeypatch, pin_cpus):
    """Raised inside the hook, the KeyboardInterrupt would be reported and
    ignored, and run_grid would wait for every cell."""
    pin_cpus(2)
    config = fednb.config.load_config(cfg_path, {})
    dataset = fednb.experiment.materialize_dataset(config)

    def slow_cell(config, alpha, rep, *rest):
        time.sleep(10)
        raise PartitionError("not interrupted")

    monkeypatch.setattr(fednb.experiment, "run_cell", slow_cell)
    old = signal.signal(signal.SIGINT, signal.default_int_handler)
    _interrupt_at_fork.append(os.getpid())
    try:
        t0 = time.perf_counter()
        with _deadline(120), pytest.raises(KeyboardInterrupt):
            fednb.experiment.run_grid(config, dataset, [])
    finally:
        _interrupt_at_fork.clear()
        signal.signal(signal.SIGINT, old)
    assert time.perf_counter() - t0 < 5
    assert _no_child_process_left()


def test_bad_config_path_is_usage_error(tmp_path):
    assert main(["run-grid", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)]) == 64


def test_malformed_override_is_error(cfg_path, tmp_path):
    code = main(
        ["run-grid", "--config", str(cfg_path), "--out", str(tmp_path), "--set", "nonsense"]
    )
    assert code == 64


def test_missing_subcommand_is_usage_error():
    assert main([]) == 64


def test_docs_name_exactly_the_registered_subcommands():
    parser = fednb.cli.build_parser()
    registered = set(next(a for a in parser._actions if a.choices and a.dest == "command").choices)
    docstring = re.search(r"^Subcommands: (.*)\.$", fednb.cli.__doc__, re.M).group(1)
    assert set(docstring.split(", ")) == registered
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    readme = {m for block in blocks for m in re.findall(r"^fednb (\S+)", block, re.M)}
    assert readme == registered


def test_partition_command(cfg_path, tmp_path, capsys):
    out = tmp_path / "part.tsv"
    code = main(
        ["partition", "--config", str(cfg_path), "--alpha", "0.5", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("node\tsize")
    assert len(lines) == 5  # header + 3 nodes + jsd line
    assert lines[-1].startswith("jsd\t")
    jsd = float(lines[-1].split("\t")[1])
    assert 0.0 <= jsd <= 1.0


def test_partition_stdout(cfg_path, capsys):
    assert main(["partition", "--config", str(cfg_path), "--alpha", "1.0"]) == 0
    assert "Financial" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
def test_partition_rejects_a_bad_alpha_as_a_usage_error(cfg_path, capsys, alpha):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["partition", "--config", str(cfg_path), "--alpha", alpha])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--alpha" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("alpha", ["1e308", "6e307"])
def test_an_alpha_too_large_for_the_dirichlet_draw_exits_1_naming_it(cfg_path, tmp_path, capsys, alpha):
    """numpy draws all-zero proportions where alpha * k overflows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["partition", "--config", str(cfg_path), "--alpha", alpha]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: Dirichlet(alpha={float(alpha)}) over k=3 nodes drew [0.0, 0.0, 0.0]")
        argv = ["--config", str(cfg_path), "--out", str(tmp_path), "--set", f"alphas={alpha}", "--set", "reps=1"]
        assert main(["run-grid", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cell (alpha={float(alpha)}, rep=0) failed: Dirichlet(alpha={float(alpha)})")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("seed, code", [("-1", 64), ("4294967296", 64), ("0", 0), ("4294967295", 0)])
def test_partition_takes_seeds_from_0_to_2_to_the_32_minus_1(cfg_path, capsys, seed, code):
    assert main(["partition", "--config", str(cfg_path), "--alpha", "0.5", f"--seed={seed}"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == f"error: --seed must be in 0..4294967295, got {seed}\n"
        assert captured.out == ""
    else:
        assert captured.out.splitlines()[-1].startswith("jsd\t")


def test_each_command_materializes_its_dataset_once(cfg_path, grid_dir, tmp_path, monkeypatch):
    """emit-plots needs no dataset: it neither builds one nor fits a model.
    Each build is logged to a file, from the grid process too."""
    calls, fits = tmp_path / "builds", []
    real, real_fit = fednb.experiment.materialize_dataset, fednb.experiment.fit_hybrid

    def counting(config):
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(config)

    def counting_fit(train):
        fits.append(train.n_rows)
        return real_fit(train)

    monkeypatch.setattr(fednb.cli, "materialize_dataset", counting)
    monkeypatch.setattr(fednb.experiment, "materialize_dataset", counting)
    monkeypatch.setattr(fednb.experiment, "fit_hybrid", counting_fit)
    counts = {}
    for argv in (
        ["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        ["verify", "--results", str(grid_dir)],
        ["emit-plots", "--results", str(grid_dir), "--out", str(tmp_path / "plots")],
    ):
        calls.write_text("")
        fits.clear()
        assert main(argv) == 0
        counts[argv[0]] = len(calls.read_text().splitlines())
    assert counts == {"run-grid": 1, "verify": 1, "emit-plots": 0}
    assert fits == []  # those of emit-plots


def test_grid_json_saves_the_last_cells_density_profile(grid_dir):
    """Row 0: each node's Gaussian mean of numerical feature 0 in the lowest
    class every node saw; row 1: its standard deviation; bit for bit those of
    the last cell's models."""
    result = fednb.cli._load_bundle(str(grid_dir))
    config = result.config
    dataset = fednb.experiment.materialize_dataset(config)
    models = prepare_cell(config, len(config.alphas) - 1, config.reps - 1, dataset).models
    classes = range(dataset.schema.n_classes)
    cls = next((c for c in classes if all(np.isfinite(m.log_prior[c]) for m in models)), 0)
    means = [m.gauss_mean[cls, 0] for m in models]
    sds = [float(np.sqrt(m.gauss_var[cls, 0])) for m in models]
    saved = json.loads((grid_dir / "grid.json").read_text())["cells"][-1]["density"]
    assert saved == [means, sds]
    assert result.cells[-1].density.tobytes() == np.array([means, sds]).tobytes()


def test_emit_plots_command(grid_dir, tmp_path):
    out = tmp_path / "plots2"
    assert main(["emit-plots", "--results", str(grid_dir), "--out", str(out)]) == 0
    assert (out / "gradient_curves.tsv").read_bytes() == (
        grid_dir / "plots" / "gradient_curves.tsv"
    ).read_bytes()


def test_emit_plots_reproduces_run_grid_plots(tmp_path):
    out = tmp_path / "grid"
    args = ["--config", str(SYNTH_CFG), "--set", "reps=2", "--set", "alphas=0.05,0.1"]
    assert main(["run-grid", *args, "--out", str(out)]) == 0
    again = tmp_path / "again"
    assert main(["emit-plots", "--results", str(out), "--out", str(again)]) == 0
    for name in PLOT_FILES:
        assert (again / name).read_bytes() == (out / "plots" / name).read_bytes(), name


def _corrupt_copy(grid_dir, dest, name, edit):
    """A copy of grid_dir at dest whose file name holds edit(its text); bytes
    that are not UTF-8 map to lone surrogates both ways, so "\udcff" is 0xff."""
    shutil.copytree(grid_dir, dest)
    path = dest / name
    path.write_text(edit(path.read_text("utf-8", "surrogateescape")), "utf-8", "surrogateescape")
    return dest


def _with_its_csv(results_dir):
    """results_dir, its results.csv rewritten as the CSV of its grid.json."""
    bundle = json.loads((results_dir / "grid.json").read_text())
    cells = fednb.cli._decoded(list[CellResult], bundle["cells"], "cells")
    emit_results_csv(GridResult(config_from_dict(bundle["config"]), cells), results_dir / "results.csv")
    return results_dir


def _string_alpha_index(text):
    return _set("cells", 0, "alpha_index", value="x")(text)


def _object_cells(text):
    return _set("cells", value={})(text)


def _top_level_list(text):
    return "[]"


def _without_density(text):
    bundle = json.loads(text)
    del bundle["cells"][1]["density"]
    return json.dumps(bundle)


def _string_density_entry(text):
    return _set("cells", 1, "density", 1, 0, value="0.5")(text)


def _short_density(text):
    bundle = json.loads(text)
    bundle["cells"][1]["density"] = [row[:-1] for row in bundle["cells"][1]["density"]]
    return json.dumps(bundle)


def _infinite_density_mean(text):
    return _set("cells", 1, "density", 0, 0, value=math.inf)(text)


def _nan_density_sd(text):
    return _set("cells", 1, "density", 1, 0, value=math.nan)(text)


def _zero_density_sd(text):
    return _set("cells", 1, "density", 1, 0, value=0.0)(text)


def _without_records(text):
    bundle = json.loads(text)
    del bundle["cells"][1]["records"]
    return json.dumps(bundle)


def _string_record_f1(text):
    return _set("cells", 1, "records", 0, "f1_macro", value="0.9")(text)


def _int_record_weight(text):
    return _set("cells", 1, "records", 1, "weights", 0, value=1)(text)


def _trace_start_without_iterations(text):
    bundle = json.loads(text)
    del bundle["cells"][1]["trace"]["starts"][0]["iterations"]
    return json.dumps(bundle)


def _edit_trace(text, key, value, start=None):
    """Set key of the trace of cells[1] (of its start number start, if given)
    to value."""
    bundle = json.loads(text)
    trace = bundle["cells"][1]["trace"]
    (trace if start is None else trace["starts"][start])[key] = value
    return json.dumps(bundle)


def _list_trace(text):
    return _set("cells", 1, "trace", value=[])(text)


def _object_starts(text):
    return _edit_trace(text, "starts", {"a": 1})


def _float_chosen(text):
    return _edit_trace(text, "chosen", 2.9)


def _bool_chosen(text):
    return _edit_trace(text, "chosen", True)


def _string_evaluations(text):
    return _edit_trace(text, "evaluations", "273", start=0)


def _float_iterations(text):
    return _edit_trace(text, "iterations", 12.5, start=0)


def _string_converged(text):
    return _edit_trace(text, "converged", "no", start=0)


def _string_final_objective(text):
    return _edit_trace(text, "final_objective", "0.3", start=0)


def _int_final_objective(text):
    return _edit_trace(text, "final_objective", 1, start=0)


def _string_final_theta(text):
    return _edit_trace(text, "final_theta", ["a", "b"], start=0)


def _int_initial_theta(text):
    return _edit_trace(text, "initial_theta", [1, 0.5], start=0)


def _non_utf8_byte(text):
    return text + "\udcff"


def _bad_f1_cell(text):
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[4] = "abc"  # f1_macro
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("grid.json", _string_alpha_index, "cells[0].alpha_index must be int, got 'x'"),
        ("grid.json", _trace_start_without_iterations, "iterations"),
        ("grid.json", _object_cells, "cells must be list"),
        ("grid.json", _top_level_list, "expected a JSON object"),
        ("grid.json", _without_density, "missing key 'density'"),
        ("grid.json", _string_density_entry, "density must hold floats"),
        ("grid.json", _short_density, "density must be two lists of 3 floats"),
        ("grid.json", _infinite_density_mean, "density must hold finite means"),
        ("grid.json", _nan_density_sd, "density must hold finite means"),
        ("grid.json", _zero_density_sd, "finite, positive standard deviations"),
        ("grid.json", _without_records, "missing key 'records'"),
        ("grid.json", _string_record_f1, "f1_macro must be float"),
        ("grid.json", _int_record_weight, "weights must hold floats"),
        ("grid.json", _list_trace, "expected an object holding starts, chosen"),
        ("grid.json", _object_starts, "starts must be list"),
        ("results.csv", _bad_f1_cell, "row 1"),
        ("results.csv", _non_utf8_byte, "not UTF-8"),
        ("grid.json", _float_chosen, "chosen"),
        ("grid.json", _bool_chosen, "chosen"),
        ("grid.json", _string_evaluations, "evaluations"),
        ("grid.json", _float_iterations, "iterations"),
        ("grid.json", _string_converged, "converged"),
        ("grid.json", _string_final_objective, "final_objective"),
        ("grid.json", _int_final_objective, "final_objective"),
        ("grid.json", _string_final_theta, "final_theta"),
        ("grid.json", _int_initial_theta, "initial_theta"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_malformed_results_exit_1_naming_the_file(
    grid_dir, tmp_path, capsys, command, name, edit, message
):
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", name, edit)
    argv = [command, "--results", str(bad)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and name in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_a_record_with_the_wrong_number_of_weights_exits_1_naming_it_and_k(grid_dir, tmp_path, capsys, command):
    def two_weights_in_the_last_record(cells):
        last = cells[-1].records[-1]
        last.weights = last.weights[:2]

    # results.csv is re-rendered, so only the count of weights is wrong
    bad = _cells_copy(grid_dir, tmp_path / "bad", two_weights_in_the_last_record)
    argv = [command, "--results", str(bad)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {bad / 'grid.json'}: cells[2].records[3] (1.0, 0, 'A') must hold null "
                   "or K = 3 weights, got 2\n")


def test_emit_plots_writes_no_curve_row_for_a_pair_without_records(grid_dir, tmp_path):
    def without_e_at_the_last_alpha(cells):  # its one cell, as the grid has one rep
        cells[-1].records = [r for r in cells[-1].records if r.proposal != "E"]

    sparse = _cells_copy(grid_dir, tmp_path / "sparse", without_e_at_the_last_alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["emit-plots", "--results", str(sparse), "--out", str(tmp_path / "plots")]) == 0
    got = (tmp_path / "plots" / "gradient_curves.tsv").read_text().splitlines()
    want = [ln for ln in (grid_dir / "plots" / "gradient_curves.tsv").read_text().splitlines()
            if not ln.startswith("1.000000\tE\t")]
    assert len(want) == 12 and got == want and "nan" not in "".join(got)


def _set(*path, value):
    """An edit of grid.json that sets the entry at the keys path to value."""
    def edit(text):
        bundle = json.loads(text)
        *parents, last = path
        d = bundle
        for key in parents:
            d = d[key]
        d[last] = value
        return json.dumps(bundle)
    return edit


@pytest.mark.parametrize(
    "path, value",
    [(("config",), []), (("config", "optimizer"), []), (("config", "profiles"), [[]])],
    ids=["config", "optimizer", "profiles"],
)
@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_a_config_echo_of_the_wrong_json_type_exits_1_naming_its_key(
    grid_dir, tmp_path, capsys, command, path, value
):
    # a saved file is data, not usage: exit 1, not the config error's 64
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", _set(*path, value=value))
    argv = [command, "--results", str(bad)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad / 'grid.json'}: {path[-1]}: expected an object, got []\n"


def _without_source(text):
    bundle = json.loads(text)
    del bundle["config"]["source"]
    return json.dumps(bundle)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_without_source, "config: missing key 'source'"),
        (_set("config", "split_fracs", value=-0.0), "config.split_fracs = -0.0: expected a list of numbers, got -0.0"),
        (_set("config", "proposals", value=5), "config.proposals = 5: expected a list of names, got 5"),
        (_set("config", "source", value=5), "source: expected an object, got 5"),
    ],
    ids=["no source", "a number for split_fracs", "a number for proposals", "a number for source"],
)
@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_a_malformed_config_echo_exits_1_naming_the_file_and_the_fault(
    grid_dir, tmp_path, capsys, command, edit, message
):
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", edit)
    argv = [command, "--results", str(bad)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad / 'grid.json'}: {message}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((0, "alpha_index"), -1, "cells[0]: alpha_index -1 outside 0..2"),
        ((2, "alpha_index"), 3, "cells[2]: alpha_index 3 outside 0..2"),
        ((1, "rep"), 1, "cells[1]: rep 1 outside 0..0"),
        ((1, "rep"), 1.0, "cells[1].rep must be int, got 1.0"),
        ((1, "alpha_index"), True, "cells[1].alpha_index must be int, got True"),
        ((2, "alpha_index"), 0, "cells[2]: (alpha_index, rep) (0, 0) repeats cells[0]"),
    ],
    ids=["-1", "out of range", "rep out of range", "1.0", "true", "repeated"],
)
@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_a_cell_outside_the_grid_or_repeated_exits_1_naming_its_place(
    grid_dir, tmp_path, capsys, command, path, value, message
):
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", _set("cells", *path, value=value))
    argv = [command, "--results", str(bad)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad / 'grid.json'}: {message}\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda counts: [[1]],
        lambda counts: [[-1, *counts[0][1:]], *counts[1:]],
        lambda counts: [counts[0], [0] * len(counts[1]), *counts[2:]],
        lambda counts: [counts[0][:1], *counts[1:]],
    ],
    ids=["[[1]]", "negative", "zero row", "ragged"],
)
@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_counts_that_hold_no_jsd_of_k_nodes_exit_1_naming_them(grid_dir, tmp_path, capsys, command, edit):
    """A cell's JSD is read off its counts, so they must be K rows of one
    length of non-negative integers, none all zero."""
    counts = edit(json.loads((grid_dir / "grid.json").read_text())["cells"][2]["counts"])
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", _set("cells", 2, "counts", value=counts))
    argv = [command, "--results", str(bad)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (f"error: {bad / 'grid.json'}: cells[2].counts must be K = 3 rows of one "
                                       f"length of non-negative integers, none all zero, got {counts}\n")
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_an_edit_to_a_cells_counts_alone_exits_1_naming_results_csv(grid_dir, tmp_path, capsys, command):
    """The JSD of a cell's rows in results.csv is that of its counts."""
    edit = _set("cells", -1, "counts", value=[[5, 1], [1, 5], [3, 3]])
    edited = _corrupt_copy(grid_dir, tmp_path / "edited", "grid.json", edit)
    argv = [command, "--results", str(edited)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {edited / 'results.csv'}: row 9 is [") and err.count("\n") == 1, err


def test_a_grid_whose_first_two_cells_are_swapped_verifies_as_before(grid_dir, tmp_path, capsys):
    """Check 2 re-runs the cell that cells[0] names, whatever its place in the grid."""
    def swap(cells):
        cells[0], cells[1] = cells[1], cells[0]

    swapped = _cells_copy(grid_dir, tmp_path / "swapped", swap)
    assert [(c["alpha_index"], c["rep"]) for c in json.loads((swapped / "grid.json").read_text())["cells"]] == [
        (1, 0), (0, 0), (2, 0)
    ]
    assert main(["verify", "--results", str(swapped)]) == 0
    assert capsys.readouterr().out == (grid_dir / "verification.txt").read_text()


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((2, "trace", "starts", 0, "evaluations"), 1.0, "cells[2].trace.starts[0].evaluations must be int, got 1.0"),
        ((1, "counts", 0, 1), 1.0, "cells[1].counts[0][1] must be int, got 1.0"),
        ((1, "counts", 0, 1), True, "cells[1].counts[0][1] must be int, got True"),
        ((1, "density", 0), [0.5], "cells[1].density must hold rows of one length, got [[0.5], ["),
        ((2, "stage_ms"), [], "cells[2].stage_ms must be dict, got []"),
        ((0, "stage_ms", "fit"), "slow", "cells[0].stage_ms.fit must be float, got 'slow'"),
        ((0, "stage_ms", "stack"), 1, "cells[0].stage_ms.stack must be float, got 1"),
        ((1, "stage_ms"), {"fit": 1.0}, "cells[1].stage_ms must hold the stages split, partition, degrade, fit, "
         "stack, optimize, score in that order, got fit\n"),
        ((1, "stage_ms"), dict.fromkeys(["fit", "split", "partition", "degrade", "stack", "optimize", "score"], 1.0),
         "cells[1].stage_ms must hold the stages split, partition, degrade, fit, stack, optimize, score in that "
         "order, got fit, split, partition, degrade, stack, optimize, score\n"),
    ],
    ids=["float evaluations", "float count", "bool count", "ragged density", "list runtimes", "string stage time",
         "int stage time", "missing stages", "reordered stages"],
)
def test_a_malformed_cell_field_exits_1_naming_its_place_in_the_cells(grid_dir, tmp_path, capsys, path, value, message):
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", _set("cells", *path, value=value))
    assert main(["verify", "--results", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad / 'grid.json'}: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_a_grid_without_cells_exits_1_naming_them(grid_dir, tmp_path, capsys, command):
    empty = _with_its_csv(_corrupt_copy(grid_dir, tmp_path / "empty", "grid.json", _set("cells", value=[])))
    assert (empty / "results.csv").read_text().count("\n") == 1  # the header alone
    argv = [command, "--results", str(empty)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {empty / 'grid.json'}: cells must hold at least one cell, got []\n"
    assert not (tmp_path / "plots").exists()


def _before_the_cells(text):
    """grid.json as written before it held a list of cells."""
    bundle = json.loads(text)
    cells = bundle.pop("cells")
    keys = [f"{cell['alpha_index']},{cell['rep']}" for cell in cells]
    bundle["traces"] = {key: cell["trace"] for key, cell in zip(keys, cells)}
    bundle["density"] = cells[-1]["density"]
    bundle["records"] = [r for cell in cells for r in cell["records"]]
    bundle["partitions"] = {key: cell["counts"] for key, cell in zip(keys, cells)}
    bundle["runtimes_ms"] = {key: cell["stage_ms"] for key, cell in zip(keys, cells)}
    return json.dumps(bundle)


@pytest.mark.parametrize("command", ["verify", "emit-plots"])
def test_a_grid_json_from_before_the_list_of_cells_exits_1_naming_the_missing_key(grid_dir, tmp_path, capsys, command):
    old = _corrupt_copy(grid_dir, tmp_path / "old", "grid.json", _before_the_cells)
    argv = [command, "--results", str(old)]
    if command == "emit-plots":
        argv += ["--out", str(tmp_path / "plots")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {old / 'grid.json'}: missing key 'cells'\n"
    assert not (tmp_path / "plots").exists()


def _runtimes_instead_of_stage_times(text):
    """grid.json as written when each cell held its proposals' runtimes_ms."""
    bundle = json.loads(text)
    for cell in bundle["cells"]:
        del cell["stage_ms"]
        cell["runtimes_ms"] = {r["proposal"]: 1.0 for r in cell["records"]}
    return json.dumps(bundle)


def test_a_grid_json_from_before_the_stage_times_exits_1_naming_the_missing_key(grid_dir, tmp_path, capsys):
    old = _corrupt_copy(grid_dir, tmp_path / "old", "grid.json", _runtimes_instead_of_stage_times)
    assert main(["verify", "--results", str(old)]) == 1
    assert capsys.readouterr().err == f"error: {old / 'grid.json'}: cells[0]: missing key 'stage_ms'\n"


@pytest.mark.parametrize(
    "field, keys, change",
    [
        ("trace.starts[2].evaluations", ("trace", "starts", 2, "evaluations"), lambda v: v + 1),
        ("trace.starts[0].initial_theta[1]", ("trace", "starts", 0, "initial_theta", 1), lambda v: v + 0.5),
        ("counts[1][0]", ("counts", 1, 0), lambda v: v + 1),
        ("density[1][0]", ("density", 1, 0), lambda v: v * 2),
    ],
    ids=["evaluations", "initial_theta", "counts", "density"],
)
def test_an_edit_to_the_saved_first_cell_fails_check_2_alone_naming_the_field(
    grid_dir, tmp_path, capsys, field, keys, change
):
    """Check 2 compares the whole saved first cell with its re-run, so an edit
    of any of its fields fails check 2 alone and names the field with both
    values. The same edit of the last cell, which check 2 does not re-run and
    no other check of this one-rep grid reads, passes check 2 and leaves
    verification at 15/15. results.csv is re-rendered, as its JSD column is
    read off the counts."""
    cells = json.loads((grid_dir / "grid.json").read_text())["cells"]
    for i in (0, -1):
        saved = cells[i]
        for key in keys:
            saved = saved[key]
        edit = _set("cells", i, *keys, value=change(saved))
        edited = _with_its_csv(_corrupt_copy(grid_dir, tmp_path / f"cell{i}", "grid.json", edit))
        code = main(["verify", "--results", str(edited)])
        out = capsys.readouterr().out
        if i == 0:
            failed = [ln for ln in out.splitlines() if ln.startswith("[FAIL]")]
            assert code == 2 and failed == [
                f"[FAIL] seed_reproducibility: first cell re-run diverges at cells[0].{field} = {saved}, "
                f"recorded {change(saved)}"
            ]
        else:
            assert code == 0 and "[PASS] seed_reproducibility: first cell re-run matches" in out
            assert out.endswith("15/15 passed\n")


def _verifies_and_plots_as_before(grid_dir, old, tmp_path, capsys):
    assert main(["verify", "--results", str(old)]) == 0
    assert capsys.readouterr().out.endswith("15/15 passed\n")
    assert main(["emit-plots", "--results", str(old), "--out", str(tmp_path / "plots")]) == 0
    for name in PLOT_FILES:
        assert (tmp_path / "plots" / name).read_bytes() == (grid_dir / "plots" / name).read_bytes(), name


@pytest.mark.parametrize("scores_ok", [True, "false"])
def test_a_grid_json_that_still_holds_scores_ok_verifies_and_plots_as_before(grid_dir, tmp_path, capsys, scores_ok):
    old = _corrupt_copy(grid_dir, tmp_path / "old", "grid.json", _set("scores_ok", value=scores_ok))
    _verifies_and_plots_as_before(grid_dir, old, tmp_path, capsys)


def _with_trace_totals(text):
    """grid.json as written when each trace also held its total of evaluations."""
    bundle = json.loads(text)
    for trace in (cell["trace"] for cell in bundle["cells"]):
        trace["evaluations"] = sum(s["evaluations"] for s in trace["starts"])
    return json.dumps(bundle)


def _with_the_cells_facts_in_each_record(text):
    """grid.json as written when each record also held the dataset name,
    alpha, rep and JSD of its cell; the last record's alpha and JSD disagree
    with its cell's."""
    bundle = json.loads(text)
    name = config_from_dict(bundle["config"]).dataset_name
    for cell in bundle["cells"]:
        alpha, jsd = bundle["config"]["alphas"][cell["alpha_index"]], jsd_heterogeneity(cell["counts"])
        cell["records"] = [{"dataset_name": name, "alpha": alpha, "rep": cell["rep"], **r, "jsd": jsd}
                           for r in cell["records"]]
    bundle["cells"][-1]["records"][-1].update(alpha=0.5, jsd=0.5)
    return json.dumps(bundle)


def test_a_grid_json_whose_records_still_hold_their_cells_facts_verifies_and_plots_as_before(
    grid_dir, tmp_path, capsys
):
    """The decoder ignores the copies; results.csv holds the cells' values."""
    old = _corrupt_copy(grid_dir, tmp_path / "old", "grid.json", _with_the_cells_facts_in_each_record)
    assert fednb.cli._load_bundle(str(old)).rows == fednb.cli._load_bundle(str(grid_dir)).rows
    assert (old / "results.csv").read_bytes() == (grid_dir / "results.csv").read_bytes()
    _verifies_and_plots_as_before(grid_dir, old, tmp_path, capsys)


def test_a_grid_json_whose_traces_still_hold_their_totals_verifies_and_plots_as_before(grid_dir, tmp_path, capsys):
    assert all("evaluations" not in c["trace"] for c in json.loads((grid_dir / "grid.json").read_text())["cells"])
    old = _corrupt_copy(grid_dir, tmp_path / "old", "grid.json", _with_trace_totals)
    _verifies_and_plots_as_before(grid_dir, old, tmp_path, capsys)


def test_without_numerical_features_the_density_profile_is_empty(tmp_path):
    cfg = tmp_path / "nonum.cfg"
    cfg.write_text(SMALL_CFG.replace("seed = 7", "seed = 1").replace("n_numerical = 2", "n_numerical = 0"))
    out = tmp_path / "out"
    assert main(["run-grid", "--config", str(cfg), "--out", str(out)]) == 0
    assert [cell["density"] for cell in json.loads((out / "grid.json").read_text())["cells"]] == [[[], []]] * 3
    assert main(["emit-plots", "--results", str(out), "--out", str(tmp_path / "plots")]) == 0
    dens = (tmp_path / "plots" / "density_profiles.tsv").read_bytes()
    assert dens == (out / "plots" / "density_profiles.tsv").read_bytes() == b"x\tFinancial\tHealth\tGovernment\n"


def test_a_trace_without_starts_fails_check_15_alone(grid_dir, tmp_path, capsys):
    """The trace is the last cell's, which check 2 does not re-run."""
    bad = _corrupt_copy(grid_dir, tmp_path / "bad", "grid.json", _set("cells", -1, "trace", "starts", value=[]))
    assert main(["verify", "--results", str(bad)]) == 2
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert len(failed) == 1 and failed[0].startswith("[FAIL] trace_sanity: ")
    assert failed[0].endswith("; trace (alpha_index, rep) (2, 0) has no starts")


def _error_classes(cls=FedNBError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize("error", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_each_error_class_maps_to_its_exit_code(cfg_path, tmp_path, monkeypatch, capsys, error):
    """run-grid, where the cells run in workers, builds the dataset in the
    grid process, which pickles the error back to be raised here."""
    exc = error(0.1, 0, RuntimeError("boom")) if error is CellError else error("boom")

    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(fednb.cli, "materialize_dataset", raising)
    for argv in (
        ["partition", "--config", str(cfg_path), "--alpha", "0.1", "--out", str(tmp_path / "p.tsv")],
        ["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
    ):
        code = main(argv)
        assert code == (64 if error is ConfigError else 1)
        assert capsys.readouterr().err == f"error: {exc}\n"


def _no_mallopt(name):
    return types.SimpleNamespace()


def _raises(exc):
    def cdll(name):
        raise exc("no C library handle here")
    return cdll


@pytest.mark.parametrize("cdll", [_no_mallopt, _raises(OSError), _raises(TypeError)])
def test_commands_run_where_the_c_library_has_no_mallopt(cfg_path, monkeypatch, capsys, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["partition", "--config", str(cfg_path), "--alpha", "0.5"]) == 0
    assert "jsd\t" in capsys.readouterr().out


def test_main_sets_both_malloc_thresholds_once(cfg_path, monkeypatch, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    assert main(["partition", "--config", str(cfg_path), "--alpha", "0.5"]) == 0
    assert calls == [
        (fednb.cli.M_MMAP_THRESHOLD, fednb.cli.MMAP_THRESHOLD),
        (fednb.cli.M_TRIM_THRESHOLD, fednb.cli.TRIM_THRESHOLD),
    ]
    assert (fednb.cli.M_MMAP_THRESHOLD, fednb.cli.M_TRIM_THRESHOLD) == (-3, -1)  # glibc's malloc.h
    assert fednb.cli.MMAP_THRESHOLD == 32 * 1024 * 1024
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int


def test_run_grid_releases_the_freed_heap_once_after_the_cells(cfg_path, tmp_path, monkeypatch, capsys, pin_cpus):
    pin_cpus(1)  # the cells run in this process, and calls records what it calls
    calls = []
    real_run_grid = fednb.cli.run_grid

    def run_grid(*args):
        calls.append("run_grid")
        return real_run_grid(*args)

    def malloc_trim(pad):
        calls.append(("malloc_trim", pad))
        return 1

    libc = types.SimpleNamespace(mallopt=lambda param, value: 1, malloc_trim=malloc_trim)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    monkeypatch.setattr(fednb.cli, "run_grid", run_grid)
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert calls == ["run_grid", ("malloc_trim", 0)]
    assert malloc_trim.argtypes == (ctypes.c_size_t,) and malloc_trim.restype is ctypes.c_int
    # verify, emit-plots and partition release nothing
    assert main(["verify", "--results", str(tmp_path / "out")]) == 0
    assert calls == ["run_grid", ("malloc_trim", 0)]


def test_run_grid_runs_where_the_c_library_has_no_malloc_trim(cfg_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", _no_mallopt)
    assert main(["run-grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0


def test_importing_the_cli_sets_no_malloc_option():
    code = (
        "import ctypes\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *a, **kw: calls.append(a)\n"
        "import fednb.cli\n"
        "print(len(calls))\n"
    )
    src = str(Path(fednb.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
