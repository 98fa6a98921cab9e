"""Grid orchestration: cells = alphas x repetitions x proposals.

Proposals per cell:
    C  pooled model on the (undegraded) training split, evaluated directly
    B  mixture with size-proportional weights
    E  mixture with inverse-label-entropy weights
    A  mixture with weights learned by Nelder-Mead under the coherence prior

B/E/A share the same K fitted local models within a cell, so metric deltas
isolate the weighting strategy. They also share one (K, C, n) test score
tensor: each test row is scored once per local model (and once by C's pooled
model), and each proposal mixes that tensor once under its own weights. All
randomness derives from the master seed via per-cell seed sequences, making
the grid fully re-runnable cell by cell.

Each command that needs the dataset materializes it once and hands it on:
run_tasks (the one runner of cells, here or in forked workers), the JSD curve
of verify and prepare_cell take it from their caller. Where the cells run in
workers, run-grid builds it in the grid process (see in_grid_process), from
which they fork. run-grid's workers also re-run the grid's first cell after
their cells, and verify's check 2 compares that re-run with the saved cell;
the verify command re-runs it itself. Otherwise verify and the plot data read a GridResult alone, whether
it was run in this process or loaded from grid.json, which keeps it exactly.
"""

from __future__ import annotations

import _signal  # the C module behind signal, loaded at interpreter start; signal adds ~40 kB of enums
import functools
import io
import os
import pickle
import select
import time
from collections import Counter
from dataclasses import dataclass, is_dataclass, replace

import numpy as np

from .config import PROPOSAL_ORDER, ExperimentConfig, config_from_dict, config_to_dict
from .data import CategoryMap, Dataset, SynthSpec, load_csv, row_blocks, synth_generate
from .errors import CellError, ConfigError
from .evaluation import f1_macro, mcnemar_yates
from .governance import REFERENCE_PROFILES, NodeProfile, coherence_prior, compute_icc
from .local_model import HybridModel, degrade_copy, density_profile, fit_hybrid
from . import mog
from .mog import anll, mog_log_scores_batch  # noqa: F401  lookup points of perfbench/tracer.py
from .partition import dirichlet_counts, dirichlet_partition, jsd_heterogeneity, stratified_split
from .weights import (
    OptimizationTrace,
    learn_weights_icc,
    weights_entropy,
    weights_fedavg,
)


@dataclass
class ExperimentRecord:
    """One proposal's results; its alpha, rep, JSD and dataset name are its cell's."""
    proposal: str
    f1_macro: float
    anll: float
    weights: tuple | None
    mcnemar_p_vs_B: float | None


@dataclass
class CellResult:
    """One (alpha, rep) cell: what run_cell returns, grid.json saves whole and
    check 2 compares with a re-run. It holds each fact of the cell once: its
    records hold only their proposals' results, and its JSD is that of counts."""
    alpha_index: int
    rep: int
    records: list[ExperimentRecord]
    trace: OptimizationTrace | None
    counts: list[list[int]]  # (K, n_classes) rows of each class dealt to each node
    stage_ms: dict[str, float]  # stage (see STAGES) -> ms of wall time the cell spent in it; compared by nothing
    density: np.ndarray  # (2, K) local_model.density_profile of the cell's models


@dataclass
class GridResult:
    config: ExperimentConfig
    cells: list[CellResult]  # in grid order

    @property
    def rows(self) -> list[tuple]:
        """(alpha, rep, jsd, record) of each record in grid order, one per
        results CSV line: the record beside the facts its cell holds."""
        rows = []
        for cell in self.cells:
            facts = self.config.alphas[cell.alpha_index], cell.rep, jsd_heterogeneity(cell.counts)
            rows += [(*facts, r) for r in cell.records]
        return rows


def materialize_dataset(config: ExperimentConfig) -> Dataset:
    """Deterministic dataset construction from the config source."""
    if isinstance(config.source, SynthSpec):
        return synth_generate(config.source, config.seed)
    return load_csv(config.source.path, config.source.schema)[0]


def _cell_seeds(config: ExperimentConfig, alpha_index: int, rep: int) -> list[int]:
    ss = np.random.SeedSequence([config.seed, alpha_index, rep])
    return [int(s) for s in ss.generate_state(4)]


STAGES = ("split", "partition", "degrade", "fit", "stack", "optimize", "score")


class Stopwatch:
    """Milliseconds of wall time per stage of a cell, each of STAGES from 0.0:
    lap(stage) adds the time since the previous lap (or the start) to stage."""

    def __init__(self):
        self.ms = dict.fromkeys(STAGES, 0.0)
        self.last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.ms[stage] += (now - self.last) * 1000.0
        self.last = now


@dataclass
class PreparedCell:
    pooled: HybridModel | None  # proposal C's model of the whole training split; None when C does not run
    val: Dataset | None  # None when proposal A does not run
    test: Dataset
    counts: np.ndarray  # (K, n_classes) training rows of each class dealt to each node
    models: list  # one fitted HybridModel per node, in profile order
    opt_seed: int
    watch: Stopwatch  # started by prepare_cell; run_cell laps the stages after it


def prepare_cell(
    config: ExperimentConfig, alpha_index: int, rep: int, dataset: Dataset
) -> PreparedCell:
    """Split, partition the training rows, degrade (synthetic sources only),
    fit one local model per node and proposal C's pooled model: everything a
    cell does before weighting.

    The training split stays a row-index array. Each node's rows are gathered
    from dataset when the node is fitted (by degrade_copy, which adds a synthetic
    node's noise into the gathered copy) and freed before the next node's; its
    index arrays are freed once its rows are gathered. The pooled rows are gathered for C's
    fit alone, and the validation and test rows only after it.
    """
    watch = Stopwatch()
    split_seed, part_seed, degr_seed, opt_seed = _cell_seeds(config, alpha_index, rep)
    train_rows, val_rows, test_rows = stratified_split(dataset.labels, config.split_fracs, split_seed)
    watch.lap("split")
    part = dirichlet_partition(dataset.labels.take(train_rows), config.k, config.alphas[alpha_index], part_seed)
    watch.lap("partition")
    nodes = part.node_indices  # emptied as the nodes are gathered
    models = []
    for node in range(config.k):
        rows = train_rows.take(nodes[node])
        nodes[node] = None
        noise = config.source.node_noise[node] if isinstance(config.source, SynthSpec) else 0.0
        local = degrade_copy(dataset, rows, noise, degr_seed + node)
        del rows
        watch.lap("degrade")
        models.append(fit_hybrid(local))
        del local
        watch.lap("fit")
    pooled = fit_hybrid(dataset.subset(train_rows)) if "C" in config.proposals else None
    watch.lap("fit")
    # only proposal A reads the validation rows
    val = dataset.subset(val_rows) if "A" in config.proposals else None
    test = dataset.subset(test_rows)
    watch.lap("split")
    counts = np.pad(part.counts, ((0, 0), (0, dataset.schema.n_classes - part.counts.shape[1])))
    return PreparedCell(pooled, val, test, counts, models, opt_seed, watch)


def run_cell(
    config: ExperimentConfig,
    alpha: float,
    rep: int,
    dataset: Dataset | None = None,
) -> CellResult:
    try:
        alpha_index = config.alphas.index(alpha)
    except ValueError:
        raise ConfigError(f"alpha {alpha} not in configured grid") from None
    if dataset is None:  # a standalone call; the commands pass the dataset they built
        dataset = materialize_dataset(config)
    cell = prepare_cell(config, alpha_index, rep, dataset)
    test, counts, watch = cell.test, cell.counts, cell.watch

    proposals = [p for p in PROPOSAL_ORDER if p in config.proposals]
    trace = None
    if "A" in proposals:  # before any test tensor exists, so the optimizer's buffers never meet one
        learned, trace = learn_weights_icc(
            cell.models, cell.val, coherence_prior(config.profiles), replace(config.optimizer, seed=cell.opt_seed))
        watch.lap("optimize")

    records = []
    preds_b = None  # B's test predictions, for A's McNemar test (B runs first)
    shared = None  # test scores of cell.models, stacked by the first of B/E/A
    for proposal in proposals:
        weights = None
        if proposal == "C":
            w = np.array([1.0])
            scores = mog.StackedScores(mog.stack_scores([cell.pooled], test), test.labels)
            watch.lap("stack")
        else:
            if proposal == "B":
                w = weights_fedavg(counts.sum(axis=1))
            elif proposal == "E":
                w = weights_entropy(counts)
            else:
                w = learned
            w = mog.check_weights(w, config.k)
            weights = tuple(float(x) for x in w)
            if shared is None:
                shared = mog.StackedScores(mog.stack_scores(cell.models, test), test.labels)
                watch.lap("stack")
            scores = shared
        preds = np.empty(test.n_rows, dtype=np.intp)
        test_anll = mog.anll_from_stacked(w, scores, preds)
        p_vs_b = None
        if proposal == "B":
            preds_b = preds
        elif proposal == "A" and preds_b is not None:
            p_vs_b = mcnemar_yates(preds, preds_b, test.labels).p_value
        records.append(ExperimentRecord(
            proposal=proposal,
            f1_macro=f1_macro(test.labels, preds, dataset.schema.n_classes),
            anll=test_anll,
            weights=weights,
            mcnemar_p_vs_B=p_vs_b,
        ))
        del scores, preds  # C's scores are freed before B/E/A stack the shared tensor
        watch.lap("score")
    return CellResult(alpha_index, rep, records, trace, counts.tolist(), watch.ms, density_profile(cell.models))


def run_grid(config: ExperimentConfig, dataset: Dataset, replay: list) -> tuple[GridResult, list]:
    """Every (alpha, rep) cell of the grid, run on dataset, in grid order; and
    the outcome of each (alpha, rep) of replay, run again after the grid's
    cells (see run_tasks): its CellResult, or the CellError of its failure.
    run-grid replays the first cell for verify's check 2.

    A failed grid cell raises the CellError of the earliest failing cell in
    grid order, the one a serial run raises.
    """
    cells = [(alpha, rep) for alpha in config.alphas for rep in range(config.reps)]
    outcomes = run_tasks(config, dataset, cells, replay)
    error = next((o for o in outcomes[:len(cells)] if not isinstance(o, CellResult)), None)
    if error is not None:  # a CellError: a cell without outcome follows a failed one in its worker's list
        raise error from error.cause
    return GridResult(config, outcomes[:len(cells)]), outcomes[len(cells):]


def run_tasks(config: ExperimentConfig, dataset: Dataset, cells: list, replay: list = ()) -> list:
    """The outcome of each (alpha, rep) of cells and then of replay, run on
    dataset: its CellResult, the CellError of its failure, or None when a task
    before it in its worker's list failed, since a worker stops there.

    worker_count(len(cells)) workers run them. One runs them here one after
    another. More are forked, sharing dataset copy-on-write: worker w runs
    cells w, w + workers, ..., and the last worker then runs replay. It never
    runs cell 0 and holds no more cells than worker 0. Each cell draws from
    its own seeds, so the outcomes are the same at any worker count.
    """
    tasks = [*cells, *replay]
    workers = worker_count(len(cells))
    if workers > 1:
        lists = [[*range(w, len(cells), workers)] for w in range(workers)]
        lists[-1] += range(len(cells), len(tasks))
        done = _run_in_workers(config, dataset, tasks, lists)
    else:
        done = _run_tasks(config, dataset, tasks, range(len(tasks)))
    outcomes = [None] * len(tasks)
    for i, outcome in done:
        outcomes[i] = outcome
    return outcomes


def worker_count(cells: int) -> int:
    """How many workers run a grid of cells: min(CPUs in this process's
    affinity mask, cells), or 1 where os.fork does not exist."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, cells) if hasattr(os, "fork") else 1


def _run_tasks(config: ExperimentConfig, dataset: Dataset, tasks: list, indices):
    """(index, CellResult) of each task at indices, in order, up to the first
    that fails, whose (index, CellError) ends them."""
    for i in indices:
        alpha, rep = tasks[i]
        try:
            outcome = run_cell(config, alpha, rep, dataset)
        except Exception as exc:
            yield i, CellError(alpha, rep, exc)
            return
        yield i, outcome


def _run_in_workers(config: ExperimentConfig, dataset: Dataset, tasks: list, lists: list) -> list[tuple]:
    """The _run_tasks pairs of each of lists, run in its own forked worker
    (see run_tasks and _forked), which reports each pair as its task ends.
    A worker that ends before reporting its list, killed say, yields a
    CellError of the first task of its list that it did not report. Left
    early, this kills the workers still running."""
    jobs = [functools.partial(_run_tasks, config, dataset, tasks, todo) for todo in lists]
    outcomes = []
    for todo, (pairs, code) in zip(lists, _forked(jobs, _signal.SIGKILL)):
        outcomes += pairs
        if code != 0 and len(pairs) < len(todo):
            cause = ChildProcessError(f"its worker process {_ended(code)} before reporting it")
            outcomes.append((todo[len(pairs)], CellError(*tasks[todo[len(pairs)]], cause)))
    return outcomes


def in_grid_process(func, *args):
    """func(*args), called in one forked child, the grid process, which
    pickles back what func returns or the exception it raises; that
    exception is raised here. Where the cells run in workers, run-grid runs
    its checked grid so: the workers fork from the grid process, and this
    process neither builds the dataset nor loads numpy.random. A grid
    process that ends before reporting raises ChildProcessError, which says
    how it ended. Left early, by KeyboardInterrupt say, this sends the grid
    process SIGINT, on which it stops and reaps its workers, and reaps it."""
    ((report, code),) = _forked([functools.partial(_returned, func, args)], _signal.SIGINT)
    if not report:
        raise ChildProcessError(f"the grid process {_ended(code)} before reporting its results")
    (outcome,) = report
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _returned(func, args: tuple) -> list:
    """[func(*args)], or [the exception it raised]: a grid process's report."""
    try:
        return [func(*args)]
    except Exception as exc:  # raised again by in_grid_process
        return [exc]


def _ended(code: int) -> str:
    """How a child process with exit code code (waitstatus_to_exitcode's) ended."""
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"


def _forked(jobs: list, stop: int) -> list[tuple[list, int]]:
    """Each of jobs, a function returning an iterable, called in its own
    forked child; returns what each child reported, with its exit code, in
    the order of jobs. A child writes the pickle of each item to its own
    pipe as the item comes and ends with os._exit: 0 once every item is
    written, 1 otherwise. Its report is the items read back whole, so those
    of a child that died are the ones it wrote before. The pipes are read
    together as their bytes arrive, so that no child waits on a full pipe,
    and a child is reaped only once its pipe has ended. A child closes the
    read ends it inherits, so that its writes fail once this process is gone.

    SIGINT waits out the forks: raised in an at-fork hook (logging registers
    one), its KeyboardInterrupt would be reported and ignored. Left early, by
    KeyboardInterrupt say, this sends stop to each child it has not reaped
    and reaps it, with SIGINT held off, so that a second one does not cut
    the reaping short."""
    children = {}  # pid -> the read end of its pipe, until it is reaped
    mask = _signal.pthread_sigmask(_signal.SIG_BLOCK, [_signal.SIGINT])
    try:
        for job in jobs:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in [read_fd, *children.values()]:
                        os.close(fd)
                    _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)
                    with open(write_fd, "wb") as fh:
                        for item in job():
                            pickle.dump(item, fh)
                            fh.flush()  # whole in the pipe before the next item is made
                    status = 0
                finally:
                    os._exit(status)  # never the parent's exit handlers or its buffered output
            children[pid] = read_fd
            os.close(write_fd)
        _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)
        reports = _read_pipes(list(children.values()))
        done = []
        for pid, fd in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(fd)
            del children[pid]
            done.append((_unpickled(reports[fd]), code))
        return done
    finally:
        _signal.pthread_sigmask(_signal.SIG_BLOCK, [_signal.SIGINT])
        for pid, fd in children.items():
            os.close(fd)
            os.kill(pid, stop)
            os.waitpid(pid, 0)
        _signal.pthread_sigmask(_signal.SIG_SETMASK, mask)


def _read_pipes(fds: list) -> dict:
    """fd -> every byte written to the pipe whose read end is fd, up to its
    end. The pipes are read together, as their bytes arrive."""
    chunks, poller = {fd: [] for fd in fds}, select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    left = len(fds)
    while left:
        for fd, _ in poller.poll():
            chunk = os.read(fd, 1 << 16)
            if chunk:
                chunks[fd].append(chunk)
            else:  # the end: the worker has closed its end of the pipe
                poller.unregister(fd)
                left -= 1
    return {fd: b"".join(parts) for fd, parts in chunks.items()}


def _unpickled(data: bytes) -> list:
    """The pickles written one after another into data, in order, up to one
    cut short (by its writer's death)."""
    stream, items = io.BytesIO(data), []
    while stream.tell() < len(data):
        try:
            items.append(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):
            break
    return items


# ---------------------------------------------------------------------------
# Verification protocol: 15 named checks.
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    checks: list  # (name, passed, message)

    @property
    def passed_count(self) -> int:
        return sum(1 for _, ok, _ in self.checks if ok)

    @property
    def all_passed(self) -> bool:
        return self.passed_count == len(self.checks)

    def to_text(self) -> str:
        lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {msg}" for name, ok, msg in self.checks]
        return "\n".join(lines + [f"{self.passed_count}/{len(self.checks)} passed"])

    def to_kv(self) -> str:
        lines = [f"check.{name}={'pass' if ok else 'fail'}" for name, ok, _ in self.checks]
        return "\n".join(lines + [f"passed_count={self.passed_count}", f"total={len(self.checks)}"])


def verify(result: GridResult, dataset: Dataset, rerun: CellResult | CellError) -> VerificationReport:
    """Evaluate the 15-check protocol on a completed grid whose cells ran on
    dataset. Failures are reported, never raised. Check 2 compares rerun, a
    new run of the cell that cells[0] names (or the CellError of its failure),
    with the saved cell exactly, all but its timings."""
    config = result.config
    rows = result.rows
    records = [r for *_, r in rows]
    checks: list = []

    # 1. coherence index formula against reference values
    errs = [abs(compute_icc(NodeProfile(*profile)) - expected) for *profile, expected in REFERENCE_PROFILES]
    checks.append(("icc_formula", max(errs) <= 0.0005, f"max deviation {max(errs):.2e}"))

    # 2. seed reproducibility: the re-run of the first cell
    if isinstance(rerun, CellError):
        ok, msg = False, f"re-run failed: {rerun.cause}"
    else:
        first = result.cells[0]
        diff = _first_difference(replace(rerun, stage_ms=first.stage_ms), first, "cells[0]")
        ok = diff is None
        msg = "first cell re-run matches" if ok else "first cell re-run diverges at {} = {}, recorded {}".format(*diff)
    checks.append(("seed_reproducibility", ok, msg))

    # 3. mean JSD non-increasing across ascending alphas (20-seed average;
    # the handful of grid reps alone is too noisy to order adjacent levels)
    try:
        mean_jsd = _jsd_curve(config, dataset)
        ok = bool((np.diff(mean_jsd) <= 1e-9).all())
        msg = f"mean JSD per alpha: {np.round(mean_jsd, 4).tolist()}"
    except Exception as exc:
        ok, msg = False, f"could not evaluate: {exc}"
    checks.append(("jsd_alpha_ordering", ok, msg))

    # 4. OOD encoding lands on code n_cats
    code = CategoryMap(({"tcp": 0, "udp": 1},), ("0", "1")).encode(0, "icmp")
    checks.append(("ood_slot_index", code == 2, f"unseen value encoded as {code}, n_cats=2"))

    # 5. mixture scores finite or explicit sentinel: each record's ANLL
    bad = _first_bad(rows, lambda f, v: f == "anll" and not np.isfinite(v))
    checks.append(("mog_scores_finite", bad is None, f"bad scores at {bad}" if bad else "no NaN/+inf mixture scores"))

    # 6. metric ranges
    bad = _first_bad(rows, lambda f, v: (f == "anll" and not v >= 0) or (f == "f1_macro" and not 0.0 <= v <= 1.0))
    checks.append(("metric_ranges", bad is None, f"range violation at {bad}" if bad else "ANLL >= 0 and F1 in [0,1]"))

    # 7. weight vectors sum to 1
    bad = [r for r in records if r.weights is not None and abs(sum(r.weights) - 1.0) > 1e-9]
    checks.append(("weights_sum_to_one", not bad, f"{len(bad)} violations"))

    # 8. McNemar validity; the paper finds p < 0.05 in 70 of its 94 configurations
    ps = [r.mcnemar_p_vs_B for r in records if r.mcnemar_p_vs_B is not None]
    if not ps and "A" in config.proposals and "B" in config.proposals:
        ok, msg = False, "invalid p: no p-values, though A and B ran"
    else:
        bad = _first_bad(rows, lambda f, v: f == "mcnemar_p_vs_B" and not 0.0 <= v <= 1.0)
        ok = bad is None
        msg = f"invalid p at {bad}" if bad else f"{len(ps)} p-values in [0,1], {sum(p < 0.05 for p in ps)} below 0.05"
    checks.append(("mcnemar_validity", ok, msg))

    # 9. downward JSD gradient at per-rep granularity, on average
    ok, msg = _per_rep_gradient(result.cells, config)
    checks.append(("jsd_gradient_per_rep", ok, msg))

    # 10. highest-coherence node outweighs lowest (proposal A, mean level)
    ok, msg = _alignment_check(records, config)
    checks.append(("icc_weight_alignment", ok, msg))

    # 11. no NaN/Inf in the record fields check 5 does not read
    bad = _first_bad(rows, lambda f, v: f != "anll" and not np.isfinite(v))
    msg = f"non-finite field at {bad}" if bad else "F1, McNemar p and weights finite"
    checks.append(("no_nan_inf", bad is None, msg))

    # 12. grid completeness: each (alpha, rep, proposal) of the grid exactly once
    grid = [(a, rep, p) for a in config.alphas for rep in range(config.reps) for p in config.proposals]
    seen = Counter((alpha, rep, r.proposal) for alpha, rep, _, r in rows)
    bad = next((key for key in grid if seen[key] != 1), None)
    msg = f"{len(records)}/{len(grid)} records"
    if bad is not None:
        msg += f"; (alpha, rep, proposal) {bad} appears {seen[bad]} times"
    checks.append(("grid_completeness", bad is None and len(records) == len(grid), msg))

    # 13. config echo: the grid.json echo rebuilds this exact config
    try:
        diff = _first_difference(config, config_from_dict(config_to_dict(config)), "config")
        ok = diff is None
        msg = "echo differs at {} ({!r} vs {!r})".format(*diff) if diff else "echo rebuilds the config"
    except ConfigError as exc:
        ok, msg = False, f"echo does not load: {exc}"
    checks.append(("config_echo", ok, msg))

    # 14. learned weights respect the floor
    floor = config.optimizer.floor_delta - 1e-9
    a_recs = [r for r in records if r.proposal == "A" and r.weights is not None]
    bad = [r for r in a_recs if min(r.weights) < floor]
    ok = not bad and bool(a_recs or "A" not in config.proposals)
    checks.append(("weight_floor", ok, f"{len(bad)} floor violations"))

    # 15. trace sanity: each trace has starts, their final objectives are
    # finite, and the chosen start has the lowest
    traced = [c for c in result.cells if c.trace]
    bad = next(((c.alpha_index, c.rep, fault) for c in traced if (fault := _trace_fault(c.trace))), None)
    ok = bad is None and bool(traced or "A" not in config.proposals)
    stops = [s.converged for c in traced for s in c.trace.starts]
    msg = f"{len(traced)} traces checked; starts: {stops.count(True)} converged, {stops.count(False)} at max_iters"
    if bad is not None:
        msg += "; trace (alpha_index, rep) ({}, {}) {}".format(*bad)
    checks.append(("trace_sanity", ok, msg))

    return VerificationReport(checks)


def _first_difference(a, b, path: str) -> tuple | None:
    """(path, a's value, b's value) where a and b first differ, or None.
    Dataclasses of one type differ at a field, arrays (as lists) and lists at
    their length or an entry, so a path reads like config.optimizer.n_starts,
    cells[0].records[1].f1_macro or len(cells[0].records)."""
    if isinstance(a, np.ndarray):
        a, b = a.tolist(), b.tolist()
    if is_dataclass(a) and type(a) is type(b):
        a, b, step = vars(a), vars(b), "{}.{}"
    elif type(a) is type(b) in (list, tuple):
        if len(a) != len(b):
            return f"len({path})", len(a), len(b)
        a, b, step = dict(enumerate(a)), dict(enumerate(b)), "{}[{}]"
    else:
        return None if a == b else (path, a, b)
    return next(filter(None, (_first_difference(a[k], b[k], step.format(path, k)) for k in a)), None)


def _first_bad(rows, is_bad) -> str | None:
    """Where the first number of a record (F1, ANLL, McNemar p or a weight)
    that is_bad(field, value) flags sits, with its field and value; else None."""
    for alpha, rep, _, r in rows:
        named = [("f1_macro", r.f1_macro), ("anll", r.anll), ("mcnemar_p_vs_B", r.mcnemar_p_vs_B)]
        for f, v in named + [(f"w_{i + 1}", w) for i, w in enumerate(r.weights or ())]:
            if v is not None and is_bad(f, v):
                return f"(alpha, rep, proposal) {(alpha, rep, r.proposal)}: {f} = {v}"
    return None


def _trace_fault(trace: OptimizationTrace) -> str | None:
    """What check 15 finds wrong with one optimizer trace, or None."""
    objectives = np.array([s.final_objective for s in trace.starts])
    if not objectives.size:
        return "has no starts"
    if not np.isfinite(objectives).all():
        return f"has final objectives {objectives.tolist()}"
    return None if trace.chosen == objectives.argmin() else f"chose start {trace.chosen}, not its best"


def _jsd_curve(config: ExperimentConfig, dataset: Dataset) -> np.ndarray:
    """Mean JSD per alpha over 20 fresh seeds of Dirichlet counts drawn from
    the whole dataset's class sizes, counted one row block at a time (bincount
    casts its input to intp)."""
    labels, k = dataset.labels, max(config.k, 2)
    top = int(labels.max()) + 1  # the length of bincount(labels)
    sizes = sum(np.bincount(labels[lo:hi], minlength=top) for lo, hi in row_blocks(len(labels)))
    return np.array([
        np.mean([jsd_heterogeneity(dirichlet_counts(sizes, k, alpha, seed)) for seed in range(20)])
        for alpha in config.alphas
    ])


def _per_rep_gradient(cells, config) -> tuple[bool, str]:
    if len(config.alphas) < 2:
        return True, "single alpha level (vacuous)"
    if config.reps < 2:  # one Dirichlet draw per alpha need not order two levels
        return True, "single rep (vacuous)"
    jsd = {(cell.rep, cell.alpha_index): jsd_heterogeneity(cell.counts) for cell in cells}  # one per cell
    seqs = [[jsd[rep, a] for a in range(len(config.alphas)) if (rep, a) in jsd] for rep in range(config.reps)]
    drops = [seq[0] - seq[-1] for seq in seqs if len(seq) >= 2]
    ok = bool(drops) and float(np.mean(drops)) > 0.0
    return ok, f"mean per-rep JSD drop from first to last alpha: {np.mean(drops) if drops else float('nan'):.4f}"


def _alignment_check(records, config) -> tuple[bool, str]:
    if "A" not in config.proposals:
        return True, "proposal A not run (vacuous)"
    iccs = [compute_icc(p) for p in config.profiles]
    hi, lo = int(np.argmax(iccs)), int(np.argmin(iccs))
    if hi == lo:
        return True, "single node (vacuous)"
    ws = [r.weights for r in records if r.proposal == "A" and r.weights is not None]
    if not ws:
        return False, "no learned weights recorded"
    mean_w = np.mean(ws, axis=0)
    node = [f"{p.name}={w:.4f}" for p, w in zip(config.profiles, mean_w)]
    at_floor = int((abs(mean_w - config.optimizer.floor_delta) <= 1e-6).sum())
    return bool(mean_w[hi] > mean_w[lo]), (
        f"mean weight {node[hi]} vs {node[lo]}; highest {node[int(np.argmax(mean_w))]}; "
        f"{at_floor} of {len(node)} nodes within 1e-6 of the floor"
    )


# ---------------------------------------------------------------------------
# Emission: results CSV and plot-ready TSV files.
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "" if x is None else f"{x:.6f}"


def _csv_row(name: str, row: tuple, k: int) -> str:
    """One results CSV line of dataset name and a GridResult row: weights
    padded to k columns, runtime_ms empty."""
    alpha, rep, jsd, r = row
    weights = [] if r.weights is None else [_fmt(w) for w in r.weights]
    line = [name, f"{alpha:.6f}", str(rep), r.proposal, _fmt(r.f1_macro), _fmt(r.anll), _fmt(jsd)]
    line += weights + [""] * (k - len(weights)) + [_fmt(r.mcnemar_p_vs_B), ""]
    return ",".join(line)


def results_csv_lines(result: GridResult) -> list[str]:
    """The results CSV: a header, then one line per record (see _csv_row).
    runtime_ms stays empty, because wall-clock time is not a function of the
    configuration; grid.json holds the measured times, per cell and proposal."""
    config = result.config
    header = ["dataset", "alpha", "rep", "proposal", "f1_macro", "anll", "jsd"]
    header += [f"w_{i + 1}" for i in range(config.k)] + ["mcnemar_p_vs_B", "runtime_ms"]
    return [",".join(header)] + [_csv_row(config.dataset_name, row, config.k) for row in result.rows]


def emit_results_csv(result: GridResult, path) -> None:
    """Grid-order CSV with fixed 6-decimal formatting; byte-stable."""
    write_lines(path, results_csv_lines(result))


def emit_plot_data(result: GridResult, out_dir) -> None:
    """Write four tab-separated plot-data files into out_dir from a grid:
    its records, its last cell's density profile, and the profiles' names
    and normalized coherence prior for the per-node files."""
    os.makedirs(out_dir, exist_ok=True)
    rows, node_names = result.rows, [p.name for p in result.config.profiles]
    alphas = sorted({alpha for alpha, *_ in rows})
    a_rows = [(alpha, r) for alpha, _, _, r in rows if r.proposal == "A" and r.weights is not None]

    lines = ["alpha\tproposal\tf1_mean\tf1_std\tanll_mean\tanll_std"]
    for a in alphas:
        for p in PROPOSAL_ORDER:
            sel = [r for alpha, _, _, r in rows if r.proposal == p and alpha == a]
            if not sel:  # a pair without records has no row
                continue
            stats = [np.array([r.f1_macro for r in sel]), np.array([r.anll for r in sel])]
            lines.append(f"{a:.6f}\t{p}" + "".join(f"\t{x.mean():.6f}\t{x.std():.6f}" for x in stats))
    write_lines(os.path.join(out_dir, "gradient_curves.tsv"), lines)

    lines = ["node\tmean_learned_weight\ticc_prior"]
    if a_rows:
        mean_w = np.array([r.weights for _, r in a_rows]).mean(axis=0)
        prior = coherence_prior(result.config.profiles)
        lines += [f"{name}\t{w:.6f}\t{q:.6f}" for name, w, q in zip(node_names, mean_w, prior)]
    write_lines(os.path.join(out_dir, "alignment_bars.tsv"), lines)

    lines = ["alpha\tnode\tmean_weight"]
    for a in alphas:
        sel = [r.weights for alpha, r in a_rows if alpha == a]
        if sel:
            mean_w = np.array(sel).mean(axis=0)
            lines += [f"{a:.6f}\t{name}\t{w:.6f}" for name, w in zip(node_names, mean_w)]
    write_lines(os.path.join(out_dir, "weight_trajectories.tsv"), lines)

    lines = ["x\t" + "\t".join(node_names)]
    means, sds = result.cells[-1].density
    if means.size:
        for x in np.linspace(float((means - 6 * sds).min()), float((means + 6 * sds).max()), 200):
            dens = np.exp(-0.5 * ((x - means) / sds) ** 2) / (sds * np.sqrt(2 * np.pi))
            lines.append(f"{x:.6f}\t" + "\t".join(f"{d:.6f}" for d in dens))
    write_lines(os.path.join(out_dir, "density_profiles.tsv"), lines)


def write_lines(path, lines) -> None:
    """Each line ended by "\n" on every platform; every text output but grid.json."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
