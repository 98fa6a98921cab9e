import copy
import pickle
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fednb.config import DEFAULT_ALPHAS, ExperimentConfig
from fednb.data import CategoryMap, Dataset, SynthSpec
from fednb.errors import CellError, ConfigError, NormalizationError
from fednb.experiment import (
    _jsd_curve,
    emit_plot_data,
    emit_results_csv,
    materialize_dataset,
    prepare_cell,
    run_cell,
    run_grid,
    run_tasks,
    verify,
)
import fednb.cli
import fednb.experiment
import fednb.mog
import fednb.partition
from fednb.errors import MetricError
from fednb.evaluation import f1_macro, mcnemar_yates
from fednb.governance import NodeProfile
from fednb.local_model import fit_hybrid
from fednb.mog import anll, mog_log_scores_batch
from fednb.partition import Partition, jsd_heterogeneity, stratified_split
from fednb.weights import OptimizerConfig

PROFILES = (
    NodeProfile("Financial", 4, 0.82, 0.12, 3.2),
    NodeProfile("Health", 3, 0.70, 0.25, 5.1),
    NodeProfile("Government", 2, 0.55, 0.40, 6.8),
)
SPEC = SynthSpec(1200, 2, 2, 2, (0.0, 0.2, 0.45), class_sep=2.0, name="synth-test")


def small_config(**kw):
    defaults = dict(
        source=SPEC,
        profiles=PROFILES,
        alphas=(0.1, 0.5, 1.0),
        reps=2,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def dataset():
    return materialize_dataset(small_config())


@pytest.fixture(scope="module")
def grid_run(dataset):
    """The grid and the outcomes of its replay: the first cell, which check 2 compares."""
    return run_grid(small_config(), dataset, [(0.1, 0)])


@pytest.fixture(scope="module")
def grid(grid_run):
    return grid_run[0]


@pytest.fixture(scope="module")
def rerun(grid_run):
    return grid_run[1][0]


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(alphas=(0.5, 0.1))
    with pytest.raises(ConfigError):
        small_config(reps=0)
    with pytest.raises(ConfigError):
        small_config(proposals=("C", "X"))
    with pytest.raises(ConfigError):
        small_config(source=SynthSpec(100, 2, 1, 1, (0.0,)))  # noise len != K


def test_config_rejects_infeasible_proposal_a():
    with pytest.raises(ConfigError, match="floor"):
        small_config(optimizer=OptimizerConfig(floor_delta=0.4))  # K * delta = 1.2
    with pytest.raises(ConfigError, match="2 node"):
        small_config(profiles=PROFILES[:1], source=SynthSpec(100, 2, 1, 1, (0.0,)))
    # without proposal A neither constraint applies
    small_config(optimizer=OptimizerConfig(floor_delta=0.4), proposals=("C", "B"))
    small_config(profiles=PROFILES[:1], source=SynthSpec(100, 2, 1, 1, (0.0,)), proposals=("B",))


def test_grid_record_count(grid):
    assert len(grid.rows) == 3 * 2 * 4


def test_default_grid_arithmetic():
    cfg = ExperimentConfig(source=SPEC, profiles=PROFILES)
    assert len(cfg.alphas) * cfg.reps * len(cfg.proposals) == 140
    assert cfg.alphas == DEFAULT_ALPHAS


def test_records_in_grid_order(grid):
    seen = [(alpha, rep, r.proposal) for alpha, rep, _, r in grid.rows]
    expected = [
        (a, rep, p)
        for a in (0.1, 0.5, 1.0)
        for rep in range(2)
        for p in ("C", "B", "E", "A")
    ]
    assert seen == expected


def test_fedavg_weights_match_partition_sizes(grid):
    for *_, r in grid.rows:
        if r.proposal == "B":
            assert sum(r.weights) == pytest.approx(1.0, abs=1e-9)


def test_proposal_c_has_no_weights(grid):
    for *_, r in grid.rows:
        if r.proposal == "C":
            assert r.weights is None
        else:
            assert r.weights is not None and len(r.weights) == 3


def test_mcnemar_only_on_proposal_a(grid):
    for *_, r in grid.rows:
        if r.proposal == "A":
            assert r.mcnemar_p_vs_B is not None and 0.0 <= r.mcnemar_p_vs_B <= 1.0
        else:
            assert r.mcnemar_p_vs_B is None


def test_cell_determinism():
    cfg = small_config()
    a = run_cell(cfg, 0.5, 1)
    b = run_cell(cfg, 0.5, 1)
    assert a.records == b.records


def test_cell_seed_varies_with_alpha_and_rep():
    cfg = small_config()
    a = run_cell(cfg, 0.5, 0)
    b = run_cell(cfg, 0.5, 1)
    assert a.records != b.records


def test_unknown_alpha_rejected():
    with pytest.raises(ConfigError):
        run_cell(small_config(), 0.42, 0)


def test_equal_size_nodes_give_uniform_fedavg():
    # force equal node sizes with alpha high and k=1 partition check instead:
    # B weights equal sizes/total exactly
    cfg = small_config(proposals=("B",))
    cell = run_cell(cfg, 1.0, 0)
    dataset = materialize_dataset(cfg)
    sizes = prepare_cell(cfg, 2, 0, dataset).counts.sum(axis=1).astype(float)
    assert np.allclose(cell.records[0].weights, sizes / sizes.sum(), atol=1e-12)


def test_emit_results_csv_shape_and_stability(tmp_path, grid):
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    emit_results_csv(grid, p1)
    emit_results_csv(grid, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == len(grid.rows) + 1
    assert lines[0] == "dataset,alpha,rep,proposal,f1_macro,anll,jsd,w_1,w_2,w_3,mcnemar_p_vs_B,runtime_ms"
    c_line = next(ln for ln in lines[1:] if ",C," in ln)
    fields = c_line.split(",")
    assert fields[7] == fields[8] == fields[9] == ""  # no weights for C


def test_results_csv_round_trip(tmp_path, grid):
    """grid.json keeps each record float exactly; results.csv is their CSV."""
    emit_results_csv(grid, tmp_path / "results.csv")
    fednb.cli._save_bundle(grid, str(tmp_path))
    back = fednb.cli._load_bundle(str(tmp_path))
    assert back.rows == grid.rows


def test_verify_clean_run_passes(grid, rerun, dataset):
    report = verify(grid, dataset, rerun)
    assert report.passed_count == 15, report.to_text()


def test_trace_sanity_quotes_stop_reasons(grid, rerun, dataset):
    report = verify(grid, dataset, rerun)
    msg = {name: m for name, _, m in report.checks}["trace_sanity"]
    traces = [cell.trace for cell in grid.cells if cell.trace is not None]
    starts = [s for t in traces for s in t.starts]
    n_conv = sum(s.converged for s in starts)
    assert msg == (
        f"{len(traces)} traces checked; starts: {n_conv} converged, "
        f"{len(starts) - n_conv} at max_iters"
    )


def test_verify_detects_weight_sum_tamper(grid, rerun, dataset):
    import copy

    tampered = copy.deepcopy(grid)
    # tamper a record in the *last* cell so the first-cell re-run check is unaffected
    victim = [r for *_, r in tampered.rows if r.proposal == "B"][-1]
    victim.weights = tuple(w + 0.1 / 3 for w in victim.weights)
    report = verify(tampered, dataset, rerun)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["weights_sum_to_one"]


def test_verify_detects_missing_record(grid, rerun, dataset):
    import copy

    tampered = copy.deepcopy(grid)
    tampered.cells[-1].records.pop()  # last record: proposal A of the last cell
    report = verify(tampered, dataset, rerun)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["grid_completeness"]


def test_verify_detects_a_jsd_rise_across_alphas(grid, rerun, dataset):
    import copy

    tampered = copy.deepcopy(grid)
    pure_nodes = [[1, 0], [0, 1], [1, 0]]  # more heterogeneous than every cell at the first alpha
    assert all(jsd < jsd_heterogeneity(pure_nodes) for alpha, _, jsd, _ in grid.rows if alpha == grid.config.alphas[0])
    for cell in tampered.cells:
        if cell.alpha_index == len(tampered.config.alphas) - 1:  # not the first cell, which check 2 re-runs
            cell.counts = pure_nodes
    report = verify(tampered, dataset, rerun)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["jsd_gradient_per_rep"]


def test_verify_detects_nan(grid, rerun, dataset):
    import copy

    tampered = copy.deepcopy(grid)
    row = tampered.rows[-3]  # proposal B of the last cell, whose weights only check 11 reads
    row[-1].weights = (float("nan"), *row[-1].weights[1:])
    report = verify(tampered, dataset, rerun)
    failed = [(name, msg) for name, ok, msg in report.checks if not ok]
    assert failed == [("no_nan_inf", f"non-finite field at {_key(row)}: w_1 = nan")]


def test_a_non_finite_anll_is_named_by_check_5_alone(grid, rerun, dataset):
    tampered = copy.deepcopy(grid)
    victim = tampered.rows[-2]  # proposal E of the last cell
    victim[-1].anll = float("inf")
    report = verify(tampered, dataset, rerun)
    failed = [(name, msg) for name, ok, msg in report.checks if not ok]
    assert failed == [("mog_scores_finite", f"bad scores at {_key(victim)}: anll = inf")]


def test_verify_detects_a_one_ulp_rerun_difference(grid, rerun, dataset):
    import copy

    tampered = copy.deepcopy(grid)
    first = tampered.cells[0].records[0]  # proposal C of the first cell, which check 2 re-runs
    rerun_f1 = first.f1_macro
    first.f1_macro = float(np.nextafter(first.f1_macro, 0.0))
    report = verify(tampered, dataset, rerun)
    failed = [(name, msg) for name, ok, msg in report.checks if not ok]
    assert failed == [(
        "seed_reproducibility",
        f"first cell re-run diverges at cells[0].records[0].f1_macro = {rerun_f1}, recorded {first.f1_macro}",
    )]


def test_mcnemar_check_fails_without_p_values_when_a_and_b_ran(grid, rerun, dataset):
    tampered = copy.deepcopy(grid)
    for *_, r in tampered.rows:
        r.mcnemar_p_vs_B = None
    checks = {name: (ok, msg) for name, ok, msg in verify(tampered, dataset, rerun).checks}
    assert checks["mcnemar_validity"] == (False, "invalid p: no p-values, though A and B ran")


def test_verify_names_a_rerun_that_returns_fewer_records(grid, dataset, monkeypatch):
    real = fednb.experiment.run_cell

    def drop_last(*args):
        cell = real(*args)
        cell.records.pop()
        return cell

    monkeypatch.setattr(fednb.experiment, "run_cell", drop_last)
    (rerun,) = run_tasks(grid.config, dataset, [(0.1, 0)])
    report = verify(grid, dataset, rerun)
    failed = [(name, msg) for name, ok, msg in report.checks if not ok]
    assert failed == [("seed_reproducibility", "first cell re-run diverges at len(cells[0].records) = 3, recorded 4")]


def _key(row):
    alpha, rep, _, r = row
    return f"(alpha, rep, proposal) {(alpha, rep, r.proposal)}"


def _last_a(grid):
    return [row for row in grid.rows if row[-1].proposal == "A"][-1]


def _off_reference_icc(grid, monkeypatch):
    (*profile, expected), *rest = fednb.experiment.REFERENCE_PROFILES
    monkeypatch.setattr(fednb.experiment, "REFERENCE_PROFILES", ((*profile, expected + 0.01), *rest))


def _jsd_rising_with_alpha(grid, monkeypatch):
    real = fednb.experiment.dirichlet_counts
    alphas = grid.config.alphas
    mirror = dict(zip(alphas, alphas[::-1]))
    monkeypatch.setattr(
        fednb.experiment, "dirichlet_counts", lambda sizes, k, alpha, seed: real(sizes, k, mirror[alpha], seed)
    )


def _unseen_category_on_a_seen_code(grid, monkeypatch):
    monkeypatch.setattr(CategoryMap, "encode", lambda self, col, raw: 0)


def _bad_scores(grid, monkeypatch):
    grid.cells[-1].records[-1].anll = float("inf")  # the last cell, which check 2 does not re-run


def _f1_above_one(grid, monkeypatch):
    grid.cells[-1].records[-1].f1_macro = 1.5  # the last cell, which check 2 does not re-run


def _p_above_one(grid, monkeypatch):
    _last_a(grid)[-1].mcnemar_p_vs_B = 1.5


def _first_and_last_node_swapped(grid, monkeypatch):
    for cell in grid.cells[1:]:  # not the first cell, which check 2 re-runs
        for r in cell.records:
            if r.proposal == "A":
                r.weights = (r.weights[-1], *r.weights[1:-1], r.weights[0])


def _middle_node_below_floor(grid, monkeypatch):
    r = _last_a(grid)[-1]
    w0, w1, w2 = r.weights
    r.weights = (w0 + w1 - 0.03, 0.03, w2)


def _chosen_not_the_best(grid, monkeypatch):
    trace = grid.cells[-1].trace  # of the last cell, which check 2 does not re-run
    trace.chosen = (int(np.argmin([s.final_objective for s in trace.starts])) + 1) % len(trace.starts)


# the checks that no other test drives to FAIL, each with a probe that breaks
# what it reads; checks 1, 3 and 4 read no record, so their probes patch code
# (check 3's maps each alpha to its mirror in the grid, so the curve rises)
CHECK_PROBES = {
    "icc_formula": _off_reference_icc,
    "jsd_alpha_ordering": _jsd_rising_with_alpha,
    "ood_slot_index": _unseen_category_on_a_seen_code,
    "mog_scores_finite": _bad_scores,
    "metric_ranges": _f1_above_one,
    "mcnemar_validity": _p_above_one,
    "icc_weight_alignment": _first_and_last_node_swapped,
    "weight_floor": _middle_node_below_floor,
    "trace_sanity": _chosen_not_the_best,
}


# each probed check's FAIL message as a regular expression, from the grid
# and dataset before the probe
FAIL_TEXT = {
    "icc_formula": lambda grid, dataset: re.escape("max deviation 1.04e-02"),
    "jsd_alpha_ordering": lambda grid, dataset: re.escape(
        f"mean JSD per alpha: {np.round(_jsd_curve(grid.config, dataset), 4).tolist()[::-1]}"
    ),
    "ood_slot_index": lambda grid, dataset: re.escape("unseen value encoded as 0, n_cats=2"),
    "mog_scores_finite": lambda grid, dataset: re.escape(f"bad scores at {_key(grid.rows[-1])}: anll = inf"),
    "metric_ranges": lambda grid, dataset: re.escape(f"range violation at {_key(grid.rows[-1])}: f1_macro = 1.5"),
    "mcnemar_validity": lambda grid, dataset: re.escape(f"invalid p at {_key(_last_a(grid))}: mcnemar_p_vs_B = 1.5"),
    "icc_weight_alignment": lambda grid, dataset: (
        r"mean weight Financial=0\.\d{4} vs Government=0\.\d{4}; highest Government=0\.\d{4}; "
        r"0 of 3 nodes within 1e-6 of the floor"
    ),
    "weight_floor": lambda grid, dataset: re.escape("1 floor violations"),
    "trace_sanity": lambda grid, dataset: (
        r"6 traces checked; starts: \d+ converged, \d+ at max_iters; "
        + re.escape(f"trace (alpha_index, rep) {(grid.cells[-1].alpha_index, grid.cells[-1].rep)} chose start ")
        + r"\d+, not its best"
    ),
}


@pytest.mark.parametrize("name, probe", CHECK_PROBES.items(), ids=CHECK_PROBES)
def test_verify_fails_the_probed_check_alone(grid, rerun, dataset, monkeypatch, name, probe):
    tampered = copy.deepcopy(grid)
    want = FAIL_TEXT[name](tampered, dataset)
    probe(tampered, monkeypatch)
    report = verify(tampered, dataset, rerun)
    failed = [(n, msg) for n, ok, msg in report.checks if not ok]
    assert [n for n, _ in failed] == [name], report.to_text()
    assert re.fullmatch(want, failed[0][1]), failed[0][1]


def test_jsd_curve_reads_no_rows_and_no_partition(dataset, monkeypatch):
    want = _jsd_curve(small_config(), dataset)

    def refuse(*args):
        raise AssertionError("the JSD curve drew from rows")

    monkeypatch.setattr(fednb.partition, "class_rows", refuse)
    monkeypatch.setattr(fednb.partition, "dirichlet_partition", refuse)
    monkeypatch.setattr(fednb.experiment, "dirichlet_partition", refuse)
    assert _jsd_curve(small_config(), dataset).tobytes() == want.tobytes()


def test_emit_plot_data_files(tmp_path, grid):
    emit_plot_data(grid, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alignment_bars.tsv", "density_profiles.tsv", "gradient_curves.tsv", "weight_trajectories.tsv"
    ]

    gradient = (tmp_path / "gradient_curves.tsv").read_text().splitlines()
    assert len(gradient) == 1 + 3 * 4  # alphas x proposals

    align = (tmp_path / "alignment_bars.tsv").read_text().splitlines()
    assert align[0] == "node\tmean_learned_weight\ticc_prior"
    priors = [float(ln.split("\t")[2]) for ln in align[1:]]
    assert np.allclose(priors, [0.667, 0.261, 0.071], atol=2e-3)

    dens = (tmp_path / "density_profiles.tsv").read_text().splitlines()
    assert len(dens) == 201
    xs = np.array([float(ln.split("\t")[0]) for ln in dens[1:]])
    for col in range(1, 4):
        ys = np.array([float(ln.split("\t")[col]) for ln in dens[1:]])
        integral = np.trapezoid(ys, xs)
        assert integral == pytest.approx(1.0, abs=0.01)


def test_proposal_subset_runs():
    cfg = small_config(proposals=("B", "E"), alphas=(0.5,), reps=1)
    dataset = materialize_dataset(cfg)
    result, _ = run_grid(cfg, dataset, [])
    assert [r.proposal for *_, r in result.rows] == ["B", "E"]
    assert [cell.trace for cell in result.cells] == [None]
    assert prepare_cell(cfg, 0, 0, dataset).val is None  # only proposal A reads it


def test_prepare_cell_fits_proposal_c_on_the_training_split_before_the_test_rows(monkeypatch):
    """C's pooled rows are gathered, fitted and freed before the validation
    and test rows are gathered, so those are not alive during C's fit."""
    splits, steps = [], []
    real_subset, real_fit = Dataset.subset, fednb.experiment.fit_hybrid

    def split(*args):
        splits.append(stratified_split(*args))
        return splits[-1]

    def subset(data, rows):
        steps.append(("gather", len(rows)))
        return real_subset(data, rows)

    def fit(train):
        steps.append(("fit", train.n_rows))
        return real_fit(train)

    monkeypatch.setattr(fednb.experiment, "stratified_split", split)
    cfg = small_config()
    dataset = materialize_dataset(cfg)
    monkeypatch.setattr(Dataset, "subset", subset)
    monkeypatch.setattr(fednb.experiment, "fit_hybrid", fit)
    cell = prepare_cell(cfg, 0, 1, dataset)
    monkeypatch.undo()
    (train_rows, val_rows, test_rows), = splits
    n_train = len(train_rows)
    assert steps[-4:] == [("gather", n_train), ("fit", n_train), ("gather", len(val_rows)), ("gather", len(test_rows))]
    assert pickle.dumps(cell.pooled) == pickle.dumps(fit_hybrid(dataset.subset(train_rows)))  # bit for bit
    assert np.array_equal(cell.counts.sum(axis=0), np.bincount(dataset.labels[train_rows], minlength=2))
    assert cell.test.labels.tobytes() == dataset.labels[test_rows].tobytes()
    assert prepare_cell(small_config(proposals=("B", "E", "A")), 0, 1, dataset).pooled is None


def _cell_peak_per_dataset_byte(cfg):
    """run_cell's traced peak, in bytes of cfg's dataset."""
    dataset = materialize_dataset(cfg)
    dataset_bytes = dataset.categorical.nbytes + dataset.numerical.nbytes + dataset.labels.nbytes
    tracemalloc.start()
    try:
        run_cell(cfg, cfg.alphas[0], 0, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / dataset_bytes


LARGE_CELL = dict(
    source=SynthSpec(60_000, 2, 2, 3, (0.0, 0.2, 0.45), class_sep=2.0), alphas=(0.1,), reps=1, proposals=("C", "B", "E"),
)


def test_one_cell_peaks_below_1_45_times_the_dataset_in_traced_memory():
    # C/B/E at pooled-large's shape. With its temporaries in row blocks, the
    # cell peaks near 1.36x; gathering each node's rows beside an (n, F) noise
    # buffer and fitting with n-sized sums and class indices, near 1.6x
    ratio = _cell_peak_per_dataset_byte(small_config(**LARGE_CELL))
    assert ratio < 1.45, f"peak {ratio:.3f} times the dataset's bytes"


def test_a_noisy_node_with_96_percent_of_the_rows_peaks_below_1_45_times_the_dataset(monkeypatch):
    # The binding case of a cell: one degraded node gathers nearly all training
    # rows. Its gathered copy and one block of scratch stay near 1.36x; a
    # second (n, F) buffer beside it, and the fit's n-sized temporaries, reach 1.73x
    def lopsided(labels, k, alpha, seed):
        n = len(labels)
        nodes = [np.arange(0, n // 50), np.arange(n // 50, n // 25), np.arange(n // 25, n)]
        return Partition(nodes, np.array([np.bincount(labels[ix], minlength=2) for ix in nodes]))

    monkeypatch.setattr(fednb.experiment, "dirichlet_partition", lopsided)
    ratio = _cell_peak_per_dataset_byte(small_config(**LARGE_CELL))
    assert ratio < 1.45, f"peak {ratio:.3f} times the dataset's bytes"


def test_run_cell_scores_the_test_split_once_per_model(monkeypatch):
    cfg = small_config()
    cells, scored = [], []
    real_prepare, real_score = fednb.experiment.prepare_cell, fednb.mog.joint_log_scores_batch

    def prepare(*args):
        cells.append(real_prepare(*args))
        return cells[-1]

    def score(model, data):
        scored.append(data)
        return real_score(model, data)

    monkeypatch.setattr(fednb.experiment, "prepare_cell", prepare)
    monkeypatch.setattr(fednb.mog, "joint_log_scores_batch", score)
    run_cell(cfg, 0.5, 0)
    (cell,) = cells
    # the K local models once for B/E/A, the pooled model once for C
    assert sum(d is cell.test for d in scored) == cfg.k + 1
    assert sum(d is cell.val for d in scored) == cfg.k  # proposal A's optimizer
    assert len(scored) == 2 * cfg.k + 1


def test_run_cell_learns_a_weights_before_it_stacks_any_test_scores(monkeypatch):
    """The optimizer's buffers and a stacked test tensor, with its kernel
    scratch, are never alive at once: on wide-k10 that raised the peak RSS."""
    cells, calls = [], []
    real_prepare, real_learn, real_stack = (
        fednb.experiment.prepare_cell, fednb.experiment.learn_weights_icc, fednb.mog.stack_scores)

    def prepare(*args):
        cells.append(real_prepare(*args))
        return cells[-1]

    def learn(*args):
        calls.append("learn")
        learned = real_learn(*args)
        calls.append("learned")
        return learned

    def stack(models, data):
        calls.append("stack test" if data is cells[-1].test else "stack other")
        return real_stack(models, data)

    monkeypatch.setattr(fednb.experiment, "prepare_cell", prepare)
    monkeypatch.setattr(fednb.experiment, "learn_weights_icc", learn)
    monkeypatch.setattr(fednb.mog, "stack_scores", stack)
    run_cell(small_config(), 0.5, 0)
    assert calls == ["learn", "learned", "stack test", "stack test"]  # C's tensor, then B/E/A's shared one


def test_a_nan_test_score_fails_the_cell_instead_of_a_clamped_anll(monkeypatch):
    real_score = fednb.mog.joint_log_scores_batch

    def one_nan(model, data):
        scores = real_score(model, data).copy()
        scores[3, 0] = np.nan
        return scores

    monkeypatch.setattr(fednb.mog, "joint_log_scores_batch", one_nan)
    with pytest.raises(NormalizationError, match=r"^row 3 has no finite class maximum: scores \[nan, "):
        run_cell(small_config(proposals=("C",)), 0.5, 0)


def test_shared_test_scores_match_per_proposal_formulas():
    cfg = small_config()
    result = run_cell(cfg, 0.1, 1)
    dataset = materialize_dataset(cfg)
    cell = prepare_cell(cfg, 0, 1, dataset)
    assert [r.proposal for r in result.records] == ["C", "B", "E", "A"]
    preds = {}
    for rec in result.records:
        if rec.proposal == "C":
            models, w = [cell.pooled], np.array([1.0])
        else:
            models, w = cell.models, np.array(rec.weights)
        preds[rec.proposal] = mog_log_scores_batch(models, w, cell.test).argmax(axis=1)
        assert rec.anll == anll(models, w, cell.test)
        assert rec.f1_macro == f1_macro(cell.test.labels, preds[rec.proposal], dataset.schema.n_classes)
    a = result.records[-1]
    assert a.mcnemar_p_vs_B == mcnemar_yates(preds["A"], preds["B"], cell.test.labels).p_value


def test_run_cell_rejects_an_empty_test_split(monkeypatch):
    real_split = fednb.experiment.stratified_split

    def no_test_rows(*args):
        train, val, test = real_split(*args)
        return train, val, test[:0]

    monkeypatch.setattr(fednb.experiment, "stratified_split", no_test_rows)
    with pytest.raises(MetricError, match="empty"):
        run_cell(small_config(proposals=("B",)), 0.5, 0)


def test_cell_error_survives_a_pickle_round_trip():
    err = CellError(0.1, 3, ValueError("x"))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is CellError and str(back) == str(err) == "cell (alpha=0.1, rep=3) failed: x"
    assert (back.alpha, back.rep) == (0.1, 3)
    assert type(back.cause) is ValueError and back.cause.args == ("x",)


def test_run_cell_times_each_stage_within_the_cells_wall_time(dataset):
    t0 = time.perf_counter()
    cell = run_cell(small_config(), 0.5, 1, dataset)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert list(cell.stage_ms) == ["split", "partition", "degrade", "fit", "stack", "optimize", "score"]
    assert sum(cell.stage_ms.values()) <= wall_ms


def test_check_2_ignores_the_stage_times_of_the_first_cell(grid, rerun, dataset):
    first = replace(grid.cells[0], stage_ms={"fit": -1.0})
    report = verify(replace(grid, cells=[first, *grid.cells[1:]]), dataset, rerun)
    assert ("seed_reproducibility", True, "first cell re-run matches") in report.checks
