"""Acceptance gate: one test per release criterion, each printing a PASS line.

Criteria 9-11 run the bundled synthetic grid config end to end, so this module
is the slowest in the suite (a few seconds per grid run).
"""

import copy
import dataclasses
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import fednb.partition
from fednb.config import load_config
from fednb.data import SynthSpec, synth_generate
from fednb.evaluation import mcnemar_yates
from fednb.experiment import (
    _jsd_curve,
    emit_results_csv,
    materialize_dataset,
    run_cell,
    run_grid,
    verify,
)
from fednb.governance import NodeProfile, coherence_prior, compute_icc
from fednb.local_model import NEG_INF, fit_hybrid, joint_log_scores_batch
from fednb.mog import StackedScores, anll_from_stacked, mog_log_scores_batch
from fednb.partition import dirichlet_partition, jsd_heterogeneity
from fednb.weights import OptimizerConfig, learn_weights_icc, nelder_mead

from conftest import classes_present, make_dataset, score_row

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "synth.cfg"
# sha256 of the results.csv that configs/synth.cfg produces; any change to the
# numerics that moves a printed digit moves this hash
RESULTS_SHA256 = "01102000be67071f90862196de0bc5664555bf36fd6706b9aaf2347aace3552c"
# The grid.json traces of four synth cells, keyed "alpha,rep", recorded
# before the objective built its per-cell constants (mog.StackedScores).
# results.csv prints 6 decimals, so a last-ulp drift in the optimizer could
# hide behind its hash; these pin every start at full precision. Of the four,
# the validation tensors of (0.10, 0) and (0.05, 1) have a node without a
# class: -inf sentinel columns that the objective's cheap path still covers.
TRACES_PATH = Path(__file__).resolve().parent / "data" / "synth_optimizer_traces.json"
# The same for one K = 10 cell (WIDE_CELL), recorded before nelder_mead kept its
# simplex as Python floats. At K = 3 the centroid divides by 2 exactly; in 9
# dimensions it does not, so only this trace can show a last-ulp drift there.
# Its validation tensor has two sentinel (node, class) pairs.
WIDE_TRACE_PATH = Path(__file__).resolve().parent / "data" / "wide_k10_optimizer_trace.json"
WIDE_CELL = (0.30, 0)

PROFILES = (
    NodeProfile("Financial", 4, 0.82, 0.12, 3.2),
    NodeProfile("Health", 3, 0.70, 0.25, 5.1),
    NodeProfile("Government", 2, 0.55, 0.40, 6.8),
)


def _report(num, desc):
    print(f"criterion {num} PASS: {desc}")


def _platform() -> str:
    """numpy's version and the code its float64 exp and log dispatch to: the
    pinned floats were recorded on numpy 2.4.6 at X86_V4 (AVX-512), and the
    last bits of exp and log differ between dispatch targets."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0 has no dispatch introspection
        return f"numpy {np.__version__}, float64 exp/log dispatch unknown"
    info = opt_func_info(func_name="^exp$|^log$", signature="float64")
    targets = ", ".join(f"{name} {sig['current']}" for name, sigs in info.items() for sig in sigs.values())
    return f"numpy {np.__version__}, float64 dispatch: {targets}"


@pytest.fixture(scope="module")
def full_config():
    return load_config(CONFIG_PATH)


@pytest.fixture(scope="module")
def full_dataset(full_config):
    return materialize_dataset(full_config)


@pytest.fixture(scope="module")
def full_run(full_config, full_dataset):
    """The grid and check 2's re-run of its first cell."""
    return run_grid(full_config, full_dataset)


@pytest.fixture(scope="module")
def full_grid(full_run):
    return full_run[0]


@pytest.fixture(scope="module")
def full_rerun(full_run):
    return full_run[1]


def test_criterion_01_icc_reference_values():
    expected = (0.393, 0.154, 0.042)
    for profile, want in zip(PROFILES, expected):
        got = compute_icc(profile)
        assert abs(got - want) <= 0.0005, f"{profile.name}: {got} vs {want}"
    _report(1, "all three coherence-index reference values within 0.0005")


def _oracle_scores(cat, num, labels, n_cats, n_classes, row_cat, row_num):
    """Brute-force joint log-score with plain Python loops (independent oracle)."""
    n = len(labels)
    d = len(row_num)
    means = [sum(num[i][j] for i in range(n)) / n for j in range(d)]
    stds = []
    for j in range(d):
        var = sum((num[i][j] - means[j]) ** 2 for i in range(n)) / n
        stds.append(math.sqrt(var) if var > 0 else 1.0)
    z = [[(num[i][j] - means[j]) / stds[j] for j in range(d)] for i in range(n)]
    zrow = [(row_num[j] - means[j]) / stds[j] for j in range(d)]
    floors = []
    for j in range(d):
        zm = sum(z[i][j] for i in range(n)) / n
        zv = sum((z[i][j] - zm) ** 2 for i in range(n)) / n
        floors.append(1e-9 * max(zv, 1.0))
    out = []
    for c in range(n_classes):
        rows = [i for i in range(n) if labels[i] == c]
        if not rows:
            out.append(NEG_INF)
            continue
        s = math.log(len(rows) / n)
        for j, m in enumerate(n_cats):
            cnt = sum(1 for i in rows if cat[i][j] == row_cat[j])
            s += math.log((cnt + 1.0) / (len(rows) + 1.0 * (m + 1)))
        for j in range(d):
            mu = sum(z[i][j] for i in rows) / len(rows)
            var = sum((z[i][j] - mu) ** 2 for i in rows) / len(rows) + floors[j]
            s += -0.5 * math.log(2 * math.pi * var) - (zrow[j] - mu) ** 2 / (2 * var)
        out.append(s)
    return out


def test_criterion_02_scoring_oracle_equivalence():
    rng = np.random.default_rng(2024)
    n_trials = 100
    worst = 0.0
    for _ in range(n_trials):
        n_classes = int(rng.integers(2, 4))
        n_cat = int(rng.integers(0, 3))
        n_num = int(rng.integers(0, 5 - n_cat))
        if n_cat + n_num == 0:
            n_num = 1
        n = int(rng.integers(4, 51))
        n_cats = tuple(int(rng.integers(2, 4)) for _ in range(n_cat))
        cat = (
            np.column_stack([rng.integers(0, m, size=n) for m in n_cats]).astype(np.int64)
            if n_cat
            else np.zeros((n, 0), dtype=np.int64)
        )
        num = rng.normal(size=(n, n_num))
        labels = rng.integers(0, n_classes, size=n).astype(np.int64)
        labels[0] = 0
        ds = make_dataset(cat, num, labels, n_classes, n_cats)
        model = fit_hybrid(ds)
        row_cat = [int(rng.integers(0, m + 1)) for m in n_cats]
        row_num = list(rng.normal(size=n_num))
        got = score_row(model, row_cat, row_num)
        want = _oracle_scores(cat.tolist(), num.tolist(), labels.tolist(), n_cats, n_classes, row_cat, row_num)
        for c in range(n_classes):
            if want[c] == NEG_INF:
                assert got[c] == NEG_INF
            else:
                err = abs(got[c] - want[c]) / max(1.0, abs(want[c]))
                worst = max(worst, err)
                assert err <= 1e-9, f"score mismatch: {got[c]} vs {want[c]}"
    _report(2, f"{n_trials} randomized instances match the brute-force oracle (worst rel err {worst:.2e})")


def test_criterion_03_ood_slot_contract():
    ds = synth_generate(SynthSpec(400, 2, 1, 1, (0.0,)), 99)
    model = fit_hybrid(ds)
    m = ds.n_cats[0]
    tables_before = [t.copy() for t in model.cat_log_prob]
    s_known_before = score_row(model, [0], [0.0])
    s_ood = score_row(model, [m], [0.0])
    s_known_after = score_row(model, [0], [0.0])
    for c in classes_present(model):
        assert s_ood[c] == pytest.approx(
            model.log_prior[c]
            + model.cat_log_prob[0][c, m]
            + (s_known_before[c] - model.log_prior[c] - model.cat_log_prob[0][c, 0])
        )
    assert np.array_equal(s_known_before, s_known_after)
    for a, b in zip(tables_before, model.cat_log_prob):
        assert np.array_equal(a, b)
    _report(3, "unseen category routed to reserved slot; known probabilities bitwise unchanged")


def test_criterion_04_mixture_degeneracy_and_stability():
    ds = synth_generate(SynthSpec(300, 3, 1, 2, (0.0,)), 7)
    model = fit_hybrid(ds)
    assert np.array_equal(mog_log_scores_batch([model], np.array([1.0]), ds), joint_log_scores_batch(model, ds))

    # log-softmax of each row, read off the ANLL of a one-node, one-row tensor
    big = np.array([[1e4, -1e4, 5e3], [-1e4, 1e4, 0.0]])
    one = np.array([1.0])
    mixed = np.array([
        [-anll_from_stacked(one, StackedScores(row[None, :, None], np.array([c]))) for c in range(3)]
        for row in big
    ])
    assert np.isfinite(mixed).all()
    sums = np.exp(mixed).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    _report(4, "K=1 mixture exact; scores at magnitude 1e4 stable; softmax rows sum to 1 within 1e-12")


def test_criterion_05_optimizer_convergence():
    x1, *_ = nelder_mead(lambda t: (t[0] - 3.0) ** 2, np.array([0.0]), max_iters=500)
    assert abs(x1[0] - 3.0) <= 1e-5
    x2, *_ = nelder_mead(lambda t: t[0] ** 2 + 10.0 * t[1] ** 2, np.array([5.0, 5.0]), max_iters=500)
    assert np.max(np.abs(x2)) <= 1e-5
    _report(5, "simplex search recovers both analytic minima within 1e-5")


def test_criterion_06_objective_limits():
    rng = np.random.default_rng(10)
    ds = synth_generate(SynthSpec(3000, 2, 1, 2, (0.0, 0.0, 0.0), class_sep=2.0), 6)
    clean_a = ds.subset(np.arange(0, 2000, 2))
    clean_b = ds.subset(np.arange(1, 2000, 2))
    noise = ds.subset(np.arange(2000, 2600))
    noise.labels[:] = rng.integers(0, 2, size=noise.n_rows)
    models = [fit_hybrid(clean_a), fit_hybrid(clean_b), fit_hybrid(noise)]
    val = ds.subset(np.arange(2600, 3000))
    prior = coherence_prior(PROFILES)

    w_pinned, _ = learn_weights_icc(models, val, prior, OptimizerConfig(lam=1e6, seed=2))
    assert np.max(np.abs(w_pinned - prior)) <= 1e-3

    w_free, _ = learn_weights_icc(models, val, prior, OptimizerConfig(lam=0.0, seed=3))
    assert abs(w_free[2] - 0.05) <= 0.02
    _report(6, "huge lambda pins weights to the prior; zero lambda floors the noise node")


def test_criterion_07_mcnemar_reference_values():
    n = 17
    y = np.zeros(n, dtype=int)
    a = np.zeros(n, dtype=int)
    b = np.zeros(n, dtype=int)
    a[:2] = 1  # A wrong, B correct: c=2
    b[2:12] = 1  # B wrong, A correct: b=10
    res = mcnemar_yates(a, b, y)
    assert (res.b, res.c) == (10, 2)
    assert abs(res.p_value - 0.0433) <= 0.001

    a2 = np.zeros(n, dtype=int)
    b2 = np.zeros(n, dtype=int)
    a2[:5] = 1
    b2[5:10] = 1
    assert mcnemar_yates(a2, b2, y).p_value == 1.0

    # the chi-square tail at the 5% and 1% critical values (3.841, 6.635) lies
    # between the p-values of statistics on either side of them
    def p_for(b_count):  # b_count discordant pairs, all A correct: chi2 = (b-1)^2 / b
        a3 = np.zeros(b_count, dtype=int)
        b3 = np.ones(b_count, dtype=int)
        return mcnemar_yates(a3, b3, np.zeros(b_count, dtype=int)).p_value

    assert abs(p_for(5) - 0.0736) <= 0.0005 and abs(p_for(9) - 0.0077) <= 0.0005
    assert p_for(5) > 0.050 > res.p_value and p_for(8) > 0.010 > p_for(9)
    _report(7, "paired-test p-values and chi-square tail references all within tolerance")


def test_criterion_08_jsd_alpha_gradient(full_config, full_dataset):
    labels = full_dataset.labels
    means = []
    for alpha in full_config.alphas:
        vals = []
        for seed in range(20):
            part = dirichlet_partition(labels, full_config.k, alpha, seed)
            vals.append(jsd_heterogeneity(part.counts))
        means.append(float(np.mean(vals)))
    assert all(a >= b for a, b in zip(means, means[1:])), f"not monotone: {means}"
    _report(8, f"20-seed mean heterogeneity non-increasing in alpha: {[round(m, 4) for m in means]}")


def test_criterion_09_alignment_and_f1(full_grid):
    prior_order = np.argsort([compute_icc(p) for p in PROFILES])
    lo, hi = int(prior_order[0]), int(prior_order[-1])
    a_rows = [(alpha, rep, r) for alpha, rep, _, r in full_grid.rows if r.proposal == "A"]
    assert len(a_rows) == 35
    for alpha, rep, r in a_rows:
        assert r.weights[hi] > r.weights[lo], (
            f"cell alpha={alpha} rep={rep}: w[{hi}]={r.weights[hi]} <= w[{lo}]={r.weights[lo]}"
        )
    f1_a = float(np.mean([r.f1_macro for *_, r in a_rows]))
    f1_b = float(np.mean([r.f1_macro for *_, r in full_grid.rows if r.proposal == "B"]))
    assert f1_a >= f1_b, f"grid-mean F1: A={f1_a} < B={f1_b}"
    _report(9, f"highest-ICC node outweighs lowest in all 35 cells; grid-mean F1 A={f1_a:.4f} >= B={f1_b:.4f}")


def test_criterion_10_verification_protocol(full_grid, full_rerun, full_dataset):
    clean = verify(full_grid, full_dataset, full_rerun)
    assert clean.passed_count == 15, clean.to_text()

    tampered = copy.deepcopy(full_grid)
    victim = [r for *_, r in tampered.rows if r.proposal == "B"][-1]
    victim.weights = tuple(w + 0.05 for w in victim.weights)
    failed = [n for n, ok, _ in verify(tampered, full_dataset, full_rerun).checks if not ok]
    assert failed == ["weights_sum_to_one"]

    tampered = copy.deepcopy(full_grid)
    tampered.cells[-1].records.pop()
    failed = [n for n, ok, _ in verify(tampered, full_dataset, full_rerun).checks if not ok]
    assert failed == ["grid_completeness"]

    tampered = copy.deepcopy(full_grid)
    victim = tampered.cells[-1].records[1]  # proposal B, whose weights only check 11 reads
    victim.weights = (float("nan"), *victim.weights[1:])
    failed = [n for n, ok, _ in verify(tampered, full_dataset, full_rerun).checks if not ok]
    assert failed == ["no_nan_inf"]
    _report(10, "clean run 15/15; each injected corruption trips exactly one check")


def test_criterion_11_byte_identical_results(full_config, full_grid, tmp_path):
    second, _ = run_grid(full_config, materialize_dataset(full_config))
    p1 = tmp_path / "first.csv"
    p2 = tmp_path / "second.csv"
    emit_results_csv(full_grid, p1)
    emit_results_csv(second, p2)
    assert p1.read_bytes() == p2.read_bytes()
    _report(11, "two independent grid runs emit byte-identical results files")


def test_results_csv_matches_reference_sha256(full_grid, tmp_path):
    path = tmp_path / "results.csv"
    emit_results_csv(full_grid, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RESULTS_SHA256, _platform()


def test_pin_failures_name_numpy_and_its_exp_log_dispatch(monkeypatch):
    assert re.fullmatch(rf"numpy {re.escape(np.__version__)}, float64 dispatch: exp \w+, log \w+", _platform())
    monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)  # as on a numpy without the module
    assert _platform() == f"numpy {np.__version__}, float64 exp/log dispatch unknown"


def test_optimizer_traces_match_the_pinned_floats(full_config, full_grid):
    pinned = json.loads(TRACES_PATH.read_text(encoding="utf-8"))
    assert len(pinned) == 4
    traces = {(full_config.alphas[cell.alpha_index], cell.rep): cell.trace for cell in full_grid.cells}
    for key, want in pinned.items():
        alpha, rep = key.split(",")
        _assert_matches_the_pin(traces[float(alpha), int(rep)], want)


def _assert_matches_the_pin(trace, want):
    """trace saved as grid.json saves it equals the pinned object want, which
    also holds the trace-level total of evaluations that grid.json once had."""
    assert want.pop("evaluations") == sum(s["evaluations"] for s in want["starts"])
    # a JSON round trip reproduces each float exactly, so == compares bits
    assert json.loads(json.dumps(dataclasses.asdict(trace), default=np.ndarray.tolist)) == want, _platform()


def _wide_config_text(alphas=(WIDE_CELL[0],), n_classes=2) -> str:
    """A 1,200-row synthetic config with k = 10 nodes, reps enough for
    WIDE_CELL: node i has cmm 5 - floor(4i/k), kci 0.90 - 0.04i,
    kri 0.10 + 0.04i, cvss 3.0 + 0.4i, and label noise rising linearly from
    0 to 0.45."""
    k = 10
    lines = [
        "[experiment]", "name = wide-k10", "seed = 42", "alphas = " + ", ".join(f"{a:.2f}" for a in alphas),
        f"reps = {WIDE_CELL[1] + 1}", "proposals = A", "lambda = 0.10", "floor_delta = 0.05",
        "max_iters = 500", "n_starts = 5",
        "[synth]", "n_rows = 1200", f"n_classes = {n_classes}", "n_categorical = 2",
        "n_numerical = 3", "n_categories = 4", "class_sep = 2.0",
        "node_noise = " + ", ".join(str(round(0.45 * i / (k - 1), 6)) for i in range(k)),
        "[profiles]",
    ]
    lines += [
        f"N{i} = {5 - (4 * i) // k}, {0.90 - 0.04 * i:.2f}, {0.10 + 0.04 * i:.2f}, {3.0 + 0.4 * i:.1f}"
        for i in range(k)
    ]
    return "\n".join(lines) + "\n"


def test_k10_optimizer_trace_matches_the_pinned_floats(tmp_path):
    path = tmp_path / "wide.cfg"
    path.write_text(_wide_config_text(), encoding="utf-8")
    trace = run_cell(load_config(path), *WIDE_CELL).trace
    want = json.loads(WIDE_TRACE_PATH.read_text(encoding="utf-8"))
    assert len(want["starts"]) == 5 and len(want["starts"][0]["final_theta"]) == 9
    _assert_matches_the_pin(trace, want)


# float.hex of check 3's mean JSD per alpha, recorded from the hand-written
# sampler loop _oracle_counts in tests/test_partition.py (one Dirichlet draw
# per present class and attempt, no shuffles) and jsd_heterogeneity. Check 3
# prints 4 decimals, so a change in the order of the random draws could
# otherwise pass unseen. The K = 10 grid has four classes, and 40 of its 266
# attempts succeed: most draws there retry.
JSD_CURVE_HEX = {
    "synth": [
        "0x1.0bd22f88999a2p-1", "0x1.6f2182d6718aap-2", "0x1.399336792c6fap-2", "0x1.e92facb7327ebp-3",
        "0x1.91c1ec9b43288p-3", "0x1.4c838f6221f2ep-3", "0x1.1c7c31b481cbap-3",
    ],
    "wide": ["0x1.e6b5cd349d5adp-2", "0x1.a1f4e2aaf3c86p-2"],
}


def test_jsd_curve_of_the_shipped_config_matches_the_pinned_floats(full_config, full_dataset):
    curve = _jsd_curve(full_config, full_dataset)
    assert [float(x).hex() for x in curve] == JSD_CURVE_HEX["synth"], _platform()


def test_jsd_curve_with_retried_partitions_matches_the_pinned_floats(tmp_path, monkeypatch):
    path = tmp_path / "wide.cfg"
    path.write_text(_wide_config_text(alphas=(0.05, 0.10), n_classes=4), encoding="utf-8")
    config = load_config(path)
    dataset = materialize_dataset(config)
    draws = []
    real = fednb.partition.largest_remainder

    def counted(total, proportions):
        draws.append(total)
        return real(total, proportions)

    monkeypatch.setattr(fednb.partition, "largest_remainder", counted)
    curve = _jsd_curve(config, dataset)
    assert [float(x).hex() for x in curve] == JSD_CURVE_HEX["wide"], _platform()
    assert len(draws) == 4 * 266  # one Dirichlet draw per class and attempt


# results.csv sha256 of _narrow_wide_config_text(n_numerical), recorded before
# the Naive Bayes kernels worked one column at a time. The reference workloads
# all have three numerical columns; numpy sums one column pairwise, and nine
# feature terms pairwise too, so these two pin those orders end to end.
NARROW_WIDE_SHA256 = {
    1: "645c22327b6d6234cb2c1af10aa4e1e0459bb8777e2fe466c532bb9ed422bd0a",
    9: "3e14460a628deed5e3723fc2f2800a0e572bcd466954e2a8604f797c8cd6b49c",
}


def _narrow_wide_config_text(n_numerical: int) -> str:
    """Two C/B/E cells of a 3,000-row, three-class synthetic config."""
    return "\n".join([
        "[experiment]", f"name = narrow-wide-{n_numerical}", "seed = 42", "alphas = 0.10, 1.00",
        "reps = 1", "proposals = C, B, E",
        "[synth]", "n_rows = 3000", "n_classes = 3", "n_categorical = 2",
        f"n_numerical = {n_numerical}", "n_categories = 4", "class_sep = 0.5",
        "node_noise = 0.0, 0.2, 0.45",
        "[profiles]", "Financial = 4, 0.82, 0.12, 3.2", "Health = 3, 0.70, 0.25, 5.1",
        "Government = 2, 0.55, 0.40, 6.8",
    ]) + "\n"


@pytest.mark.parametrize("n_numerical", sorted(NARROW_WIDE_SHA256))
def test_one_and_nine_numerical_columns_match_the_pinned_results(n_numerical, tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(_narrow_wide_config_text(n_numerical), encoding="utf-8")
    config = load_config(path)
    result, _ = run_grid(config, materialize_dataset(config))
    emit_results_csv(result, tmp_path / "results.csv")
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == NARROW_WIDE_SHA256[n_numerical], _platform()


# results.csv sha256 of _narrow_wide_config_text(40), recorded before proposal
# C's model was fitted through the training rows' positions. The paper's
# datasets have about 38 to 80 numerical columns; this pins the fit's row-order
# column sums and the pairwise feature sums at that width end to end.
FORTY_COLUMNS_SHA256 = "7e894ba6e564613b40fe747cfbcb027b08e87a1872048b2d3ce8d4506762f677"


def test_forty_numerical_columns_match_the_pinned_results(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(_narrow_wide_config_text(40), encoding="utf-8")
    config = load_config(path)
    result, _ = run_grid(config, materialize_dataset(config))
    emit_results_csv(result, tmp_path / "results.csv")
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == FORTY_COLUMNS_SHA256, _platform()


# results.csv sha256 of MANY_CLASS_CONFIG, recorded before the validation and
# test ANLL shared one row-blocked kernel. Every reference workload is binary;
# from 8 classes on numpy sums a one-row slice's class axis pairwise, so this
# pins the class-axis kernels at the paper's largest class count (CIC-IDS2017).
MANY_CLASS_SHA256 = "f3152ab824a72784cf8bc43c01b7929fcf02bae3422f4c7ea799201d2950c6c5"
MANY_CLASS_CONFIG = "\n".join([
    "[experiment]", "name = many-class", "seed = 42", "alphas = 0.05, 1.00", "reps = 1",
    "proposals = C, B, E, A",
    "[synth]", "n_rows = 3000", "n_classes = 15", "n_categorical = 2", "n_numerical = 8",
    "n_categories = 4", "class_sep = 2.0", "node_noise = 0.0, 0.2, 0.45",
    "[profiles]", "Financial = 4, 0.82, 0.12, 3.2", "Health = 3, 0.70, 0.25, 5.1",
    "Government = 2, 0.55, 0.40, 6.8",
]) + "\n"


def test_fifteen_classes_match_the_pinned_results_and_outcome(tmp_path):
    """The outcome is pinned as it stands, 14/15: on this one-rep grid proposal
    A favours the node whose training rows hold the most classes (Government),
    so check 10 fails."""
    path = tmp_path / "grid.cfg"
    path.write_text(MANY_CLASS_CONFIG, encoding="utf-8")
    config = load_config(path)
    dataset = materialize_dataset(config)
    result, rerun = run_grid(config, dataset)
    emit_results_csv(result, tmp_path / "results.csv")
    assert hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest() == MANY_CLASS_SHA256, _platform()
    report = verify(result, dataset, rerun)
    assert report.passed_count == 14 and len(report.checks) == 15
    failed = [(name, msg) for name, ok, msg in report.checks if not ok]
    assert [name for name, _ in failed] == ["icc_weight_alignment"]
    assert failed[0][1].startswith("mean weight Financial=0.4084 vs Government=0.5416;")


def test_criterion_12_external_dataset_optional():
    pytest.skip("optional, not gating: requires user-supplied intrusion-detection CSVs")
