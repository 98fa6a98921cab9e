import math

import numpy as np
import pytest

import fednb.data
from fednb.data import Dataset, FeatureSchema, SynthSpec, synth_generate
from fednb.errors import FitError, ShapeError
from fednb.local_model import (
    NEG_INF, SMOOTHING, HybridModel, _feature_sums, degrade_copy, density_profile, fit_hybrid,
    joint_log_scores_batch,
)
from fednb.mog import StackedScores, anll_from_stacked, stack_scores
from fednb.partition import class_rows, dirichlet_partition, stratified_split

from conftest import classes_present, make_dataset, score_row


def oracle_scores(cat, num, labels, n_cats, n_classes, row_cat, row_num, smoothing=1.0):
    """Independent brute-force joint log-score: plain loops and math.log."""
    n = len(labels)
    out = []
    # scaler fitted on training data, population std, zero std -> 1
    means = [sum(num[i][j] for i in range(n)) / n for j in range(len(row_num))]
    stds = []
    for j in range(len(row_num)):
        var = sum((num[i][j] - means[j]) ** 2 for i in range(n)) / n
        stds.append(math.sqrt(var) if var > 0 else 1.0)
    z = [[(num[i][j] - means[j]) / stds[j] for j in range(len(row_num))] for i in range(n)]
    zrow = [(row_num[j] - means[j]) / stds[j] for j in range(len(row_num))]
    # per-column variance floor reference: variance of standardized column
    col_floor = []
    for j in range(len(row_num)):
        zm = sum(z[i][j] for i in range(n)) / n
        zv = sum((z[i][j] - zm) ** 2 for i in range(n)) / n
        col_floor.append(1e-9 * max(zv, 1.0))

    for c in range(n_classes):
        rows_c = [i for i in range(n) if labels[i] == c]
        if not rows_c:
            out.append(NEG_INF)
            continue
        score = math.log(len(rows_c) / n)
        for j, m in enumerate(n_cats):
            cnt = sum(1 for i in rows_c if cat[i][j] == row_cat[j])
            score += math.log((cnt + smoothing) / (len(rows_c) + smoothing * (m + 1)))
        for j in range(len(row_num)):
            mu = sum(z[i][j] for i in rows_c) / len(rows_c)
            var = sum((z[i][j] - mu) ** 2 for i in rows_c) / len(rows_c) + col_floor[j]
            score += -0.5 * math.log(2 * math.pi * var) - (zrow[j] - mu) ** 2 / (2 * var)
        out.append(score)
    return out


def test_laplace_smoothing_hand_example():
    # one column, one class, counts (2, 1, OOD=0) over 3 slots -> (3/6, 2/6, 1/6)
    cat = np.array([[0], [0], [1]])
    num = np.zeros((3, 0))
    labels = np.zeros(3, dtype=np.int64)
    schema = FeatureSchema((("c0", "categorical"), ("y", "label")), 2)
    ds = Dataset(schema, cat, num, labels, (2,))
    model = fit_hybrid(ds)
    probs = np.exp(model.cat_log_prob[0][0])
    assert np.allclose(probs, [3 / 6, 2 / 6, 1 / 6])


def test_constant_column_variance_floor():
    cat = np.zeros((4, 0), dtype=np.int64)
    num = np.array([[1.0], [1.0], [2.0], [3.0]])
    labels = np.array([0, 0, 1, 1])
    ds = make_dataset(cat, num, labels, 2, ())
    model = fit_hybrid(ds)
    assert model.gauss_var[0, 0] > 0
    scores = joint_log_scores_batch(model, ds)
    assert np.isfinite(scores[:, 0]).all()


def test_class_priors_are_frequencies():
    cat = np.zeros((4, 1), dtype=np.int64)
    num = np.zeros((4, 0))
    labels = np.array([0, 0, 1, 1])
    ds = make_dataset(cat, num, labels, 2, (1,))
    model = fit_hybrid(ds)
    assert np.allclose(np.exp(model.log_prior), [0.5, 0.5])


def test_fit_empty_dataset_error():
    ds = make_dataset(np.zeros((0, 1), dtype=np.int64), np.zeros((0, 0)), np.zeros(0, dtype=np.int64), 2, (2,))
    with pytest.raises(FitError):
        fit_hybrid(ds)


def test_categorical_tables_normalize():
    ds = synth_generate(SynthSpec(200, 3, 2, 1, (0.0,)), 11)
    model = fit_hybrid(ds)
    for table in model.cat_log_prob:
        sums = np.exp(table).sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)
        assert table.shape[1] == 5  # 4 categories + OOD slot


def test_ood_slot_used_not_last_category():
    ds = synth_generate(SynthSpec(300, 2, 1, 0, (0.0,)), 12)
    model = fit_hybrid(ds)
    m = ds.n_cats[0]
    s_ood = score_row(model, [m], [])
    s_last = score_row(model, [m - 1], [])
    for c in classes_present(model):
        assert s_ood[c] != s_last[c]
        assert s_ood[c] == pytest.approx(model.log_prior[c] + model.cat_log_prob[0][c, m])


def test_unseen_category_does_not_contaminate_known_probs():
    # the known-category probabilities must be bitwise identical whether or
    # not an OOD value appears at inference time
    ds = synth_generate(SynthSpec(300, 2, 1, 1, (0.0,)), 13)
    model = fit_hybrid(ds)
    before = [t.copy() for t in model.cat_log_prob]
    _ = score_row(model, [ds.n_cats[0]], [0.0])
    for a, b in zip(before, model.cat_log_prob):
        assert np.array_equal(a, b)
    known = score_row(model, [0], [0.0])
    _ = score_row(model, [ds.n_cats[0]], [0.0])
    assert np.array_equal(known, score_row(model, [0], [0.0]))


def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(120):
        n_classes = int(rng.integers(2, 4))
        n_cat = int(rng.integers(0, 3))
        n_num = int(rng.integers(0, 3))
        if n_cat + n_num == 0:
            n_num = 1
        n = int(rng.integers(4, 50))
        n_cats = tuple(int(rng.integers(2, 4)) for _ in range(n_cat))
        cat = np.column_stack(
            [rng.integers(0, m, size=n) for m in n_cats]
        ) if n_cat else np.zeros((n, 0), dtype=np.int64)
        num = rng.normal(size=(n, n_num))
        labels = rng.integers(0, n_classes, size=n)
        labels[0] = 0  # at least one class present
        ds = make_dataset(cat.astype(np.int64), num, labels.astype(np.int64), n_classes, n_cats)
        model = fit_hybrid(ds)
        row_cat = [int(rng.integers(0, m + 1)) for m in n_cats]  # may hit OOD
        row_num = list(rng.normal(size=n_num))
        got = score_row(model, row_cat, row_num)
        want = oracle_scores(cat.tolist(), num.tolist(), labels.tolist(), n_cats, n_classes, row_cat, row_num)
        for c in range(n_classes):
            if want[c] == NEG_INF:
                assert got[c] == NEG_INF
            else:
                assert got[c] == pytest.approx(want[c], abs=1e-9, rel=1e-9)


def test_predict_separable_training_accuracy():
    ds = synth_generate(SynthSpec(500, 2, 0, 2, (0.0,), class_sep=6.0), 21)
    model = fit_hybrid(ds)
    assert (joint_log_scores_batch(model, ds).argmax(axis=1) == ds.labels).all()


def test_single_class_always_predicted():
    cat = np.zeros((5, 1), dtype=np.int64)
    num = np.random.default_rng(0).normal(size=(5, 1))
    labels = np.ones(5, dtype=np.int64)
    ds = make_dataset(cat, num, labels, 3, (1,))
    model = fit_hybrid(ds)
    assert (joint_log_scores_batch(model, ds).argmax(axis=1) == 1).all()
    scores = joint_log_scores_batch(model, ds)
    assert (scores[:, 0] == NEG_INF).all() and (scores[:, 2] == NEG_INF).all()


def test_tie_breaks_to_smaller_class():
    # perfectly symmetric two-class data -> identical scores for a midpoint row
    cat = np.zeros((4, 0), dtype=np.int64)
    num = np.array([[-1.0], [-2.0], [1.0], [2.0]])
    labels = np.array([0, 0, 1, 1])
    ds = make_dataset(cat, num, labels, 2, ())
    model = fit_hybrid(ds)
    mid = make_dataset(np.zeros((1, 0), dtype=np.int64), np.array([[0.0]]), np.array([0]), 2, ())
    scores = joint_log_scores_batch(model, mid)
    assert scores[0, 0] == pytest.approx(scores[0, 1], abs=1e-12)
    assert scores[0].argmax() == 0  # ties go to the smaller class


def test_density_profile_takes_the_lowest_class_every_model_saw():
    num = np.array([[0.0], [1.0], [3.0], [4.0], [8.0], [10.0]])
    labels = np.array([0, 0, 1, 1, 2, 2])
    full = fit_hybrid(make_dataset(np.zeros((6, 0), dtype=np.int64), num, labels, 3, ()))
    no_class_0 = fit_hybrid(make_dataset(np.zeros((4, 0), dtype=np.int64), num[2:], labels[2:], 3, ()))
    profile = density_profile([full, no_class_0])
    assert profile.shape == (2, 2)
    assert profile[0].tolist() == [full.gauss_mean[1, 0], no_class_0.gauss_mean[1, 0]]
    assert profile[1].tolist() == [np.sqrt(full.gauss_var[1, 0]), np.sqrt(no_class_0.gauss_var[1, 0])]
    # with no class that both saw, class 0
    only_class_2 = fit_hybrid(make_dataset(np.zeros((2, 0), dtype=np.int64), num[4:], labels[4:], 3, ()))
    no_common = fit_hybrid(make_dataset(np.zeros((2, 0), dtype=np.int64), num[:2], labels[:2], 3, ()))
    assert density_profile([only_class_2, no_common])[0].tolist() == [
        only_class_2.gauss_mean[0, 0], no_common.gauss_mean[0, 0]
    ]


def test_density_profile_without_numerical_features_is_empty():
    cat = np.array([[0], [1], [1], [0]])
    ds = make_dataset(cat, np.zeros((4, 0)), np.array([0, 0, 1, 1]), 2, (2,))
    assert density_profile([fit_hybrid(ds), fit_hybrid(ds)]).shape == (2, 0)


def test_shape_error_on_dimension_mismatch():
    ds = synth_generate(SynthSpec(100, 2, 1, 2, (0.0,)), 31)
    model = fit_hybrid(ds)
    with pytest.raises(ShapeError):  # two categorical columns, not one
        joint_log_scores_batch(model, synth_generate(SynthSpec(20, 2, 2, 2, (0.0,)), 31))
    with pytest.raises(ShapeError):  # one numerical column, not two
        joint_log_scores_batch(model, synth_generate(SynthSpec(20, 2, 1, 1, (0.0,)), 31))


# Bitwise oracles: the fit and the scorer as first written, with np.mean,
# np.std and np.var, boolean class masks and an out-of-place Gaussian term.
# fit_hybrid and joint_log_scores_batch must reproduce every float exactly.


def _fit_by_numpy_reductions(train, smoothing=1.0):
    num, labels, n_classes = train.numerical, train.labels, train.schema.n_classes
    counts = np.bincount(labels, minlength=n_classes)
    present = np.flatnonzero(counts)
    log_prior = np.full(n_classes, NEG_INF)
    for c in present:
        log_prior[c] = np.log(counts[c] / train.n_rows)
    mean, std = num.mean(axis=0), num.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    z = (num - mean) / scale
    cat_log_prob = []
    for j, m in enumerate(train.n_cats):
        table = np.full((n_classes, m + 1), 1.0 / (m + 1))
        for c in present:
            cnt = np.bincount(train.categorical[labels == c, j], minlength=m + 1)
            table[c] = (cnt + smoothing) / (counts[c] + smoothing * (m + 1))
        cat_log_prob.append(np.log(table))
    gauss_mean = np.zeros((n_classes, num.shape[1]))
    gauss_var = np.ones((n_classes, num.shape[1]))
    if num.shape[1]:
        floor = 1e-9 * np.maximum(z.var(axis=0), 1.0)
        for c in present:
            gauss_mean[c] = z[labels == c].mean(axis=0)
            gauss_var[c] = z[labels == c].var(axis=0) + floor
    return {
        "num_mean": mean, "num_scale": scale, "gauss_mean": gauss_mean,
        "gauss_var": gauss_var, "log_prior": log_prior, "cat_log_prob": cat_log_prob,
    }


def _scores_out_of_place(model, data):
    scores = np.tile(model.log_prior, (data.n_rows, 1))
    for j in range(len(model.cat_log_prob)):
        scores = scores + model.cat_log_prob[j][:, data.categorical[:, j]].T
    if data.numerical.shape[1]:
        z = (data.numerical - model.num_mean) / model.num_scale
        diff = z[:, None, :] - model.gauss_mean[None, :, :]
        var = model.gauss_var
        scores = scores + (-0.5 * (np.log(2.0 * np.pi) + np.log(var) + diff**2 / var)).sum(axis=2)
    scores[:, [c for c in range(len(model.log_prior)) if c not in classes_present(model)]] = NEG_INF
    return scores


def _oracle_case(n_cat, n_num, classes, seed, n=20_000):
    """Columns on different scales; of two or more numerical columns, column 0
    has zero spread."""
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, 4, size=(n, n_cat))
    num = rng.normal(size=(n, n_num)) * rng.uniform(0.01, 300.0, n_num) + rng.uniform(-50, 50, n_num)
    if n_num > 1:
        num[:, 0] = 2.5
    return make_dataset(cat, num, rng.choice(classes, n), 3, (4,) * n_cat)


ORACLE_CASES = {
    "three classes, a zero-spread column": (2, 3, (0, 1, 2)),
    "class 1 absent from the node": (1, 2, (0, 2)),
    "no numerical columns": (2, 0, (0, 1, 2)),
    "no categorical columns": (0, 3, (0, 1)),
    # numpy sums one column pairwise, and nine feature terms pairwise too
    "one numerical column": (2, 1, (0, 1, 2)),
    "nine numerical columns": (2, 9, (0, 1, 2)),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_fit_and_scores_equal_the_numpy_reduction_oracle_bitwise(case):
    n_cat, n_num, classes = ORACLE_CASES[case]
    train = _oracle_case(n_cat, n_num, classes, seed=1)
    model = fit_hybrid(train)
    want = _fit_by_numpy_reductions(train)
    got = {
        "num_mean": model.num_mean, "num_scale": model.num_scale,
        "gauss_mean": model.gauss_mean, "gauss_var": model.gauss_var, "log_prior": model.log_prior,
    }
    for name, value in got.items():
        assert value.shape == want[name].shape and np.array_equal(value, want[name]), name
    assert all(np.array_equal(a, b) for a, b in zip(model.cat_log_prob, want["cat_log_prob"], strict=True))

    test = _oracle_case(n_cat, n_num, (0, 1, 2), seed=2)
    cat = test.categorical.copy()
    cat[::7] = 4  # the OOD slot of every categorical column
    test = make_dataset(cat, test.numerical, test.labels, 3, test.n_cats)
    for data in (test, test.subset([]), test.subset([5, 0, 5, 19_999])):
        assert np.array_equal(joint_log_scores_batch(model, data), _scores_out_of_place(model, data))
    if 1 not in classes:
        assert (joint_log_scores_batch(model, test)[:, 1] == NEG_INF).all()


def _fit_on_the_whole_matrix(train):
    """fit_hybrid as it was before it fitted one column at a time: numpy's mean
    and var of the (n, F) standardized matrix and of an (n_c, F) gather of it
    per class."""
    n_classes = train.schema.n_classes
    class_counts = np.bincount(train.labels, minlength=n_classes)
    log_prior = np.full(n_classes, NEG_INF)
    for c in np.flatnonzero(class_counts):
        log_prior[c] = np.log(class_counts[c] / train.n_rows)
    num = train.numerical
    mean, var = num.mean(axis=0), num.var(axis=0)
    std = np.sqrt(var)
    scale = np.where(std > 0, std, 1.0)
    z = (num - mean) / scale
    rows_of = class_rows(train.labels)
    cat_log_prob = []
    for j, m in enumerate(train.n_cats):
        table = np.full((n_classes, m + 1), 1.0 / (m + 1))
        for c, rows in rows_of.items():
            cnt = np.bincount(train.categorical[:, j].take(rows), minlength=m + 1)
            table[c] = (cnt + SMOOTHING) / (class_counts[c] + SMOOTHING * (m + 1))
        cat_log_prob.append(np.log(table))
    n_num = num.shape[1]
    gauss_mean = np.zeros((n_classes, n_num))
    gauss_var = np.ones((n_classes, n_num))
    if n_num:
        floor = 1e-9 * np.maximum(z.var(axis=0), 1.0)
        for c, rows in rows_of.items():
            zc = z.take(rows, axis=0)
            gauss_mean[c], var = zc.mean(axis=0), zc.var(axis=0)
            gauss_var[c] = var + floor
    return HybridModel(mean, scale, cat_log_prob, gauss_mean, gauss_var, log_prior)


def _model_arrays(model):
    arrays = {name: value for name, value in vars(model).items() if name != "cat_log_prob"}
    return arrays | {f"cat_log_prob[{j}]": t for j, t in enumerate(model.cat_log_prob)}


@pytest.mark.parametrize("zero_spread", [False, True])
@pytest.mark.parametrize("f", [1, 2, 3, 8, 40])
def test_column_at_a_time_fit_equals_the_whole_matrix_fit_bitwise(f, zero_spread):
    rng = np.random.default_rng(f)
    n = 5_000
    scale = 10.0 ** rng.uniform(-2, 6, f)
    num = rng.normal(size=(n, f)) * scale + rng.uniform(-3, 3, f) * scale
    if zero_spread:
        num[:, -1] = -2.5
    # four classes: class 1 absent, class 3 on a single row
    labels = rng.choice(np.array([0, 2], dtype=np.uint8), n)
    labels[rng.integers(n)] = 3
    train = make_dataset(rng.integers(0, 3, size=(n, 2)).astype(np.uint8), num, labels, 4, (3, 3))
    got, want = _model_arrays(fit_hybrid(train)), _model_arrays(_fit_on_the_whole_matrix(train))
    assert got.keys() == want.keys()
    for name, g in got.items():
        w = want[name]
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), name
    numpy_fit = _fit_by_numpy_reductions(train)
    for name in ("num_mean", "num_scale", "gauss_mean", "gauss_var", "log_prior"):
        assert got[name].tobytes() == numpy_fit[name].tobytes(), name


@pytest.mark.parametrize("f", [*range(1, 41), 130])
def test_feature_sums_equal_the_inner_axis_sum_bitwise(f):
    rng = np.random.default_rng(f)
    for n in (0, 1, 7, 20_000):
        # (n, C, F) as the scorer first built it, with features on scales 1e-2 to 1e6
        terms = rng.normal(size=(n, 2, f)) * 10.0 ** rng.uniform(-2, 6, f)
        want = terms.sum(axis=2)
        got = _feature_sums(np.ascontiguousarray(terms.transpose(1, 2, 0)))
        assert got.shape == want.T.shape and got.tobytes() == np.ascontiguousarray(want.T).tobytes(), n
    negative_zeros = np.full((3, 2, f), -0.0)  # numpy starts each sum from +0.0
    got = _feature_sums(np.ascontiguousarray(negative_zeros.transpose(1, 2, 0)))
    assert got.tobytes() == np.ascontiguousarray(negative_zeros.sum(axis=2).T).tobytes()


def _cell_outputs(ds):
    """Every array and float one cell derives from ds: split, partition,
    degraded nodes, fitted models, test scores and ANLLs."""
    train_rows, val_rows, test_rows = stratified_split(ds.labels, (0.6, 0.2, 0.2), 4)
    train, val, test = ds.subset(train_rows), ds.subset(val_rows), ds.subset(test_rows)
    part = dirichlet_partition(train.labels, 3, 0.3, 5)
    nodes = [degrade_copy(ds, train_rows.take(ix), 0.2, 6 + i) for i, ix in enumerate(part.node_indices)]
    models = [fit_hybrid(node) for node in nodes]
    scores = StackedScores(stack_scores(models, val), val.labels)
    out = {"counts": part.counts}
    out.update({f"take_index{lo}": index for lo, _, _, _, index in scores.blocks})
    for name, d in (("train", train), ("val", val), ("test", test), *((f"node{i}", d) for i, d in enumerate(nodes))):
        out.update({f"{name}.cat": d.categorical, f"{name}.num": d.numerical, f"{name}.labels": d.labels})
    for i, ix in enumerate(part.node_indices):
        out[f"rows{i}"] = ix
    for i, m in enumerate(models):
        out.update({f"model{i}.{k}": v for k, v in vars(m).items() if k != "cat_log_prob"})
        out.update({f"model{i}.cat{j}": t for j, t in enumerate(m.cat_log_prob)})
        out[f"scores{i}"] = joint_log_scores_batch(m, test)
    for w in ([0.5, 0.3, 0.2], [1.0, 0.0, 0.0]):  # the covered path, then the uncovered one
        out[f"anll{w}"] = anll_from_stacked(np.array(w), scores)
        out[f"test preds{w}"] = np.empty(test.n_rows, dtype=np.intp)
        test_scores = StackedScores(stack_scores(models, test), test.labels)
        out[f"test anll{w}"] = anll_from_stacked(np.array(w), test_scores, out[f"test preds{w}"])
    return out


def test_narrow_codes_and_labels_give_the_int64_build_bitwise():
    narrow = synth_generate(SynthSpec(3000, 3, 3, 2, (0.0,), n_categories=5), 8)
    wide = Dataset(
        narrow.schema, narrow.categorical.astype(np.int64), narrow.numerical, narrow.labels.astype(np.int64), narrow.n_cats
    )
    assert narrow.categorical.dtype == narrow.labels.dtype == np.uint8
    got, want = _cell_outputs(narrow), _cell_outputs(wide)
    assert got.keys() == want.keys() and got["counts"].dtype == got["rows0"].dtype == np.int64
    for key, g in got.items():
        w = want[key]
        if isinstance(g, float):
            assert type(w) is float and np.float64(g).tobytes() == np.float64(w).tobytes(), key
        elif key.endswith((".cat", ".labels")):  # the codes and labels keep their dtype
            assert g.dtype == np.uint8 and w.dtype == np.int64, key
            assert g.astype(np.int64).tobytes() == w.tobytes(), key
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), key


BLOCK = 64  # the row block patched in below; n is below, equal to and not a multiple of it


def _kernel_outputs(f, c, n, seed):
    """Every array and float the row-blocked kernels derive from one random
    node of n rows: its degraded copy, the fitted model, the stacked test
    scores of it and two other models, and the ANLL and predictions of their
    mixture on three kernel paths: the covered one (the classes some node
    has), the uncovered one (a class in no node) and a zero weight."""
    rng = np.random.default_rng(seed)
    num = rng.normal(size=(2 * n, f)) * 10.0 ** rng.uniform(-2, 4, f) + rng.uniform(-3, 3, f)
    num[::9, 0] = -0.0
    if f > 1:
        num[:, -1] = 7.5  # zero spread
    labels = rng.integers(0, c - 1, 2 * n).astype(np.uint8)  # the top class absent
    labels[: 2 * n // 3] = np.sort(labels[: 2 * n // 3])  # blocks of one class, as in a split
    cat = rng.integers(0, 4, size=(2 * n, 2)).astype(np.uint8)
    ds = make_dataset(cat, num, labels, c, (3, 3))  # code 3 is the OOD slot
    node = degrade_copy(ds, np.arange(0, 2 * n, 2), 0.3, seed)
    models = [fit_hybrid(node), fit_hybrid(ds.subset(range(1, n))), fit_hybrid(ds.subset(range(n, 2 * n)))]
    test = ds.subset(np.arange(1, 2 * n, 2))
    stacked = stack_scores(models, test)
    out = {"node.num": node.numerical, "node.labels": node.labels, "stacked": stacked}
    out.update({f"model.{k}": v for k, v in _model_arrays(models[0]).items()})
    present = np.isfinite(stacked).any(axis=(0, 2))  # the classes some node has, every test row's among them
    covered = StackedScores(stacked[:, present], (np.cumsum(present) - 1)[test.labels])
    labels = test.labels.astype(np.intp)
    labels[::5] = c  # a class added in no node: these rows take the 50-nat clamp
    uncovered = StackedScores(np.concatenate([stacked, np.full_like(stacked[:, :1], NEG_INF)], axis=1), labels)
    assert covered.covered and not uncovered.covered
    for name, scores, w in (("covered", covered, [0.5, 0.3, 0.2]), ("uncovered", uncovered, [0.5, 0.3, 0.2]),
                            ("zero weight", covered, [0.0, 0.6, 0.4])):
        out[f"{name} preds"] = np.empty(test.n_rows, dtype=np.intp)
        out[f"{name} anll"] = np.float64(anll_from_stacked(np.array(w), scores, out[f"{name} preds"]))
    return out


@pytest.mark.parametrize("c", [2, 8, 10, 15])
@pytest.mark.parametrize("f", [1, 3, 8, 40])
def test_row_blocks_give_the_floats_of_one_whole_block(monkeypatch, f, c):
    """Degrade, fit, scores, mixture ANLL and predictions in blocks of 64 rows equal the
    same computation in one block, bit for bit; n + 1 leaves a last block of
    one row, which joins the block before it."""
    for n in (BLOCK - 5, BLOCK, BLOCK + 1, 3 * BLOCK + 17):
        monkeypatch.setattr(fednb.data, "ROW_BLOCK", 10**9)
        whole = _kernel_outputs(f, c, n, seed=f + c + n)
        monkeypatch.setattr(fednb.data, "ROW_BLOCK", BLOCK)
        blocked = _kernel_outputs(f, c, n, seed=f + c + n)
        for key, w in whole.items():
            g = blocked[key]
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), (key, n)
