"""Per-node hybrid Naive Bayes classifier.

Categorical features get per-class tables, Laplace-smoothed with the constant
SMOOTHING (add-one), with a reserved out-of-distribution slot at index n_cats;
numerical features get per-class Gaussians on values standardized by the
training columns' mean and spread (num_mean, num_scale). The joint per-class
score is

    log_prior(c) + sum_j log P_cat(code_j | c) + sum_j log N(z_j; mean, var)

i.e. the two sub-model joint scores with the class prior counted once.
Classes absent from a node's training data score the explicit -inf sentinel.

Every float equals that of numpy's whole-array reductions over the row-major
(n, F) numerical columns, which sum in a fixed order: an axis-0 sum adds each
column in row order when F >= 2 and pairwise when F = 1, and a sum over a
contiguous inner axis goes left to right below 8 terms and pairwise from 8.
The kernels keep those orders while working one row block (data.row_blocks),
one column or one feature row at a time (data.row_order_sum, _feature_sums),
so beside their inputs and results they hold one block's scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, row_blocks, row_indices, row_order_sum
from .errors import FitError, ShapeError

NEG_INF = float("-inf")
_LOG_2PI = float(np.log(2.0 * np.pi))
SMOOTHING = 1.0  # Laplace pseudo-count added to each (class, category) count


@dataclass
class HybridModel:
    """Fitted arrays only: class count, arities and classes present are read off them."""

    num_mean: np.ndarray  # (n_num,) training column means
    num_scale: np.ndarray  # (n_num,) training column std; 1 for zero-spread columns
    cat_log_prob: list[np.ndarray]  # per cat column: (n_classes, n_cats+1)
    gauss_mean: np.ndarray  # (n_classes, n_num), on standardized values
    gauss_var: np.ndarray  # (n_classes, n_num), on standardized values
    log_prior: np.ndarray  # (n_classes,), -inf for absent classes


def fit_hybrid(train: Dataset) -> HybridModel:
    if train.n_rows == 0:
        raise FitError("cannot fit on an empty dataset")
    n, n_classes, labels = train.n_rows, train.schema.n_classes, train.labels

    # the rows of each class, and of each (class, code) of each column, counted
    # one row block at a time (bincount casts its input to intp)
    class_counts = np.zeros(n_classes, dtype=np.int64)
    counts = [np.zeros((n_classes, m + 1), dtype=np.int64) for m in train.n_cats]
    for lo, hi in row_blocks(n):
        keys = labels[lo:hi].astype(np.intp)
        class_counts += np.bincount(keys, minlength=n_classes)
        for j, m in enumerate(train.n_cats):
            cell = keys * (m + 1) + train.categorical[lo:hi, j]
            counts[j] += np.bincount(cell, minlength=n_classes * (m + 1)).reshape(n_classes, m + 1)
    classes = np.flatnonzero(class_counts)
    log_prior = np.full(n_classes, NEG_INF)
    for c in classes:
        log_prior[c] = np.log(class_counts[c] / n)
    cat_log_prob = []
    for cnt, m in zip(counts, train.n_cats):
        table = np.full((n_classes, m + 1), 1.0 / (m + 1))
        for c in classes:
            table[c] = (cnt[c] + SMOOTHING) / (class_counts[c] + SMOOTHING * (m + 1))
        cat_log_prob.append(np.log(table))

    # the Gaussians on the values standardized by the columns' mean and spread;
    # the class rows are set one class at a time, since a fancy-index assignment
    # touched numpy code pages that no other step reads (ROADMAP item 10)
    num = train.numerical
    f = num.shape[1]
    mean, var, _, _ = column_mean_var(num, np.zeros((f, 1)), np.ones((f, 1)), labels, [])
    scale = _spread(var)
    _, var, class_mean, class_var = column_mean_var(num, mean[:, None], scale[:, None], labels, classes.tolist())
    floor = 1e-9 * np.maximum(var, 1.0)
    gauss_mean, gauss_var = np.zeros((n_classes, f)), np.ones((n_classes, f))
    for i, c in enumerate(classes):
        gauss_mean[c] = class_mean[i]
        gauss_var[c] = class_var[i] + floor

    return HybridModel(mean, scale, cat_log_prob, gauss_mean, gauss_var, log_prior)


def column_mean_var(x: np.ndarray, shift: np.ndarray, scale: np.ndarray, labels: np.ndarray, classes: list):
    """(mean, var, class_mean, class_var): the column means and population
    variances of z = (x - shift) / scale, for an (n >= 1, F) array x and (F, 1)
    arrays shift and scale, over all rows, (F,) each, and over the rows of each
    class in classes (ints present in labels), (len(classes), F) each. They are
    np.mean's and np.var's floats (axis 0) for a C-ordered z, by np.var's own
    steps (sum, divide by the count; square z - mean, sum, divide), each sum a
    row_order_sum over the row blocks of z, which is made a block at a time."""
    n, f = x.shape
    means = None  # (overall, per class) after the first pass
    for _ in range(2):
        total, by_class, counts = np.zeros(f), np.zeros((len(classes), f)), np.zeros(len(classes), np.int64)
        for lo, hi in row_blocks(n, f == 1):
            z = np.subtract(x[lo:hi].T, shift, out=np.empty((f, hi - lo)))
            z /= scale
            for i, c in enumerate(classes):  # int classes keep the comparison in the labels' dtype
                # the split and the partition keep each class's rows together, so a
                # block often holds one class: it is copied, faster than a compress
                rows = labels[lo:hi] == c
                k = np.count_nonzero(rows)
                if not k:
                    continue
                counts[i] += k
                zc = z.copy() if k == len(rows) else z.compress(rows, axis=1)
                by_class[i] = row_order_sum(_squared_deviations(zc, means[1][i] if means else None), by_class[i])
                del zc  # freed before the next class's is made
            total = row_order_sum(_squared_deviations(z, means[0] if means else None), total)
            del z  # and this block's before the next block's
        moments = total / n, by_class / counts[:, None]
        if means is not None:
            return means[0], moments[0], means[1], moments[1]
        means = moments


def _squared_deviations(block: np.ndarray, center: np.ndarray | None) -> np.ndarray:
    """block (F, b), or with center (F,) the squares of block - center[:, None], in place."""
    if center is not None:
        block -= center[:, None]
        np.square(block, out=block)
    return block


def _spread(var: np.ndarray) -> np.ndarray:
    """The standard deviations sqrt(var), 1.0 for a column of zero spread."""
    return np.where(var > 0, np.sqrt(var), 1.0)


def degrade_copy(dataset: Dataset, rows, noise: float, seed: int) -> Dataset:
    """Node-local quality degradation of the rows of dataset at the integer
    positions rows (see data.row_indices): label flips w.p. noise, feature
    noise at ``noise`` times the per-column std of those rows.

    The input is never written: the rows are gathered into arrays that the
    result owns, the labels first, and the noise is added into the gathered
    numerical columns one row block at a time, so beside the result the call
    holds one block of draws. At noise 0 nothing is drawn, and the result is
    dataset.subset(rows).
    """
    if noise <= 0.0:
        return dataset.subset(rows)
    rows = row_indices(rows)
    n, n_classes = len(rows), dataset.schema.n_classes
    rng = np.random.default_rng(seed)
    # all uniform draws of the flips, then all shifts, then the noise; drawn a
    # row block at a time, each stream is the one that a whole draw gives
    labels = dataset.labels.take(rows)
    flip = np.empty(n, dtype=bool)
    for lo, hi in row_blocks(n):
        np.less(rng.random(hi - lo), noise, out=flip[lo:hi])
    for lo, hi in row_blocks(n):
        # flip to a uniformly random *other* class
        block, hit = labels[lo:hi], np.flatnonzero(flip[lo:hi])
        block[hit] = (block[hit] + rng.integers(1, n_classes, size=len(hit))) % n_classes
    del flip
    num = dataset.numerical.take(rows, axis=0)
    if num.size:  # no rows or no numerical columns: nothing to perturb
        # noise times the floats of .std(axis=0) for a C-ordered num, or 1.0 where that is 0
        f = num.shape[1]
        scale = noise * _spread(column_mean_var(num, np.zeros((f, 1)), np.ones((f, 1)), labels, [])[1])
        for lo, hi in row_blocks(n):
            # num + rng.normal(0.0, noise * std, num.shape), a block at a time:
            # normal draws 0.0 + scale * z, and IEEE + and * commute
            draws = rng.standard_normal((hi - lo, f))
            draws *= scale
            draws += 0.0
            num[lo:hi] += draws
    return Dataset(dataset.schema, dataset.categorical.take(rows, axis=0), num, labels, dataset.n_cats)


def density_profile(models) -> np.ndarray:
    """(2, K): each model's Gaussian mean and standard deviation of numerical feature 0
    in the lowest class every model saw, else class 0; (2, 0) without numerical features."""
    if models[0].gauss_mean.shape[1] == 0:
        return np.empty((2, 0))
    common = np.logical_and.reduce([np.isfinite(m.log_prior) for m in models])
    cls = int(np.argmax(common)) if common.any() else 0
    return np.array([[m.gauss_mean[cls, 0] for m in models], [np.sqrt(m.gauss_var[cls, 0]) for m in models]])


def joint_log_scores_batch(model: HybridModel, data: Dataset) -> np.ndarray:
    """(n_rows, n_classes) joint log-scores, the transposed view of a
    C-contiguous class-major array; absent classes are -inf columns."""
    cat, num = data.categorical, data.numerical
    if cat.shape[1] != len(model.cat_log_prob):
        raise ShapeError(f"expected {len(model.cat_log_prob)} categorical columns, got {cat.shape[1]}")
    if num.shape[1] != model.gauss_mean.shape[1]:
        raise ShapeError(f"expected {model.gauss_mean.shape[1]} numerical columns, got {num.shape[1]}")
    # class-major (C, n) and feature-major (C, F, n) buffers, so that every
    # broadcast runs along the rows; the (n, C) result is a transposed view
    scores = np.repeat(model.log_prior[:, None], cat.shape[0], axis=1)
    for j, table in enumerate(model.cat_log_prob):
        codes, m = cat[:, j], table.shape[1] - 1
        if codes.min(initial=0) < 0 or codes.max(initial=0) > m:
            raise ShapeError(f"categorical column {j}: code outside [0, {m}]")
        scores += table.take(codes, axis=1)
    if num.shape[1]:
        # -0.5 * (LOG_2PI + log var + (z - mean)**2 / var), built in place in
        # one (C, F, n) buffer by the same operations in the same order
        z = np.empty(num.shape[::-1])  # (F, n), standardized one column at a time
        for j, row in enumerate(z):
            np.divide(np.subtract(num[:, j], model.num_mean[j], out=row), model.num_scale[j], out=row)
        ll = z - model.gauss_mean[:, :, None]
        del z  # kept alive beside ll, it would raise the peak memory
        ll *= ll
        ll /= model.gauss_var[:, :, None]
        ll += (_LOG_2PI + np.log(model.gauss_var))[:, :, None]
        ll *= -0.5
        scores += _feature_sums(ll)
    scores[np.isneginf(model.log_prior)] = NEG_INF
    return scores.T


def _feature_sums(t: np.ndarray) -> np.ndarray:
    """(C, F, n) -> (C, n), bit for bit the (n, C, F) array's .sum(axis=2).

    numpy sums a contiguous inner axis onto 0.0, left to right below 8 terms,
    which this replays one feature row at a time; from 8 terms the sum is
    pairwise, and numpy itself sums a feature-last copy.
    """
    f = t.shape[1]
    if f >= 8:
        return np.add.reduce(np.ascontiguousarray(t.transpose(0, 2, 1)), axis=2)
    out = t[:, 0] + 0.0
    for j in range(1, f):
        out += t[:, j]
    return out
