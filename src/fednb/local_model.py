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

from .data import Dataset, column_mean_var, row_blocks, row_order_sum
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

    # np.mean's and np.std's own steps, so every float equals theirs
    num = train.numerical
    mean, var = column_mean_var(num)
    std = np.sqrt(var)
    scale = np.where(std > 0, std, 1.0)

    # the Gaussians on the standardized values, each sum in numpy's order for
    # the (n, F) standardized array and for its rows of each class; the class
    # rows are set one class at a time, since a fancy-index assignment touched
    # numpy code pages that no other step reads (ROADMAP item 10)
    total, by_class = _standardized_sums(num, labels, classes, mean, scale)
    gauss_mean = np.zeros((n_classes, num.shape[1]))
    for i, c in enumerate(classes):
        gauss_mean[c] = by_class[i] / class_counts[c]
    centers = (total / n, [gauss_mean[c] for c in classes])
    total, by_class = _standardized_sums(num, labels, classes, mean, scale, centers)
    floor = 1e-9 * np.maximum(total / n, 1.0)
    gauss_var = np.ones((n_classes, num.shape[1]))
    for i, c in enumerate(classes):
        gauss_var[c] = by_class[i] / class_counts[c] + floor

    return HybridModel(mean, scale, cat_log_prob, gauss_mean, gauss_var, log_prior)


def _standardized_sums(num, labels, classes, mean, scale, centers=None):
    """Row-order sums (data.row_order_sum) of z = (num - mean) / scale over
    all rows, and over the rows of each class in classes: (F,) and
    (len(classes), F). With centers = (overall, per class) means, the sums
    are of the squared deviations from them. One row block of z at a time."""
    f = num.shape[1]
    total, by_class = np.zeros(f), np.zeros((len(classes), f))
    overall, per_class = (None, [None] * len(classes)) if centers is None else centers
    for lo, hi in row_blocks(len(num), f == 1):
        z = np.subtract(num[lo:hi].T, mean[:, None], out=np.empty((f, hi - lo)))
        z /= scale[:, None]
        block_labels = labels[lo:hi]
        for i, c in enumerate(classes.tolist()):  # int classes keep the comparison in the labels' dtype
            # the split and the partition keep each class's rows together, so a
            # block often holds one class: it is copied, faster than a compress
            rows = block_labels == c
            k = np.count_nonzero(rows)
            if not k:
                continue
            zc = z.copy() if k == len(rows) else z.compress(rows, axis=1)
            by_class[i] = row_order_sum(_squared_deviations(zc, per_class[i]), by_class[i])
            del zc  # freed before the next class's is made
        total = row_order_sum(_squared_deviations(z, overall), total)
        del z  # and this block's before the next block's
    return total, by_class


def _squared_deviations(block: np.ndarray, center: np.ndarray | None) -> np.ndarray:
    """block, an (F, b) array, or with center (F,) the squares of
    block - center[:, None], computed in block's own buffer."""
    if center is not None:
        block -= center[:, None]
        np.square(block, out=block)
    return block


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
