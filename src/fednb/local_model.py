"""Per-node hybrid Naive Bayes classifier.

Categorical features get per-class tables, Laplace-smoothed with the constant
SMOOTHING (add-one), with a reserved out-of-distribution slot at index n_cats;
numerical features get per-class Gaussians on values standardized by the
training columns' mean and spread (num_mean, num_scale). The joint per-class
score is

    log_prior(c) + sum_j log P_cat(code_j | c) + sum_j log N(z_j; mean, var)

i.e. the two sub-model joint scores with the class prior counted once.
Classes absent from a node's training data score the explicit -inf sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import FitError, ShapeError
from .partition import class_rows

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
    n_classes = train.schema.n_classes

    class_counts = np.bincount(train.labels, minlength=n_classes)
    log_prior = np.full(n_classes, NEG_INF)
    for c in np.flatnonzero(class_counts):
        log_prior[c] = np.log(class_counts[c] / train.n_rows)

    # np.mean's and np.std's own steps (axis-0 sum, divide by n; square,
    # axis-0 sum, divide by n, sqrt), so every float equals theirs, with
    # num - mean computed once for the std and the standardization
    num = train.numerical
    mean = np.add.reduce(num, axis=0) / train.n_rows
    z = num - mean
    std = np.sqrt(np.add.reduce(np.square(z), axis=0) / train.n_rows)
    scale = np.where(std > 0, std, 1.0)
    z /= scale

    # listed after the standardization: listed before it, the row lists would
    # be alive alongside its temporaries and raise the peak memory
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
        col_var = z.var(axis=0)
        floor = 1e-9 * np.maximum(col_var, 1.0)
        for c, rows in rows_of.items():
            gauss_mean[c], var = _mean_var(z.take(rows, axis=0))
            gauss_var[c] = var + floor

    return HybridModel(mean, scale, cat_log_prob, gauss_mean, gauss_var, log_prior)


def _mean_var(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and population variance of an (n, F) array by np.var's own
    steps (axis-0 sum, divide by n; square x - mean, axis-0 sum, divide by n),
    so both equal np.mean's and np.var's floats, with the mean summed once."""
    mean = np.add.reduce(x, axis=0) / x.shape[0]
    sq = x - mean
    np.square(sq, out=sq)
    return mean, np.add.reduce(sq, axis=0) / x.shape[0]


def joint_log_scores_batch(model: HybridModel, data: Dataset) -> np.ndarray:
    """(n_rows, n_classes) joint log-scores; absent classes are -inf columns."""
    cat, num = data.categorical, data.numerical
    if cat.shape[1] != len(model.cat_log_prob):
        raise ShapeError(f"expected {len(model.cat_log_prob)} categorical columns, got {cat.shape[1]}")
    if num.shape[1] != model.gauss_mean.shape[1]:
        raise ShapeError(f"expected {model.gauss_mean.shape[1]} numerical columns, got {num.shape[1]}")
    scores = np.tile(model.log_prior, (cat.shape[0], 1))
    for j, table in enumerate(model.cat_log_prob):
        codes, m = cat[:, j], table.shape[1] - 1
        if codes.min(initial=0) < 0 or codes.max(initial=0) > m:
            raise ShapeError(f"categorical column {j}: code outside [0, {m}]")
        scores += table.T.take(codes, axis=0)
    if num.shape[1]:
        # -0.5 * (LOG_2PI + log var + (z - mean)**2 / var), built in place in
        # one (n, C, F) buffer by the same operations in the same order
        z = num - model.num_mean
        z /= model.num_scale
        ll = z[:, None, :] - model.gauss_mean[None, :, :]
        del z  # kept alive beside ll, it would raise the peak memory
        ll *= ll
        ll /= model.gauss_var
        ll += _LOG_2PI + np.log(model.gauss_var)
        ll *= -0.5
        scores += ll.sum(axis=2)
    scores[:, np.isneginf(model.log_prior)] = NEG_INF
    return scores
