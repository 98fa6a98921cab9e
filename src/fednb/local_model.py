"""Per-node hybrid Naive Bayes classifier.

Categorical features get per-class tables, Laplace-smoothed with the constant
SMOOTHING (add-one), with a reserved out-of-distribution slot at index n_cats;
numerical features get per-class Gaussians on standardized values. The joint
per-class score is

    log_prior(c) + sum_j log P_cat(code_j | c) + sum_j log N(z_j; mean, var)

i.e. the two sub-model joint scores with the class prior counted once.
Classes absent from a node's training data score the explicit -inf sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import FitError, ShapeError

NEG_INF = float("-inf")
_LOG_2PI = float(np.log(2.0 * np.pi))
SMOOTHING = 1.0  # Laplace pseudo-count added to each (class, category) count


@dataclass
class ScalerParams:
    """Per-column standardization; zero-spread columns use scale 1."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        z = x - self.mean
        z /= self.scale
        return z


@dataclass
class HybridModel:
    scaler: ScalerParams
    cat_log_prob: list[np.ndarray]  # per cat column: (n_classes, n_cats+1)
    gauss_mean: np.ndarray  # (n_classes, n_num)
    gauss_var: np.ndarray  # (n_classes, n_num)
    log_prior: np.ndarray  # (n_classes,), -inf for absent classes
    classes_present: frozenset
    n_classes: int
    n_cats: tuple[int, ...]


def fit_hybrid(train: Dataset) -> HybridModel:
    if train.n_rows == 0:
        raise FitError("cannot fit on an empty dataset")
    n_classes = train.schema.n_classes
    n_cats = train.n_cats

    class_counts = np.bincount(train.labels, minlength=n_classes)
    present = frozenset(int(c) for c in np.flatnonzero(class_counts))
    log_prior = np.full(n_classes, NEG_INF)
    for c in present:
        log_prior[c] = np.log(class_counts[c] / train.n_rows)

    # np.mean's and np.std's own steps (axis-0 sum, divide by n; square,
    # axis-0 sum, divide by n, sqrt), so every float equals theirs, with
    # num - mean computed once for the std and the standardization
    num = train.numerical
    mean = np.add.reduce(num, axis=0) / train.n_rows
    z = num - mean
    std = np.sqrt(np.add.reduce(np.square(z), axis=0) / train.n_rows)
    scale = np.where(std > 0, std, 1.0)
    scaler = ScalerParams(mean, scale)
    z /= scale

    rows_of = {c: np.flatnonzero(train.labels == c) for c in present}
    cat_log_prob = []
    for j, m in enumerate(n_cats):
        table = np.full((n_classes, m + 1), 1.0 / (m + 1))
        for c in present:
            cnt = np.bincount(train.categorical[:, j].take(rows_of[c]), minlength=m + 1)
            probs = (cnt + SMOOTHING) / (class_counts[c] + SMOOTHING * (m + 1))
            table[c] = probs
        cat_log_prob.append(np.log(table))

    n_num = num.shape[1]
    gauss_mean = np.zeros((n_classes, n_num))
    gauss_var = np.ones((n_classes, n_num))
    if n_num:
        col_var = z.var(axis=0)
        floor = 1e-9 * np.maximum(col_var, 1.0)
        for c in present:
            gauss_mean[c], var = _mean_var(z.take(rows_of[c], axis=0))
            gauss_var[c] = var + floor

    return HybridModel(
        scaler=scaler,
        cat_log_prob=cat_log_prob,
        gauss_mean=gauss_mean,
        gauss_var=gauss_var,
        log_prior=log_prior,
        classes_present=present,
        n_classes=n_classes,
        n_cats=n_cats,
    )


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
    if cat.shape[1] != len(model.n_cats):
        raise ShapeError(f"expected {len(model.n_cats)} categorical columns, got {cat.shape[1]}")
    if num.shape[1] != model.gauss_mean.shape[1]:
        raise ShapeError(
            f"expected {model.gauss_mean.shape[1]} numerical columns, got {num.shape[1]}"
        )
    n = cat.shape[0]
    scores = np.tile(model.log_prior, (n, 1))
    for j, m in enumerate(model.n_cats):
        codes = cat[:, j]
        if codes.min(initial=0) < 0 or codes.max(initial=0) > m:
            raise ShapeError(f"categorical column {j}: code outside [0, {m}]")
        scores += model.cat_log_prob[j].T.take(codes, axis=0)
    if num.shape[1]:
        # -0.5 * (LOG_2PI + log var + (z - mean)**2 / var), built in place in
        # one (n, C, F) buffer by the same operations in the same order
        ll = model.scaler.transform(num)[:, None, :] - model.gauss_mean[None, :, :]
        ll *= ll
        ll /= model.gauss_var
        ll += _LOG_2PI + np.log(model.gauss_var)
        ll *= -0.5
        scores += ll.sum(axis=2)
    absent = [c for c in range(model.n_classes) if c not in model.classes_present]
    if absent:
        scores[:, absent] = NEG_INF
    return scores
