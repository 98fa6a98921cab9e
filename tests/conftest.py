"""Helpers shared by the test modules: a Dataset from encoded arrays, and the
per-class scores of one row."""

import numpy as np

from fednb.data import Dataset, FeatureSchema
from fednb.local_model import joint_log_scores_batch


def make_dataset(cat, num, labels, n_classes, n_cats):
    """Columns c0.. (categorical), x0.. (numerical) and the label y."""
    cols = [(f"c{j}", "categorical") for j in range(cat.shape[1])]
    cols += [(f"x{j}", "numerical") for j in range(num.shape[1])]
    cols.append(("y", "label"))
    return Dataset(FeatureSchema(tuple(cols), n_classes), cat, num, labels, n_cats)


def score_row(model, row_cat, row_num):
    """Per-class joint log-scores of one encoded row, through the batch scorer;
    the class count and the category arities are read off the model's arrays."""
    row = make_dataset(
        np.array([row_cat], dtype=np.int64),
        np.array([row_num], dtype=np.float64),
        np.zeros(1, dtype=np.int64),
        len(model.log_prior),
        tuple(table.shape[1] - 1 for table in model.cat_log_prob),
    )
    return joint_log_scores_batch(model, row)[0]


def classes_present(model):
    """The classes the model saw in training: those with a finite log prior."""
    return np.flatnonzero(np.isfinite(model.log_prior))
