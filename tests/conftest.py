"""Helpers shared by the test modules: a Dataset from encoded arrays, the
per-class scores of one row, and a fixture that pins the CPUs run_grid sees."""

import os

import numpy as np
import pytest

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


@pytest.fixture
def pin_cpus():
    """pin(n) pins this process to n CPUs of its affinity mask, so that
    run_grid runs at most n workers; at n = 1 it runs the cells in this
    process, where a test's patches and counters see them. Skips where
    os.sched_setaffinity does not exist or the mask holds fewer than n CPUs.
    The old mask comes back after the test."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs os.sched_setaffinity")
    old = os.sched_getaffinity(0)

    def pin(n):
        if len(old) < n:
            pytest.skip(f"needs {n} CPUs in the affinity mask, which holds {len(old)}")
        os.sched_setaffinity(0, sorted(old)[:n])

    yield pin
    os.sched_setaffinity(0, old)
