import tracemalloc
import warnings

import numpy as np
import pytest

from fednb.config import ExperimentConfig, config_from_dict, config_to_dict
from fednb.data import SynthSpec, synth_generate
from fednb.errors import ConfigError, MetricError, PartitionError, StratificationError
from fednb.governance import NodeProfile
from fednb.partition import (
    class_rows,
    dirichlet_counts,
    dirichlet_partition,
    jsd_heterogeneity,
    largest_remainder,
    stratified_split,
)


FRACS = (0.6, 0.2, 0.2)


def _balanced_dataset(n=100, n_classes=2, seed=0):
    return synth_generate(SynthSpec(n, n_classes, 1, 1, (0.0,)), seed)


def test_split_sizes_exact_divisibility():
    ds = _balanced_dataset(100)
    train, val, test = stratified_split(ds.labels, FRACS, 5)
    assert (len(train), len(val), len(test)) == (60, 20, 20)
    for rows in (train, val, test):
        assert rows.dtype == np.int64
        counts = np.bincount(ds.labels[rows], minlength=2)
        assert counts[0] == counts[1]
    assert np.array_equal(np.sort(np.concatenate((train, val, test))), np.arange(100))


def test_split_deterministic():
    ds = _balanced_dataset(100)
    a = stratified_split(ds.labels, FRACS, 5)
    b = stratified_split(ds.labels, FRACS, 5)
    for x, y in zip(a, b):
        assert np.array_equal(ds.subset(x).labels, ds.subset(y).labels)
        assert np.array_equal(ds.subset(x).numerical, ds.subset(y).numerical)


def test_split_small_class_error():
    ds = _balanced_dataset(100)
    ds.labels[:] = 0
    ds.labels[:2] = 1
    with pytest.raises(StratificationError):
        stratified_split(ds.labels, FRACS, 5)


def _split_over_every_class(dataset, fracs, seed):
    """The split's row lists as first written: one pass per class of the
    schema, shuffling an empty array for an absent class."""
    rng = np.random.default_rng(seed)
    parts = [[], [], []]
    for cls in range(dataset.schema.n_classes):
        idx = np.flatnonzero(dataset.labels == cls)
        rng.shuffle(idx)
        counts = largest_remainder(len(idx), fracs)
        start = 0
        for s in range(3):
            parts[s].append(idx[start : start + counts[s]])
            start += counts[s]
    return [np.concatenate(p) for p in parts]


@pytest.mark.parametrize("seed", range(6))
def test_split_skips_an_absent_class_without_changing_a_draw(seed):
    ds = synth_generate(SynthSpec(300, 3, 1, 1, (0.0,)), seed)
    ds.labels[ds.labels == 1] = 2  # class 1 absent, between two present classes
    got = stratified_split(ds.labels, FRACS, seed)
    want = _split_over_every_class(ds, FRACS, seed)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == np.int64 and g.tobytes() == w.tobytes()


def test_split_config_validation():
    # ExperimentConfig checks the fractions stratified_split takes
    base = dict(source=SynthSpec(100, 2, 1, 1, (0.0,)), profiles=(NodeProfile("n", 3, 0.5, 0.5, 5.0),),
                proposals=("C",))
    echo = config_to_dict(ExperimentConfig(**base))
    for fracs in ((0.5, 0.2, 0.2), (0.8, 0.2, -0.0), (0.6, 0.4), (0.4, 0.2, 0.2, 0.2), (0.6, float("nan"), 0.4)):
        with pytest.raises(ConfigError, match="split_fracs"):
            ExperimentConfig(**base, split_fracs=fracs)
        with pytest.raises(ConfigError, match="split_fracs"):
            config_from_dict({**echo, "split_fracs": list(fracs)})


def test_largest_remainder_conserves_total():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        total = int(rng.integers(1, 500))
        counts = largest_remainder(total, p)
        assert counts.sum() == total
        assert (counts >= 0).all()


def test_partition_single_node():
    labels = np.array([0, 1, 0, 1, 1])
    part = dirichlet_partition(labels, 1, 0.05, seed=3)
    assert len(part.node_indices) == 1
    assert sorted(part.node_indices[0].tolist()) == [0, 1, 2, 3, 4]


def test_partition_conserves_label_multiset():
    labels = np.random.default_rng(4).integers(0, 3, size=500)
    part = dirichlet_partition(labels, 3, 0.2, seed=9)
    merged = np.concatenate(part.node_indices)
    assert sorted(merged.tolist()) == list(range(500))
    pooled = np.sort(np.concatenate([labels[ix] for ix in part.node_indices]))
    assert np.array_equal(pooled, np.sort(labels))


def test_partition_deterministic():
    labels = np.random.default_rng(4).integers(0, 2, size=300)
    a = dirichlet_partition(labels, 3, 0.1, seed=7)
    b = dirichlet_partition(labels, 3, 0.1, seed=7)
    for x, y in zip(a.node_indices, b.node_indices):
        assert np.array_equal(x, y)


def test_partition_bad_args():
    labels = np.array([0, 1])
    with pytest.raises(PartitionError):
        dirichlet_partition(labels, 0, 0.1, seed=1)
    with pytest.raises(PartitionError):
        dirichlet_partition(labels, 2, -1.0, seed=1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_partition_rejects_a_non_finite_alpha(alpha):
    with pytest.raises(PartitionError, match="finite and positive"):
        dirichlet_partition(np.array([0, 1, 0, 1]), 2, alpha, seed=1)


def test_low_alpha_more_heterogeneous():
    labels = np.concatenate([np.zeros(5000, dtype=int), np.ones(5000, dtype=int)])
    means = {}
    for alpha in (0.05, 1.0):
        vals = []
        for seed in range(20):
            part = dirichlet_partition(labels, 3, alpha, seed=seed)
            vals.append(jsd_heterogeneity(part.counts))
        means[alpha] = np.mean(vals)
    assert means[0.05] > means[1.0]


def test_jsd_identical_distributions():
    counts = np.array([[50, 50], [20, 20], [5, 5]])
    assert jsd_heterogeneity(counts) == pytest.approx(0.0, abs=1e-12)


def test_jsd_disjoint_three_nodes():
    counts = np.eye(3, dtype=int) * 10
    assert jsd_heterogeneity(counts) == pytest.approx(1.0, abs=1e-12)


def test_jsd_two_point_maximum():
    counts = np.array([[10, 0], [0, 10]])
    assert jsd_heterogeneity(counts) == pytest.approx(1.0, abs=1e-12)


def test_jsd_permutation_symmetric():
    counts = np.array([[30, 10, 5], [2, 40, 8], [7, 7, 7]])
    base = jsd_heterogeneity(counts)
    rng = np.random.default_rng(0)
    for _ in range(10):
        perm = rng.permutation(3)
        assert jsd_heterogeneity(counts[perm]) == pytest.approx(base, abs=1e-12)


def test_jsd_single_node_is_zero():
    assert jsd_heterogeneity(np.array([[30, 0, 7]])) == 0.0


def test_jsd_empty_node_error():
    with pytest.raises(MetricError):
        jsd_heterogeneity(np.array([[0, 0], [5, 5]]))


def _unique_class_partition(labels, k, alpha, seed, attempts=100):
    """The partition as written with np.unique for class discovery."""
    labels = np.asarray(labels, dtype=np.int64)
    for attempt in range(attempts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        node_lists = [[] for _ in range(k)]
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            counts = largest_remainder(len(idx), rng.dirichlet(np.full(k, alpha)))
            start = 0
            for node in range(k):
                node_lists[node].append(idx[start : start + counts[node]])
                start += counts[node]
        nodes = [np.concatenate(chunks) for chunks in node_lists]
        if all(len(ix) > 0 for ix in nodes):
            return nodes
    raise AssertionError("no non-empty partition")


@pytest.mark.parametrize(
    "k, alpha, seed, classes",
    [
        (2, 0.05, 0, (0, 1)),
        (3, 0.1, 7, (0, 1)),
        (3, 1.0, 42, (0, 1, 2, 3, 4)),
        (10, 0.5, 3, (0, 1, 2, 3)),
        (4, 100.0, 11, (0, 1, 2)),
        (3, 0.3, 9, (0, 2)),  # class 1 absent
    ],
)
def test_partition_matches_unique_class_discovery(k, alpha, seed, classes):
    labels = np.random.default_rng(seed).choice(classes, 3000)
    got = dirichlet_partition(labels, k, alpha, seed).node_indices
    want = _unique_class_partition(labels, k, alpha, seed)
    assert [ix.tobytes() for ix in got] == [ix.tobytes() for ix in want]


@pytest.mark.parametrize("k", [1, 3])
def test_partition_rejects_negative_labels(k):
    with pytest.raises(PartitionError, match="non-negative"):
        dirichlet_partition(np.array([0, 1, -1, 1, 0, 1]), k, 1.0, 0)


@pytest.mark.parametrize("k", [1, 3])
def test_partition_rejects_float_labels(k):
    with pytest.raises(PartitionError, match="non-negative integers"):
        dirichlet_partition(np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]), k, 1.0, 0)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32])
def test_class_rows_takes_any_integer_labels_and_returns_int64_rows(dtype):
    labels = np.random.default_rng(1).choice((0, 2, 3), 500)
    want = class_rows(labels)
    got = class_rows(labels.astype(dtype))
    assert got.keys() == want.keys() == {0, 2, 3}
    assert all(got[c].dtype == np.int64 and got[c].tobytes() == want[c].tobytes() for c in want)


def test_jsd_matches_scipy_jensenshannon_for_two_nodes():
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(4)
    for n_classes in (2, 3, 7):
        counts = rng.integers(0, 50, size=(2, n_classes))
        counts[:, 0] += 1  # no empty node
        p, q = counts / counts.sum(axis=1, keepdims=True)
        want = distance.jensenshannon(p, q, base=2) ** 2
        assert jsd_heterogeneity(counts) == pytest.approx(want, abs=1e-12)


def _oracle_counts(labels, k, alpha, seed):
    """Check 3's sampler written out with np.unique, a fresh generator per
    attempt and floor-then-largest-fraction apportioning: the counts and the
    number of attempts they took."""
    classes, sizes = np.unique(np.asarray(labels, dtype=np.int64), return_counts=True)
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        counts = np.zeros((k, classes.max() + 1), dtype=np.int64)
        for cls, n in zip(classes, sizes):
            p = rng.dirichlet(np.full(k, alpha))
            exact = p / p.sum() * n
            col = np.floor(exact).astype(np.int64)
            for node in sorted(range(k), key=lambda i: (col[i] - exact[i], i))[: n - col.sum()]:
                col[node] += 1
            counts[:, cls] = col
        if (counts.sum(axis=1) > 0).all():
            return counts, attempt + 1
    raise AssertionError("every attempt left a node empty")


@pytest.mark.parametrize(
    "k, alpha, seed, classes, retries",
    [
        (1, 0.5, 0, (0, 1), False),
        (3, 0.1, 7, (0, 1), False),
        (3, 1.0, 42, (0, 1, 2, 3, 4), False),
        (3, 0.3, 9, (0, 2), False),  # class 1 absent: a zero column
        (4, 0.05, 2, (0, 2), True),
    ],
)
def test_apportioned_counts_equal_class_counts(k, alpha, seed, classes, retries):
    labels = np.random.default_rng(seed).choice(classes, 600)
    part = dirichlet_partition(labels, k, alpha, seed)
    bincounts = [np.bincount(labels[ix], minlength=max(classes) + 1) for ix in part.node_indices]
    assert part.counts.dtype == np.int64
    assert np.array_equal(part.counts, np.array(bincounts))
    got = dirichlet_counts(np.bincount(labels), k, alpha, seed)
    assert got.dtype == np.int64 and got.shape == part.counts.shape
    assert np.array_equal(got.sum(axis=0), np.bincount(labels)) and got.any(axis=1).all()
    if retries:  # the first attempt leaves a node empty
        with pytest.raises(AssertionError, match="no non-empty"):
            _unique_class_partition(labels, k, alpha, seed, attempts=1)


@pytest.mark.parametrize(
    "k, alpha, seed, classes, attempts",
    [
        (3, 1.0, 42, (0, 1, 2, 3, 4), 1),
        (3, 0.1, 7, (0, 1), 6),  # five attempts leave a node empty
        (3, 0.3, 9, (0, 2), 1),  # class 1 absent: a zero column, and no draw
        (4, 0.05, 2, (0, 2), 3),
        (1, 0.5, 0, (0, 1), 1),
        (3, 1e307, 5, (0, 1, 2), 1),  # the largest power of ten whose draw is finite at k = 3
    ],
)
def test_counts_match_the_oracle_loop(k, alpha, seed, classes, attempts):
    labels = np.random.default_rng(seed).choice(classes, 600)
    want, took = _oracle_counts(labels, k, alpha, seed)
    assert took == attempts
    got = dirichlet_counts(np.bincount(labels), k, alpha, seed)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_counts_check_every_alpha_and_name_the_one_that_keeps_a_node_empty():
    # both samplers share one validation, one retry bound and one message
    labels = np.random.default_rng(0).choice((0, 1), 600)
    for sample in (dirichlet_partition, lambda lab, *args: dirichlet_counts(np.bincount(lab), *args)):
        with pytest.raises(PartitionError, match="finite and positive"):
            sample(labels, 3, -1.0, 0)
        with pytest.raises(PartitionError, match="k must be"):
            sample(labels, 0, 1.0, 0)
        with pytest.raises(PartitionError, match=r"100 retries \(alpha=0\.001, k=10\)"):
            sample(labels, 10, 0.001, 0)


def test_an_alpha_whose_draw_overflows_raises_naming_alpha_and_k():
    """Where alpha * k overflows, numpy draws all-zero proportions, which
    would apportion 0/0 rows: int64's minimum."""
    labels = np.random.default_rng(0).choice((0, 1), 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for sample in (dirichlet_partition, lambda lab, *args: dirichlet_counts(np.bincount(lab), *args)):
            with pytest.raises(PartitionError, match=r"^Dirichlet\(alpha=1e\+308\) over k=3 nodes drew \[0\.0, 0\.0, 0\.0\]"):
                sample(labels, 3, 1e308, 0)
            for alpha in (1e300, 1e307):
                counts = sample(labels, 3, alpha, 0)
                counts = getattr(counts, "counts", counts)
                assert (counts >= 0).all() and np.array_equal(counts.sum(axis=0), np.bincount(labels))


def test_partition_frees_the_class_rows_before_building_the_nodes():
    labels = np.random.default_rng(3).choice(np.array([0, 1], dtype=np.uint8), 120_000)
    for alpha in (0.05, 1.0):
        tracemalloc.start()
        try:
            dirichlet_partition(labels, 3, alpha, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # shuffled class rows plus node arrays: 2 x 8n; the class rows as well: 3 x 8n
        assert peak <= 2.6 * 8 * len(labels), (alpha, peak / (8 * len(labels)))
