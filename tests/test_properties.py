"""Hypothesis properties of the partition, the floored simplex and the weight learner."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fednb.data import SynthSpec, synth_generate  # noqa: E402
from fednb.errors import PartitionError  # noqa: E402
from fednb.governance import NodeProfile, coherence_prior  # noqa: E402
from fednb.local_model import fit_hybrid  # noqa: E402
from fednb.partition import dirichlet_partition  # noqa: E402
from fednb.weights import OptimizerConfig, from_simplex, learn_weights_icc, to_floored_simplex  # noqa: E402

PROFILES = (
    NodeProfile("Financial", 4, 0.82, 0.12, 3.2),
    NodeProfile("Health", 3, 0.70, 0.25, 5.1),
    NodeProfile("Government", 2, 0.55, 0.40, 6.8),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=12, max_size=300),
    k=st.integers(2, 6),
    alpha=st.sampled_from([0.01, 0.1, 0.5, 1.0, 10.0, 1000.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dirichlet_partition_is_disjoint_and_covers_every_index(labels, k, alpha, seed):
    try:
        part = dirichlet_partition(labels, k, alpha, seed)
    except PartitionError as exc:  # a few rows at a tiny alpha can leave a node empty every time
        assert "empty node persisted" in str(exc)
        return
    assert len(part.node_indices) == k and all(len(ix) > 0 for ix in part.node_indices)
    every = np.concatenate(part.node_indices)
    assert np.array_equal(np.sort(every), np.arange(len(labels)))


@settings(max_examples=200, deadline=None, database=None)
@given(
    theta=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=9),
    delta=st.sampled_from([0.0, 0.01, 0.05]),
)
def test_floored_simplex_round_trip(theta, delta):
    theta = np.array(theta)
    w = to_floored_simplex(theta, len(theta) + 1, delta)
    assert np.allclose(from_simplex(w, delta), theta, atol=1e-7)


@pytest.fixture(scope="module")
def nodes():
    ds = synth_generate(SynthSpec(600, 2, 1, 2, (0.0, 0.2, 0.45), class_sep=1.0), 3)
    models = [fit_hybrid(ds.subset(np.arange(i, 600, 3))) for i in range(3)]
    return models, ds.subset(np.arange(1, 600, 5))


@settings(max_examples=15, deadline=None, database=None)
@given(
    lam=st.sampled_from([0.0, 0.01, 0.1, 1.0, 100.0]),
    delta=st.sampled_from([0.0, 0.05, 0.2, 0.33]),
    seed=st.integers(0, 2**31 - 1),
)
def test_learned_weights_stay_at_or_above_the_floor(nodes, lam, delta, seed):
    models, val = nodes
    config = OptimizerConfig(lam=lam, floor_delta=delta, max_iters=60, n_starts=2, seed=seed)
    w, _ = learn_weights_icc(models, val, coherence_prior(PROFILES), config)
    assert w.min() >= delta
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
