"""Hypothesis properties of the partition, the floored simplex, the weight
learner, and the two facts the row blocks of a cell rest on: carried row-order
sums and random draws a block at a time equal the whole computation."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from fednb.data import SynthSpec, row_order_sum, synth_generate  # noqa: E402
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


def _blocks(n, cuts):
    """Consecutive (lo, hi) blocks of n rows, split at the cut points in cuts."""
    edges = sorted({0, n, *(c % n for c in cuts)})
    return list(zip(edges, edges[1:]))


# every finite float64, subnormals and -0.0 included, below 1e300 in magnitude,
# so that sums of up to 300 values stay finite
values = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=150, deadline=None, database=None)
@given(
    x=st.integers(1, 300).flatmap(lambda n: st.integers(2, 12).flatmap(lambda f: arrays(np.float64, (n, f), elements=values))),
    cuts=st.lists(st.integers(0, 10**6), max_size=8),
    zero_column=st.booleans(),
)
def test_carried_block_sums_equal_the_axis0_sum_bitwise(x, cuts, zero_column):
    if zero_column:
        x[:, 0] = -0.0  # numpy sums it to +0.0
    carry = np.zeros(x.shape[1])
    for lo, hi in _blocks(len(x), cuts):
        carry = row_order_sum(x[lo:hi].T.copy(), carry)
    assert carry.tobytes() == np.add.reduce(x, axis=0).tobytes()


@settings(max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    f=st.integers(1, 40),
    cuts=st.lists(st.integers(0, 10**6), max_size=8),
    noise=st.floats(0.0, 1.0),
)
def test_draws_in_row_blocks_equal_one_whole_draw(seed, n, f, cuts, noise):
    """degrade_copy's draws: the uniform flips, then the shifts of the
    flipped rows, then the (n, f) noise, each drawn a block at a time."""
    whole, blocked = np.random.default_rng(seed), np.random.default_rng(seed)
    blocks = _blocks(n, cuts)
    flips = whole.random(n) < noise
    shifts = whole.integers(1, 3, size=int(flips.sum()))
    noise_draws = whole.standard_normal((n, f))
    got_flips = np.concatenate([blocked.random(hi - lo) for lo, hi in blocks]) < noise
    got_shifts = np.concatenate([blocked.integers(1, 3, size=int(flips[lo:hi].sum())) for lo, hi in blocks])
    got_noise = np.concatenate([blocked.standard_normal((hi - lo, f)) for lo, hi in blocks])
    assert got_flips.tobytes() == flips.tobytes() and got_shifts.tobytes() == shifts.tobytes()
    assert got_noise.tobytes() == noise_draws.tobytes()
    assert blocked.bit_generator.state == whole.bit_generator.state
