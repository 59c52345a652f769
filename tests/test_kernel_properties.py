"""Property tests of the batched (B, N, K) loss kernel.

Hypothesis draws the shapes (B <= 9 samples, N <= 5 classes, K <= 3
subclasses, D in 2..17), the temperature in [1e-3, 1] and a seed for
the Gaussian embeddings, so exact ties between similarities, which
would make the subclass selections ambiguous, do not occur.  Runs are
derandomized, so the suite sees the same examples every time.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metd import losses
from metd.training import _batch_loss_and_grads

FIELDS = ("fg", "margin", "total", "alpha", "closest_subclass", "farthest_subclass")

kernel_settings = settings(max_examples=60, deadline=None, derandomize=True)
instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 9),  # B
    st.integers(1, 5),  # N
    st.integers(1, 3),  # K
    st.integers(2, 17),  # D
    st.floats(1e-3, 1.0),  # tau
)


def _instance(seed, b, n, k, d, tau):
    """Embeddings, descriptors, targets and valid per-row counts for one batch."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(b, d))
    stack = rng.normal(size=(n, k, d))
    targets = rng.integers(0, n, size=b)
    grid = losses.similarity_grid(v, stack, tau)
    counts = rng.integers(0, 6, size=(b, k))
    counts[np.arange(b), losses.select_closest(grid, targets)] += 1
    return rng, v, stack, targets, grid, counts


@kernel_settings
@given(instances)
def test_each_batch_row_equals_the_one_sample_call(instance):
    tau = instance[-1]
    _, v, stack, targets, grid, counts = _instance(*instance)
    breakdown = losses.total_loss(grid, targets, counts)
    grad_v, grad_t = losses.loss_gradients(v, stack, grid, targets, breakdown)
    for row, target in enumerate(targets.tolist()):
        one = losses.similarity_grid(v[row], stack, tau)
        assert np.array_equal(grid.values[row], one.values)
        one_breakdown = losses.total_loss(one, target, counts[row])
        for field in FIELDS:
            assert np.array_equal(getattr(breakdown, field)[row], getattr(one_breakdown, field))
        one_v, one_t = losses.loss_gradients(v[row], stack, one, target, one_breakdown)
        assert np.array_equal(grad_v[row], one_v)
        assert np.array_equal(grad_t[row], one_t)


@kernel_settings
@given(instances)
def test_batch_counts_equal_counting_one_sample_at_a_time(instance):
    tau = instance[-1]
    rng, v, stack, targets, _, _ = _instance(*instance)
    start = rng.integers(0, 4, size=stack.shape[:2])
    # The per-sample loop the batched kernel replaces: count, then the loss.
    counts, sums = start.copy(), np.zeros(3)
    loop_v, loop_t = [], []
    for row, target in zip(v, targets.tolist()):
        grid = losses.similarity_grid(row, stack, tau)
        counts[target, losses.select_closest(grid, target)] += 1
        breakdown = losses.total_loss(grid, target, counts[target])
        sums += (breakdown.fg, breakdown.margin, breakdown.total)
        one_v, one_t = losses.loss_gradients(row, stack, grid, target, breakdown)
        loop_v.append(one_v)
        loop_t.append(one_t)
    batch_counts, batch_sums = start.copy(), np.zeros(3)
    model = SimpleNamespace(temperature=tau)
    grad_v, grad_t = _batch_loss_and_grads(model, stack, v, targets, batch_counts, batch_sums)
    assert np.array_equal(batch_counts, counts)
    assert np.array_equal(batch_sums, sums)
    assert np.array_equal(grad_v, np.stack(loop_v))
    assert np.array_equal(grad_t, np.stack(loop_t))


@kernel_settings
@given(instances)
def test_the_loss_is_finite_and_positive(instance):
    n, tau = instance[2], instance[-1]
    _, _, _, targets, grid, counts = _instance(*instance)
    total = losses.total_loss(grid, targets, counts).total
    assert np.all(np.isfinite(total)) and np.all(total >= 0.0)
    # With a rival class the loss is positive unless the rivals' softmax
    # share underflows, which needs a score gap 2 / tau beyond ~745 nats.
    if n >= 2 and 2.0 / tau < 700.0:
        assert np.all(total > 0.0)


@kernel_settings
@given(instances)
def test_the_loss_is_invariant_to_positive_rescaling(instance):
    tau = instance[-1]
    rng, v, stack, targets, grid, counts = _instance(*instance)
    total = losses.total_loss(grid, targets, counts).total
    v_scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(len(v), 1))
    t_scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(*stack.shape[:2], 1))
    scaled = losses.similarity_grid(v * v_scale, stack * t_scale, tau)
    np.testing.assert_allclose(
        losses.total_loss(scaled, targets, counts).total, total, rtol=1e-12, atol=0.0
    )
