"""Property tests of the batched (B, N, K) loss kernel and the stage path.

Hypothesis draws the shapes (B <= 9 samples, N <= 5 classes, K <= 3
subclasses, D in 2..17), the temperature in [1e-3, 1] and a seed for
the Gaussian embeddings, so exact ties between similarities, which
would make the subclass selections ambiguous, do not occur; the
permutation tests also exclude them with ``assume``.  Runs are
derandomized, so the suite sees the same examples every time.
"""

import functools

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metd import losses
from metd.data import Unit
from metd.inference import temporal_mean_pool, unit_embedding
from metd.model import ImageAdapter, adapter_gradients, bank_embeddings, encode_image
from metd.training import _counted_gradients, _pull_token_gradient, _Stage, random_fd_instance

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
def test_each_stack_row_equals_the_one_stack_call(instance):
    # One embedding against S descriptor stacks, as fd_check scores its probes.
    seed, s, n, k, d, tau = instance
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    stacks = rng.normal(size=(s, n, k, d))
    grid = losses.similarity_grid(v, stacks, tau)
    assert grid.values.shape == (s, n, k)
    for row in range(s):
        one = losses.similarity_grid(v, stacks[row], tau)
        assert np.array_equal(grid.values[row], one.values)


@kernel_settings
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from((1, 2)))
def test_batch_counts_equal_counting_one_sample_at_a_time(seed, b, number):
    # A random model of either encoder kind, and B units of 1-3 frames.
    model, _, _ = random_fd_instance(seed, number)
    rng = np.random.default_rng(seed)
    units = [
        Unit(
            frames=rng.normal(size=(int(rng.integers(1, 4)), model.adapter.feature_dim)),
            label=int(rng.integers(model.n_classes)),
        )
        for _ in range(b)
    ]
    start = rng.integers(0, 4, size=(model.n_classes, model.n_subclasses))
    # The per-sample loop the batched stage path replaces: count, then the
    # loss, then the parameter gradients, added up one sample at a time.
    stack = bank_embeddings(model.bank, model.encoder)
    counts, sums, loop = start.copy(), np.zeros(3), []
    for unit in units:
        v = unit_embedding(model, unit)
        grid = losses.similarity_grid(v, stack, model.temperature)
        counts[unit.label, losses.select_closest(grid, unit.label)] += 1
        breakdown = losses.total_loss(grid, unit.label, counts[unit.label])
        sums += (breakdown.fg, breakdown.margin, breakdown.total)
        grad_v, grad_t = losses.loss_gradients(v, stack, grid, unit.label, breakdown)
        if number == 1:
            loop.append({"bank.tokens": grad_t})
        else:
            pooled = temporal_mean_pool(unit.frames)
            grad_w, grad_b = adapter_gradients(model.adapter, pooled, grad_v)
            loop.append({"adapter.weight": grad_w, "adapter.bias": grad_b})
    expected = {name: functools.reduce(np.add, (g[name] for g in loop)) / b for name in loop[0]}
    if number == 1:
        expected["bank.tokens"] = _pull_token_gradient(model, expected["bank.tokens"])

    batch_counts, batch_sums = start.copy(), np.zeros(3)
    stage = _Stage(model, units, number)
    grads = _counted_gradients(stage, np.arange(b), batch_counts, batch_sums)
    assert np.array_equal(batch_counts, counts)
    assert np.array_equal(batch_sums, sums)
    assert grads.keys() == expected.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, expected[name])


@kernel_settings
@given(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 9),  # B
    st.integers(1, 64),  # F
    st.integers(1, 64),  # E, F again for a residual adapter
    st.booleans(),  # residual
)
def test_each_encoded_row_equals_the_one_feature_call(seed, b, f, e, residual):
    # Stage 2 encodes a batch of pooled units in one call, and evaluate
    # and unit_embedding encode one unit at a time: the bits must agree.
    rng = np.random.default_rng(seed)
    e = f if residual else e
    adapter = ImageAdapter(
        weight=rng.normal(size=(e, f)), bias=rng.normal(size=e), residual=residual
    )
    features = rng.normal(size=(b, f))
    batch = encode_image(adapter, features)
    for row, one in zip(batch, features):
        assert np.array_equal(row, encode_image(adapter, one))


def _untied(values, targets):
    """No tie in any sample's target row, nor for the maximum of a rival row."""
    for row, target in zip(values.reshape(-1, *values.shape[-2:]), np.reshape(targets, -1)):
        if len(np.unique(row[target])) < row.shape[-1]:
            return False
        for i, rival in enumerate(row):
            if i != target and np.count_nonzero(rival == rival.max()) > 1:
                return False
    return True


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


@kernel_settings
@given(instances, st.randoms(use_true_random=False))
def test_the_loss_is_equivariant_under_a_class_permutation(instance, random):
    tau = instance[-1]
    _, v, stack, targets, grid, counts = _instance(*instance)
    assume(_untied(grid.values, targets))
    perm = np.array(random.sample(range(stack.shape[0]), stack.shape[0]))
    # Class j of the permuted stack is class perm[j]; a target t moves to
    # the j with perm[j] == t.
    moved = np.argsort(perm)[targets]
    breakdown = losses.total_loss(grid, targets, counts)
    grad_v, grad_t = losses.loss_gradients(v, stack, grid, targets, breakdown)
    permuted = losses.similarity_grid(v, stack[perm], tau)
    assert np.array_equal(permuted.values, grid.values[:, perm])
    after = losses.total_loss(permuted, moved, counts)
    perm_v, perm_t = losses.loss_gradients(v, stack[perm], permuted, moved, after)
    for field in ("fg", "margin", "total", "alpha"):
        _assert_close(getattr(after, field), getattr(breakdown, field))
    assert np.array_equal(after.closest_subclass, breakdown.closest_subclass)
    assert np.array_equal(after.farthest_subclass, breakdown.farthest_subclass)
    _assert_close(perm_v, grad_v)
    _assert_close(perm_t, grad_t[:, perm])


@kernel_settings
@given(instances, st.randoms(use_true_random=False))
def test_the_loss_is_invariant_under_a_subclass_permutation(instance, random):
    tau = instance[-1]
    _, v, stack, targets, grid, counts = _instance(*instance)
    assume(_untied(grid.values, targets))
    perm = np.array(random.sample(range(stack.shape[1]), stack.shape[1]))
    # Subclass k of the permuted stack is subclass perm[k] of every class.
    back = np.argsort(perm)
    breakdown = losses.total_loss(grid, targets, counts)
    grad_v, grad_t = losses.loss_gradients(v, stack, grid, targets, breakdown)
    permuted = losses.similarity_grid(v, stack[:, perm], tau)
    assert np.array_equal(permuted.values, grid.values[:, :, perm])
    after = losses.total_loss(permuted, targets, counts[:, perm])
    perm_v, perm_t = losses.loss_gradients(v, stack[:, perm], permuted, targets, after)
    for field in ("fg", "margin", "total", "alpha"):
        _assert_close(getattr(after, field), getattr(breakdown, field))
    assert np.array_equal(after.closest_subclass, back[breakdown.closest_subclass])
    assert np.array_equal(after.farthest_subclass, back[breakdown.farthest_subclass])
    _assert_close(perm_v, grad_v)
    _assert_close(perm_t, grad_t[:, :, perm])


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
