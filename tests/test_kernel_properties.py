"""Property tests of the batched (B, N, K) loss kernel, the stage path and fd_check's probes.

Hypothesis draws the shapes (B <= 9 samples, N <= 5 classes, K <= 3
subclasses, D in 2..17), the temperature in [1e-3, 1] and a seed for
the Gaussian embeddings, so exact ties between similarities, which
would make the subclass selections ambiguous, do not occur; the
permutation tests also exclude them with ``assume``.  Runs are
derandomized, so the suite sees the same examples every time.
"""

import functools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from metd import losses, numerics
from metd.data import Unit
from metd.inference import temporal_mean_pool, unit_embedding
from metd.model import (
    IDENTITY_MEAN,
    PROJECTED_MEAN,
    ImageAdapter,
    adapter_gradients,
    adapter_map,
    bank_embeddings,
    build_model,
    encode_image,
    encode_text_token_gradient,
)
from metd.training import _Stage, _step, random_fd_instance

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
    counts[np.arange(b), grid.best_subclasses[np.arange(b), targets]] += 1
    return rng, v, stack, targets, grid, counts


@kernel_settings
@given(instances)
def test_each_batch_row_equals_the_one_sample_call(instance):
    # The one-sample call is the batch of one: row b's bits must not
    # depend on the other rows of the batch.
    tau = instance[-1]
    _, v, stack, targets, grid, counts = _instance(*instance)
    breakdown = losses.total_loss(grid, targets, counts)
    grad_v, grad_t = losses.loss_gradients(grid, breakdown)
    for row in range(len(targets)):
        one = losses.similarity_grid(v[row : row + 1], stack, tau)
        assert np.array_equal(grid.values[row], one.values[0])
        one_breakdown = losses.total_loss(one, targets[row : row + 1], counts[row : row + 1])
        for field in FIELDS:
            assert np.array_equal(getattr(breakdown, field)[row], getattr(one_breakdown, field)[0])
        one_v, one_t = losses.loss_gradients(one, one_breakdown)
        assert np.array_equal(grad_v[row], one_v[0])
        assert np.array_equal(grad_t[row], one_t[0])


@kernel_settings
@given(instances)
def test_each_stack_row_equals_the_one_stack_call(instance):
    # One embedding's cosines with a flat stack of descriptor embeddings,
    # as fd_check scores its stage-1 probes, are the bits of the grid
    # entries of that embedding against each (N, K, D) stack they form.
    seed, s, n, k, d, tau = instance
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    stacks = rng.normal(size=(s, n, k, d))
    cosines = numerics.cosine_similarity(v, stacks.reshape(-1, d))
    assert cosines.shape == (s * n * k,)
    for row in range(s):
        one = losses.similarity_grid(v[None], stacks[row], tau)
        assert np.array_equal(cosines.reshape(s, n, k)[row], one.values[0])


def _pulled(model, grad_t):
    """Descriptor-embedding gradients (N, K, D) pulled back onto the token grid.

    The encoder is a mean, so each of a descriptor's M token positions gets the same pullback.
    """
    length = model.bank.context_length + model.bank.n_tokens
    pulled = encode_text_token_gradient(model.encoder, grad_t, length)
    return np.broadcast_to(pulled[:, :, None, :], model.bank.tokens.shape)


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
        target = np.array([unit.label])
        grid = losses.similarity_grid(unit_embedding(model, unit)[None], stack, model.temperature)
        counts[unit.label, grid.best_subclasses[0, unit.label]] += 1
        breakdown = losses.total_loss(grid, target, counts[target])
        sums += (breakdown.fg[0], breakdown.margin[0], breakdown.total[0])
        grad_v, grad_t = losses.loss_gradients(grid, breakdown)
        if number == 1:
            loop.append({"bank.tokens": grad_t[0]})
        else:
            pooled = temporal_mean_pool(unit.frames)
            grad_w, grad_b = adapter_gradients(model.adapter, pooled, grad_v[0])
            loop.append({"adapter.weight": grad_w, "adapter.bias": grad_b})
    expected = {name: functools.reduce(np.add, (g[name] for g in loop)) / b for name in loop[0]}
    if number == 1:
        expected["bank.tokens"] = _pulled(model, expected["bank.tokens"])

    batch_counts, batch_sums = start.copy(), np.zeros(3)
    labels = np.array([unit.label for unit in units])
    stage = _Stage(model, labels, np.stack([temporal_mean_pool(u.frames) for u in units]), number)
    grads = _step(stage, np.arange(b), batch_counts, batch_sums)
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


@kernel_settings
@given(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 9),  # S
    st.integers(1, 9),  # B
    st.integers(1, 64),  # F
    st.integers(1, 64),  # E, F again for a residual adapter
    st.booleans(),  # residual
)
def test_each_stacked_adapter_row_equals_the_one_adapter_call(seed, s, b, f, e, residual):
    # fd_check maps a stack of S weights or S biases in one call; each row
    # must be the bits of encode_image with that weight or bias alone.
    rng = np.random.default_rng(seed)
    e = f if residual else e
    weights = rng.normal(size=(s, e, f))
    biases = rng.normal(size=(s, e))
    x = rng.normal(size=f)
    by_weight = adapter_map(weights, biases[0], x, residual)
    by_bias = adapter_map(weights[0], biases, x, residual)
    assert by_weight.shape == by_bias.shape == (s, e)
    for row in range(s):
        one_weight = ImageAdapter(weight=weights[row], bias=biases[0], residual=residual)
        one_bias = ImageAdapter(weight=weights[0], bias=biases[row], residual=residual)
        assert np.array_equal(by_weight[row], encode_image(one_weight, x))
        assert np.array_equal(by_bias[row], encode_image(one_bias, x))
    # encode_image's own bits, for one feature vector and for a batch.
    adapter = ImageAdapter(weight=weights[0], bias=biases[0], residual=residual)
    for features in (x, rng.normal(size=(b, f))):
        want = np.matmul(weights[0], features[..., None])[..., 0] + biases[0]
        if residual:
            want = want + features
        assert np.array_equal(encode_image(adapter, features), want)


@kernel_settings
@given(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 9),  # S
    st.integers(1, 5),  # N
    st.integers(1, 3),  # K
    st.sampled_from((IDENTITY_MEAN, PROJECTED_MEAN)),
    st.booleans(),  # residual adapter
    st.sampled_from((1, 2)),
)
def test_each_stacked_probe_equals_embedding_that_value_in_place(seed, s, n, k, encoder_kind,
                                                                residual, number):
    # fd_check's probes: S values embedded in one encoder call, row for
    # row the bits of writing each value into the array and embedding
    # unit 0 the way training does.  A stage-1 value is one descriptor's
    # (M, d) tokens, and its row is that descriptor's entry of the stack.
    rng, model = _random_stage_model(seed, n, k, encoder_kind, residual)
    frames = rng.normal(size=(int(rng.integers(1, 4)), model.adapter.feature_dim))
    label = np.array([rng.integers(n)])
    stage = _Stage(model, label, temporal_mean_pool(frames)[None], number)
    for name, array in stage.params.items():
        where = (int(rng.integers(n)), int(rng.integers(k))) if number == 1 else ()
        values = rng.normal(size=(s, *array[where].shape))
        probed = stage.embed(0, {name: values})
        kept = array.copy()
        for row in range(s):
            array[where] = values[row]
            assert np.array_equal(probed[row], stage.embed(0)[where]), (name, row)
        array[...] = kept


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
    grad_v, grad_t = losses.loss_gradients(grid, breakdown)
    permuted = losses.similarity_grid(v, stack[perm], tau)
    assert np.array_equal(permuted.values, grid.values[:, perm])
    after = losses.total_loss(permuted, moved, counts)
    perm_v, perm_t = losses.loss_gradients(permuted, after)
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
    grad_v, grad_t = losses.loss_gradients(grid, breakdown)
    permuted = losses.similarity_grid(v, stack[:, perm], tau)
    assert np.array_equal(permuted.values, grid.values[:, :, perm])
    after = losses.total_loss(permuted, targets, counts[:, perm])
    perm_v, perm_t = losses.loss_gradients(permuted, after)
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


# The per-batch formulas the stage path had before it computed each
# intermediate once, kept here as its reference: boolean class and slot
# masks, the row norms and z = s / tau taken again for the gradients, both
# cosine-gradient halves built, and libm's log and log1p called in list
# comprehensions.  The stage path must give their bits.


def _ref_lse(arr):
    shift = arr.max(axis=-1, keepdims=True)
    total = np.exp(arr - shift).sum(axis=-1)
    logs = np.array([math.log(x) for x in total.ravel().tolist()]).reshape(total.shape)
    return shift[..., 0] + logs


def _ref_cosines(v, stack):
    nv = np.sqrt(np.vecdot(v, v)).reshape(len(v), 1, 1)
    nt = np.sqrt(np.vecdot(stack, stack))
    raw = np.vecdot(v.reshape(len(v), 1, 1, -1), stack) / (nv * nt)
    return np.minimum(np.maximum(raw, -1.0), 1.0)


def _ref_alpha(rows, picks):
    assigned = (np.arange(len(rows)), picks)
    weights = np.exp(1.0 / np.maximum(rows, 1))
    first = weights[assigned] / np.where(rows > 0, weights, 0.0).sum(axis=-1)
    return first * (rows.sum(axis=-1) / rows[assigned])


def _ref_neg_log_softmax_at(z, targets, picks, rivals):
    if rivals.shape[-1] == 0:
        return np.zeros(len(z))
    gap = _ref_lse(rivals) - z[np.arange(len(z)), targets, picks]
    return np.array([max(g, 0.0) + math.log1p(math.exp(-abs(g))) for g in gap.tolist()])


def _ref_batch(values, t, counts, tau):
    """The breakdown fields and dL/ds of a (B, N, K) grid, as the mask formulas gave them."""
    b, n, k = values.shape
    rows = np.arange(b)
    own = values[rows, t]
    closest, farthest = own.argmax(axis=-1), own.argmin(axis=-1)
    alpha = _ref_alpha(counts, closest)
    z = values / tau
    rivals = z[np.arange(n) != t[:, None]].reshape(b, n - 1, k)
    fg = alpha * _ref_neg_log_softmax_at(z, t, closest, rivals.reshape(b, -1))
    mg = _ref_neg_log_softmax_at(z, t, farthest, rivals.max(axis=-1))
    coeff = np.zeros_like(z)
    fg_slots = np.repeat((np.arange(n) != t[:, None])[..., None], k, axis=-1)
    fg_slots[rows, t, closest] = True
    picks = values.argmax(axis=-1)
    picks[rows, t] = farthest
    mg_slots = np.arange(k) == picks[..., None]
    for weight, slots, pos in ((alpha.reshape(-1, 1), fg_slots, t * k), (1.0, mg_slots, t)):
        terms = (values / tau)[slots].reshape(b, -1)
        delta = np.exp(terms - _ref_lse(terms)[..., None])
        delta[rows, pos] -= 1.0
        coeff[slots] += (weight * delta / tau).reshape(-1)
    fields = dict(fg=fg, margin=mg, total=fg + mg, alpha=alpha,
                  closest_subclass=closest, farthest_subclass=farthest)
    return fields, coeff


def _ref_cosine_gradients(v, stack, values):
    nv = np.sqrt(np.vecdot(v, v)).reshape(len(v), 1, 1, 1)
    nt = np.sqrt(np.vecdot(stack, stack))[..., None]
    rows = v.reshape(len(v), 1, 1, -1)
    s = values[..., None]
    return stack / (nv * nt) - s * rows / (nv * nv), rows / (nv * nt) - s * stack / (nt * nt)


def _random_stage_model(seed, n, k, encoder_kind, residual):
    rng = np.random.default_rng(seed)
    token_dim = int(rng.integers(2, 9))
    embed_dim = token_dim if encoder_kind == IDENTITY_MEAN else int(rng.integers(2, 9))
    model = build_model(
        n_classes=n, n_subclasses=k, n_tokens=int(rng.integers(1, 4)), token_dim=token_dim,
        embed_dim=embed_dim, feature_dim=embed_dim if residual else int(rng.integers(2, 9)),
        context_length=int(rng.integers(1, 4)), encoder_kind=encoder_kind,
        residual=residual, temperature=float(10.0 ** rng.uniform(-2.0, 0.0)), seed=seed,
    )
    model.bank.tokens[:] = rng.normal(size=model.bank.tokens.shape)
    model.bank.context[:] = rng.normal(size=model.bank.context.shape)
    model.adapter.weight[:] = rng.normal(0.0, 0.3, size=model.adapter.weight.shape)
    model.adapter.bias[:] = rng.normal(0.0, 0.1, size=model.adapter.bias.shape)
    return rng, model


@kernel_settings
@given(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 9),  # B
    st.integers(2, 5),  # N
    st.integers(1, 3),  # K
    st.sampled_from((IDENTITY_MEAN, PROJECTED_MEAN)),
    st.booleans(),  # residual adapter
    st.sampled_from((1, 2)),
)
def test_the_stage_path_gives_the_mask_formulas_bits(seed, b, n, k, encoder_kind, residual,
                                                     number):
    rng, model = _random_stage_model(seed, n, k, encoder_kind, residual)
    units = [
        Unit(
            frames=rng.normal(size=(int(rng.integers(1, 4)), model.adapter.feature_dim)),
            label=int(rng.integers(n)),
        )
        for _ in range(b)
    ]
    start = rng.integers(0, 4, size=(n, k))
    t = np.array([unit.label for unit in units])
    pooled = np.stack([temporal_mean_pool(unit.frames) for unit in units])
    v = encode_image(model.adapter, pooled)
    stack = bank_embeddings(model.bank, model.encoder)
    values = _ref_cosines(v, stack)
    rows = np.arange(b)
    assigned = np.zeros((b, n, k), dtype=np.int64)
    assigned[rows, t, values[rows, t].argmax(axis=-1)] = 1
    running = start + np.cumsum(assigned, axis=0)
    fields, coeff = _ref_batch(values, t, running[rows, t], model.temperature)
    gv, gt = _ref_cosine_gradients(v, stack, values)
    if number == 1:
        grad_t = coeff[..., None] * gt
        expected = {"bank.tokens": _pulled(model, grad_t.sum(axis=0) / b)}
    else:
        grad_v = np.cumsum((coeff[..., None] * gv).reshape(b, n * k, -1), axis=1)[:, -1]
        grad_w, grad_b = adapter_gradients(model.adapter, pooled, grad_v)
        expected = {"adapter.weight": grad_w.sum(axis=0) / b,
                    "adapter.bias": grad_b.sum(axis=0) / b}

    stage = _Stage(model, t, pooled, number)
    counts, sums = start.copy(), np.zeros(3)
    grads = _step(stage, rows, counts, sums)
    grid = stage.grid(rows, stage.embed(rows))
    breakdown = losses.total_loss(grid, t, running[rows, t])
    again = stage.gradients(rows, grid, breakdown)
    assert np.array_equal(counts, running[-1])
    parts = np.stack((fields["fg"], fields["margin"], fields["total"]), axis=1)
    assert np.array_equal(sums, np.cumsum(np.vstack((np.zeros(3), parts)), axis=0)[-1])
    for name, value in fields.items():
        assert np.array_equal(getattr(breakdown, name), value), name
    assert np.array_equal(breakdown.target_class, t)
    assert grads.keys() == again.keys() == expected.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, expected[name]), name
        assert np.array_equal(again[name], expected[name]), name
