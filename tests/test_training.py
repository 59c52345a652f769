"""Optimizer steps, schedules, the two training stages, and gradient checks."""

import copy
import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from metd.config import SGD
from metd.data import EmbeddingDataset, SynthConfig, Unit, apply_linear_map, generate_synthetic
from metd.errors import ConfigError, ContractViolation, ZeroNormError
from metd.harness import Strategy, distortion_matrix, run_strategy
from metd.inference import evaluate, temporal_mean_pool
from metd.losses import total_loss
from metd.model import STREAM_SHUFFLE, build_model
from metd.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAPTIVE,
    SGD_MOMENTUM,
    central_difference,
    cosine_lr,
    fd_check,
    fd_sweep,
    format_metrics_log,
    init_optimizer_state,
    optimizer_step,
    random_fd_instance,
    run_stage1,
    run_stage2,
)

from conftest import SYNTHETIC, SYNTHETIC_CFG, run_config

SEPARABLE = SynthConfig(
    n_classes=3,
    subclusters_per_class=1,
    samples_per_subcluster=50,
    feature_dim=16,
    sigma=0.1,
    inter_class_min_angle=60.0,
    seed=11,
)


def _separable_model(seed=11):
    return build_model(
        n_classes=3,
        n_subclasses=2,
        n_tokens=4,
        token_dim=16,
        embed_dim=16,
        feature_dim=16,
        context_length=4,
        encoder_kind="identity-mean",
        residual=True,
        temperature=0.055,
        seed=seed,
    )


@pytest.fixture(scope="module")
def separable_run():
    """Stage-1 training on an easy three-cluster set, shared by the slow tests."""
    train, test = generate_synthetic(SEPARABLE)
    model = _separable_model()
    trace = run_stage1(
        model, train, run_config(stage1_epochs=30, stage1_batch_size=16, seed=11)
    )
    return train, test, model, trace


def test_optimizer_step_matches_adaptive_reference():
    # Reference update: decoupled decay first, then bias-corrected moments.
    rng = np.random.default_rng(30)
    param = rng.normal(size=(3, 2))
    expected = param.copy()
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    params = {"p": param}
    state = init_optimizer_state(params, ADAPTIVE)
    lr, wd = 0.05, 0.2
    for t in range(1, 6):
        grad = rng.normal(size=(3, 2))
        optimizer_step(params, {"p": grad}, state, lr, wd)
        expected -= lr * wd * expected
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad**2
        m_hat = m / (1 - ADAM_BETA1**t)
        v_hat = v / (1 - ADAM_BETA2**t)
        expected -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        np.testing.assert_allclose(param, expected, rtol=0, atol=1e-15)
    assert state.step == 5


def test_optimizer_step_matches_momentum_reference():
    rng = np.random.default_rng(31)
    param = rng.normal(size=4)
    expected = param.copy()
    velocity = np.zeros_like(param)
    params = {"p": param}
    state = init_optimizer_state(params, SGD)
    for _ in range(5):
        grad = rng.normal(size=4)
        optimizer_step(params, {"p": grad}, state, 0.1, 0.0)
        velocity = SGD_MOMENTUM * velocity + grad
        expected -= 0.1 * velocity
        np.testing.assert_allclose(param, expected, rtol=0, atol=1e-15)


def test_optimizer_step_with_zero_gradient_only_decays():
    params = {"p": np.array([2.0, -4.0])}
    state = init_optimizer_state(params, ADAPTIVE)
    optimizer_step(params, {"p": np.zeros(2)}, state, 0.5, 0.1)
    np.testing.assert_allclose(params["p"], [2.0 * 0.95, -4.0 * 0.95], rtol=0, atol=1e-15)


def test_optimizer_step_validation():
    params = {"p": np.zeros(2)}
    state = init_optimizer_state(params, ADAPTIVE)
    with pytest.raises(ContractViolation):
        optimizer_step(params, {"q": np.zeros(2)}, state, 0.1, 0.0)
    with pytest.raises(ContractViolation):
        optimizer_step(params, {"p": np.zeros(3)}, state, 0.1, 0.0)
    with pytest.raises(ContractViolation):
        optimizer_step(params, {"p": np.zeros(2)}, state, -0.1, 0.0)
    with pytest.raises(ContractViolation):
        init_optimizer_state(params, "mystery")


# Four arrays of a full fine-tune's shapes, listed out of sorted order.
_SHAPES = {"w": (3, 16), "b": (3,), "aw": (16, 16), "ab": (16,)}


def _per_array_step(params, grads, first, second, t, kind, learning_rate, weight_decay):
    """The optimizer step as one loop over the arrays, each with its own accumulators."""
    for name in sorted(params):
        param = params[name]
        grad = grads[name]
        if weight_decay != 0.0:
            param -= (learning_rate * weight_decay) * param
        if kind == ADAPTIVE:
            m = first[name]
            v = second[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (grad * grad)
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            param -= learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        else:
            velocity = first[name]
            velocity *= SGD_MOMENTUM
            velocity += grad
            param -= learning_rate * velocity


@pytest.mark.parametrize("kind", [ADAPTIVE, SGD])
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_optimizer_step_has_the_bits_of_a_per_array_loop(kind, weight_decay):
    rng = np.random.default_rng(32)
    params = {name: rng.normal(size=shape) for name, shape in _SHAPES.items()}
    expected = copy.deepcopy(params)
    first = {name: np.zeros(shape) for name, shape in _SHAPES.items()}
    second = copy.deepcopy(first)
    state = init_optimizer_state(params, kind)
    for t, lr in enumerate([0.05, 0.03, 0.2, 1e-4, 0.011, 0.0], start=1):
        grads = {name: rng.normal(size=shape) for name, shape in _SHAPES.items()}
        optimizer_step(params, grads, state, lr, weight_decay)
        _per_array_step(expected, grads, first, second, t, kind, lr, weight_decay)
        for name in _SHAPES:
            assert np.array_equal(params[name], expected[name]), (t, name)
    assert state.step == 6


def test_a_step_that_does_not_fit_the_layout_changes_nothing():
    with pytest.raises(ContractViolation, match="at least one parameter array"):
        init_optimizer_state({}, SGD)
    rng = np.random.default_rng(33)
    params = {name: rng.normal(size=shape) for name, shape in _SHAPES.items()}
    state = init_optimizer_state(params, ADAPTIVE)
    optimizer_step(params, {n: rng.normal(size=s) for n, s in _SHAPES.items()}, state, 0.1, 0.1)
    grads = {name: rng.normal(size=shape) for name, shape in _SHAPES.items()}
    broken = [
        (params, {n: g for n, g in grads.items() if n != "b"}),
        (params, {**grads, "extra": np.zeros(3)}),
        (params, {**grads, "aw": np.zeros((16, 15))}),
        ({**params, "extra": np.zeros(3)}, {**grads, "extra": np.zeros(3)}),
        (
            {n: p for n, p in params.items() if n != "w"},
            {n: g for n, g in grads.items() if n != "w"},
        ),
        ({**params, "b": np.zeros(4)}, {**grads, "b": np.zeros(4)}),
    ]
    before = copy.deepcopy((params, state))
    for bad_params, bad_grads in broken:
        with pytest.raises(ContractViolation, match="do not fit"):
            optimizer_step(bad_params, bad_grads, state, 0.1, 0.1)
        for name in _SHAPES:
            assert np.array_equal(params[name], before[0][name])
        assert np.array_equal(state.first, before[1].first)
        assert np.array_equal(state.second, before[1].second)
        assert state.step == before[1].step == 1


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.4, 0, 100) == 0.4
    assert cosine_lr(0.4, 100, 100) == 0.0
    np.testing.assert_allclose(cosine_lr(0.4, 50, 100), 0.2, rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        cosine_lr(1.0, 25, 100), 0.5 * (1 + np.cos(np.pi / 4)), rtol=0, atol=1e-15
    )
    with pytest.raises(ContractViolation):
        cosine_lr(0.4, 101, 100)
    with pytest.raises(ContractViolation):
        cosine_lr(0.4, 0, 0)


def _squares(probes):
    return np.sum(probes * probes, axis=tuple(range(1, probes.ndim)))


def test_central_difference_exact_on_quadratic():
    # (x+h)^2 - (x-h)^2 = 4xh, so the quotient is 2x with no truncation term,
    # also when each probe carries only the matrix that holds its entry.
    rng = np.random.default_rng(32)
    for shape in ((2, 3), (3, 2, 3)):
        x = rng.normal(size=shape)
        original = x.copy()
        grad = central_difference(_squares, x, h=1e-4)
        np.testing.assert_allclose(grad, 2 * original, rtol=1e-9, atol=1e-12)
        assert np.array_equal(x, original)  # the probes are copies
    with pytest.raises(ContractViolation):
        central_difference(_squares, x, h=0.0)


def test_central_difference_needs_one_score_per_probe():
    x = np.arange(3.0)
    wrong = (lambda probes: _squares(probes)[:-1], lambda probes: probes, lambda probes: 0.0)
    for loss in wrong:
        with pytest.raises(ContractViolation, match="for 6 probes"):
            central_difference(loss, x, h=1e-3)
    assert np.array_equal(x, np.arange(3.0))


def test_central_difference_leaves_the_array_alone_when_the_loss_raises():
    # Probes are copies: a failure leaves no entry moved by h.
    x = np.random.default_rng(5).normal(size=(2, 3, 4))
    x[1, 1, 2] = -0.0
    bits = x.tobytes()
    blocks = []

    def zero_norm(block):
        blocks.append(block.copy())
        raise ZeroNormError("probe")

    def violation(block):
        raise ContractViolation("loss")

    with pytest.raises(ZeroNormError):
        central_difference(zero_norm, x, h=1e-3)
    assert x.tobytes() == bits
    # One block of all probes: probe 2e moves entry e of the flat array by
    # +h, probe 2e + 1 by -h, and each probe carries the matrix holding e alone.
    assert [block.shape for block in blocks] == [(48, 3, 4)]
    moved = (blocks[0] - np.repeat(x, 24, axis=0)).reshape(2, 24, 12)
    for i in range(2):
        for j in range(12):
            assert np.count_nonzero(moved[i, 2 * j]) == np.count_nonzero(moved[i, 2 * j + 1]) == 1
            assert moved[i, 2 * j, j] > 0 > moved[i, 2 * j + 1, j]
    with pytest.raises(ContractViolation, match="^loss$"):
        central_difference(violation, x, h=1e-3)
    assert x.tobytes() == bits


def _one_sample_central_difference(path, array, counts, h):
    """The reference: two one-sample grids and ``total_loss`` calls per entry."""
    batch = np.array([0])
    flat = array.reshape(-1)
    grad = np.empty(flat.size)

    def loss():
        grid = path.grid(batch, path.embed(batch))
        return total_loss(grid, path.labels[batch], counts).total[0]

    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + h
        plus = loss()
        flat[idx] = original - h
        minus = loss()
        flat[idx] = original
        grad[idx] = (plus - minus) / (2.0 * h)
    return grad.reshape(array.shape)


def test_fd_check_numeric_gradient_equals_the_one_sample_loop(monkeypatch):
    # The batched probes give each entry the bits of its two one-sample losses.
    import metd.training

    numeric = []
    original = metd.training.central_difference

    def recorded(*args):
        numeric.append(original(*args))
        return numeric[-1]

    monkeypatch.setattr(metd.training, "central_difference", recorded)
    h = 1e-5
    for stage in (1, 2):
        for seed in range(50):
            model, sample, counts = random_fd_instance(seed=seed, stage=stage)
            numeric.clear()
            fd_check(model, sample, h, target_counts=counts, stage=stage)
            pooled = temporal_mean_pool(sample.frames)[None]
            path = metd.training._Stage(model, np.array([sample.label]), pooled, stage)
            names = sorted(path.params)
            assert len(numeric) == len(names)
            for got, name in zip(numeric, names):
                want = _one_sample_central_difference(path, path.params[name], counts[None], h)
                assert np.array_equal(got, want), f"stage {stage} seed {seed}: {name}"


@pytest.mark.parametrize("seed", range(3))
def test_fd_check_embeds_each_arrays_probes_in_one_encoder_call(monkeypatch, seed):
    # Stage 1's probes are single (M, d) descriptors, two per token entry,
    # all in one encode_text call.  Stage 2's bias probes and its weight
    # probes each go through adapter_map once, after the sample's own embedding.
    import metd.training

    calls = []
    for name in ("encode_text", "adapter_map"):
        def recorded(*args, _name=name, _original=getattr(metd.training, name)):
            calls.append((_name, [np.shape(arg) for arg in args]))
            return _original(*args)

        monkeypatch.setattr(metd.training, name, recorded)
    model, sample, counts = random_fd_instance(seed=seed, stage=1)
    fd_check(model, sample, target_counts=counts, stage=1)
    tokens = model.bank.tokens
    [(name, shapes)] = calls
    assert name == "encode_text" and shapes[2][-2:] == tokens.shape[-2:]
    assert math.prod(shapes[2][:-2]) == 2 * tokens.size
    calls.clear()
    model, sample, counts = random_fd_instance(seed=seed, stage=2)
    fd_check(model, sample, target_counts=counts, stage=2)
    weight, bias = model.adapter.weight.shape, model.adapter.bias.shape
    assert [(name, shapes[:2]) for name, shapes in calls] == [
        ("adapter_map", [weight, bias]),
        ("adapter_map", [weight, (2 * bias[0], *bias)]),
        ("adapter_map", [(2 * math.prod(weight), *weight), bias]),
    ]


def test_stage_keys_defaults_and_validation():
    config = run_config()
    assert (config.stage1_epochs, config.stage1_lr) == (2, 1e-2)
    assert (config.stage1_weight_decay, config.stage1_schedule) == (0.0, "constant")
    assert (config.stage2_epochs, config.stage2_lr) == (50, 5e-6)
    assert (config.stage2_weight_decay, config.stage2_schedule) == (0.1, "cosine")
    assert run_config(stage1_epochs=7).stage1_epochs == 7
    for key, bad in (
        ("stage1_epochs", -1),
        ("stage1_epochs", 1.5),
        ("stage2_lr", 0.0),
        ("stage2_weight_decay", -0.1),
        ("stage1_optimizer", "mystery"),
        ("stage2_schedule", "linear"),
        ("stage1_batch_size", 0),
        ("count_scope", "run"),
    ):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            replace(config, **{key: bad})


def test_zero_epochs_is_a_no_op():
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=1, samples_per_subcluster=10,
                    feature_dim=8, sigma=0.1, seed=1)
    )
    model = build_model(
        n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
        feature_dim=8, context_length=2, temperature=0.055, seed=1,
    )
    before = copy.deepcopy(model)
    trace1 = run_stage1(model, train, run_config(stage1_epochs=0))
    trace2 = run_stage2(model, train, run_config(stage2_epochs=0))
    assert trace1 == [] and trace2 == []
    assert np.array_equal(model.bank.tokens, before.bank.tokens)
    assert np.array_equal(model.adapter.weight, before.adapter.weight)
    assert np.array_equal(model.adapter.bias, before.adapter.bias)


def test_stages_touch_only_their_own_parameters():
    # Stage 1 trains only the descriptor tokens and stage 2 only the
    # adapter; the context block and a projected-mean encoder's
    # projection stay frozen throughout.
    train, _ = generate_synthetic(
        SynthConfig(n_classes=3, subclusters_per_class=1, samples_per_subcluster=10,
                    feature_dim=8, sigma=0.1, inter_class_min_angle=50.0, seed=2)
    )
    identity = build_model(
        n_classes=3, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
        feature_dim=8, context_length=2, temperature=0.055, seed=2,
    )
    projected = build_model(
        n_classes=3, n_subclasses=2, n_tokens=2, token_dim=6, embed_dim=5,
        feature_dim=8, context_length=2, encoder_kind="projected-mean",
        residual=False, temperature=0.055, seed=2,
    )
    for model in (identity, projected):
        before = copy.deepcopy(model)
        run_stage1(model, train, run_config(stage1_epochs=2, stage1_batch_size=8, seed=2))
        assert not np.array_equal(model.bank.tokens, before.bank.tokens)
        assert np.array_equal(model.bank.context, before.bank.context)
        assert np.array_equal(model.adapter.weight, before.adapter.weight)
        assert np.array_equal(model.adapter.bias, before.adapter.bias)
        if model is projected:
            assert np.array_equal(model.encoder.projection, before.encoder.projection)

        tokens_after_stage1 = model.bank.tokens.copy()
        run_stage2(
            model, train,
            run_config(stage2_epochs=2, stage2_lr=1e-3, stage2_batch_size=8, seed=2),
        )
        assert np.array_equal(model.bank.tokens, tokens_after_stage1)
        assert np.array_equal(model.bank.context, before.bank.context)
        assert not np.array_equal(model.adapter.weight, before.adapter.weight)
        if model is projected:
            assert np.array_equal(model.encoder.projection, before.encoder.projection)


@pytest.mark.parametrize(
    "encoder_kind, embed_dim", [("identity-mean", 8), ("projected-mean", 5)]
)
def test_stage1_moves_every_token_of_a_descriptor_alike(encoder_kind, embed_dim):
    # The text encoder is a linear mean over the token sequence, so all M
    # tokens of one descriptor receive the same gradient and, with no
    # weight decay, the same optimizer update: their differences keep
    # their initial values.
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=10,
                    feature_dim=embed_dim, sigma=0.1, intra_class_angle=90.0, seed=3)
    )
    model = build_model(
        n_classes=2, n_subclasses=2, n_tokens=3, token_dim=8, embed_dim=embed_dim,
        feature_dim=embed_dim, context_length=2, encoder_kind=encoder_kind,
        temperature=0.055, seed=3,
    )
    before = model.bank.tokens.copy()
    run_stage1(model, train, run_config(stage1_epochs=3, stage1_batch_size=8, seed=3))
    delta = model.bank.tokens - before
    assert np.max(np.abs(delta)) > 1e-3
    for m in range(1, delta.shape[2]):
        np.testing.assert_allclose(delta[:, :, m], delta[:, :, 0], rtol=0, atol=1e-12)


def test_fresh_non_residual_model_trains():
    # A non-residual adapter maps features to W x + b; starting it at
    # W = 0 made every image embedding zero and stage 1 fail on its first
    # cosine.  It now starts at the rectangular identity.
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=1, samples_per_subcluster=10,
                    feature_dim=16, sigma=0.1, seed=4)
    )
    model = build_model(
        n_classes=2, n_subclasses=2, n_tokens=2, token_dim=12, embed_dim=12,
        feature_dim=16, context_length=2, encoder_kind="projected-mean",
        residual=False, temperature=0.055, seed=4,
    )
    assert np.array_equal(model.adapter.weight, np.eye(12, 16))
    trace = run_stage1(model, train, run_config(stage1_epochs=1, stage1_batch_size=8))
    assert len(trace) == 1 and np.isfinite(trace[0].total)


def test_stage1_embeds_each_unit_once_before_fitting(monkeypatch):
    # The adapter is frozen in stage 1: set-up encodes the dataset's pooled
    # array in one call, and the per-epoch report scores those embeddings.
    import metd.inference
    import metd.training

    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=1, samples_per_subcluster=10,
                    feature_dim=8, sigma=0.1, seed=5)
    )
    encoded = []
    original = metd.training.encode_image

    def recorded(adapter, features):
        encoded.append(features)
        return original(adapter, features)

    monkeypatch.setattr(metd.training, "encode_image", recorded)
    names = ("temporal_mean_pool", "unit_embedding", "encode_image")
    inner = _count_calls(monkeypatch, metd.inference, names)
    model = build_model(
        n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
        feature_dim=8, context_length=2, temperature=0.055, seed=5,
    )
    run_stage1(model, train, run_config(stage1_epochs=3, stage1_batch_size=8, seed=5))
    assert len(encoded) == 1 and encoded[0] is train.pooled
    assert inner == dict.fromkeys(names, 0)


def _sixteen_units():
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=5,
                    feature_dim=8, sigma=0.2, intra_class_angle=90.0, seed=3)
    )
    assert len(train.units()) == 16
    model = build_model(
        n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
        feature_dim=8, context_length=2, temperature=0.055, seed=3,
    )
    return model, train


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_stage1_selects_each_samples_subclass_once(monkeypatch):
    # Each sample is counted on its closest subclass, read from the grid
    # total_loss then takes k+ and k- from.  The batch is one call each of
    # total_loss and loss_gradients; only total_loss checks the batch's
    # targets, and loss_gradients takes them from the breakdown.
    import metd.losses

    model, train = _sixteen_units()
    calls = _count_calls(monkeypatch, metd.losses, ("total_loss", "_check_target"))
    run_stage1(model, train, run_config(stage1_epochs=1, stage1_batch_size=5, seed=3))
    n_batches = math.ceil(len(train.units()) / 5)
    assert calls == {"total_loss": n_batches, "_check_target": n_batches}


def test_fd_check_and_both_stages_share_one_stage_gradient_function(monkeypatch):
    # fd_check is the one-sample batch of the training path: the analytic
    # gradient it checks comes from the same function that trains.
    import metd.training

    calls = []
    original = metd.training._Stage.gradients

    def counted(self, rows, grid, breakdown):
        calls.append((self.number, len(rows)))
        return original(self, rows, grid, breakdown)

    monkeypatch.setattr(metd.training._Stage, "gradients", counted)
    for stage in (1, 2):
        model, sample, counts = random_fd_instance(seed=0, stage=stage)
        fd_check(model, sample, target_counts=counts, stage=stage)
    assert calls == [(1, 1), (2, 1)]
    calls.clear()
    model, train = _sixteen_units()
    run_stage1(model, train, run_config(stage1_epochs=1, stage1_batch_size=5, seed=3))
    run_stage2(model, train, run_config(stage2_epochs=1, stage2_batch_size=5, seed=3))
    sizes = [5, 5, 5, 1]
    assert calls == [(1, size) for size in sizes] + [(2, size) for size in sizes]


def test_each_stage_shuffles_with_its_own_stream(monkeypatch):
    # Epoch e of stage n draws its order from default_rng([STREAM_SHUFFLE,
    # seed, n, e]): stage 2 must not replay stage 1's batches.
    import metd.training

    batches = []
    original = metd.training._step

    def recorded(stage, batch, counts, sums):
        batches.append((stage.number, batch.tolist()))
        return original(stage, batch, counts, sums)

    monkeypatch.setattr(metd.training, "_step", recorded)
    model, train = _sixteen_units()
    seed, size, n_units = 3, 5, len(train.units())
    config = run_config(stage1_epochs=2, stage2_epochs=2, stage1_batch_size=size,
                        stage2_batch_size=size, seed=seed)
    run_stage1(model, train, config)
    run_stage2(model, train, config)
    expected = []
    for number in (1, 2):
        for epoch in (1, 2):
            rng = np.random.default_rng([STREAM_SHUFFLE, seed, number, epoch])
            order = rng.permutation(n_units)
            expected += [(number, order[start : start + size].tolist())
                         for start in range(0, n_units, size)]
    assert batches == expected


def test_stage2_pools_each_unit_once_before_fitting(monkeypatch):
    # The raw frames never change, so each dataset pools them once, into its
    # ``pooled`` column, which both stages read; stage 2 pools and embeds no
    # unit of its own, in training or in its per-epoch report.
    import metd.data
    import metd.inference
    import metd.training

    pools = []
    column = metd.data.EmbeddingDataset.pooled

    def pooled(dataset):
        pools.append(dataset)
        return column.func(dataset)

    counted = functools.cached_property(pooled)
    counted.__set_name__(metd.data.EmbeddingDataset, "pooled")
    monkeypatch.setattr(metd.data.EmbeddingDataset, "pooled", counted)
    model, train = _sixteen_units()
    names = ("temporal_mean_pool", "unit_embedding")
    calls = _count_calls(monkeypatch, metd.training, names)
    inner = _count_calls(monkeypatch, metd.inference, names)
    run_stage1(model, train, run_config(stage1_epochs=2, stage1_batch_size=5, seed=3))
    run_stage2(model, train, run_config(stage2_epochs=2, stage2_batch_size=5, seed=3))
    assert pools == [train]
    assert calls == inner == dict.fromkeys(names, 0)


@pytest.mark.parametrize("oversample", [False, True])
def test_metd_train_builds_no_unit(monkeypatch, tmp_path, oversample):
    # Training reads the dataset's unit columns, so the train command builds
    # neither the unit list nor any Unit, with or without oversampling.
    from metd.cli import main
    from metd.data import save_dataset
    from metd.harness import default_benchmark

    def refused(*args, **kwargs):
        raise AssertionError("training built a Unit")

    train, _ = default_benchmark(seed=7)
    save_dataset(train, str(tmp_path / "train.tsv"))
    config = tmp_path / "run.cfg"
    config.write_text(re.sub(
        r"(?m)^(stage[12]_epochs) = .*$", r"\1 = 1", SYNTHETIC_CFG.read_text()
    ) + f"oversample = {str(oversample).lower()}\n")
    monkeypatch.setattr(EmbeddingDataset, "units", refused)
    monkeypatch.setattr(Unit, "__init__", refused)
    assert main(["train", "--config", str(config), str(tmp_path), str(tmp_path / "m.ckpt")]) == 0


def test_stage2_embeds_its_frozen_descriptors_once(monkeypatch):
    # The descriptors are frozen in stage 2, so the stack embedded at set-up
    # also scores every per-epoch report.
    import metd.inference
    import metd.training

    model, train = _sixteen_units()
    calls = _count_calls(monkeypatch, metd.training, ("bank_embeddings",))
    inner = _count_calls(monkeypatch, metd.inference, ("bank_embeddings",))
    run_stage2(model, train, run_config(stage2_epochs=2, stage2_batch_size=5, seed=3))
    assert calls["bank_embeddings"] + inner["bank_embeddings"] == 1


@pytest.mark.parametrize("count_scope", ["epoch", "batch"])
def test_each_stages_last_train_war_equals_evaluate(count_scope):
    # The per-epoch report scores the stage's own embeddings, not through
    # evaluate, yet reads exactly what evaluate reads after the stage.
    model, train = _sixteen_units()
    config = run_config(
        stage1_epochs=2, stage2_epochs=2, stage1_batch_size=5, stage2_batch_size=5,
        stage2_lr=1e-2, count_scope=count_scope, seed=3,  # an adapter that moves
    )
    for run_stage in (run_stage1, run_stage2):
        trace = run_stage(model, train, config)
        assert trace[-1].war == evaluate(train, model).war


def test_a_zero_descriptor_mid_training_names_its_row_epoch_and_step():
    # identity-mean: with the context and descriptor (1, 0)'s tokens all
    # zero, that descriptor's embedding is the zero vector.
    model, train = _sixteen_units()
    assert model.encoder.kind == "identity-mean"
    model.bank.context[:] = 0.0
    model.bank.tokens[1, 0] = 0.0
    config = run_config(stage1_epochs=1, stage1_batch_size=5, seed=3)
    with pytest.raises(ZeroNormError, match=r"row \(1, 0\) has zero norm \(epoch 1, step 1\)"):
        run_stage1(model, train, config)


def test_a_zero_unit_stops_training_before_the_first_step(clean_benchmark, monkeypatch):
    # Unit 217 embeds to zero.  Stage 1 embeds every unit once, at set-up,
    # and refuses it there by its unit, not by its place in a later batch.
    import metd.training
    from metd.harness import train_metd

    train, _ = clean_benchmark
    features = train._features.copy()
    features[217] = 0.0
    zeroed = EmbeddingDataset._from_columns(features, train._columns, train.n_classes)
    steps = []
    monkeypatch.setattr(metd.training, "optimizer_step", lambda *args: steps.append(args))
    with pytest.raises(ZeroNormError, match=r"^unit embeddings row 217 has zero norm$"):
        train_metd(zeroed, SYNTHETIC)
    assert steps == []


def test_stage2_at_the_shipped_rate_barely_moves_the_adapter(benchmark_runs):
    # The adapter starts at W = 0, b = 0 and only stage 2 moves it.  At the
    # shipped seed 7 it ends at max |W| 1.1e-3 and max |b| 3.4e-4.
    adapter = benchmark_runs.model_k2.adapter
    assert np.max(np.abs(adapter.weight)) <= 2e-3
    assert np.max(np.abs(adapter.bias)) <= 2e-3


@pytest.mark.parametrize("run_stage", [run_stage1, run_stage2])
def test_a_non_finite_trained_side_mid_training_names_its_epoch_and_step(
    monkeypatch, run_stage
):
    # After global step 5 (epoch 2's first) one trained entry turns NaN, so
    # the side the stage embeds from it is non-finite at step 6.
    import metd.training

    model, train = _sixteen_units()
    original = metd.training.optimizer_step

    def poisoning(params, grads, state, learning_rate, weight_decay):
        original(params, grads, state, learning_rate, weight_decay)
        if state.step == 5:
            next(iter(params.values())).reshape(-1)[0] = np.nan

    monkeypatch.setattr(metd.training, "optimizer_step", poisoning)
    config = run_config(stage1_epochs=2, stage2_epochs=2, stage1_batch_size=5,
                        stage2_batch_size=5, seed=3)
    with pytest.raises(ContractViolation, match=r"non-finite entries \(epoch 2, step 6\)$"):
        run_stage(model, train, config)


@pytest.mark.parametrize("count_scope", ["epoch", "batch"])
def test_loss_counts_include_the_sample_and_reset_per_scope(monkeypatch, count_scope):
    # total_loss sees the class's counts with the current sample already on
    # its closest subclass; they restart every epoch or every batch.
    import metd.losses

    model, train = _sixteen_units()
    seen = []
    original = metd.losses.total_loss

    def recording(grid, targets, target_counts):
        # one call per batch: a (B, N, K) grid with B targets and (B, K) counts
        for values, target, counts in zip(grid.values, targets, target_counts):
            seen.append((target, int(np.argmax(values[target])), np.array(counts)))
        return original(grid, targets, target_counts)

    monkeypatch.setattr(metd.losses, "total_loss", recording)
    epochs, batch_size = 2, 5
    config = run_config(
        stage1_epochs=epochs, stage1_batch_size=batch_size, count_scope=count_scope, seed=3
    )
    run_stage1(model, train, config)
    n_units = len(train.units())
    assert len(seen) == n_units * epochs
    expected = np.zeros((model.n_classes, model.n_subclasses), dtype=np.int64)
    for call, (target, closest, counts) in enumerate(seen):
        position = call % n_units
        if position == 0 or (count_scope == "batch" and position % batch_size == 0):
            expected[:] = 0
        expected[target, closest] += 1
        np.testing.assert_array_equal(counts, expected[target])


def test_training_is_deterministic():
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=10,
                    feature_dim=8, sigma=0.1, intra_class_angle=90.0, seed=3)
    )
    traces = []
    tokens = []
    for _ in range(2):
        model = build_model(
            n_classes=2, n_subclasses=2, n_tokens=2, token_dim=8, embed_dim=8,
            feature_dim=8, context_length=2, temperature=0.055, seed=3,
        )
        trace = run_stage1(
            model, train, run_config(stage1_epochs=3, stage1_batch_size=8, seed=3)
        )
        traces.append(trace)
        tokens.append(model.bank.tokens.copy())
    assert np.array_equal(tokens[0], tokens[1])
    assert traces[0] == traces[1]


def test_metrics_log_format():
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=1, samples_per_subcluster=10,
                    feature_dim=8, sigma=0.1, seed=4)
    )
    model = build_model(
        n_classes=2, n_subclasses=1, n_tokens=2, token_dim=8, embed_dim=8,
        feature_dim=8, context_length=2, temperature=0.055, seed=4,
    )
    trace = run_stage1(model, train, run_config(stage1_epochs=2, seed=4))
    text = format_metrics_log(trace)
    lines = text.splitlines()
    assert lines[0] == "epoch\tfg\tmargin\ttotal\twar\tlr"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split("\t")
        assert len(fields) == 6
        assert int(fields[0]) >= 1
        assert all(np.isfinite(float(f)) for f in fields[1:])


def test_empty_dataset_rejected(separable_run):
    train, _, model, _ = separable_run
    empty = EmbeddingDataset([], train.feature_dim, train.n_classes)
    for run_stage in (run_stage1, run_stage2):
        with pytest.raises(ContractViolation, match="cannot train on an empty dataset"):
            run_stage(model, empty, run_config())


def test_stage1_learns_the_separable_benchmark(separable_run):
    train, _, _, trace = separable_run
    # Independent oracle first: nearest class centroid separates this data.
    units = train.units()
    feats = np.vstack([temporal_mean_pool(u.frames) for u in units])
    labels = np.array([u.label for u in units])
    centroids = np.vstack([feats[labels == i].mean(axis=0) for i in range(3)])
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    oracle_war = float((np.argmax(feats @ centroids.T, axis=1) == labels).mean())
    assert oracle_war >= 0.95
    assert trace[-1].war >= 0.95


def test_loss_trace_decreases_on_the_separable_benchmark(separable_run):
    _, _, _, trace = separable_run
    assert len(trace) == 30
    assert trace[-1].total < trace[0].total


def test_stage2_recovers_from_a_feature_distortion(separable_run):
    # Descriptors are trained on clean features; the deployment features
    # then arrive through a fixed invertible map.  Stage 2 must learn to
    # undo it.  The desk-scale stage-2 defaults are deliberately gentle,
    # so this mechanism test runs its own hotter schedule.
    train, test, model, _ = separable_run
    model = copy.deepcopy(model)
    clean_war = evaluate(test, model).war
    matrix = distortion_matrix(16, seed=5, min_scale=0.4, max_scale=2.5)
    distorted_train = apply_linear_map(train, matrix)
    distorted_test = apply_linear_map(test, matrix)
    assert evaluate(distorted_test, model).war < 0.6  # the distortion bites
    probe = run_strategy(
        Strategy(kind="linear-probe"), (distorted_train, distorted_test),
        replace(SYNTHETIC, seed=11),
    )
    assert probe.war >= 0.9 * clean_war  # still linearly separable
    run_stage2(
        model,
        distorted_train,
        run_config(
            stage2_epochs=40, stage2_lr=1e-2, stage2_weight_decay=0.0, stage2_batch_size=16,
            seed=11,
        ),
    )
    recovered = evaluate(distorted_test, model).war
    assert recovered >= 0.9 * clean_war


def test_fd_check_passes_on_random_instances():
    for stage in (1, 2):
        for seed in range(4):
            model, sample, counts = random_fd_instance(seed=seed, stage=stage)
            errors = fd_check(model, sample, h=1e-5, target_counts=counts, stage=stage)
            for name, (_, worst) in errors.items():
                assert worst < 1e-4, f"stage {stage} seed {seed}: {name} max_rel_err={worst:.3e}"
            if stage == 1:
                assert set(errors) == {"bank.tokens"}
                assert errors["bank.tokens"][0] == model.bank.tokens.size
            else:
                assert set(errors) == {"adapter.weight", "adapter.bias"}


def test_fd_check_corrupt_gradient_is_caught():
    for stage in (1, 2):
        model, sample, counts = random_fd_instance(seed=0, stage=stage)
        errors = fd_check(
            model, sample, h=1e-5, target_counts=counts, stage=stage, corrupt=True
        )
        assert max(worst for _, worst in errors.values()) >= 1e-4


@pytest.mark.parametrize("stage", [1, 2])
def test_fd_check_rejects_a_sample_the_adapter_cannot_take(stage):
    # Stage 2 maps its pooled rows unchecked every batch, so it checks their width at set-up.
    model, sample, counts = random_fd_instance(seed=3, stage=stage)
    wide = Unit(frames=np.ones((2, model.adapter.feature_dim + 1)), label=sample.label)
    with pytest.raises(ContractViolation, match="features shape"):
        fd_check(model, wide, target_counts=counts, stage=stage)


def test_fd_sweep_aggregates_fd_check_over_instances():
    # Entries summed and errors maxed, per stage and array, over the
    # instances seed, seed + 1, ...
    for corrupt in (False, True):
        expected = []
        for stage in (1, 2):
            totals = {}
            for seed in range(5, 8):
                model, sample, counts = random_fd_instance(seed=seed, stage=stage)
                errors = fd_check(
                    model, sample, 1e-5, target_counts=counts, stage=stage, corrupt=corrupt
                )
                for name, (entries, worst) in errors.items():
                    total, most = totals.get(name, (0, 0.0))
                    totals[name] = (total + entries, max(most, worst))
            expected += [(stage, name, *totals[name]) for name in sorted(totals)]
        assert fd_sweep(seed=5, instances=3, h=1e-5, corrupt=corrupt) == expected
    names = [(stage, name) for stage, name, _, _ in expected]
    assert names == [(1, "bank.tokens"), (2, "adapter.bias"), (2, "adapter.weight")]


def _nan_on_call(monkeypatch, call):
    """Make the ``call``-th (from 0) ``_relative_errors`` result NaN in its first entry."""
    import metd.training

    original = metd.training._relative_errors
    calls = []

    def patched(analytic, numeric):
        errors = original(analytic, numeric)
        if len(calls) == call:
            errors.reshape(-1)[0] = np.nan
        calls.append(call)
        return errors

    monkeypatch.setattr(metd.training, "_relative_errors", patched)


def test_fd_sweep_keeps_a_nan_error(monkeypatch):
    # Stage 1 checks bank.tokens once per instance, then stage 2 checks
    # adapter.bias and adapter.weight per instance: call 4 is the second
    # instance's adapter.bias, after a finite error for the first.
    _nan_on_call(monkeypatch, 4)
    rows = fd_sweep(seed=0, instances=2, h=1e-5)
    worst = {(stage, name): err for stage, name, _, err in rows}
    assert np.isnan(worst[(2, "adapter.bias")])
    assert worst[(1, "bank.tokens")] < 1e-4 and worst[(2, "adapter.weight")] < 1e-4


def test_random_fd_instance_is_deterministic():
    a_model, a_sample, a_counts = random_fd_instance(seed=9, stage=1)
    b_model, b_sample, b_counts = random_fd_instance(seed=9, stage=1)
    assert np.array_equal(a_model.bank.tokens, b_model.bank.tokens)
    assert np.array_equal(a_sample.frames, b_sample.frames)
    assert np.array_equal(a_counts, b_counts)
    assert a_sample.label == b_sample.label
