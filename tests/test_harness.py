"""Benchmark construction and the five-strategy comparison harness."""

from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from metd.data import EmbeddingDataset, Sample, SynthConfig, generate_synthetic
from metd.errors import ConfigError, ContractViolation, ZeroNormError
from metd.harness import (
    STRATEGY_KINDS,
    STREAM_HARNESS,
    _train_head,
    _train_learnable_context,
    Strategy,
    build_strategy_model,
    compare_all,
    default_benchmark,
    distorted_benchmark,
    distortion_matrix,
    format_comparison,
    run_strategy,
)
from metd.inference import evaluate, temporal_mean_pool
from metd.losses import TEXT, _cosine_gradient
from metd.model import (
    adapter_gradients,
    adapter_map,
    build_adapter,
    build_text_encoder,
    encode_text,
    encode_text_token_gradient,
)
from metd.numerics import cosine_similarity, stable_softmax
from metd.training import ADAPTIVE, fit

from conftest import SYNTHETIC

SMALL = SynthConfig(
    n_classes=3,
    subclusters_per_class=1,
    samples_per_subcluster=50,
    feature_dim=16,
    sigma=0.1,
    inter_class_min_angle=60.0,
    seed=11,
)

COMPACT = replace(
    SYNTHETIC,
    stage1_epochs=3,
    stage1_batch_size=16,
    stage2_epochs=3,
    stage2_batch_size=16,
    probe_epochs=5,
)


@pytest.fixture(scope="module")
def small_splits():
    return generate_synthetic(SMALL)


def test_default_benchmark_structure(clean_benchmark):
    train, test = clean_benchmark
    assert train.feature_dim == 16 and test.feature_dim == 16
    np.testing.assert_array_equal(train.unit_class_counts(), [200, 200, 200])
    np.testing.assert_array_equal(test.unit_class_counts(), [50, 50, 50])
    for label in range(3):
        subs = {s.subcluster_id for s in train.samples if s.label == label}
        assert subs == {0, 1}
        # the two subcluster means of each class point well apart
        rows = [
            np.vstack([s.features for s in train.samples
                       if s.label == label and s.subcluster_id == sub]).mean(axis=0)
            for sub in (0, 1)
        ]
        cos = rows[0] @ rows[1] / (np.linalg.norm(rows[0]) * np.linalg.norm(rows[1]))
        assert np.degrees(np.arccos(cos)) >= 120.0
        # 4:1 majority/minority imbalance survives the 80/20 split
        counts = [
            sum(1 for s in train.samples
                if s.label == label and s.subcluster_id == sub)
            for sub in (0, 1)
        ]
        assert counts == [160, 40]


def test_default_benchmark_is_deterministic():
    a_train, _ = default_benchmark(seed=3)
    b_train, _ = default_benchmark(seed=3)
    c_train, _ = default_benchmark(seed=4)
    for a, b in zip(a_train.samples, b_train.samples):
        assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a_train.samples[0].features, c_train.samples[0].features)


def test_distortion_matrix_properties():
    matrix = distortion_matrix(16, seed=5, min_scale=0.4, max_scale=2.5)
    assert matrix.shape == (16, 16)
    np.testing.assert_allclose(np.linalg.cond(matrix), 2.5 / 0.4, rtol=1e-9)
    assert np.array_equal(matrix, distortion_matrix(16, seed=5, min_scale=0.4,
                                                    max_scale=2.5))
    with pytest.raises(ContractViolation):
        distortion_matrix(0)
    with pytest.raises(ContractViolation):
        distortion_matrix(4, min_scale=0.0)
    with pytest.raises(ContractViolation):
        distortion_matrix(4, min_scale=2.0, max_scale=1.0)


def test_distorted_benchmark_applies_the_fixed_map(clean_benchmark):
    clean_train, clean_test = clean_benchmark
    dist_train, dist_test = distorted_benchmark(seed=7)
    matrix = distortion_matrix(16)
    for clean, distorted in ((clean_train, dist_train), (clean_test, dist_test)):
        assert len(clean) == len(distorted)
        for a, b in zip(clean.samples, distorted.samples):
            assert np.array_equal(b.features, matrix @ np.asarray(a.features))
            assert (a.label, a.subcluster_id) == (b.label, b.subcluster_id)


def test_strategy_validation():
    with pytest.raises(ContractViolation):
        Strategy(kind="prompt-tuning")
    assert Strategy(kind="metd").kind == "metd"


def test_identical_descriptors_score_at_chance(clean_benchmark):
    # With every class holding the same descriptor, all logits tie and
    # accuracy collapses to chance level on the balanced test split.
    train, test = clean_benchmark
    model = build_strategy_model(train, replace(SYNTHETIC, n_subclasses=1))
    for i in range(1, model.n_classes):
        model.bank.tokens[i] = model.bank.tokens[0]
        model.bank.context[i] = model.bank.context[0]
    war = evaluate(test, model).war
    assert abs(war - 1.0 / 3.0) <= 0.1


def test_zero_shot_strategy_reports_the_untrained_model(small_splits):
    config = replace(COMPACT, seed=3)
    row = run_strategy(Strategy(kind="zero-shot-fixed"), small_splits, config)
    assert row.kind == "zero-shot-fixed"
    assert row.echo == {"seed": "3", "K": "1", "M": "4"}
    train, test = small_splits
    fresh = build_strategy_model(train, replace(config, n_subclasses=1))
    report = evaluate(test, fresh)
    assert row.war == report.war and row.uar == report.uar


def test_linear_probe_solves_a_separable_benchmark(small_splits):
    train, test = small_splits
    units = train.units()
    feats = np.vstack([temporal_mean_pool(u.frames) for u in units])
    labels = np.array([u.label for u in units])
    centroids = np.vstack([feats[labels == i].mean(axis=0) for i in range(3)])
    test_units = test.units()
    test_feats = np.vstack([temporal_mean_pool(u.frames) for u in test_units])
    test_labels = np.array([u.label for u in test_units])
    sims = (test_feats / np.linalg.norm(test_feats, axis=1, keepdims=True)) @ (
        centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    ).T
    oracle = float((np.argmax(sims, axis=1) == test_labels).mean())
    assert oracle >= 0.95  # the split is linearly separable to begin with
    row = run_strategy(Strategy(kind="linear-probe"), small_splits, replace(SYNTHETIC, seed=11))
    assert row.war >= 0.95


def test_single_and_duplicate_strategies(small_splits):
    config = replace(COMPACT, seed=2, strategies=("linear-probe",))
    solo = compare_all(small_splits, config)
    assert len(solo) == 1
    # A strategy listed twice is a config error; a second comparison on the
    # same splits gives the same row.
    with pytest.raises(ConfigError) as info:
        replace(config, strategies=("linear-probe", "linear-probe"))
    assert info.value.key == "strategies"
    again = compare_all(small_splits, config)
    assert again[0].war == solo[0].war
    assert again[0].uar == solo[0].uar
    assert again[0].echo == solo[0].echo


def test_all_five_strategies_produce_a_row_each(small_splits):
    rows = compare_all(small_splits, replace(COMPACT, seed=4, strategies=STRATEGY_KINDS))
    assert [row.kind for row in rows] == list(STRATEGY_KINDS)
    for row in rows:
        assert 0.0 <= row.war <= 1.0
        assert 0.0 <= row.uar <= 1.0
        assert row.wall_time >= 0.0
        assert row.echo["seed"] == "4"


def test_run_strategy_is_deterministic(small_splits):
    config = replace(COMPACT, seed=6)
    for kind in ("linear-probe", "learnable-context", "metd"):
        a = run_strategy(Strategy(kind=kind), small_splits, config)
        b = run_strategy(Strategy(kind=kind), small_splits, config)
        assert a.war == b.war and a.uar == b.uar and a.echo == b.echo


def test_learnable_context_follows_the_stage1_schedule(small_splits):
    # The context baseline trains with the stage-1 optimizer settings,
    # learning-rate schedule included.
    train, _ = small_splits
    contexts = []
    for schedule in ("constant", "cosine"):
        config = replace(COMPACT, seed=5, stage1_schedule=schedule)
        contexts.append(_train_learnable_context(train, config).bank.context)
    assert not np.array_equal(contexts[0], contexts[1])


def test_learnable_context_rejects_an_embed_dim_other_than_the_feature_dim(small_splits):
    # It scores the pooled raw features, so a projected-mean encoder with a
    # smaller embedding fails up front, naming both dimensions.
    config = replace(
        COMPACT, seed=3, encoder_kind="projected-mean", embed_dim=12, residual_adapter=False
    )
    with pytest.raises(
        ContractViolation, match="embed_dim == feature_dim, got embed_dim 12 and feature_dim 16"
    ):
        run_strategy(Strategy(kind="learnable-context"), small_splits, config)
    # Called directly, the trainer refuses the widths itself.
    with pytest.raises(ContractViolation, match="^dimension mismatch: 16 vs 12"):
        _train_learnable_context(small_splits[0], config)


def test_compare_checks_every_strategy_before_training_any(tmp_path, monkeypatch, capsys):
    # learnable-context cannot run on this config; metd compare says so,
    # naming the strategy, both dimensions and the key, before it trains
    # any of the strategies listed ahead of it.
    import metd.harness
    from metd.cli import main
    from metd.data import save_dataset

    calls = []
    monkeypatch.setattr(metd.harness, "run_strategy", lambda *args, **kw: calls.append(args))
    train, test = generate_synthetic(SMALL)
    save_dataset(train, str(tmp_path / "train.tsv"))
    save_dataset(test, str(tmp_path / "test.tsv"))
    config = tmp_path / "run.cfg"
    config.write_text("encoder_kind = projected-mean\nembed_dim = 12\nresidual_adapter = false\n")
    assert main(["compare", "--config", str(config), str(tmp_path)]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "learnable-context" in captured.err
    assert "embed_dim 12 and feature_dim 16" in captured.err
    assert "strategies" in captured.err


@pytest.mark.parametrize("empty", ["train", "test"])
def test_compare_rejects_an_empty_split_before_training_any(small_splits, monkeypatch, empty):
    # An empty test split stops every strategy, and an empty train split
    # every strategy that trains (here linear-probe, listed after
    # zero-shot-fixed), with the message training or evaluate gives, before
    # any strategy runs.
    import metd.harness

    calls = []
    monkeypatch.setattr(metd.harness, "run_strategy", lambda *args, **kw: calls.append(args))
    train, test = small_splits
    nothing = EmbeddingDataset([], train.feature_dim, train.n_classes)
    splits = (nothing, test) if empty == "train" else (train, nothing)
    message = {"train": "cannot train on an empty dataset",
               "test": "cannot evaluate an empty dataset"}[empty]
    config = replace(COMPACT, strategies=("zero-shot-fixed", "linear-probe", "metd"))
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        compare_all(splits, config)
    assert calls == []
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        run_strategy(Strategy(kind="metd"), splits, config)
    if empty == "train":
        # zero-shot-fixed trains nothing, so it still runs on an empty train split.
        row = run_strategy(Strategy(kind="zero-shot-fixed"), splits, config)
        assert row.kind == "zero-shot-fixed"


def test_split_mismatch_is_rejected(small_splits):
    train, _ = small_splits
    other = EmbeddingDataset([Sample(np.ones(4), 0)], feature_dim=4, n_classes=3)
    with pytest.raises(ContractViolation):
        run_strategy(Strategy(kind="linear-probe"), (train, other), COMPACT)
    # An empty strategy list is refused when the config is built.
    with pytest.raises(ConfigError, match="^strategies: "):
        replace(COMPACT, strategies=())


def test_format_comparison_layout(small_splits):
    config = replace(COMPACT, seed=1, strategies=("zero-shot-fixed", "linear-probe"))
    text = format_comparison(compare_all(small_splits, config))
    lines = text.splitlines()
    assert lines[0].startswith("strategy")
    assert "war" in lines[0] and "uar" in lines[0]
    assert lines[1].startswith("zero-shot-fixed")
    assert lines[2].startswith("linear-probe")
    assert lines[3] == ""
    assert lines[4].startswith("strategy=zero-shot-fixed war=")
    assert "wall_time=" in lines[4]
    assert "seed=1" in lines[4]
    assert len(lines) == 6


def test_descriptor_method_stays_near_the_probe(benchmark_runs, clean_probe_row):
    assert benchmark_runs.report_k2.war >= clean_probe_row.war - 0.02
    assert benchmark_runs.report_k2.subclass_purity >= 0.9


def test_two_descriptors_beat_one_on_the_default_benchmark(benchmark_runs):
    assert benchmark_runs.report_k2.war > benchmark_runs.report_k1.war


def test_one_comparison_pools_each_split_once(monkeypatch):
    # The baselines read each split's pooled array, which the dataset builds
    # on first use: once per split in one comparison, where pooling per
    # baseline built it three times.  Fresh splits, so no earlier test has
    # pooled them; the array has each unit's own temporal_mean_pool bits.
    train, test = generate_synthetic(SMALL)
    built = []
    build = EmbeddingDataset.pooled.func

    def counted(dataset):
        built.append(dataset)
        return build(dataset)

    pooled = cached_property(counted)
    pooled.__set_name__(EmbeddingDataset, "pooled")
    monkeypatch.setattr(EmbeddingDataset, "pooled", pooled)
    baselines = tuple(kind for kind in STRATEGY_KINDS if kind != "metd")
    rows = compare_all((train, test), replace(COMPACT, seed=4, strategies=baselines))
    assert [row.kind for row in rows] == list(baselines)
    assert sorted(map(id, built)) == sorted([id(train), id(test)])
    assert train.pooled is train.pooled and test.pooled is test.pooled
    for split in (train, test):
        each = np.stack([temporal_mean_pool(unit.frames) for unit in split.units()])
        assert np.array_equal(split.pooled.view(np.uint64), each.view(np.uint64))


# The baseline trainers as one batch at a time rebuilt their fixed inputs:
# cosine_similarity on each batch's rows, a target index per batch, a
# gradient dict per batch.  Kept here as the reference the trainers keep
# the bits of.
def _reference_head(train, config, train_adapter):
    pooled, labels = train.pooled, train.unit_labels
    adapter = build_adapter(train.feature_dim, train.feature_dim, residual=True)
    head_weight = np.zeros((train.n_classes, train.feature_dim))
    head_bias = np.zeros(train.n_classes)
    params = {"head.weight": head_weight, "head.bias": head_bias}
    if train_adapter:
        params["adapter.weight"] = adapter.weight
        params["adapter.bias"] = adapter.bias

    def batch_gradients(batch):
        x = pooled[batch]
        v = adapter_map(adapter.weight, adapter.bias, x, adapter.residual) if train_adapter else x
        dz = stable_softmax(adapter_map(head_weight, head_bias, v, False))
        dz[np.arange(len(batch)), labels[batch]] -= 1.0
        grads = {"head.weight": dz[:, :, None] * v[:, None, :], "head.bias": dz}
        if train_adapter:
            dv = np.matmul(head_weight.T, dz[..., None])[..., 0]
            grads["adapter.weight"], grads["adapter.bias"] = adapter_gradients(adapter, x, dv)
        return {name: g.sum(axis=0) / len(batch) for name, g in grads.items()}

    for _ in fit(
        params, batch_gradients, len(labels), (STREAM_HARNESS, 1, config.seed),
        epochs=config.probe_epochs, batch_size=config.stage1_batch_size, lr=config.probe_lr,
        weight_decay=0.0, optimizer=ADAPTIVE, schedule="constant",
    ):
        pass
    return adapter, head_weight, head_bias


def _reference_context(train, config):
    rng = np.random.default_rng([STREAM_HARNESS, 2, config.seed])
    context = rng.normal(0.0, 0.02, size=(config.n_tokens, config.token_dim))
    names = rng.normal(0.0, 0.02, size=(train.n_classes, config.token_dim))
    encoder = build_text_encoder(
        config.encoder_kind, config.token_dim, config.embed_dim, config.seed
    )
    pooled, labels, tau = train.pooled, train.unit_labels, config.temperature

    def batch_gradients(batch):
        embeddings = encode_text(encoder, context, names[:, None, :])
        v = pooled[batch]
        sims, *norms = cosine_similarity(v, embeddings, with_norms=True)
        coeff = stable_softmax(sims / tau)
        coeff[np.arange(len(batch)), labels[batch]] -= 1.0
        coeff /= tau
        grad_t = _cosine_gradient(v, embeddings, sims, *norms, TEXT)
        terms = coeff[..., None, None] * grad_t[..., None, :]
        pulled = encode_text_token_gradient(encoder, terms, config.n_tokens + 1)
        total = np.cumsum(pulled.reshape(-1, context.shape[1]), axis=0)[-1]
        return {"context": np.broadcast_to(total, context.shape) / len(batch)}

    params = {"context": context}
    stream = (STREAM_HARNESS, 2, config.seed)
    for _ in fit(params, batch_gradients, len(labels), stream, **config.stage_settings(1)):
        pass
    return context


@pytest.mark.parametrize("encoder", ["identity-mean", "projected-mean"])
def test_each_baseline_trainer_has_the_bits_of_its_per_batch_reference(small_splits, encoder):
    # 120 units in batches of 7 end each epoch on a batch of one.
    train, _ = small_splits
    assert len(train.units()) % 7 == 1
    # The probe's epochs and rate differ from stage 1's, so a trainer that
    # read the wrong pair would not match its reference.
    config = replace(COMPACT, seed=9, stage1_batch_size=7, probe_epochs=3, stage1_epochs=2,
                     probe_lr=0.05, stage1_lr=0.03, encoder_kind=encoder,
                     token_dim=12 if encoder == "projected-mean" else 16)
    for train_adapter in (False, True):
        adapter, weight, bias = _train_head(train, config, train_adapter)
        ref_adapter, ref_weight, ref_bias = _reference_head(train, config, train_adapter)
        for got, want in ((weight, ref_weight), (bias, ref_bias),
                          (adapter.weight, ref_adapter.weight), (adapter.bias, ref_adapter.bias)):
            assert np.array_equal(got, want)
        assert np.any(adapter.weight != 0.0) == train_adapter
    context = _train_learnable_context(train, config).bank.context
    assert np.array_equal(context, _reference_context(train, config))


def test_a_zero_unit_stops_learnable_context_before_its_first_step(clean_benchmark, monkeypatch):
    # Unit 217's pooled row is zero: its norm is taken once, at set-up, so the
    # error names the unit, not its place in whichever batch holds it.  A
    # comparison that lists learnable-context refuses the split before it
    # fits any strategy, the ones listed ahead of it included.
    import metd.harness

    train, test = clean_benchmark
    features = train._features.copy()
    features[217] = 0.0
    zeroed = EmbeddingDataset._from_columns(features, train._columns, train.n_classes)
    steps = []
    monkeypatch.setattr(metd.harness, "fit", lambda *args, **kw: steps.append(args) or iter(()))
    with pytest.raises(ZeroNormError, match=r"^pooled units row 217 has zero norm$"):
        run_strategy(Strategy(kind="learnable-context"), (zeroed, test), SYNTHETIC)
    config = replace(SYNTHETIC, strategies=STRATEGY_KINDS)
    assert config.strategies.index("learnable-context") > config.strategies.index("linear-probe")
    with pytest.raises(ZeroNormError, match=r"^pooled units row 217 has zero norm$"):
        compare_all((zeroed, test), config)
    # metd's stage 1 scores each unit through the untrained adapter, and
    # the comparison checks that before the heads listed ahead of it fit.
    heads_then_metd = replace(SYNTHETIC, strategies=("linear-probe", "full-finetune", "metd"))
    with pytest.raises(ZeroNormError, match=r"^unit embeddings row 217 has zero norm$"):
        compare_all((zeroed, test), heads_then_metd)
    # Under oversample = true, metd oversamples first, so a class with no
    # train units is refused before any fit, and before a zero unit.
    kept = train._columns[0] != 2
    columns = tuple(column[kept] for column in train._columns)
    for rows in (train._features, features):  # unit 217 is in class 1
        no_class_2 = EmbeddingDataset._from_columns(rows[kept], columns, train.n_classes)
        with pytest.raises(ContractViolation, match=r"^class 2 has no units to oversample$"):
            compare_all((no_class_2, test), replace(heads_then_metd, oversample=True))
    assert steps == []
