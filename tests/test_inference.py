"""Prediction, pooling, evaluation reports, and subclass purity."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metd.data import EmbeddingDataset, Sample, SynthConfig, Unit, generate_synthetic
from metd.errors import ContractViolation
from metd.inference import (
    _max_matching,
    evaluate,
    format_eval_report,
    predict,
    report_from_labels,
    subclass_report,
    temporal_mean_pool,
    unit_embedding,
)
from metd.model import bank_embeddings, build_model, encode_image


def _random_stack(rng, n, k, dim):
    return rng.normal(size=(n, k, dim))


def _small_model(seed=0, n_classes=2, n_subclasses=2, feature_dim=8):
    model = build_model(
        n_classes=n_classes,
        n_subclasses=n_subclasses,
        n_tokens=2,
        token_dim=feature_dim,
        embed_dim=feature_dim,
        feature_dim=feature_dim,
        context_length=2,
        temperature=0.055,
        seed=seed,
    )
    # Give the adapter nonzero weights so encoding is not the identity.
    rng = np.random.default_rng([99, seed])
    model.adapter.weight[...] = 0.1 * rng.normal(size=model.adapter.weight.shape)
    model.adapter.bias[...] = 0.1 * rng.normal(size=model.adapter.bias.shape)
    return model


def test_predict_logits_are_mean_cosines():
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        dim = int(rng.integers(2, 10))
        v = rng.normal(size=dim)
        stack = _random_stack(rng, n, k, dim)
        pred = predict(v, stack)
        norms = np.linalg.norm(stack, axis=2)
        sims = (stack @ v) / (norms * np.linalg.norm(v))
        np.testing.assert_allclose(pred.logits, sims.mean(axis=1), rtol=0, atol=1e-12)
        assert pred.label == int(np.argmax(pred.logits))
        np.testing.assert_array_equal(pred.subclass_argmax, np.argmax(sims, axis=1))


def _assert_one_prototype_per_class(embeddings, stack):
    """predict's logits are x^ . p_i, p_i the mean of class i's unit descriptors.

    Every logit lies in [-1, 1], so a few ulps of 1 bound the rounding.
    Labels must agree wherever predict's top two logits are more than
    1e-12 apart.
    """
    prediction = predict(embeddings, stack)
    unit = embeddings / np.linalg.norm(embeddings, axis=-1, keepdims=True)
    prototypes = (stack / np.linalg.norm(stack, axis=-1, keepdims=True)).mean(axis=1)
    logits = unit @ prototypes.T
    np.testing.assert_allclose(prediction.logits, logits, rtol=0, atol=4 * np.finfo(float).eps)
    top_two = np.sort(prediction.logits, axis=-1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > 1e-12
    assert np.array_equal(logits.argmax(axis=-1)[clear], prediction.label[clear])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 9),  # B
    st.integers(2, 6),  # N
    st.integers(1, 5),  # K
    st.integers(2, 17),  # D
)
def test_mean_cosine_scoring_is_one_prototype_per_class(seed, b, n, k, dim):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(b, dim)) * 10.0 ** rng.uniform(-3, 3)
    stack = _random_stack(rng, n, k, dim) * 10.0 ** rng.uniform(-3, 3, size=(n, k, 1))
    _assert_one_prototype_per_class(embeddings, stack)


def test_a_trained_bank_scores_as_one_prototype_per_class(clean_benchmark, benchmark_runs):
    _, test = clean_benchmark
    pooled = np.stack([temporal_mean_pool(unit.frames) for unit in test.units()])
    for model in (benchmark_runs.model_k2, benchmark_runs.model_k1):
        stack = bank_embeddings(model.bank, model.encoder)
        _assert_one_prototype_per_class(encode_image(model.adapter, pooled), stack)


def test_predict_tie_breaks_to_lowest_index():
    v = np.array([1.0, 0.0])
    stack = np.array([[[2.0, 0.0]], [[3.0, 0.0]], [[0.5, 0.0]]])
    pred = predict(v, stack)  # all three cosines are exactly 1
    assert pred.label == 0


def test_predict_invariant_under_subclass_permutation():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n, k, dim = 3, 4, 6
        v = rng.normal(size=dim)
        stack = _random_stack(rng, n, k, dim)
        base = predict(v, stack)
        shuffled = stack.copy()
        for i in range(n):
            shuffled[i] = shuffled[i][rng.permutation(k)]
        moved = predict(v, shuffled)
        np.testing.assert_allclose(moved.logits, base.logits, rtol=0, atol=1e-12)
        assert moved.label == base.label


def test_predict_invariant_under_positive_rescaling():
    rng = np.random.default_rng(42)
    for scale in (1e-3, 3.7, 1e3):
        for _ in range(30):
            v = rng.normal(size=5)
            stack = _random_stack(rng, 3, 2, 5)
            base = predict(v, stack)
            scaled = predict(scale * v, stack)
            np.testing.assert_allclose(scaled.logits, base.logits, rtol=0, atol=1e-12)
            assert scaled.label == base.label
            per_descriptor = stack * rng.uniform(0.1, 10.0, size=(3, 2, 1))
            again = predict(v, per_descriptor)
            np.testing.assert_allclose(again.logits, base.logits, rtol=0, atol=1e-12)
            assert again.label == base.label


def test_predict_validation():
    with pytest.raises(ContractViolation):
        predict(np.ones(3), np.ones((2, 3)))
    with pytest.raises(ContractViolation):
        predict(np.ones(3), np.ones((2, 2, 4)))
    with pytest.raises(ContractViolation):
        predict(np.zeros(3), np.ones((2, 2, 3)))


def test_temporal_mean_pool_examples():
    np.testing.assert_array_equal(
        temporal_mean_pool([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5]
    )
    single = np.array([[3.0, -2.0, 0.5]])
    np.testing.assert_array_equal(temporal_mean_pool(single), single[0])
    rng = np.random.default_rng(43)
    frames = rng.normal(size=(16, 7))
    np.testing.assert_allclose(
        temporal_mean_pool(frames), frames.sum(axis=0) / 16, rtol=0, atol=1e-15
    )
    with pytest.raises(ContractViolation):
        temporal_mean_pool(np.empty((0, 4)))
    with pytest.raises(ContractViolation):
        temporal_mean_pool(np.ones(4))
    with pytest.raises(ContractViolation):
        temporal_mean_pool([[np.nan, 1.0]])


def test_sequence_prediction_equals_pooled_frame_embeddings():
    # unit_embedding is defined as pool-then-encode, so predicting a
    # sequence and predicting its encoded pooled frames agree bit for bit.
    # Encoding each frame and then pooling is the same affine map rounded
    # differently, so it agrees within a few ulps of the logits.
    model = _small_model(seed=1)
    stack = bank_embeddings(model.bank, model.encoder)
    rng = np.random.default_rng(44)
    for _ in range(100):
        n_frames = int(rng.integers(1, 6))
        unit = Unit(frames=rng.normal(size=(n_frames, 8)), label=0)
        direct = predict(unit_embedding(model, unit), stack)
        via_pool = predict(encode_image(model.adapter, temporal_mean_pool(unit.frames)), stack)
        assert np.array_equal(direct.logits, via_pool.logits)
        assert direct.label == via_pool.label
        per_frame = predict(temporal_mean_pool(encode_image(model.adapter, unit.frames)), stack)
        np.testing.assert_allclose(per_frame.logits, direct.logits, rtol=0, atol=1e-12)
        assert per_frame.label == direct.label


def test_identity_adapter_passes_frames_through():
    model = build_model(
        n_classes=2, n_subclasses=1, n_tokens=2, token_dim=8, embed_dim=8,
        feature_dim=8, context_length=2, temperature=0.055, seed=0,
    )  # fresh residual adapter is the exact identity
    rng = np.random.default_rng(45)
    unit = Unit(frames=rng.normal(size=(3, 8)), label=0)
    np.testing.assert_array_equal(
        unit_embedding(model, unit), temporal_mean_pool(unit.frames)
    )


def test_report_from_labels_hand_fixture():
    # class 0: 2 of 2 right, class 1: 1 of 2, class 2: 0 of 1
    truths = [0, 0, 1, 1, 2]
    preds = [0, 0, 1, 0, 1]
    report = report_from_labels(truths, preds, n_classes=3)
    assert abs(report.war - 0.6) <= 1e-12
    assert abs(report.uar - 0.5) <= 1e-12
    np.testing.assert_array_equal(
        report.confusion, [[2, 0, 0], [1, 1, 0], [0, 1, 0]]
    )
    np.testing.assert_allclose(
        report.per_class_recall, [1.0, 0.5, 0.0], rtol=0, atol=0
    )
    assert report.n_units == 5
    assert report.subclass_histogram is None


def test_war_equals_uar_on_balanced_data():
    rng = np.random.default_rng(46)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        per_class = int(rng.integers(1, 9))
        truths = np.repeat(np.arange(n), per_class)
        preds = rng.integers(0, n, size=truths.size)
        report = report_from_labels(truths.tolist(), preds.tolist(), n)
        assert abs(report.war - report.uar) <= 1e-12


def test_report_consistency_with_confusion():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        count = int(rng.integers(1, 40))
        truths = rng.integers(0, n, size=count)
        preds = rng.integers(0, n, size=count)
        report = report_from_labels(truths.tolist(), preds.tolist(), n)
        trace = float(report.confusion.diagonal().sum())
        assert abs(report.war - trace / count) <= 1e-12
        present = report.confusion.sum(axis=1) > 0
        recalls = report.per_class_recall
        assert np.all(np.isnan(recalls[~present]))
        assert abs(report.uar - float(np.mean(recalls[present]))) <= 1e-12


def test_absent_classes_do_not_enter_uar():
    report = report_from_labels([0, 0, 1], [0, 1, 1], n_classes=4)
    assert np.isnan(report.per_class_recall[2])
    assert np.isnan(report.per_class_recall[3])
    np.testing.assert_allclose(report.uar, (0.5 + 1.0) / 2, rtol=0, atol=1e-15)


def test_report_from_labels_validation():
    with pytest.raises(ContractViolation):
        report_from_labels([0], [0, 1], 2)
    with pytest.raises(ContractViolation):
        report_from_labels([], [], 2)
    with pytest.raises(ContractViolation):
        report_from_labels([0, 2], [0, 0], 2)
    with pytest.raises(ContractViolation):
        report_from_labels([0, 0], [0, -1], 2)


def test_evaluate_counts_sequences_as_units():
    feats = np.eye(8)[:5]
    samples = [
        Sample(feats[0], 0, sequence_id=0),
        Sample(feats[1], 0, sequence_id=0),
        Sample(feats[2], 1, sequence_id=1),
        Sample(feats[3], 1, sequence_id=2),
        Sample(feats[4], 1, sequence_id=2),
    ]
    dataset = EmbeddingDataset(samples, feature_dim=8, n_classes=2)
    assert len(dataset.units()) == 3
    report = evaluate(dataset, _small_model(seed=2))
    assert report.n_units == 3
    assert report.subclass_histogram is not None
    assert report.subclass_histogram.shape == (2, 2)
    assert report.subclass_histogram.sum() == 3


def test_evaluate_validation():
    model = _small_model(seed=3)
    empty = EmbeddingDataset([], feature_dim=8, n_classes=2)
    with pytest.raises(ContractViolation):
        evaluate(empty, model)
    wrong_dim = EmbeddingDataset([Sample(np.ones(4), 0)], feature_dim=4, n_classes=2)
    with pytest.raises(ContractViolation):
        evaluate(wrong_dim, model)
    wrong_classes = EmbeddingDataset([Sample(np.ones(8), 0)], feature_dim=8, n_classes=3)
    with pytest.raises(ContractViolation):
        evaluate(wrong_classes, model)


def _brute_force_purity(assignments, n_classes, n_subclasses):
    """Max one-to-one matching per class, by exhaustive permutation."""
    matched = 0
    for label in range(n_classes):
        pairs = [(a, g) for (t, a, g) in assignments if t == label]
        if not pairs:
            continue
        n_sub = max(g for _, g in pairs) + 1
        overlap = np.zeros((n_subclasses, n_sub), dtype=np.int64)
        for a, g in pairs:
            overlap[a, g] += 1
        best = 0
        if n_subclasses <= n_sub:
            for cols in itertools.permutations(range(n_sub), n_subclasses):
                best = max(best, sum(overlap[i, c] for i, c in enumerate(cols)))
        else:
            for rows in itertools.permutations(range(n_subclasses), n_sub):
                best = max(best, sum(overlap[r, j] for j, r in enumerate(rows)))
        matched += best
    return matched / len(assignments)


@pytest.mark.parametrize("n_subclasses", [2, 3, 4])
def test_subclass_purity_matches_brute_force(n_subclasses):
    train, _ = generate_synthetic(
        SynthConfig(
            n_classes=2,
            subclusters_per_class=3,
            samples_per_subcluster=8,
            feature_dim=8,
            sigma=0.4,
            intra_class_angle=70.0,
            seed=50 + n_subclasses,
        )
    )
    model = _small_model(seed=n_subclasses, n_subclasses=n_subclasses)
    report = subclass_report(train, evaluate(train, model))
    assert report.subclass_histogram.shape == (2, n_subclasses)
    stack = bank_embeddings(model.bank, model.encoder)
    assignments = []
    for unit in train.units():
        pred = predict(unit_embedding(model, unit), stack)
        assignments.append(
            (unit.label, int(pred.subclass_argmax[unit.label]), unit.subcluster_id)
        )
    expected = _brute_force_purity(assignments, 2, n_subclasses)
    np.testing.assert_allclose(report.subclass_purity, expected, rtol=0, atol=1e-15)


def test_single_subclass_purity_is_one_by_convention():
    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=6,
                    feature_dim=8, sigma=0.2, intra_class_angle=60.0, seed=51)
    )
    model = _small_model(seed=5, n_subclasses=1)
    report = subclass_report(train, evaluate(train, model))
    assert report.subclass_purity == 1.0


def test_purity_absent_without_subcluster_ids():
    samples = [Sample(np.eye(8)[i % 8] + 0.01 * i, i % 2) for i in range(6)]
    dataset = EmbeddingDataset(samples, feature_dim=8, n_classes=2)
    report = subclass_report(dataset, evaluate(dataset, _small_model(seed=6)))
    assert report.subclass_purity is None
    assert report.subclass_histogram.sum() == 6


def test_evaluate_then_subclass_report_embed_each_unit_once(monkeypatch):
    import metd.inference

    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=6,
                    feature_dim=8, sigma=0.2, intra_class_angle=60.0, seed=53)
    )
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return unit_embedding(*args, **kwargs)

    monkeypatch.setattr(metd.inference, "unit_embedding", counted)
    model = _small_model(seed=8)
    subclass_report(train, evaluate(train, model))
    assert len(calls) == len(train.units())


def test_subclass_report_needs_the_datasets_evaluate_report():
    train, test = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=6,
                    feature_dim=8, sigma=0.2, intra_class_angle=60.0, seed=54)
    )
    with pytest.raises(ContractViolation):
        subclass_report(train, report_from_labels([0, 1], [0, 1], n_classes=2))
    assert len(test.units()) != len(train.units())
    with pytest.raises(ContractViolation):
        subclass_report(train, evaluate(test, _small_model(seed=9)))


matching_settings = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def _tables(draw):
    """Integer tables up to 6 x 6, square, wide or tall, with ties and zero lines."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    top = draw(st.sampled_from([1, 3, 10**6]))  # small tops force ties
    table = draw(arrays(np.int64, shape, elements=st.integers(0, top)))
    table[draw(st.lists(st.integers(0, shape[0] - 1), max_size=2)), :] = 0
    table[:, draw(st.lists(st.integers(0, shape[1] - 1), max_size=2))] = 0
    return table


def _brute_force_matching(table):
    """Largest one-to-one matching total over every injection of the shorter side."""
    rows, cols = table.shape
    if rows <= cols:
        pairings = (zip(range(rows), p) for p in itertools.permutations(range(cols), rows))
    else:
        pairings = (zip(p, range(cols)) for p in itertools.permutations(range(rows), cols))
    return max(sum(int(table[i, j]) for i, j in pairing) for pairing in pairings)


@matching_settings
@given(_tables())
def test_max_matching_equals_the_brute_force_maximum(table):
    before = table.copy()
    assert _max_matching(table) == _brute_force_matching(table)
    assert np.array_equal(table, before)


def _dataset_and_report(triples, n_classes, k):
    """One-row units and an ``evaluate``-style report from (label, assigned, subcluster) triples."""
    dataset = EmbeddingDataset(
        [Sample(np.ones(2), label, subcluster_id=sub) for label, _, sub in triples],
        feature_dim=2,
        n_classes=n_classes,
    )
    labels = [label for label, _, _ in triples]
    assigned = np.array([a for _, a, _ in triples], dtype=np.int64)
    histogram = np.zeros((n_classes, k), dtype=np.int64)
    np.add.at(histogram, (labels, assigned), 1)
    report = replace(
        report_from_labels(labels, labels, n_classes),
        subclass_histogram=histogram,
        assignments=assigned,
    )
    return dataset, report


@matching_settings
@given(
    st.integers(1, 3),  # classes
    st.integers(2, 5),  # K
    st.integers(1, 5),  # true subclusters per class
    st.data(),
)
def test_purity_with_any_number_of_subclusters_equals_the_brute_force(
    n_classes, k, n_ids, data
):
    # K descriptors per class against up to n_ids true subclusters, equal
    # or not, so the overlap tables are square, wide or tall.
    units = st.tuples(st.integers(0, n_classes - 1), st.integers(0, k - 1),
                      st.integers(0, n_ids - 1))
    triples = data.draw(st.lists(units, min_size=1, max_size=24))
    purity = subclass_report(*_dataset_and_report(triples, n_classes, k)).subclass_purity
    assert purity == _brute_force_purity(triples, n_classes, k)


@matching_settings
@given(
    st.integers(1, 3),  # classes
    st.integers(1, 4),  # K
    st.sampled_from(("all", "some", "none")),  # which units carry a subcluster id
    st.data(),
)
def test_purity_over_the_unit_columns_equals_the_per_unit_loop(n_classes, k, ids, data):
    # Units of 1-3 rows, each with an id, some with "-" or none with one:
    # purity from the dataset's columns is that of a loop over units().
    unit = st.tuples(st.integers(0, n_classes - 1), st.integers(0, 3), st.integers(1, 3),
                     st.booleans())
    specs = data.draw(st.lists(unit, min_size=1, max_size=20))
    rows = []
    for seq, (label, sub, length, known) in enumerate(specs):
        sub = sub if ids == "all" or (ids == "some" and known) else None
        rows += [Sample(np.ones(2), label, seq if length > 1 else None, sub)] * length
    dataset = EmbeddingDataset(rows, feature_dim=2, n_classes=n_classes)
    units = dataset.units()
    assigned = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=len(units),
                                           max_size=len(units))), dtype=np.int64)
    labels = [u.label for u in units]
    report = replace(
        report_from_labels(labels, labels, n_classes),
        subclass_histogram=np.zeros((n_classes, k), dtype=np.int64),
        assignments=assigned,
    )
    triples = [(u.label, int(a), u.subcluster_id)
               for u, a in zip(units, assigned) if u.subcluster_id is not None]
    expected = _brute_force_purity(triples, n_classes, k) if triples and k > 1 else None
    expected = 1.0 if triples and k == 1 else expected
    assert subclass_report(dataset, report).subclass_purity == expected


def test_purity_matches_one_column_per_distinct_subcluster_id(monkeypatch):
    import metd.inference

    shapes = []

    def recorded(table):
        shapes.append(table.shape)
        return _max_matching(table)

    monkeypatch.setattr(metd.inference, "_max_matching", recorded)
    labels = [0, 0, 0, 0, 0, 1, 1, 1]
    assigned = [0, 1, 1, 0, 0, 1, 0, 1]
    purities = []
    for big in (1, 10**6):
        ids = [0, big, big, 0, big, big, 0, 0]
        triples = list(zip(labels, assigned, ids))
        purities.append(subclass_report(*_dataset_and_report(triples, 2, 2)).subclass_purity)
    assert shapes == [(2, 2)] * 4
    assert purities[0] == purities[1] == 6 / 8


def test_format_eval_report_fields():
    report = report_from_labels([0, 0, 1, 1, 2], [0, 0, 1, 0, 1], n_classes=3)
    text = format_eval_report(report)
    lines = text.splitlines()
    assert lines[0] == "confusion (rows true, cols predicted):"
    assert lines[1] == "2\t0\t0"
    assert "war=0.600000" in lines
    assert "uar=0.500000" in lines
    assert "per_class_recall=1.000000,0.500000,0.000000" in lines
    assert "units=5" in lines
    assert not any(line.startswith("subclass_") for line in lines)

    absent = report_from_labels([0, 1], [0, 1], n_classes=3)
    assert "per_class_recall=1.000000,1.000000,-" in format_eval_report(absent)

    train, _ = generate_synthetic(
        SynthConfig(n_classes=2, subclusters_per_class=2, samples_per_subcluster=6,
                    feature_dim=8, sigma=0.2, intra_class_angle=60.0, seed=52)
    )
    model = _small_model(seed=7)
    full = format_eval_report(subclass_report(train, evaluate(train, model)))
    assert "subclass_histogram=" in full
    assert "subclass_purity=" in full


def test_a_loaded_dataset_and_the_same_rows_built_in_code_report_alike(tmp_path):
    # Loading keeps the parsed array and cuts units as views of it; the rows
    # built in code stack their own frames.  Both give the same reports.
    from metd.data import load_dataset, save_dataset

    rng = np.random.default_rng(31)
    rows = [Sample(rng.normal(size=8), seq % 2, seq if seq % 3 else None, seq % 2 + seq % 4 // 2)
            for seq in range(40) for _ in range(1 + (seq % 3 != 0) * (seq % 4))]
    built = EmbeddingDataset(rows, feature_dim=8, n_classes=2)
    path = tmp_path / "clips.tsv"
    save_dataset(built, str(path))
    loaded = load_dataset(str(path))
    assert len(built.units()) == len(loaded.units()) == 40
    model = _small_model(seed=3)
    reports = [subclass_report(d, evaluate(d, model)) for d in (built, loaded)]
    assert format_eval_report(reports[0]) == format_eval_report(reports[1])
    for field in ("per_class_recall", "confusion", "subclass_histogram", "assignments"):
        np.testing.assert_array_equal(getattr(reports[0], field), getattr(reports[1], field))
    assert reports[0].subclass_purity == reports[1].subclass_purity is not None
