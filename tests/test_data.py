"""Synthetic geometry, dataset IO, oversampling, and vocabulary decoding."""

import numpy as np
import pytest

from metd.data import (
    EmbeddingDataset,
    Sample,
    SynthConfig,
    Vocabulary,
    apply_linear_map,
    generate_synthetic,
    load_dataset,
    load_vocabulary,
    nearest_words,
    oversample_balance,
    save_dataset,
    save_vocabulary,
)
from metd.errors import ContractViolation, InfeasibleConfigError, ParseError


def _means_by_subcluster(dataset):
    """With sigma=0 every sample is its subcluster mean; collect one each."""
    means = {}
    for s in dataset.samples:
        means.setdefault((s.label, s.subcluster_id), np.asarray(s.features))
    return means


def test_synthetic_means_satisfy_the_angle_contract():
    config = SynthConfig(
        n_classes=3,
        subclusters_per_class=2,
        samples_per_subcluster=5,
        feature_dim=10,
        sigma=0.0,
        inter_class_min_angle=50.0,
        intra_class_angle=70.0,
        seed=13,
    )
    train, test = generate_synthetic(config)
    means = _means_by_subcluster(train)
    assert set(means) == {(i, k) for i in range(3) for k in range(2)}
    for vec in means.values():
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0, rtol=0, atol=1e-12)
    cos_intra = np.cos(np.radians(70.0))
    cos_inter = np.cos(np.radians(50.0))
    for (li, ki), a in means.items():
        for (lj, kj), b in means.items():
            if (li, ki) >= (lj, kj):
                continue
            cos = float(a @ b)
            if li == lj:
                np.testing.assert_allclose(cos, cos_intra, rtol=0, atol=1e-9)
            else:
                assert cos <= cos_inter + 1e-9


def test_split_sizes_and_subcluster_coverage():
    config = SynthConfig(
        n_classes=2,
        subclusters_per_class=2,
        samples_per_subcluster=5,
        feature_dim=8,
        sigma=0.1,
        intra_class_angle=60.0,
        seed=14,
    )
    train, test = generate_synthetic(config)
    # floor(0.8 * 5) = 4 to train, 1 to test, per subcluster
    assert len(train) == 16 and len(test) == 4
    for split in (train, test):
        pairs = {(s.label, s.subcluster_id) for s in split.samples}
        assert pairs == {(i, k) for i in range(2) for k in range(2)}
    labels = [s.label for s in train.samples]
    assert labels == sorted(labels)  # class-major row order


def test_split_counts_without_subclusters():
    config = SynthConfig(
        n_classes=2, subclusters_per_class=1, samples_per_subcluster=10,
        feature_dim=6, sigma=0.2, seed=15,
    )
    train, test = generate_synthetic(config)
    assert len(train) == 16 and len(test) == 4
    np.testing.assert_array_equal(train.unit_class_counts(), [8, 8])
    np.testing.assert_array_equal(test.unit_class_counts(), [2, 2])


def test_sigma_zero_collapses_to_means():
    config = SynthConfig(
        n_classes=2, subclusters_per_class=1, samples_per_subcluster=5,
        feature_dim=6, sigma=0.0, seed=16,
    )
    train, _ = generate_synthetic(config)
    for label in range(2):
        rows = np.vstack([s.features for s in train.samples if s.label == label])
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))


def test_generation_is_deterministic():
    config = SynthConfig(
        n_classes=3, subclusters_per_class=2, samples_per_subcluster=7,
        feature_dim=9, sigma=0.15, intra_class_angle=50.0, seed=17,
    )
    a_train, a_test = generate_synthetic(config)
    b_train, b_test = generate_synthetic(config)
    for a, b in ((a_train, b_train), (a_test, b_test)):
        assert len(a) == len(b)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.features, sb.features)
            assert (sa.label, sa.subcluster_id) == (sb.label, sb.subcluster_id)


def test_infeasible_geometries_are_rejected():
    with pytest.raises(InfeasibleConfigError):
        generate_synthetic(
            SynthConfig(n_classes=2, subclusters_per_class=3,
                        samples_per_subcluster=5, feature_dim=8, sigma=0.1,
                        intra_class_angle=150.0, seed=0)
        )  # three unit vectors cannot be pairwise 150 degrees apart
    with pytest.raises(InfeasibleConfigError):
        generate_synthetic(
            SynthConfig(n_classes=2, subclusters_per_class=3,
                        samples_per_subcluster=5, feature_dim=3, sigma=0.1,
                        intra_class_angle=60.0, seed=0)
        )  # needs feature_dim >= subclusters + 1


def test_synth_config_validation():
    good = dict(n_classes=2, subclusters_per_class=1, samples_per_subcluster=5,
                feature_dim=4, sigma=0.1)
    with pytest.raises(ContractViolation):
        SynthConfig(**{**good, "sigma": -0.1})
    with pytest.raises(ContractViolation):
        SynthConfig(**{**good, "inter_class_min_angle": 200.0})
    with pytest.raises(ContractViolation):
        SynthConfig(**{**good, "intra_class_angle": -5.0})
    with pytest.raises(ContractViolation):
        SynthConfig(**{**good, "n_classes": 0})
    with pytest.raises(ContractViolation):
        SynthConfig(**{**good, "samples_per_subcluster": 0})


def test_dataset_validation():
    with pytest.raises(ContractViolation):
        EmbeddingDataset([Sample(np.ones(3), 2)], feature_dim=3, n_classes=2)
    with pytest.raises(ContractViolation):
        EmbeddingDataset([Sample(np.ones(4), 0)], feature_dim=3, n_classes=2)
    with pytest.raises(ContractViolation):
        EmbeddingDataset([Sample(np.array([1.0, np.inf, 0.0]), 0)],
                         feature_dim=3, n_classes=2)
    mixed_label = [
        Sample(np.ones(3), 0, sequence_id=7),
        Sample(np.ones(3), 1, sequence_id=7),
    ]
    with pytest.raises(ContractViolation):
        EmbeddingDataset(mixed_label, feature_dim=3, n_classes=2)
    mixed_sub = [
        Sample(np.ones(3), 0, sequence_id=7, subcluster_id=0),
        Sample(np.ones(3), 0, sequence_id=7, subcluster_id=1),
    ]
    with pytest.raises(ContractViolation):
        EmbeddingDataset(mixed_sub, feature_dim=3, n_classes=2)
    resumed = [
        Sample(np.ones(3), 0, sequence_id=7),
        Sample(np.ones(3), 0, sequence_id=8),
        Sample(np.ones(3), 0, sequence_id=7),
    ]
    with pytest.raises(ContractViolation):
        EmbeddingDataset(resumed, feature_dim=3, n_classes=2)


def test_units_group_contiguous_sequence_rows():
    rows = [
        Sample(np.full(2, 0.0), 0, sequence_id=3),
        Sample(np.full(2, 1.0), 0, sequence_id=3),
        Sample(np.full(2, 2.0), 1),
        Sample(np.full(2, 3.0), 1, sequence_id=4),
        Sample(np.full(2, 4.0), 0, sequence_id=5),
        Sample(np.full(2, 5.0), 0, sequence_id=5),
        Sample(np.full(2, 6.0), 0, sequence_id=5),
    ]
    dataset = EmbeddingDataset(rows, feature_dim=2, n_classes=2)
    units = dataset.units()
    assert [u.frames.shape[0] for u in units] == [2, 1, 1, 3]
    assert [u.label for u in units] == [0, 1, 1, 0]
    assert [u.sequence_id for u in units] == [3, None, 4, 5]
    np.testing.assert_array_equal(units[0].frames, [[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(dataset.unit_class_counts(), [2, 2])


def test_apply_linear_map_transforms_every_row():
    rng = np.random.default_rng(18)
    rows = [Sample(rng.normal(size=4), i % 2, subcluster_id=i % 3) for i in range(6)]
    dataset = EmbeddingDataset(rows, feature_dim=4, n_classes=2)
    matrix = rng.normal(size=(3, 4))
    mapped = apply_linear_map(dataset, matrix)
    assert mapped.feature_dim == 3
    for before, after in zip(dataset.samples, mapped.samples):
        np.testing.assert_array_equal(after.features, matrix @ before.features)
        assert (after.label, after.subcluster_id) == (before.label, before.subcluster_id)
    with pytest.raises(ContractViolation):
        apply_linear_map(dataset, np.ones((3, 5)))
    with pytest.raises(ContractViolation):
        apply_linear_map(dataset, np.full((4, 4), np.nan))


def _imbalanced_dataset():
    rng = np.random.default_rng(19)
    rows = []
    # class 0: 5 single-sample units; class 1: 2 sequences of 2 frames
    for _ in range(5):
        rows.append(Sample(rng.normal(size=3), 0, subcluster_id=0))
    for seq in (10, 11):
        for _ in range(2):
            rows.append(Sample(rng.normal(size=3), 1, sequence_id=seq, subcluster_id=1))
    return EmbeddingDataset(rows, feature_dim=3, n_classes=2)


def test_oversample_balances_unit_counts():
    dataset = _imbalanced_dataset()
    balanced = oversample_balance(dataset, seed=3)
    np.testing.assert_array_equal(balanced.unit_class_counts(), [5, 5])
    # originals kept as a prefix, in order
    assert len(balanced.samples) >= len(dataset.samples)
    for orig, kept in zip(dataset.samples, balanced.samples):
        assert np.array_equal(orig.features, kept.features)
        assert orig.sequence_id == kept.sequence_id
    # duplicated sequences got fresh ids above any existing one
    new_ids = {
        s.sequence_id
        for s in balanced.samples[len(dataset.samples):]
        if s.sequence_id is not None
    }
    assert all(i > 11 for i in new_ids)
    again = oversample_balance(dataset, seed=3)
    assert len(again.samples) == len(balanced.samples)
    for a, b in zip(again.samples, balanced.samples):
        assert np.array_equal(a.features, b.features)
        assert a.sequence_id == b.sequence_id


def test_oversample_noop_when_already_balanced():
    rng = np.random.default_rng(20)
    rows = [Sample(rng.normal(size=3), i % 2) for i in range(6)]
    dataset = EmbeddingDataset(rows, feature_dim=3, n_classes=2)
    balanced = oversample_balance(dataset, seed=0)
    assert len(balanced) == len(dataset)


def test_oversample_rejects_empty_class():
    rows = [Sample(np.ones(3), 0), Sample(np.zeros(3) + 2, 0)]
    dataset = EmbeddingDataset(rows, feature_dim=3, n_classes=2)
    with pytest.raises(ContractViolation):
        oversample_balance(dataset, seed=0)


def _random_dataset_with_sequences(seed):
    rng = np.random.default_rng(seed)
    rows = []
    next_seq = 0
    for _ in range(rng.integers(5, 15)):
        label = int(rng.integers(3))
        sub = int(rng.integers(2)) if rng.random() < 0.5 else None
        if rng.random() < 0.5:
            rows.append(Sample(rng.normal(size=5), label, subcluster_id=sub))
        else:
            for _ in range(int(rng.integers(1, 4))):
                rows.append(
                    Sample(rng.normal(size=5), label,
                           sequence_id=next_seq, subcluster_id=sub)
                )
            next_seq += 1
    return EmbeddingDataset(rows, feature_dim=5, n_classes=3)


def test_dataset_round_trip(tmp_path):
    for seed in range(5):
        dataset = _random_dataset_with_sequences(seed)
        path = tmp_path / f"round_{seed}.tsv"
        save_dataset(dataset, str(path))
        loaded = load_dataset(str(path))
        assert loaded.feature_dim == dataset.feature_dim
        assert loaded.n_classes == dataset.n_classes
        assert len(loaded) == len(dataset)
        for a, b in zip(dataset.samples, loaded.samples):
            assert np.array_equal(np.asarray(a.features), b.features)
            assert (a.label, a.sequence_id, a.subcluster_id) == (
                b.label, b.sequence_id, b.subcluster_id)
        first = path.read_bytes()
        save_dataset(loaded, str(path))
        assert path.read_bytes() == first


def test_dataset_header_only_is_an_empty_dataset(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("metd-embed v1 dim=4 classes=2\n")
    loaded = load_dataset(str(path))
    assert len(loaded) == 0 and loaded.feature_dim == 4


def _expect_parse_error(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_dataset(str(path))
    assert info.value.line == line


def test_dataset_parse_errors_carry_line_numbers(tmp_path):
    header = "metd-embed v1 dim=2 classes=2\n"
    _expect_parse_error(tmp_path, "noheader.tsv", "garbage\n", 1)
    _expect_parse_error(tmp_path, "empty.tsv", "", 1)
    _expect_parse_error(tmp_path, "version.tsv",
                        "metd-embed v2 dim=2 classes=2\n", 1)
    _expect_parse_error(tmp_path, "noclasses.tsv", "metd-embed v1 dim=2 classes=0\n", 1)
    _expect_parse_error(tmp_path, "nodim.tsv", "metd-embed v1 dim=0 classes=2\n", 1)
    _expect_parse_error(tmp_path, "fields.tsv", header + "0\t-\t1,2\n", 2)
    _expect_parse_error(tmp_path, "label.tsv", header + "x\t-\t-\t1,2\n", 2)
    _expect_parse_error(tmp_path, "seq.tsv", header + "0\tq\t-\t1,2\n", 2)
    _expect_parse_error(tmp_path, "float.tsv", header + "0\t-\t-\t1,q\n", 2)
    _expect_parse_error(tmp_path, "nonfinite.tsv", header + "0\t-\t-\t1,inf\n", 2)
    _expect_parse_error(tmp_path, "dim.tsv", header + "0\t-\t-\t1,2,3\n", 2)
    _expect_parse_error(tmp_path, "blank.tsv",
                        header + "0\t-\t-\t1,2\n\n0\t-\t-\t1,2\n", 3)
    bad_label = tmp_path / "range.tsv"
    bad_label.write_text(header + "7\t-\t-\t1,2\n")
    with pytest.raises(ParseError):
        load_dataset(str(bad_label))  # label range checked on construction


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0\t-\t-\t1,2\n7\t-\t-\t1,2\n", "label 7 out of range [0, 2)"),
        ("0\t4\t-\t1,2\n1\t4\t-\t1,2\n", "sequence 4 mixes labels"),
        ("0\t4\t0\t1,2\n0\t4\t1\t1,2\n", "sequence 4 mixes subcluster ids"),
        ("0\t4\t-\t1,2\n0\t5\t-\t1,2\n0\t4\t-\t1,2\n", "sequence 4 is not contiguous"),
        ("0\t-\t0\t1,2\n0\t-\t-1\t1,2\n", "negative subcluster id -1"),
    ],
    ids=["label-out-of-range", "mixed-labels", "mixed-subcluster-ids",
         "not-contiguous", "negative-subcluster-id"],
)
def test_dataset_row_errors_name_their_file_line(tmp_path, rows, message):
    # The header is line 1 and each later line is one row, so the faulty
    # (last) row is on the file's last line.
    path = tmp_path / "rows.tsv"
    path.write_text("metd-embed v1 dim=2 classes=2\n" + rows)
    with pytest.raises(ParseError) as info:
        load_dataset(str(path))
    assert info.value.line == rows.count("\n") + 1
    assert str(info.value) == f"line {info.value.line}: {message}"


def test_negative_subcluster_ids_are_rejected(tmp_path):
    for ids in ([0, 1, -1, 1], [-1, -2, -1, -2]):
        rows = [Sample(np.ones(2), 0, subcluster_id=sub) for sub in ids]
        with pytest.raises(ContractViolation, match="negative subcluster id"):
            EmbeddingDataset(rows, feature_dim=2, n_classes=1)
        path = tmp_path / "negative.tsv"
        path.write_text(
            "metd-embed v1 dim=2 classes=1\n" + "".join(f"0\t-\t{sub}\t1,2\n" for sub in ids)
        )
        with pytest.raises(ParseError, match="negative subcluster id"):
            load_dataset(str(path))


def test_vocabulary_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    vocab = Vocabulary(
        words=[f"word{i}" for i in range(10)], vectors=rng.normal(size=(10, 4))
    )
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, str(path))
    loaded = load_vocabulary(str(path))
    assert loaded.words == vocab.words
    assert np.array_equal(loaded.vectors, vocab.vectors)
    first = path.read_bytes()
    save_vocabulary(loaded, str(path))
    assert path.read_bytes() == first


def test_vocabulary_validation():
    with pytest.raises(ContractViolation):
        Vocabulary(words=["a", "a"], vectors=np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        Vocabulary(words=["a", ""], vectors=np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        Vocabulary(words=["a", "b\tc"], vectors=np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        Vocabulary(words=["a"], vectors=np.ones((2, 2)))
    with pytest.raises(ContractViolation):
        Vocabulary(words=["a", "b"], vectors=np.array([[1.0, 2.0], [np.nan, 0.0]]))
    with pytest.raises(ContractViolation):
        Vocabulary(words=["a"], vectors=np.ones(2))


def test_vocabulary_parse_errors(tmp_path):
    cases = [
        ("v_empty.tsv", "", 1),
        ("v_header.tsv", "not a header\n", 1),
        ("v_version.tsv", "metd-vocab v9 dim=2\n", 1),
        ("v_fields.tsv", "metd-vocab v1 dim=2\nword\n", 2),
        ("v_float.tsv", "metd-vocab v1 dim=2\nword\t1,x\n", 2),
        ("v_blank.tsv", "metd-vocab v1 dim=2\nword\t1,2\n\n", 3),
    ]
    for name, text, line in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_vocabulary(str(path))
        assert info.value.line == line
    no_words = tmp_path / "v_nowords.tsv"
    no_words.write_text("metd-vocab v1 dim=2\n")
    with pytest.raises(ParseError):
        load_vocabulary(str(no_words))


def test_vocabulary_row_errors_name_their_line(tmp_path):
    # The header is line 1: a repeated word is reported at its second copy.
    cases = [
        ("v_dup.tsv", "metd-vocab v1 dim=2\na\t1,2\nb\t3,4\na\t5,6\n", 4,
         "duplicate words in vocabulary"),
        ("v_empty_word.tsv", "metd-vocab v1 dim=2\na\t1,2\n\t3,4\n", 3,
         "bad vocabulary word ''"),
    ]
    for name, text, line, problem in cases:
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_vocabulary(str(path))
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {problem}"


def test_nearest_words_hand_example():
    vocab = Vocabulary(words=["a", "b"], vectors=np.array([[0.0, 0.0], [1.0, 1.0]]))
    ranked = nearest_words(vocab, np.array([0.9, 0.9]), top_n=2)
    assert [w for w, _ in ranked] == ["b", "a"]
    np.testing.assert_allclose(ranked[0][1], np.sqrt(0.02), rtol=0, atol=1e-12)
    np.testing.assert_allclose(ranked[1][1], np.sqrt(2 * 0.81), rtol=0, atol=1e-12)
    exact = nearest_words(vocab, np.array([1.0, 1.0]), top_n=1)
    assert exact == [("b", 0.0)]


def test_nearest_words_matches_brute_force():
    rng = np.random.default_rng(22)
    for trial in range(10):
        n_words = int(rng.integers(5, 60))
        dim = int(rng.integers(2, 6))
        vectors = rng.normal(size=(n_words, dim))
        # plant duplicate vectors so ties actually occur
        if n_words >= 4:
            vectors[1] = vectors[0]
            vectors[3] = vectors[2]
        vocab = Vocabulary(
            words=[f"w{i:03d}" for i in range(n_words)], vectors=vectors
        )
        token = vectors[0] if trial % 2 == 0 else rng.normal(size=dim)
        top_n = int(rng.integers(1, n_words + 3))
        got = nearest_words(vocab, token, top_n)
        distances = np.linalg.norm(vocab.vectors - token, axis=1)
        order = sorted(range(n_words), key=lambda i: (distances[i], i))
        expected = [(vocab.words[i], float(distances[i])) for i in order[:top_n]]
        assert got == expected


def test_nearest_words_validation():
    vocab = Vocabulary(words=["a"], vectors=np.ones((1, 3)))
    with pytest.raises(ContractViolation):
        nearest_words(vocab, np.ones(3), top_n=0)
    with pytest.raises(ContractViolation):
        nearest_words(vocab, np.ones(4), top_n=1)
    empty = Vocabulary(words=[], vectors=np.zeros((0, 3)))
    with pytest.raises(ContractViolation):
        nearest_words(empty, np.ones(3), top_n=1)
