"""Synthetic geometry, dataset IO, oversampling, and vocabulary decoding."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    temporal_mean_pool,
)
from metd.errors import ContractViolation, ParseError
from metd.model import STREAM_OVERSAMPLE, format_floats, parse_float_rows


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
    good = dict(n_classes=2, subclusters_per_class=3, samples_per_subcluster=5,
                feature_dim=6, sigma=0.1, intra_class_angle=60.0, seed=0)
    SynthConfig(**good)
    # Three unit vectors cannot be pairwise 150 degrees apart.
    with pytest.raises(ContractViolation, match=r"maximum 120\.0000 degrees"):
        SynthConfig(**{**good, "intra_class_angle": 150.0})
    # Each of the 2 x 3 means needs its own orthonormal column.
    with pytest.raises(ContractViolation, match=r"feature_dim 5 too small .*\(needs >= 6\)"):
        SynthConfig(**{**good, "feature_dim": 5})
    with pytest.raises(ContractViolation, match="feature_dim 3 too small"):
        SynthConfig(**{**good, "feature_dim": 3})
    # Cross-class means are orthogonal, so no wider bound can hold.
    with pytest.raises(ContractViolation, match=r"inter_class_min_angle must be in \[0, 90\]"):
        SynthConfig(**{**good, "inter_class_min_angle": 91.0})


@pytest.mark.parametrize("value", [6.0, True])
@pytest.mark.parametrize(
    "field", ["n_classes", "subclusters_per_class", "samples_per_subcluster", "feature_dim"]
)
def test_synth_config_rejects_a_count_that_is_not_an_integer(field, value):
    # A whole float or a bool would pass as a count until NumPy failed on it.
    good = dict(n_classes=1, subclusters_per_class=1, samples_per_subcluster=6,
                feature_dim=6, sigma=0.1, seed=0)
    with pytest.raises(ContractViolation, match=f"{field} must be a positive integer"):
        generate_synthetic(SynthConfig(**{**good, field: value}))
    generate_synthetic(SynthConfig(**{**good, field: np.int64(good[field])}))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_classes=st.integers(1, 5),
    g=st.integers(1, 5),
    spare_dims=st.integers(0, 3),
    angle_share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthetic_means_hold_the_geometry_exactly(n_classes, g, spare_dims, angle_share, seed):
    """Unit means, same-class cosines cos(theta), orthogonal classes, one draw per seed.

    ``angle_share`` 1.0 is the simplex limit arccos(-1/(G-1)), and
    ``spare_dims`` 0 the smallest feature_dim, n_classes * G.
    """
    limit = 180.0 if g == 1 else math.degrees(math.acos(-1.0 / (g - 1)))
    config = SynthConfig(
        n_classes=n_classes, subclusters_per_class=g, samples_per_subcluster=1,
        feature_dim=n_classes * g + spare_dims, sigma=0.0,
        inter_class_min_angle=90.0, intra_class_angle=angle_share * limit, seed=seed,
    )
    train, test = generate_synthetic(config)
    # One sample per subcluster lands in test, and with sigma 0 it is the mean.
    means = np.stack([s.features for s in test.samples])
    labels = np.array([s.label for s in test.samples])
    np.testing.assert_allclose(np.linalg.norm(means, axis=1), 1.0, rtol=0, atol=1e-9)
    cosines = means @ means.T
    same = (labels[:, None] == labels[None, :]) & ~np.eye(len(labels), dtype=bool)
    cos_intra = math.cos(math.radians(config.intra_class_angle))
    np.testing.assert_allclose(cosines[same], cos_intra, rtol=0, atol=1e-9)
    assert np.all(cosines[labels[:, None] != labels[None, :]] <= 1e-9)
    again = generate_synthetic(config)
    for a, b in zip((train, test), again):
        assert all(
            np.asarray(x.features).tobytes() == np.asarray(y.features).tobytes()
            for x, y in zip(a.samples, b.samples)
        )


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
    with pytest.raises(ContractViolation, match="seed must be a nonnegative integer, got -2"):
        SynthConfig(**good, seed=-2)
    assert len(generate_synthetic(SynthConfig(**good, seed=0))[0]) > 0


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
    singles = [Sample(rng.normal(size=4), i % 2, subcluster_id=i % 3) for i in range(6)]
    clips = [Sample(rng.normal(size=4), seq % 2, seq, seq % 3 or None)
             for seq in (4, 9, 2) for _ in range(seq % 3 + 1)]
    matrix = rng.normal(size=(3, 4))
    for rows in (singles, clips):
        dataset = EmbeddingDataset(rows, feature_dim=4, n_classes=2)
        mapped = apply_linear_map(dataset, matrix)
        assert mapped.feature_dim == 3
        assert len(mapped.units()) == len(dataset.units())
        for before, after in zip(dataset.samples, mapped.samples):
            assert _bits(after.features) == _bits(matrix @ before.features)
            assert (after.label, after.sequence_id, after.subcluster_id) == (
                before.label, before.sequence_id, before.subcluster_id
            )
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


def _oversample_row_by_row(dataset, seed):
    """``oversample_balance`` as written over ``Sample`` rows, the reference for the columns."""
    units = dataset.units()
    counts = dataset.unit_class_counts()
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise ContractViolation(f"class {missing} has no units to oversample")
    target = int(np.max(counts))
    rng = np.random.default_rng([STREAM_OVERSAMPLE, seed])
    next_id = max((s.sequence_id for s in dataset.samples if s.sequence_id is not None),
                  default=-1) + 1
    new_rows = list(dataset.samples)
    for label in range(dataset.n_classes):
        deficit = target - int(counts[label])
        if deficit == 0:
            continue
        pool = [unit for unit in units if unit.label == label]
        for pick in rng.choice(len(pool), size=deficit, replace=True):
            unit = pool[pick]
            if unit.sequence_id is None:
                new_rows.append(Sample(unit.frames[0], unit.label, None, unit.subcluster_id))
            else:
                new_rows.extend(
                    Sample(frame, unit.label, next_id, unit.subcluster_id) for frame in unit.frames
                )
                next_id += 1
    return EmbeddingDataset(new_rows, dataset.feature_dim, dataset.n_classes)


def _outcome(build):
    """``build()``'s rows as (feature bits, label, sequence, subcluster), or its error."""
    try:
        dataset = build()
    except ContractViolation as exc:
        return type(exc), str(exc)
    return [(_bits(s.features), s.label, s.sequence_id, s.subcluster_id) for s in dataset.samples]


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
    with warnings.catch_warnings():
        # The float parser never hands loadtxt empty input, which it warns about.
        warnings.simplefilter("error")
        loaded = load_dataset(str(path))
    assert len(loaded) == 0 and loaded.feature_dim == 4


def test_an_empty_dataset_has_empty_read_only_unit_arrays(tmp_path):
    # No units: pooled is (0, F) and unit_labels (0,), as units() is [].
    path = tmp_path / "empty.tsv"
    path.write_text("metd-embed v1 dim=4 classes=2\n")
    for dataset in (EmbeddingDataset([], 4, 2), load_dataset(str(path))):
        assert dataset.units() == []
        assert dataset.pooled.shape == (0, 4) and dataset.pooled.dtype == np.float64
        assert dataset.unit_labels.shape == dataset.unit_subclusters.shape == (0,)
        for column in (dataset.pooled, dataset.unit_labels, dataset.unit_subclusters):
            assert not column.flags.writeable


@pytest.mark.parametrize("dim", [1, 3, 16])
def test_pooled_has_the_bits_of_each_units_own_pool(dim):
    # Units of 1, 2, 3 and 8 frames interleaved, with -0.0 and scales far
    # apart, so a sum that starts at the first frame, or adds the frames of
    # a one-dimensional unit in another order, would show.
    rng = np.random.default_rng(41)
    lengths = [1, 2, 3, 8, 2, 1, 8, 3, 3, 1, 8, 2] * 3
    rows = []
    for seq, length in enumerate(lengths):
        frames = rng.normal(size=(length, dim)) * 10.0 ** rng.uniform(-6, 6, size=(length, 1))
        frames[rng.random(size=frames.shape) < 0.1] = -0.0
        rows += [Sample(f, seq % 2, seq if length > 1 else None) for f in frames]
    dataset = EmbeddingDataset(rows, dim, 2)
    assert [len(unit.frames) for unit in dataset.units()] == lengths
    assert _bits(dataset.pooled) == _bits(
        [temporal_mean_pool(unit.frames) for unit in dataset.units()]
    )


def test_pooled_refuses_frames_a_linear_map_overflowed():
    # apply_linear_map checks the matrix, not its products, so the pooled
    # rows are checked as each unit's temporal_mean_pool checks its frames.
    rows = [Sample(np.array([1e300, 1.0]), 0, 5), Sample(np.array([1.0, 1.0]), 0, 5),
            Sample(np.array([2.0, 1.0]), 1)]
    with np.errstate(over="ignore"):
        mapped = apply_linear_map(EmbeddingDataset(rows, 2, 2), [[1e10, 0.0], [0.0, 1.0]])
    assert not np.isfinite(mapped.units()[0].frames).all()
    with pytest.raises(ContractViolation, match="^frames contain non-finite entries$"):
        temporal_mean_pool(mapped.units()[0].frames)
    with pytest.raises(ContractViolation, match="^frames contain non-finite entries$"):
        mapped.pooled


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _as_float(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


# Finite float64 bit patterns: any pattern (non-finite ones filtered),
# the subnormals and zeros of both signs, and the extremes.
_FINITE = st.one_of(
    st.integers(0, 2**64 - 1),
    st.tuples(st.booleans(), st.integers(0, 2**52 - 1)).map(lambda t: t[0] << 63 | t[1]),
    st.sampled_from(_bits([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           np.finfo(np.float64).max, -np.finfo(np.float64).max])),
).map(_as_float).filter(math.isfinite)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(_FINITE, min_size=3, max_size=3), min_size=1, max_size=6))
def test_parse_float_rows_gives_the_bits_of_float(table):
    texts = [format_floats(np.array(row)) for row in table]
    texts += [",".join(repr(x) for x in row) for row in table]
    parsed = parse_float_rows(enumerate(texts, start=2), 3)
    assert parsed.shape == (len(texts), 3)
    expected = [[float(part) for part in text.split(",")] for text in texts]
    assert _bits(parsed) == _bits(expected)
    assert _bits(parsed[: len(table)]) == _bits(table)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_FINITE, max_size=20))
def test_format_floats_writes_each_value_as_format_17g_does(row):
    expected = ",".join(format(x, ".17g") for x in row)
    assert format_floats(np.array(row, dtype=np.float64)) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 2),
                          st.lists(st.lists(_FINITE, min_size=2, max_size=2),
                                   min_size=1, max_size=4)),
                min_size=1, max_size=8))
def test_multi_frame_dataset_save_load_save_is_byte_identical(tmp_path_factory, units):
    rows = [
        Sample(np.array(frame), label, sequence_id=seq, subcluster_id=seq % 2)
        for seq, (label, frames) in enumerate(units)
        for frame in frames
    ]
    path = tmp_path_factory.mktemp("frames") / "frames.tsv"
    save_dataset(EmbeddingDataset(rows, feature_dim=2, n_classes=3), str(path))
    first = path.read_bytes()
    loaded = load_dataset(str(path))
    assert [_bits(s.features) for s in loaded.samples] == [_bits(s.features) for s in rows]
    save_dataset(loaded, str(path))
    assert path.read_bytes() == first


_ROW = ",".join(["0.5"] * 8)
_FAULTS = {
    "malformed": ("0.5,0.5,0.5,0.5x,0.5,0.5,0.5,0.5", "bad float value"),
    "too-few": (",".join(["0.5"] * 7), "expected 8 values, got 7"),
    "too-many": (",".join(["0.5"] * 9), "expected 8 values, got 9"),
    "inf": ("0.5,0.5,0.5,0.5,0.5,0.5,inf,0.5", "non-finite value"),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
@pytest.mark.parametrize("row", [0, 3, 2999, 5999])
def test_a_faulty_row_of_a_large_dataset_names_its_line(tmp_path, fault, row):
    vector, problem = _FAULTS[fault]
    lines = [f"{r % 2}\t{r // 4}\t-\t{vector if r == row else _ROW}" for r in range(6000)]
    path = tmp_path / "large.tsv"
    path.write_text("metd-embed v1 dim=8 classes=2\n" + "\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"line {row + 2}: {problem}"


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_a_faulty_row_of_a_large_vocabulary_names_its_line(tmp_path, fault):
    vector, problem = _FAULTS[fault]
    lines = [f"w{r}\t{vector if r == 3000 else _ROW}" for r in range(6000)]
    path = tmp_path / "large_vocab.tsv"
    path.write_text("metd-vocab v1 dim=8\n" + "\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        load_vocabulary(str(path))
    assert str(info.value) == f"line 3002: {problem}"


def test_a_decode_error_is_not_blamed_on_a_float(tmp_path):
    # The parser maps only loadtxt's own errors to "bad float value".  The
    # reader checks each line for UTF-8 as the rows stream, so the bad byte
    # on the last of 5,001 rows is a ParseError at its own line.
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"metd-embed v1 dim=2 classes=2\n" + b"0\t-\t-\t1,2\n" * 5000
                     + b"0\t-\t-\t1,\xff2\n")
    with pytest.raises(ParseError) as info:
        load_dataset(str(path))
    assert str(info.value) == "line 5002: not UTF-8 text: invalid start byte"


_ROW_BYTES = b"0\t-\t-\t1,2\n"


@pytest.mark.parametrize(
    "load, data, message",
    [
        (load_dataset, b"metd-embed v9 dim=2 classes=2\n" + _ROW_BYTES + b"0\t-\t-\t\xff\n",
         "line 1: unsupported format version v9"),
        (load_dataset, b"metd-embed v1 dim=2 classes=2\n" + _ROW_BYTES + b"0\t-\t-\t1,q\n"
         + b"0\t-\t-\t1,\xff2\n", "line 3: bad float value"),
        (load_vocabulary, b"metd-vocab v1 dim=2\na\t1,2\nb\t1,q\nc\t1,\xff2\n",
         "line 3: bad float value"),
        (load_dataset, b"metd-embed v1 dim=2 classes=2\xff\n" + _ROW_BYTES,
         "line 1: not UTF-8 text: invalid start byte"),
        (load_dataset, b"metd-embed v1 dim=2 classes=2\n" + _ROW_BYTES + b"0\t-\t-\t1,2\xc3",
         "line 3: not UTF-8 text: unexpected end of data"),
    ],
    ids=["version-then-byte", "float-then-byte", "vocabulary-float-then-byte",
         "byte-in-header", "lead-byte-at-the-end"],
)
def test_the_first_faulty_line_is_reported_wherever_a_bad_byte_sits(
    tmp_path, load, data, message
):
    # Each line is checked for UTF-8 as it is read, so a bad byte a line
    # after another fault does not hide it, even inside the decoder's
    # first 8 KB block.
    path = tmp_path / "two_faults.tsv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as info:
        load(str(path))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "row, problem",
    [
        ("x\t-\t-\t1,2", "bad class label 'x'"),
        ("-\t-\t-\t1,2", "bad class label '-'"),
        ("0\t1.5\t-\t1,2", "bad sequence id '1.5'"),
        ("0\t-\tq\t1,2", "bad subcluster id 'q'"),
        ("0\ty\tz\t1,2", "bad sequence id 'y'"),
        ("x\t-\t-\t1,q", "bad class label 'x'"),
    ],
    ids=["label", "label-dash", "sequence", "subcluster", "sequence-then-subcluster",
         "label-then-float"],
)
def test_a_bad_id_field_is_named_in_field_order_before_the_floats(tmp_path, row, problem):
    path = tmp_path / "bad_ids.tsv"
    path.write_text("metd-embed v1 dim=2 classes=2\n0\t-\t-\t1,2\n" + row + "\n")
    with pytest.raises(ParseError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"line 3: {problem}"


def test_the_widest_header_dim_still_loads_as_an_empty_dataset(tmp_path):
    path = tmp_path / "widest.tsv"
    path.write_text(f"metd-embed v1 dim={2**60 - 1} classes=3\n")
    dataset = load_dataset(str(path))
    assert (len(dataset), dataset.feature_dim) == (0, 2**60 - 1)


@pytest.mark.parametrize(
    "vector, problem",
    [("1_000", "bad float value"), ("", "bad float value"), ("1e999", "non-finite value")],
    ids=["python-only-spelling", "empty", "overflow"],
)
def test_one_value_rows_parse_like_any_other(tmp_path, vector, problem):
    # An empty field is a bad value, not a skipped line; a float() spelling
    # that metd never writes is not a float here.
    path = tmp_path / "one.tsv"
    path.write_text(f"metd-embed v1 dim=1 classes=1\n0\t-\t-\t1\n0\t-\t-\t{vector}\n")
    with pytest.raises(ParseError) as info:
        load_dataset(str(path))
    assert str(info.value) == f"line 3: {problem}"


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
    with warnings.catch_warnings(), pytest.raises(ParseError, match="vocabulary has no words"):
        warnings.simplefilter("error")
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


@pytest.mark.parametrize(
    "load, text, problem",
    [
        (load_vocabulary, "metd-vocab v1 dim=0\na\t\n", "dim must be >= 1, got 0"),
        (load_vocabulary, "metd-vocab v1 dim=0\n", "dim must be >= 1, got 0"),
        (load_dataset, "metd-embed v1 dim=0 classes=2\n0\t-\t-\t1\n",
         "feature_dim must be >= 1, got 0"),
        (load_dataset, f"metd-embed v1 dim={2**60} classes=3\n",
         f"feature_dim must be <= {2**60 - 1}, got {2**60}"),
        (load_dataset, f"metd-embed v1 dim={10**20} classes=3\n",
         f"feature_dim must be <= {2**60 - 1}, got {10**20}"),
        (load_vocabulary, f"metd-vocab v1 dim={2**60}\n",
         f"dim must be <= {2**60 - 1}, got {2**60}"),
        (load_vocabulary, f"metd-vocab v1 dim={10**20}\n",
         f"dim must be <= {2**60 - 1}, got {10**20}"),
    ],
)
def test_a_zero_dim_header_is_line_1(tmp_path, load, text, problem):
    # The header's dim is wrong, not the first row that cannot match it.
    # So is a dim past 2**60 - 1: a header-only file would be an empty
    # (0, dim) float64 array, which NumPy cannot make once dim * 8 bytes
    # overflows a signed 64-bit size.
    path = tmp_path / "zero_dim.tsv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load(str(path))
    assert str(info.value) == f"line 1: {problem}"


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


def _reference_fault(rows, dim, n_classes):
    """The first ``(row, problem)`` a row-by-row pass over the dataset rules finds, or None.

    Each row is checked in turn against every rule, in this order: shape,
    finiteness, label range, negative subcluster id, then the sequence
    rules against the first row of the unit the row would continue.
    """
    starts, started = [], set()
    for idx, s in enumerate(rows):
        arr = np.asarray(s.features, dtype=np.float64)
        if arr.shape != (dim,):
            return idx, f"feature shape {arr.shape} != ({dim},)"
        if not np.isfinite(arr).all():
            return idx, "non-finite features"
        if not 0 <= s.label < n_classes:
            return idx, f"label {s.label} out of range [0, {n_classes})"
        if s.subcluster_id is not None and s.subcluster_id < 0:
            return idx, f"negative subcluster id {s.subcluster_id}"
        head = rows[starts[-1]] if starts else None
        if s.sequence_id is not None and head is not None and s.sequence_id == head.sequence_id:
            if s.label != head.label:
                return idx, f"sequence {s.sequence_id} mixes labels"
            if s.subcluster_id != head.subcluster_id:
                return idx, f"sequence {s.sequence_id} mixes subcluster ids"
        elif s.sequence_id is not None and s.sequence_id in started:
            return idx, f"sequence {s.sequence_id} is not contiguous"
        else:
            started.add(s.sequence_id)
            starts.append(idx)
    return None


def _reference_units(rows):
    """(frame bits, label, sequence id, subcluster id) of each unit: runs of one sequence id."""
    units = []
    for s in rows:
        if units and s.sequence_id is not None and s.sequence_id == units[-1][2]:
            units[-1][0].append(_bits(s.features))
        else:
            units.append(([_bits(s.features)], s.label, s.sequence_id, s.subcluster_id))
    return units


_ID_FAULTS = ("label", "negative", "mixes-labels", "mixes-subclusters", "not-contiguous")
_FEATURE_FAULTS = ("shape", "non-finite")  # only for rows built in code: a file's are parse errors


@st.composite
def _rows_with_faults(draw):
    """Rows of valid units, then zero to two faults injected, often in one row; (rows, faults)."""
    ids = iter(draw(st.lists(st.integers(-2**63 + 1, 2**63 - 1), min_size=8, max_size=8,
                             unique=True)))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        label = draw(st.integers(0, 2))
        sub = draw(st.sampled_from([None, 0, 1, 2**40]))
        seq = next(ids) if draw(st.booleans()) else None
        for _ in range(draw(st.integers(1, 4)) if seq is not None else 1):
            rows.append(Sample(draw(st.lists(_FINITE, min_size=2, max_size=2).map(np.array)),
                               label, seq, sub))
    kinds = st.sampled_from(_ID_FAULTS + _FEATURE_FAULTS)
    faults = draw(st.lists(kinds, max_size=2)) if rows else []
    touched = []
    for fault in faults:
        r = touched[0] if touched and draw(st.booleans()) else draw(st.integers(0, len(rows) - 1))
        touched.append(r)
        s = rows[r]
        if fault == "label":
            s = replace(s, label=draw(st.sampled_from([-1, 3, 2**62])))
        elif fault == "negative":
            s = replace(s, subcluster_id=draw(st.sampled_from([-1, -7])))
        elif fault == "mixes-labels":
            s = replace(s, label=(s.label + 1) % 3)
        elif fault == "mixes-subclusters":
            s = replace(s, subcluster_id=None if s.subcluster_id == 0 else 0)
        elif fault == "shape":
            s = replace(s, features=np.append(s.features, 0.0))
        elif fault == "non-finite":
            bad = draw(st.sampled_from([np.nan, -np.inf]))
            s = replace(s, features=np.array([s.features[0], bad]))
        elif fault == "not-contiguous" and r > 1:
            earlier = [row.sequence_id for row in rows[: r - 1] if row.sequence_id is not None]
            if earlier:
                s = replace(s, sequence_id=draw(st.sampled_from(earlier)))
        rows[r] = s
    return rows, faults


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rows_with_faults())
def test_the_column_checks_match_the_row_by_row_check(tmp_path_factory, case):
    # Built in code or loaded, a dataset names the row and the problem the
    # row-by-row check names, and a valid one has its units.
    rows, faults = case
    expected = _reference_fault(rows, 2, 3)
    if expected is not None:
        row, problem = expected
        with pytest.raises(ContractViolation) as built:
            EmbeddingDataset(rows, feature_dim=2, n_classes=3)
        assert str(built.value) == f"row {row}: {problem}"
    if set(faults) & set(_FEATURE_FAULTS):
        return
    path = tmp_path_factory.getbasetemp() / "rules.tsv"
    path.write_text("metd-embed v1 dim=2 classes=3\n" + "".join(
        f"{s.label}\t{'-' if s.sequence_id is None else s.sequence_id}\t"
        f"{'-' if s.subcluster_id is None else s.subcluster_id}\t{format_floats(s.features)}\n"
        for s in rows
    ))
    if expected is not None:
        with pytest.raises(ParseError) as loaded:
            load_dataset(str(path))
        assert str(loaded.value) == f"line {row + 2}: {problem}"
        return
    for dataset in (EmbeddingDataset(rows, feature_dim=2, n_classes=3), load_dataset(str(path))):
        units = [
            ([_bits(frame) for frame in u.frames], u.label, u.sequence_id, u.subcluster_id)
            for u in dataset.units()
        ]
        assert units == _reference_units(rows)
        assert dataset.unit_labels.tolist() == [u[1] for u in units]
        # A unit with no subcluster id reads negative; every id is non-negative.
        assert [None if sub < 0 else sub for sub in dataset.unit_subclusters.tolist()] == [
            u[3] for u in units
        ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rows_with_faults().filter(lambda case: not case[1]), st.integers(0, 2**32), st.booleans())
def test_oversample_matches_the_row_by_row_oversample(case, seed, top):
    # Same rows, labels, subcluster ids and fresh sequence ids as copying
    # Sample rows one unit at a time; the same error for a class with no
    # units, or for a fresh id past 2**63 - 1, which ``top`` brings about by
    # moving the sequence ids, in order, up to the top of the id range.
    rows, _ = case
    if top:
        ranks = sorted({s.sequence_id for s in rows if s.sequence_id is not None})
        top_ids = {seq: 2**63 - len(ranks) + rank for rank, seq in enumerate(ranks)}
        rows = [replace(s, sequence_id=top_ids.get(s.sequence_id)) for s in rows]
    dataset = EmbeddingDataset(rows, feature_dim=2, n_classes=3)
    assert _outcome(lambda: oversample_balance(dataset, seed)) == _outcome(
        lambda: _oversample_row_by_row(dataset, seed)
    )


def test_ids_beyond_64_bits_are_row_errors(tmp_path):
    # Ids are kept as 64-bit integers; -2**63 stands for "no id", so it is not one.
    for bad in (2**63, -(2**63)):
        rows = [Sample(np.ones(2), 0), Sample(np.ones(2), 0, sequence_id=bad)]
        with pytest.raises(ContractViolation, match=f"^row 1: sequence id {bad} is out of the id"):
            EmbeddingDataset(rows, feature_dim=2, n_classes=1)
        path = tmp_path / "wide.tsv"
        path.write_text(f"metd-embed v1 dim=2 classes=1\n0\t-\t-\t1,2\n0\t-\t{bad}\t1,2\n")
        with pytest.raises(ParseError, match=f"^line 3: subcluster id {bad} is out of the id"):
            load_dataset(str(path))


def test_loaded_units_are_read_only_views_of_the_parsed_array(tmp_path):
    rng = np.random.default_rng(5)
    rows = [Sample(rng.normal(size=4), seq % 2, seq, seq % 3)
            for seq in range(6) for _ in range(seq % 3 + 1)]
    path = tmp_path / "clips.tsv"
    built = EmbeddingDataset(rows, 4, 2)
    save_dataset(built, str(path))
    loaded = load_dataset(str(path))
    array = loaded._features  # the parser's (R, F) array, which the dataset keeps
    assert not array.flags.writeable
    for unit in loaded.units():
        assert np.shares_memory(unit.frames, array)
        assert not unit.frames.flags.writeable
        with pytest.raises(ValueError):
            unit.frames[0, 0] = 1.0
    assert len(loaded.units()) == 6
    for cached in (loaded.pooled, loaded.unit_labels, loaded.unit_subclusters):
        assert not cached.flags.writeable
    assert _bits(loaded.pooled) == _bits(
        [np.mean(np.asarray(u.frames), axis=0) for u in EmbeddingDataset(rows, 4, 2).units()]
    )
    # However it was built, a dataset is one read-only array that its units
    # and its samples view.
    synthetic, _ = generate_synthetic(SynthConfig(2, 2, 5, 4, 0.1))
    for dataset in (built, synthetic, apply_linear_map(built, rng.normal(size=(3, 4))),
                    oversample_balance(_imbalanced_dataset(), seed=1)):
        array = dataset._features
        assert not array.flags.writeable
        views = [unit.frames for unit in dataset.units()] + [s.features for s in dataset.samples]
        for view in views:
            assert np.shares_memory(view, array)
            assert not view.flags.writeable
    # The rows are copied in: writing to a caller's features leaves the dataset as it was.
    before = _bits(built._features)
    rows[0].features[:] = 7.0
    assert _bits(built._features) == before
    assert _bits(built.units()[0].frames[0]) == before[0]
