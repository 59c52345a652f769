"""Datasets of embedding rows, synthetic benchmarks, and vocabularies.

File formats (all plain UTF-8 text, LF line endings):

Dataset::

    metd-embed v1 dim=<d> classes=<N>
    <class>\t<sequence-id or ->\t<subcluster-id or ->\t<f1,f2,...,fd>

Vocabulary::

    metd-vocab v1 dim=<d>
    <word>\t<f1,f2,...,fd>

Floats are written with 17 significant digits, which round-trips every
float64 exactly: save followed by load reproduces the same bits, and
saving again produces a byte-identical file.  One streaming parser,
``model.parse_float_rows``, reads the vectors of datasets, vocabularies
and checkpoints: every row's text goes into one ``np.loadtxt`` call as
the file is read, and each value gets the same bits ``float()`` would
give it.  Python-only spellings such as ``1_000``, which metd never
writes, are bad values.

Rows that share a sequence id form one unit (for example the frames of
one clip) and must be contiguous in the file and agree on class and
subcluster.  Rows with ``-`` in the sequence column are single-sample
units.  The subcluster column carries ground-truth subcluster ids,
non-negative integers, for synthetic data and is ``-`` when unknown.
The parser checks field and value counts, floats and finiteness;
``EmbeddingDataset`` checks the ids and these rules, once, in NumPy.

However it was built, a dataset is one read-only (R, F) float64 array
plus (R,) int64 label, sequence-id and subcluster-id columns, and the
builders here work on those arrays, not on ``Sample`` rows.
"""

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation, ParseError
from .model import (
    FORMAT_VERSION,
    STREAM_OVERSAMPLE,
    STREAM_SYNTH,
    _require_positive,
    _require_seed,
    format_floats,
    parse_float_rows,
    read_records,
    write_lines,
)

_DATASET_HEADER = re.compile(r"^metd-embed v(\d+) dim=(\d+) classes=(\d+)$")
_VOCAB_HEADER = re.compile(r"^metd-vocab v(\d+) dim=(\d+)$")


@dataclass(frozen=True)
class Sample:
    """One embedding row: feature vector, class, optional sequence/subcluster."""

    features: np.ndarray
    label: int
    sequence_id: int | None = None
    subcluster_id: int | None = None


@dataclass(frozen=True)
class Unit:
    """One evaluation unit: the frames of a sequence, or a single sample."""

    frames: np.ndarray
    label: int
    sequence_id: int | None = None
    subcluster_id: int | None = None


def temporal_mean_pool(frames) -> np.ndarray:
    """Mean over the frame axis of a nonempty (n_frames, dim) stack."""
    arr = np.asarray(frames, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ContractViolation(
            f"frames must be a nonempty 2-D stack, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("frames contain non-finite entries")
    return arr.mean(axis=0)


class _RowError(ContractViolation):
    """Row ``row`` (0-based) of an ``EmbeddingDataset`` or ``Vocabulary`` breaks its contract."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"row {row}: {problem}")
        self.row = row
        self.problem = problem


_NO_ID = np.iinfo(np.int64).min  # a "-" (no id) in a sequence or subcluster column
_RULES = (  # the id rules, in the order each row is checked against them
    "label {} out of range [0, {})",
    "negative subcluster id {}",
    "sequence {} mixes labels",
    "sequence {} mixes subcluster ids",
    "sequence {} is not contiguous",
)


def _id_column(values, what: str) -> np.ndarray:
    """The (R,) int64 column of a list of R ids, ``_NO_ID`` for each None; a column passes as is."""
    if isinstance(values, np.ndarray):
        return values
    try:
        column = np.array([_NO_ID if v is None else v for v in values], dtype=np.int64)
        if np.count_nonzero(column == _NO_ID) == values.count(None):
            return column
    except OverflowError:
        pass
    row = next(i for i, v in enumerate(values) if v is not None and not _NO_ID < v < 2**63)
    raise _RowError(row, f"{what} {values[row]} is out of the id range (-2**63, 2**63)")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _ids(column: np.ndarray) -> list:
    """The Python ids of an id column, None for ``_NO_ID``."""
    return [None if v == _NO_ID else v for v in column.tolist()]


def _feature_fault(samples: list[Sample], dim: int) -> tuple[int, str] | None:
    """The first Sample row whose features are not ``dim`` finite floats, as (row, problem)."""
    for row, sample in enumerate(samples):
        features = np.asarray(sample.features, dtype=np.float64)
        if features.shape != (dim,):
            return row, f"feature shape {features.shape} != ({dim},)"
        if not np.isfinite(features).all():
            return row, "non-finite features"
    return None


def _unit_starts(n_classes: int, labels, seqs, subs, fault) -> np.ndarray:
    """Each unit's first row; or raise the first faulty row, ``fault`` first at its row."""
    has_seq = seqs != _NO_ID
    # Row r continues the unit above it.  Up to the first faulty row, every
    # row of a unit has its first row's ids, so row r - 1's stand in for them.
    continues = np.zeros(labels.size, dtype=bool)
    continues[1:] = has_seq[1:] & (seqs[1:] == seqs[:-1])
    _, first, where = np.unique(seqs, return_index=True, return_inverse=True)
    broken = np.stack([
        (labels < 0) | (labels >= n_classes),
        (subs < 0) & (subs != _NO_ID),
        continues & (labels != np.roll(labels, 1)),
        continues & (subs != np.roll(subs, 1)),
        has_seq & ~continues & (first[where] < np.arange(labels.size)),
    ])
    row = int(np.argmax(broken.any(axis=0))) if broken.any() else labels.size
    if fault is not None and fault[0] <= row:
        raise _RowError(*fault)
    if row < labels.size:
        rule = int(np.argmax(broken[:, row]))
        value = (labels, subs, seqs, seqs, seqs)[rule][row]
        raise _RowError(row, _RULES[rule].format(value, n_classes))
    return np.flatnonzero(~continues)


class EmbeddingDataset:
    """Rows of one feature dim and class count, grouped into units.

    The rows are one read-only (R, F) float64 array plus (R,) int64
    label, sequence-id and subcluster-id columns, ``_NO_ID`` for None.
    Each row is checked once.  A loaded row's values are the parser's to
    check; a ``Sample``'s shape and finiteness are checked here, before
    the rows are stacked (copied) into the array.  Then the id columns
    are checked in NumPy (labels in range, subcluster ids non-negative,
    the sequence rules), naming the first faulty row.
    ``temporal_mean_pool`` and ``encode_image`` keep their own checks.
    Training, purity and the baselines read the per-unit columns, not ``units()``.
    Unit frames and ``samples``' features are views into the array.
    Treat instances as immutable.
    """

    def __init__(self, samples, feature_dim: int, n_classes: int):
        samples = list(samples)
        ids = ([s.label for s in samples], [s.sequence_id for s in samples],
               [s.subcluster_id for s in samples])
        self._adopt(feature_dim, n_classes, ids, lambda: _feature_fault(samples, feature_dim))
        # The checked rows stack into the dataset's own copy of them.
        features = np.array([s.features for s in samples], dtype=np.float64)
        self._features = _read_only(features.reshape(len(samples), feature_dim))

    @classmethod
    def _from_columns(cls, features: np.ndarray, ids: tuple, n_classes: int) -> "EmbeddingDataset":
        """A dataset over (R, F) ``features``, kept read-only, and three id lists or columns."""
        dataset = cls.__new__(cls)
        dataset._adopt(features.shape[1], n_classes, ids, lambda: None)
        dataset._features = _read_only(features)
        return dataset

    def _adopt(self, feature_dim, n_classes, ids, feature_fault):
        if feature_dim < 1:
            raise ContractViolation(f"feature_dim must be >= 1, got {feature_dim}")
        if n_classes < 1:
            raise ContractViolation(f"n_classes must be >= 1, got {n_classes}")
        self.feature_dim, self.n_classes, self._units = feature_dim, n_classes, None
        self._columns = tuple(map(_id_column, ids, ("label", "sequence id", "subcluster id")))
        self._starts = _unit_starts(n_classes, *self._columns, feature_fault())

    def __len__(self) -> int:
        return self._columns[0].size

    @property
    def samples(self) -> list[Sample]:
        """The rows as ``Sample`` objects, built on each read; features are read-only views."""
        labels, seqs, subs = self._columns
        return list(map(Sample, self._features, labels.tolist(), _ids(seqs), _ids(subs)))

    def units(self) -> list[Unit]:
        """Group contiguous same-sequence rows; single rows are their own unit.

        Each unit's frames are a read-only view into the dataset's array.
        """
        if self._units is None:
            starts = self._starts
            labels, seqs, subs = (column[starts] for column in self._columns)
            bounds = zip(starts.tolist(), [*starts[1:].tolist(), len(self)])
            self._units = [
                Unit(self._features[a:b], *ids)
                for (a, b), *ids in zip(bounds, labels.tolist(), _ids(seqs), _ids(subs))
            ]
        return self._units

    @cached_property
    def unit_labels(self) -> np.ndarray:
        """Each unit's class, (U,) read-only, in ``units()`` order, built on first use."""
        return _read_only(self._columns[0][self._starts])

    @cached_property
    def unit_subclusters(self) -> np.ndarray:
        """Each unit's subcluster id, negative for ``-``, (U,) read-only, in ``units()`` order."""
        return _read_only(self._columns[2][self._starts])

    @cached_property
    def pooled(self) -> np.ndarray:
        """Each unit's ``temporal_mean_pool`` of its frames, (U, F) read-only, built on first use.

        One ``mean`` per unit length L, over the (units, L, F) block of those
        units' frames: each row has the bits of its unit's own mean, whose
        sum starts at 0.0 and adds the frames in order (pairwise when F is 1).
        The rows are checked for non-finite entries once, as the pool checks them.
        """
        features = self._features
        if not np.isfinite(features).all():
            raise ContractViolation("frames contain non-finite entries")
        starts = self._starts
        lengths = np.diff(starts, append=len(self))
        pooled = np.empty((starts.size, self.feature_dim))
        for length in np.unique(lengths).tolist():
            which = lengths == length
            pooled[which] = features[starts[which][:, None] + np.arange(length)].mean(axis=1)
        return _read_only(pooled)

    def unit_class_counts(self) -> np.ndarray:
        return np.bincount(self.unit_labels, minlength=self.n_classes)


@dataclass(frozen=True)
class SynthConfig:
    """Geometry of a synthetic benchmark.

    Each class owns ``subclusters_per_class`` unit-norm mean directions;
    samples are Gaussian around their mean with spread ``sigma``
    (sigma = 0 degenerates to exact copies of the means, which is allowed
    and useful for tests).  Angles are in degrees.  Within a class the
    means are pairwise exactly ``intra_class_angle`` apart; across
    classes every pair of means is at 90 degrees, so the checked bound
    ``inter_class_min_angle`` holds by construction.  A geometry that
    cannot be built is rejected here: an intra angle beyond the simplex
    limit arccos(-1/(G-1)), a ``feature_dim`` below n_classes * G, or an
    inter bound above 90 degrees.
    """

    n_classes: int
    subclusters_per_class: int
    samples_per_subcluster: int
    feature_dim: int
    sigma: float
    inter_class_min_angle: float = 45.0
    intra_class_angle: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _require_positive(
            n_classes=self.n_classes,
            subclusters_per_class=self.subclusters_per_class,
            samples_per_subcluster=self.samples_per_subcluster,
            feature_dim=self.feature_dim,
        )
        _require_seed(self.seed)
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ContractViolation(f"sigma must be >= 0, got {self.sigma}")
        for name, top in (("inter_class_min_angle", 90.0), ("intra_class_angle", 180.0)):
            value = getattr(self, name)
            if not (0.0 <= value <= top):
                raise ContractViolation(f"{name} must be in [0, {top:g}], got {value}")
        g = self.subclusters_per_class
        if g > 1:
            limit = math.degrees(math.acos(-1.0 / (g - 1)))
            if self.intra_class_angle > limit + 1e-9:
                raise ContractViolation(
                    f"{g} unit vectors cannot be pairwise {self.intra_class_angle} "
                    f"degrees apart (maximum {limit:.4f} degrees)"
                )
        if self.feature_dim < self.n_classes * g:
            raise ContractViolation(
                f"feature_dim {self.feature_dim} too small for {self.n_classes} classes "
                f"x {g} subcluster means (needs >= {self.n_classes * g})"
            )


def _synthetic_means(config: SynthConfig, rng: "np.random.Generator") -> np.ndarray:
    """The (n_classes, G, dim) unit-norm means, in closed form from one QR frame.

    Class i owns its own block C of G orthonormal columns, so every
    cross-class pair is orthogonal.  With G > 1 its means are
    sqrt(t)*u + sqrt(1-t)*w_k, where u = C*1/sqrt(G) is the block's axis,
    w_k = C*(e_k - 1/G)/||.|| are regular-simplex vertices (pairwise
    cosine -1/(G-1), orthogonal to u), and t = (cos(theta)*(G-1) + 1)/G
    makes every same-class cosine cos(theta).
    """
    n, g = config.n_classes, config.subclusters_per_class
    frame, _ = np.linalg.qr(rng.normal(size=(config.feature_dim, n * g)))
    blocks = frame.T.reshape(n, g, config.feature_dim)
    if g == 1:
        return blocks
    cos_intra = math.cos(math.radians(config.intra_class_angle))
    # At the simplex limit, rounding can leave t a hair below zero.
    t = max((cos_intra * (g - 1) + 1.0) / g, 0.0)
    simplex = np.eye(g) - 1.0 / g
    simplex /= np.linalg.norm(simplex[0])
    axes = blocks.sum(axis=1, keepdims=True) / math.sqrt(g)
    return math.sqrt(t) * axes + math.sqrt(1.0 - t) * (simplex @ blocks)


def dataset_from_means(
    means: np.ndarray,
    samples_per_subcluster,
    sigma: float,
    rng: "np.random.Generator",
) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Sample Gaussian subclusters around given means and 80/20-split them.

    ``means`` has shape (n_classes, subclusters, dim).
    ``samples_per_subcluster`` is an int or an array broadcastable to
    (n_classes, subclusters), so subclusters may be imbalanced.  Each
    subcluster contributes floor(0.8 * n) samples to train and the rest
    to test, split by a seeded shuffle; rows are ordered class-major and
    carry their true subcluster id.
    """
    n_classes, subclusters, dim = means.shape
    counts = np.broadcast_to(
        np.asarray(samples_per_subcluster, dtype=np.int64),
        (n_classes, subclusters),
    )
    splits = ([], [])  # each subcluster's train and test points, class-major
    for i in range(n_classes):
        for k in range(subclusters):
            n_per = int(counts[i, k])
            noise = rng.normal(size=(n_per, dim))
            points = means[i, k] + sigma * noise
            order = rng.permutation(n_per)
            n_train = int(math.floor(0.8 * n_per))
            splits[0].append(points[np.sort(order[:n_train])])
            splits[1].append(points[np.sort(order[n_train:])])
    labels, subs = np.indices((n_classes, subclusters), dtype=np.int64).reshape(2, -1)
    datasets = []
    for blocks in splits:
        sizes = [len(points) for points in blocks]
        columns = (np.repeat(labels, sizes), np.full(sum(sizes), _NO_ID), np.repeat(subs, sizes))
        features = np.concatenate([np.empty((0, dim)), *blocks])
        datasets.append(EmbeddingDataset._from_columns(features, columns, n_classes))
    return tuple(datasets)


def generate_synthetic(config: SynthConfig) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Build a (train, test) pair of sub-clustered Gaussian datasets.

    The means are placed in closed form (``_synthetic_means``).  Each
    subcluster contributes floor(0.8 * n) samples to train and the rest
    to test, split by a seeded shuffle.  Rows carry their true subcluster
    id; everything is deterministic in ``config.seed``.
    """
    rng = np.random.default_rng([STREAM_SYNTH, config.seed])
    means = _synthetic_means(config, rng)
    return dataset_from_means(
        means, config.samples_per_subcluster, config.sigma, rng
    )


def apply_linear_map(dataset: EmbeddingDataset, matrix) -> EmbeddingDataset:
    """Map every feature vector through a fixed matrix (new dataset)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != dataset.feature_dim:
        raise ContractViolation(
            f"matrix shape {m.shape} incompatible with feature_dim "
            f"{dataset.feature_dim}"
        )
    if not np.all(np.isfinite(m)):
        raise ContractViolation("matrix contains non-finite entries")
    # One matrix-vector product per row, which has the bits of ``m @ row``.
    mapped = np.matmul(m, dataset._features[..., None])[..., 0]
    return EmbeddingDataset._from_columns(mapped, dataset._columns, dataset.n_classes)


def oversample_balance(dataset: EmbeddingDataset, seed: int) -> EmbeddingDataset:
    """Duplicate units of minority classes until every class matches the max.

    Original samples are all retained in their original order; duplicates
    are appended afterwards, class by class.  Duplicated sequences get
    fresh sequence ids so they stay distinct units.  Deterministic in
    ``seed``; a class with zero units is an error.
    """
    _require_seed(seed)
    counts = dataset.unit_class_counts()
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise ContractViolation(f"class {missing} has no units to oversample")
    target = int(np.max(counts))
    rng = np.random.default_rng([STREAM_OVERSAMPLE, seed])
    labels, seqs, subs = dataset._columns
    next_id = max(seqs[seqs != _NO_ID].tolist(), default=-1) + 1
    bounds = [*dataset._starts.tolist(), len(dataset)]
    # Python ints, so a fresh id past 2**63 - 1 is the constructor's row error.
    rows, seq_ids = list(range(len(dataset))), _ids(seqs)
    for label in range(dataset.n_classes):
        deficit = target - int(counts[label])
        if deficit == 0:
            continue
        pool = np.flatnonzero(dataset.unit_labels == label)
        for unit in pool[rng.choice(len(pool), size=deficit, replace=True)].tolist():
            start, end = bounds[unit], bounds[unit + 1]
            rows.extend(range(start, end))
            if seqs[start] == _NO_ID:
                seq_ids.append(None)
            else:
                seq_ids.extend([next_id] * (end - start))
                next_id += 1
    return EmbeddingDataset._from_columns(
        dataset._features[rows], (labels[rows], seq_ids, subs[rows]), dataset.n_classes
    )


def save_dataset(dataset: EmbeddingDataset, path: str):
    header = f"metd-embed v{FORMAT_VERSION} dim={dataset.feature_dim} classes={dataset.n_classes}"
    labels, seqs, subs = dataset._columns
    write_lines(path, itertools.chain([header], (
        f"{label}\t{'-' if seq is None else seq}\t{'-' if sub is None else sub}\t"
        f"{format_floats(row)}"
        for label, seq, sub, row in zip(labels.tolist(), _ids(seqs), _ids(subs), dataset._features)
    )))


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", line=line_no) from None


def load_dataset(path: str) -> EmbeddingDataset:
    records = read_records(path, _DATASET_HEADER, "dataset", 4)
    dim, n_classes = map(int, next(records).groups()[1:])
    if dim < 1:
        # Checked before the rows, which would be blamed for the header's dim.
        raise ParseError(f"feature_dim must be >= 1, got {dim}", line=1)
    labels, sequence_ids, subcluster_ids = [], [], []  # parsed as the rows stream

    def feature_rows():
        for line_no, (label, seq, sub, features) in records:
            labels.append(_parse_int(label, "class label", line_no))
            sequence_ids.append(None if seq == "-" else _parse_int(seq, "sequence id", line_no))
            subcluster_ids.append(None if sub == "-" else _parse_int(sub, "subcluster id", line_no))
            yield line_no, features

    features = parse_float_rows(feature_rows(), dim)
    try:
        return EmbeddingDataset._from_columns(
            features, (labels, sequence_ids, subcluster_ids), n_classes
        )
    except _RowError as exc:
        # The header is line 1, and each later line is one row.
        raise ParseError(exc.problem, line=exc.row + 2) from exc
    except ContractViolation as exc:
        # Any other breach is the header's dim or class count.
        raise ParseError(str(exc), line=1) from exc


@dataclass
class Vocabulary:
    """A word list with one embedding per word, for decoding tokens."""

    words: list[str]
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ContractViolation(
                f"vectors must be 2-D, got shape {self.vectors.shape}"
            )
        if len(self.words) != self.vectors.shape[0]:
            raise ContractViolation(
                f"{len(self.words)} words vs {self.vectors.shape[0]} vectors"
            )
        seen = set()
        for idx, word in enumerate(self.words):
            if not word or "\t" in word or "\n" in word:
                raise _RowError(idx, f"bad vocabulary word {word!r}")
            if word in seen:
                raise _RowError(idx, "duplicate words in vocabulary")
            seen.add(word)
        if not np.all(np.isfinite(self.vectors)):
            raise ContractViolation("vocabulary vectors contain non-finite entries")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.words)


def save_vocabulary(vocab: Vocabulary, path: str):
    write_lines(path, [f"metd-vocab v{FORMAT_VERSION} dim={vocab.dim}"] + [
        f"{word}\t{format_floats(vector)}" for word, vector in zip(vocab.words, vocab.vectors)
    ])


def load_vocabulary(path: str) -> Vocabulary:
    records = read_records(path, _VOCAB_HEADER, "vocabulary", 2)
    dim = int(next(records).group(2))
    if dim < 1:
        raise ParseError(f"dim must be >= 1, got {dim}", line=1)
    words = []

    def vector_rows():
        for line_no, (word, vector) in records:
            words.append(word)
            yield line_no, vector

    vectors = parse_float_rows(vector_rows(), dim)
    if not words:
        raise ParseError("vocabulary has no words")
    try:
        return Vocabulary(words=words, vectors=vectors)
    except _RowError as exc:
        # The header is line 1, and each later line is one word.
        raise ParseError(exc.problem, line=exc.row + 2) from exc


def nearest_words(vocab: Vocabulary, token, top_n: int) -> list[tuple[str, float]]:
    """The top_n vocabulary words closest to a token, by Euclidean distance.

    Ties keep vocabulary order.  Asking for more words than exist returns
    them all.
    """
    if len(vocab) == 0:
        raise ContractViolation("vocabulary is empty")
    if top_n < 1:
        raise ContractViolation(f"top_n must be >= 1, got {top_n}")
    t = np.asarray(token, dtype=np.float64)
    if t.shape != (vocab.dim,):
        raise ContractViolation(f"token shape {t.shape} != ({vocab.dim},)")
    distances = np.linalg.norm(vocab.vectors - t, axis=1)
    order = np.argsort(distances, kind="stable")[: min(top_n, len(vocab))]
    return [(vocab.words[int(i)], float(distances[int(i)])) for i in order]
