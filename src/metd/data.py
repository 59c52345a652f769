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
saving again produces a byte-identical file.

Rows that share a sequence id form one unit (for example the frames of
one clip) and must be contiguous in the file and agree on class and
subcluster.  Rows with ``-`` in the sequence column are single-sample
units.  The subcluster column carries ground-truth subcluster ids,
non-negative integers, for synthetic data and is ``-`` when unknown.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, InfeasibleConfigError, ParseError
from .model import (
    FORMAT_VERSION,
    STREAM_OVERSAMPLE,
    STREAM_SYNTH,
    format_floats,
    parse_floats,
    read_records,
    write_lines,
)

_DATASET_HEADER = re.compile(r"^metd-embed v(\d+) dim=(\d+) classes=(\d+)$")
_VOCAB_HEADER = re.compile(r"^metd-vocab v(\d+) dim=(\d+)$")

# Total rejection-sampling attempts allowed when placing subcluster means.
_MEAN_SAMPLING_BUDGET = 200_000


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


class _RowError(ContractViolation):
    """Row ``row`` (0-based) of an ``EmbeddingDataset`` or ``Vocabulary`` breaks its contract."""

    def __init__(self, row: int, problem: str):
        super().__init__(f"row {row}: {problem}")
        self.row = row
        self.problem = problem


class EmbeddingDataset:
    """An ordered list of samples with a fixed feature dim and class count.

    Validates on construction: labels in range, uniform finite features,
    subcluster ids non-negative, sequence rows contiguous and internally
    consistent.  Treat instances as immutable once built.
    """

    def __init__(self, samples: list[Sample], feature_dim: int, n_classes: int):
        if feature_dim < 1:
            raise ContractViolation(f"feature_dim must be >= 1, got {feature_dim}")
        if n_classes < 1:
            raise ContractViolation(f"n_classes must be >= 1, got {n_classes}")
        self.samples = list(samples)
        self.feature_dim = feature_dim
        self.n_classes = n_classes
        self._units: list[Unit] | None = None
        self._starts = self._validate()

    def _validate(self) -> list[int]:
        """Check every row, in one pass; return the index of each unit's first row."""
        starts = []
        started_ids = set()
        for idx, sample in enumerate(self.samples):
            arr = np.asarray(sample.features, dtype=np.float64)
            if arr.shape != (self.feature_dim,):
                raise _RowError(idx, f"feature shape {arr.shape} != ({self.feature_dim},)")
            if not np.all(np.isfinite(arr)):
                raise _RowError(idx, "non-finite features")
            if not 0 <= sample.label < self.n_classes:
                raise _RowError(
                    idx, f"label {sample.label} out of range [0, {self.n_classes})"
                )
            if sample.subcluster_id is not None and sample.subcluster_id < 0:
                raise _RowError(idx, f"negative subcluster id {sample.subcluster_id}")
            sid = sample.sequence_id
            head = self.samples[starts[-1]] if starts else None
            if sid is not None and head is not None and sid == head.sequence_id:
                # Continuing the current sequence block.
                if sample.label != head.label:
                    raise _RowError(idx, f"sequence {sid} mixes labels")
                if sample.subcluster_id != head.subcluster_id:
                    raise _RowError(idx, f"sequence {sid} mixes subcluster ids")
            elif sid is not None and sid in started_ids:
                raise _RowError(idx, f"sequence {sid} is not contiguous")
            else:
                started_ids.add(sid)
                starts.append(idx)
        return starts

    def __len__(self) -> int:
        return len(self.samples)

    def units(self) -> list[Unit]:
        """Group contiguous same-sequence rows; single rows are their own unit."""
        if self._units is None:
            ends = self._starts[1:] + [len(self.samples)]
            self._units = [
                Unit(
                    frames=np.vstack(
                        [np.asarray(s.features, dtype=np.float64) for s in self.samples[a:b]]
                    ),
                    label=self.samples[a].label,
                    sequence_id=self.samples[a].sequence_id,
                    subcluster_id=self.samples[a].subcluster_id,
                )
                for a, b in zip(self._starts, ends)
            ]
        return self._units

    def unit_class_counts(self) -> np.ndarray:
        counts = np.zeros(self.n_classes, dtype=np.int64)
        for unit in self.units():
            counts[unit.label] += 1
        return counts


@dataclass(frozen=True)
class SynthConfig:
    """Geometry of a synthetic benchmark.

    Each class owns ``subclusters_per_class`` unit-norm mean directions;
    samples are Gaussian around their mean with spread ``sigma``
    (sigma = 0 degenerates to exact copies of the means, which is allowed
    and useful for tests).  Angles are in degrees.  Within a class the
    means are placed equiangularly at exactly ``intra_class_angle``
    pairwise; across classes every pair of means must be at least
    ``inter_class_min_angle`` apart (enforced by rejection sampling).
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
        for name in (
            "n_classes",
            "subclusters_per_class",
            "samples_per_subcluster",
            "feature_dim",
        ):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ContractViolation(f"{name} must be a positive integer, got {value!r}")
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ContractViolation(f"sigma must be >= 0, got {self.sigma}")
        for name in ("inter_class_min_angle", "intra_class_angle"):
            value = getattr(self, name)
            if not (0.0 <= value <= 180.0):
                raise ContractViolation(f"{name} must be in [0, 180], got {value}")


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        norm = math.sqrt(float(np.dot(v, v)))
        if norm > 0.0:
            return v / norm


def _cross_angles_ok(candidates, accepted, cos_limit: float) -> bool:
    for v in candidates:
        for u in accepted:
            if float(np.dot(v, u)) > cos_limit:
                return False
    return True


def _equiangular_set(
    rng: np.random.Generator, dim: int, count: int, cos_pair: float
) -> list[np.ndarray]:
    """Unit vectors with every pairwise cosine exactly ``cos_pair``.

    Built as sqrt(t)*u + sqrt(1-t)*(frame @ simplex_k) around a random
    axis u, where the simplex vertices have pairwise cosine -1/(count-1)
    and t solves the target cosine.  Needs dim >= count + 1.
    """
    if count == 1:
        return [_unit_vector(rng, dim)]
    t = (cos_pair * (count - 1) + 1.0) / count
    t = min(max(t, 0.0), 1.0)
    while True:
        u = _unit_vector(rng, dim)
        raw = rng.normal(size=(dim, count))
        raw -= np.outer(u, u @ raw)
        frame, r = np.linalg.qr(raw)
        if np.min(np.abs(np.diag(r))) < 1e-9:
            continue
        simplex = np.eye(count) - 1.0 / count
        simplex /= np.linalg.norm(simplex[0])
        vectors = []
        for k in range(count):
            v = math.sqrt(t) * u + math.sqrt(1.0 - t) * (frame @ simplex[k])
            vectors.append(v / math.sqrt(float(np.dot(v, v))))
        return vectors


def _sample_means(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Place unit-norm subcluster means satisfying both angle constraints.

    Within a class the means are constructed at exactly the configured
    intra-class angle; classes are placed one at a time by rejection
    sampling against the inter-class constraint with a shared attempt
    budget.  Impossible intra-class geometries (a set of G unit vectors
    cannot be pairwise further apart than arccos(-1/(G-1))) are rejected
    up front.
    """
    g = config.subclusters_per_class
    if g > 1:
        limit = math.degrees(math.acos(-1.0 / (g - 1)))
        if config.intra_class_angle > limit + 1e-9:
            raise InfeasibleConfigError(
                f"{g} unit vectors cannot be pairwise >= "
                f"{config.intra_class_angle} degrees apart "
                f"(maximum {limit:.4f} degrees)"
            )
        if config.feature_dim < g + 1:
            raise InfeasibleConfigError(
                f"feature_dim {config.feature_dim} too small for {g} "
                f"equiangular subcluster means (needs >= {g + 1})"
            )
    cos_intra = math.cos(math.radians(config.intra_class_angle))
    cos_inter = math.cos(math.radians(config.inter_class_min_angle))
    accepted: list[np.ndarray] = []
    means = np.empty((config.n_classes, g, config.feature_dim))
    attempts = 0
    for i in range(config.n_classes):
        while True:
            attempts += 1
            if attempts > _MEAN_SAMPLING_BUDGET:
                raise InfeasibleConfigError(
                    f"could not place subcluster means for class {i} within "
                    f"{_MEAN_SAMPLING_BUDGET} attempts; relax the angle "
                    f"constraints or raise feature_dim"
                )
            candidates = _equiangular_set(
                rng, config.feature_dim, g, cos_intra
            )
            if not _cross_angles_ok(candidates, accepted, cos_inter):
                continue
            break
        means[i] = np.vstack(candidates)
        accepted.extend(candidates)
    return means


def dataset_from_means(
    means: np.ndarray,
    samples_per_subcluster,
    sigma: float,
    rng: np.random.Generator,
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
    train_rows: list[Sample] = []
    test_rows: list[Sample] = []
    for i in range(n_classes):
        for k in range(subclusters):
            n_per = int(counts[i, k])
            noise = rng.normal(size=(n_per, dim))
            points = means[i, k] + sigma * noise
            order = rng.permutation(n_per)
            n_train = int(math.floor(0.8 * n_per))
            train_idx = np.sort(order[:n_train])
            test_idx = np.sort(order[n_train:])
            for idx in train_idx:
                train_rows.append(
                    Sample(features=points[idx], label=i, subcluster_id=k)
                )
            for idx in test_idx:
                test_rows.append(
                    Sample(features=points[idx], label=i, subcluster_id=k)
                )
    train = EmbeddingDataset(train_rows, dim, n_classes)
    test = EmbeddingDataset(test_rows, dim, n_classes)
    return train, test


def generate_synthetic(config: SynthConfig) -> tuple[EmbeddingDataset, EmbeddingDataset]:
    """Build a (train, test) pair of sub-clustered Gaussian datasets.

    Each subcluster contributes floor(0.8 * n) samples to train and the
    rest to test, split by a seeded shuffle.  Rows carry their true
    subcluster id; everything is deterministic in ``config.seed``.
    """
    rng = np.random.default_rng([STREAM_SYNTH, config.seed])
    means = _sample_means(config, rng)
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
    rows = [
        Sample(
            features=m @ np.asarray(s.features, dtype=np.float64),
            label=s.label,
            sequence_id=s.sequence_id,
            subcluster_id=s.subcluster_id,
        )
        for s in dataset.samples
    ]
    return EmbeddingDataset(rows, m.shape[0], dataset.n_classes)


def oversample_balance(dataset: EmbeddingDataset, seed: int) -> EmbeddingDataset:
    """Duplicate units of minority classes until every class matches the max.

    Original samples are all retained in their original order; duplicates
    are appended afterwards, class by class.  Duplicated sequences get
    fresh sequence ids so they stay distinct units.  Deterministic in
    ``seed``; a class with zero units is an error.
    """
    units = dataset.units()
    counts = dataset.unit_class_counts()
    if np.any(counts == 0):
        missing = int(np.argmin(counts))
        raise ContractViolation(f"class {missing} has no units to oversample")
    target = int(np.max(counts))
    rng = np.random.default_rng([STREAM_OVERSAMPLE, seed])
    used_ids = [s.sequence_id for s in dataset.samples if s.sequence_id is not None]
    next_id = max(used_ids, default=-1) + 1
    new_rows = list(dataset.samples)
    for label in range(dataset.n_classes):
        deficit = target - int(counts[label])
        if deficit == 0:
            continue
        pool = [idx for idx, u in enumerate(units) if u.label == label]
        picks = rng.choice(len(pool), size=deficit, replace=True)
        for pick in picks:
            unit = units[pool[int(pick)]]
            if unit.sequence_id is None:
                new_rows.append(
                    Sample(
                        features=unit.frames[0],
                        label=unit.label,
                        subcluster_id=unit.subcluster_id,
                    )
                )
            else:
                for frame in unit.frames:
                    new_rows.append(
                        Sample(
                            features=frame,
                            label=unit.label,
                            sequence_id=next_id,
                            subcluster_id=unit.subcluster_id,
                        )
                    )
                next_id += 1
    return EmbeddingDataset(new_rows, dataset.feature_dim, dataset.n_classes)


def save_dataset(dataset: EmbeddingDataset, path: str):
    header = f"metd-embed v{FORMAT_VERSION} dim={dataset.feature_dim} classes={dataset.n_classes}"
    write_lines(path, [header] + [
        f"{s.label}\t{'-' if s.sequence_id is None else s.sequence_id}\t"
        f"{'-' if s.subcluster_id is None else s.subcluster_id}\t"
        f"{format_floats(np.asarray(s.features, dtype=np.float64))}"
        for s in dataset.samples
    ])


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", line=line_no) from None


def load_dataset(path: str) -> EmbeddingDataset:
    records = read_records(path, _DATASET_HEADER, "dataset", 4)
    dim, n_classes = map(int, next(records).groups()[1:])
    samples = [
        Sample(
            label=_parse_int(label, "class label", line_no),
            sequence_id=None if seq == "-" else _parse_int(seq, "sequence id", line_no),
            subcluster_id=None if sub == "-" else _parse_int(sub, "subcluster id", line_no),
            features=parse_floats(features, dim, line_no),
        )
        for line_no, (label, seq, sub, features) in records
    ]
    try:
        return EmbeddingDataset(samples, dim, n_classes)
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
    rows = [(word, parse_floats(vector, dim, line_no)) for line_no, (word, vector) in records]
    if not rows:
        raise ParseError("vocabulary has no words")
    words, vectors = zip(*rows)
    try:
        return Vocabulary(words=list(words), vectors=np.vstack(vectors))
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
