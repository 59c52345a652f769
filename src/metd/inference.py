"""Prediction and evaluation.

A sample is scored against each class by the mean cosine similarity over
that class's subclass descriptors; the predicted label is the argmax
(lowest index on ties).  Sequences are pooled to a single embedding by a
temporal mean over per-frame embeddings before scoring, so a sequence
and its pooled embedding receive the same prediction by construction.

Accuracy is reported two ways: WAR (weighted average recall) is the
fraction of units predicted correctly, UAR (unweighted average recall)
is the mean of per-class recalls, which weights every class equally no
matter how many samples it has.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import numerics
from .data import EmbeddingDataset, Unit
from .errors import ContractViolation
from .model import Model, bank_embeddings, encode_image


@dataclass(frozen=True)
class Prediction:
    """Mean-similarity logits, the winning label, per-class closest subclass."""

    logits: np.ndarray
    label: int
    subclass_argmax: np.ndarray


def predict(image_embedding, text_embeddings) -> Prediction:
    """Score one embedding against an (N, K, D) descriptor stack.

    logit i = mean over k of cos(V, T[i, k]); label = argmax with
    lowest-index tie-break.  ``subclass_argmax[i]`` records which
    subclass of class i was most similar, for assignment histograms.
    """
    v = numerics.as_vector(image_embedding, "image_embedding")
    stack = np.asarray(text_embeddings, dtype=np.float64)
    if stack.ndim != 3:
        raise ContractViolation(
            f"text_embeddings must be 3-D (classes, subclasses, dim), "
            f"got shape {stack.shape}"
        )
    if stack.shape[2] != v.shape[0]:
        raise ContractViolation(
            f"embedding dim {v.shape[0]} != descriptor dim {stack.shape[2]}"
        )
    sims = numerics.cosine_similarity(v, stack)
    logits = sims.mean(axis=1)
    return Prediction(
        logits=logits,
        label=int(np.argmax(logits)),
        subclass_argmax=np.argmax(sims, axis=1),
    )


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


def zero_shot_predict(image_embedding, class_embeddings, temperature: float) -> np.ndarray:
    """Softmax over cosine similarities against one embedding per class."""
    v = numerics.as_vector(image_embedding, "image_embedding")
    stack = np.asarray(class_embeddings, dtype=np.float64)
    if stack.ndim != 2:
        raise ContractViolation(
            f"class_embeddings must be 2-D, got shape {stack.shape}"
        )
    if stack.shape[0] < 2:
        raise ContractViolation("zero-shot prediction needs at least 2 classes")
    if stack.shape[1] != v.shape[0]:
        raise ContractViolation(
            f"embedding dim {v.shape[0]} != class embedding dim {stack.shape[1]}"
        )
    if not (temperature > 0.0 and np.isfinite(temperature)):
        raise ContractViolation(f"temperature must be > 0, got {temperature}")
    sims = numerics.cosine_similarity(v, stack)
    return numerics.stable_softmax(sims / temperature)


def unit_embedding(model: Model, unit: Unit) -> np.ndarray:
    """Adapter-encode each frame, then temporal-mean-pool.

    The adapter is affine, so this equals encoding the pooled raw frames;
    single-sample units pass through the pool unchanged.
    """
    encoded = np.vstack([encode_image(model.adapter, frame) for frame in unit.frames])
    return temporal_mean_pool(encoded)


@dataclass(frozen=True)
class EvalReport:
    """WAR/UAR, confusion counts, and (when a model ran) subclass usage.

    ``per_class_recall`` holds NaN for classes absent from the data;
    those classes are excluded from the UAR mean.  ``subclass_histogram``
    is None when the report was built from bare label pairs.
    """

    war: float
    uar: float
    per_class_recall: np.ndarray
    confusion: np.ndarray
    n_units: int
    subclass_histogram: np.ndarray | None = None


def report_from_labels(
    truths, predictions, n_classes: int, subclass_histogram=None
) -> EvalReport:
    """Confusion matrix, WAR, and UAR from parallel label lists."""
    truths = list(truths)
    predictions = list(predictions)
    if len(truths) != len(predictions):
        raise ContractViolation(
            f"{len(truths)} truths vs {len(predictions)} predictions"
        )
    if not truths:
        raise ContractViolation("cannot evaluate zero units")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(truths, predictions):
        if not (0 <= t < n_classes and 0 <= p < n_classes):
            raise ContractViolation(f"label pair ({t}, {p}) out of range")
        confusion[t, p] += 1
    row_totals = confusion.sum(axis=1)
    recall = np.full(n_classes, np.nan)
    present = row_totals > 0
    recall[present] = confusion.diagonal()[present] / row_totals[present]
    war = float(confusion.diagonal().sum()) / float(len(truths))
    uar = float(np.mean(recall[present]))
    return EvalReport(
        war=war,
        uar=uar,
        per_class_recall=recall,
        confusion=confusion,
        n_units=len(truths),
        subclass_histogram=subclass_histogram,
    )


def check_compatible(dataset: EmbeddingDataset, model: Model):
    """Raise ContractViolation unless the dataset's dims and classes fit the model."""
    if dataset.feature_dim != model.adapter.feature_dim:
        raise ContractViolation(
            f"dataset feature_dim {dataset.feature_dim} != "
            f"adapter feature_dim {model.adapter.feature_dim}"
        )
    if dataset.n_classes != model.n_classes:
        raise ContractViolation(
            f"dataset classes {dataset.n_classes} != model classes {model.n_classes}"
        )


def _score_units(dataset: EmbeddingDataset, model: Model):
    units = dataset.units()
    if not units:
        raise ContractViolation("cannot evaluate an empty dataset")
    check_compatible(dataset, model)
    stack = bank_embeddings(model.bank, model.encoder)
    rows = []
    for unit in units:
        pred = predict(unit_embedding(model, unit), stack)
        assigned = int(pred.subclass_argmax[unit.label])
        rows.append((unit.label, pred.label, assigned, unit.subcluster_id))
    return rows


def evaluate(dataset: EmbeddingDataset, model: Model) -> EvalReport:
    """Score every unit of the dataset with the model."""
    rows = _score_units(dataset, model)
    histogram = np.zeros((model.n_classes, model.n_subclasses), dtype=np.int64)
    for truth, _, assigned, _ in rows:
        histogram[truth, assigned] += 1
    return report_from_labels(
        [r[0] for r in rows],
        [r[1] for r in rows],
        dataset.n_classes,
        subclass_histogram=histogram,
    )


@dataclass(frozen=True)
class SubclassReport:
    """Within-class subclass assignment histogram plus optional purity.

    ``histogram[i, k]`` counts units of true class i whose most similar
    descriptor of class i was subclass k.  ``purity`` is filled in only
    when the dataset carries ground-truth subcluster ids: per class, the
    assignment-vs-truth overlap table is matched one-to-one (maximum
    overlap) and purity is the matched fraction over all id-carrying
    units.  With a single subclass per class, purity is 1.0 by
    convention.
    """

    histogram: np.ndarray
    purity: float | None


def subclass_report(dataset: EmbeddingDataset, model: Model) -> SubclassReport:
    rows = _score_units(dataset, model)
    n, k = model.n_classes, model.n_subclasses
    histogram = np.zeros((n, k), dtype=np.int64)
    assignments = []
    for truth, _, assigned, subcluster in rows:
        histogram[truth, assigned] += 1
        if subcluster is not None:
            assignments.append((truth, assigned, subcluster))
    if not assignments:
        return SubclassReport(histogram=histogram, purity=None)
    if k == 1:
        return SubclassReport(histogram=histogram, purity=1.0)
    matched = 0
    for label in range(n):
        pairs = [(a, g) for (t, a, g) in assignments if t == label]
        if not pairs:
            continue
        n_sub = max(g for _, g in pairs) + 1
        overlap = np.zeros((k, n_sub), dtype=np.int64)
        for a, g in pairs:
            overlap[a, g] += 1
        rr, cc = linear_sum_assignment(overlap, maximize=True)
        matched += int(overlap[rr, cc].sum())
    return SubclassReport(histogram=histogram, purity=matched / len(assignments))


def format_eval_report(
    report: EvalReport, subclasses: SubclassReport | None = None
) -> str:
    """Plain-text report: tab-separated confusion rows, then key=value lines."""
    lines = ["confusion (rows true, cols predicted):"]
    for row in report.confusion:
        lines.append("\t".join(str(int(c)) for c in row))
    recalls = ",".join(
        "-" if np.isnan(r) else f"{r:.6f}" for r in report.per_class_recall
    )
    lines.append(f"war={report.war:.6f}")
    lines.append(f"uar={report.uar:.6f}")
    lines.append(f"per_class_recall={recalls}")
    lines.append(f"units={report.n_units}")
    histogram = report.subclass_histogram
    purity = None
    if subclasses is not None:
        histogram = subclasses.histogram
        purity = subclasses.purity
    if histogram is not None:
        flat = ";".join(",".join(str(int(c)) for c in row) for row in histogram)
        lines.append(f"subclass_histogram={flat}")
    if purity is not None:
        lines.append(f"subclass_purity={purity:.6f}")
    return "\n".join(lines)
