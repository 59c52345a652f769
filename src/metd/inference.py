"""Prediction and evaluation.

A sample is scored against each class by the mean cosine similarity over
that class's subclass descriptors; the predicted label is the argmax
(lowest index on ties).  That is one linear prototype per class, for any
K: logit i = x^ . p_i, where x^ is the unit-normalised embedding and p_i
the mean of class i's unit-normalised descriptors (equal to within a few
ulps), so a class whose descriptors spread has its logits shrunk by
|p_i|.  A unit's embedding is the adapter output for the temporal mean
of its frames (``unit_embedding``).  ``evaluate`` embeds unit by unit;
training encodes the dataset's pooled array, and purity reads its label
and subcluster columns, each with no per-unit call.

Accuracy is reported two ways: WAR (weighted average recall) is the
fraction of units predicted correctly, UAR (unweighted average recall)
is the mean of per-class recalls, which weights every class equally no
matter how many samples it has.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .data import EmbeddingDataset, Unit, temporal_mean_pool
from .errors import ContractViolation
from .model import Model, bank_embeddings, encode_image


@dataclass(frozen=True)
class Prediction:
    """Mean-similarity logits, the winning label, per-class closest subclass.

    Shapes (N,), int and (N,) for one embedding; a stack adds a B axis.
    """

    logits: np.ndarray
    label: int | np.ndarray
    subclass_argmax: np.ndarray


def predict(image_embedding, text_embeddings) -> Prediction:
    """Score one embedding (D,) or a stack (B, D) against an (N, K, D) descriptor stack.

    logit i = mean over k of cos(V, T[i, k]); label = argmax with
    lowest-index tie-break.  ``subclass_argmax[i]`` records which
    subclass of class i was most similar, for assignment histograms.
    Each row's results are those of that embedding alone.  The
    embeddings and the stack's entries and dimensions are checked by
    ``cosine_similarity``; only the stack's rank is checked here.
    """
    stack = np.asarray(text_embeddings, dtype=np.float64)
    if stack.ndim != 3:
        raise ContractViolation(
            f"text_embeddings must be 3-D (classes, subclasses, dim), "
            f"got shape {stack.shape}"
        )
    sims = numerics.cosine_similarity(image_embedding, stack)
    logits = sims.mean(axis=-1)
    label = logits.argmax(axis=-1)
    return Prediction(
        logits=logits,
        label=int(label) if logits.ndim == 1 else label,
        subclass_argmax=sims.argmax(axis=-1),
    )


def unit_embedding(model: Model, unit: Unit) -> np.ndarray:
    """Adapter output for the temporal mean of the unit's frames.

    Training encodes pooled units in one call (all of them in stage 1, a
    batch or all of them in stage 2); each row has this call's bits on it.
    """
    return encode_image(model.adapter, temporal_mean_pool(unit.frames))


@dataclass(frozen=True)
class EvalReport:
    """WAR/UAR, confusion counts, and (when a model ran) subclass usage.

    ``per_class_recall`` holds NaN for classes absent from the data;
    those classes are excluded from the UAR mean.  ``assignments[u]`` is
    the subclass of unit u's true class that scored highest, in the order
    of the dataset's unit columns, and ``subclass_histogram[i, k]`` counts
    the units of true class i assigned to subclass k.  Both are None
    when the report was built from bare label pairs.
    ``subclass_purity`` is filled in by ``subclass_report``.
    """

    war: float
    uar: float
    per_class_recall: np.ndarray
    confusion: np.ndarray
    n_units: int
    subclass_histogram: np.ndarray | None = None
    assignments: np.ndarray | None = None
    subclass_purity: float | None = None


def report_from_labels(truths, predictions, n_classes: int) -> EvalReport:
    """Confusion matrix, WAR, and UAR from parallel label sequences."""
    truths = np.asarray(truths, dtype=np.int64).reshape(-1)
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1)
    if truths.size != predictions.size:
        raise ContractViolation(
            f"{truths.size} truths vs {predictions.size} predictions"
        )
    if not truths.size:
        raise ContractViolation("cannot evaluate zero units")
    pairs = np.stack((truths, predictions))
    bad = ((pairs < 0) | (pairs >= n_classes)).any(axis=0)
    if bad.any():
        t, p = pairs[:, bad.argmax()]
        raise ContractViolation(f"label pair ({t}, {p}) out of range")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truths, predictions), 1)
    row_totals = confusion.sum(axis=1)
    recall = np.full(n_classes, np.nan)
    present = row_totals > 0
    recall[present] = confusion.diagonal()[present] / row_totals[present]
    war = float(confusion.diagonal().sum()) / float(truths.size)
    uar = float(np.mean(recall[present]))
    return EvalReport(
        war=war,
        uar=uar,
        per_class_recall=recall,
        confusion=confusion,
        n_units=int(truths.size),
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


def _score(truths: np.ndarray, embeddings: np.ndarray, stack: np.ndarray) -> EvalReport:
    """``evaluate``'s report from units' (U,) labels, (U, D) embeddings and the (N, K, D) stack."""
    prediction = predict(embeddings, stack)
    assignments = prediction.subclass_argmax[np.arange(truths.size), truths]
    histogram = np.zeros(stack.shape[:2], dtype=np.int64)
    np.add.at(histogram, (truths, assignments), 1)
    report = report_from_labels(truths, prediction.label, stack.shape[0])
    return replace(report, subclass_histogram=histogram, assignments=assignments)


def evaluate(dataset: EmbeddingDataset, model: Model) -> EvalReport:
    """Embed every unit of the dataset and score them all in one pass."""
    units = dataset.units()
    if not units:
        raise ContractViolation("cannot evaluate an empty dataset")
    check_compatible(dataset, model)
    return _score(
        dataset.unit_labels,
        np.stack([unit_embedding(model, unit) for unit in units]),
        bank_embeddings(model.bank, model.encoder),
    )


def subclass_report(dataset: EmbeddingDataset, report: EvalReport) -> EvalReport:
    """``evaluate(dataset, model)``'s report with its subclass purity filled in.

    Purity needs the dataset's ground-truth subcluster ids and stays None
    without them.  Per class, the assignment-vs-truth overlap table is
    matched one-to-one (maximum overlap), and purity is the matched
    fraction over all id-carrying units.  With a single subclass per
    class, purity is 1.0 by convention.  Reads the report's assignments
    and the dataset's unit columns; nothing is scored again.
    """
    if report.assignments is None:
        raise ContractViolation("subclass_report needs a report from evaluate")
    labels, ids, assigned = dataset.unit_labels, dataset.unit_subclusters, report.assignments
    if labels.size != assigned.size:
        raise ContractViolation(f"report covers {assigned.size} units, dataset has {labels.size}")
    n_classes, k = report.subclass_histogram.shape
    known = ids >= 0
    if not known.any():
        return report
    if k == 1:
        return replace(report, subclass_purity=1.0)
    # Per class, the (assigned subclass, true subcluster) overlap table,
    # one column per distinct id.  A class's table gets zero columns for
    # the other classes' ids, which no maximum matching needs.
    distinct, columns = np.unique(ids[known], return_inverse=True)
    overlap = np.zeros((n_classes, k, distinct.size), dtype=np.int64)
    np.add.at(overlap, (labels[known], assigned[known], columns), 1)
    matched = sum(_max_matching(o) for o in overlap)
    return replace(report, subclass_purity=matched / np.count_nonzero(known))


def _max_matching(table: np.ndarray) -> int:
    """Largest total of a one-to-one matching of a 2-D integer table's rows to its columns.

    The Hungarian algorithm with potentials (Kuhn 1955) on the negated
    table, exact in int64.  Rows join the matching one at a time, each
    along the shortest augmenting path in reduced costs: O(n²m) for
    n <= m rows, so a taller table is transposed, which leaves the
    value unchanged.  Every maximum matching has the same value, so
    ties cannot change the result.
    """
    table = np.asarray(table, dtype=np.int64)
    if table.shape[0] > table.shape[1]:
        table = table.T
    n, m = table.shape
    # 1-based rows and columns; column 0 is each search's root, row 0 "unmatched".
    cost = np.pad(-table, ((1, 0), (1, 0)))
    u = np.zeros(n + 1, dtype=np.int64)  # row potentials
    v = np.zeros(m + 1, dtype=np.int64)  # column potentials
    owner = np.zeros(m + 1, dtype=np.int64)  # row matched to each column
    for row in range(1, n + 1):
        owner[0] = row
        slack = np.full(m + 1, np.iinfo(np.int64).max)
        via = np.zeros(m + 1, dtype=np.int64)  # previous column on the path
        used = np.zeros(m + 1, dtype=bool)
        col = 0
        while owner[col]:
            used[col] = True
            i = owner[col]
            reduced = cost[i] - u[i] - v
            closer = ~used & (reduced < slack)
            slack[closer] = reduced[closer]
            via[closer] = col
            free = np.flatnonzero(~used)
            nearest = free[slack[free].argmin()]
            delta = slack[nearest]
            u[owner[used]] += delta
            v[used] -= delta
            slack[free] -= delta
            col = nearest
        while col:
            owner[col] = owner[via[col]]
            col = via[col]
    # An unmatched column's owner is row 0, whose costs are all zero.
    return int(-cost[owner[1:], np.arange(1, m + 1)].sum())


def format_eval_report(report: EvalReport) -> str:
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
    if report.subclass_histogram is not None:
        flat = ";".join(",".join(str(int(c)) for c in row) for row in report.subclass_histogram)
        lines.append(f"subclass_histogram={flat}")
    if report.subclass_purity is not None:
        lines.append(f"subclass_purity={report.subclass_purity:.6f}")
    return "\n".join(lines)
