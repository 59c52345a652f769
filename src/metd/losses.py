"""Contrastive losses over a class-by-subclass similarity grid.

The training signal for one sample is built from the grid of cosine
similarities s[i, k] between the sample's embedding V and every
descriptor embedding T[i, k], divided by a temperature tau.  Writing t
for the true class, k+ for the target's most similar subclass and k-
for its least similar one:

  fine-grained term (weighted by the count factor alpha):

      L_fg = -alpha * log( e^{s[t,k+]/tau} /
                           (e^{s[t,k+]/tau} + sum_{i != t} sum_k e^{s[i,k]/tau}) )

  The target's other subclasses are deliberately absent from the
  denominator: the sample should not be pushed away from sibling
  descriptors of its own class.

  margin term (pulls the target's worst descriptor above every rival
  class's best one):

      L_margin = -log( e^{s[t,k-]/tau} /
                       (e^{s[t,k-]/tau} + sum_{i != t} e^{max_k s[i,k]/tau}) )

  total:  L = L_fg + L_margin.

alpha is a modulating factor computed from how many samples of the class
have already landed on each subclass this epoch; it boosts samples
assigned to rarely-hit subclasses.  It is treated as a constant during
differentiation (no gradient flows through the counts).

Every loss is a softmax cross-entropy computed as -log softmax(terms)[pos]
= softplus(lse(rivals) - terms[pos]), with softplus(g) = max(g, 0) +
log1p(e^{-|g|}) and the rivals being every term but the target's.
Unlike lse(all terms) - terms[pos], this does not round to exactly 0
when the target leads by tens of nats; with no rivals (one class) it is
exactly 0.  The rivals keep class order, so with one subclass per class
the fine-grained loss at alpha = 1 is bit for bit the plain contrastive
cross-entropy, clip_ce_loss.

Everything works on rows: a grid is (N, K) for one sample or (B, N, K)
for a batch, and row b of every batched result is bit for bit the
one-sample call on row b, so training makes one call per batch.
total_loss checks the targets and counts, takes k+ and k- by
argmax/argmin and calls modulating_factor once; loss_gradients takes
that grid and that LossBreakdown and selects nothing again.  Each loss
adds weight * (softmax(terms) - onehot(pos)) / tau to the grid entries
its terms read (its slots): every (i, k) with i != t plus (t, k+) for
the fine-grained list, weight alpha; (t, k-) plus each rival's argmax
for the margin list, weight 1.  Each row has (N-1)K+1 and N slots.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ContractViolation


@dataclass(frozen=True)
class SimilarityGrid:
    """Cosine similarities with tau: (N, K) for one sample, (B, N, K) for B samples.

    N counts classes and K subclasses.  Entries must lie in [-1, 1];
    the temperature must be positive.
    """

    values: np.ndarray
    temperature: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim not in (2, 3) or values.size == 0:
            raise ContractViolation(f"similarities must be (N, K) or (B, N, K): {values.shape}")
        if not (np.abs(values) <= 1.0).all():
            if not np.isfinite(values).all():
                raise ContractViolation("similarities contain non-finite entries")
            raise ContractViolation("similarities must lie in [-1, 1]")
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ContractViolation(f"temperature must be > 0, got {self.temperature}")

    @property
    def n_classes(self) -> int:
        return self.values.shape[-2]

    @property
    def n_subclasses(self) -> int:
        return self.values.shape[-1]


@dataclass(frozen=True)
class LossBreakdown:
    """Loss parts per sample, Python scalars for one sample and (B,) arrays for a batch.

    total is fg + margin exactly as computed.
    """

    fg: float | np.ndarray
    margin: float | np.ndarray
    total: float | np.ndarray
    alpha: float | np.ndarray
    closest_subclass: int | np.ndarray
    farthest_subclass: int | np.ndarray


def _check_target(grid: SimilarityGrid, targets) -> tuple[np.ndarray, np.ndarray]:
    """The grid as rows (B, N, K) and its targets, one int per row, as (B,)."""
    t = np.asarray(targets)
    if t.shape != grid.values.shape[:-2] or t.dtype.kind not in "iu":
        raise ContractViolation(f"targets {targets!r} do not fit grid {grid.values.shape}")
    bad = (t < 0) | (t >= grid.n_classes)
    if bad.any():
        raise ContractViolation(f"target {t[bad][0]} out of range for {grid.n_classes} classes")
    return grid.values.reshape(-1, grid.n_classes, grid.n_subclasses), t.reshape(-1)


def _unbatch(grid: SimilarityGrid, rows: np.ndarray):
    """Row 0 as a Python scalar for a one-sample grid, else the rows unchanged."""
    return rows[0].item() if grid.values.ndim == 2 else rows


def select_closest(grid: SimilarityGrid, targets):
    """Index of each target class's highest-similarity subclass (lowest-index ties)."""
    values, t = _check_target(grid, targets)
    return _unbatch(grid, values[np.arange(t.size), t].argmax(axis=-1))


def select_farthest(grid: SimilarityGrid, targets):
    """Index of each target class's lowest-similarity subclass (lowest-index ties)."""
    values, t = _check_target(grid, targets)
    return _unbatch(grid, values[np.arange(t.size), t].argmin(axis=-1))


def modulating_factor(counts, closest):
    """Count-based weight for the fine-grained loss, per row.

    ``counts`` holds how many samples of the target class have been
    assigned to each of its subclasses so far (including the current
    sample): one (K,) vector with an int ``closest``, or a (B, K) stack
    with B ints.  ``closest`` is the subclass the current sample landed
    on.  With n+ = counts[closest] and the sum below running over
    subclasses with nonzero counts:

        alpha = ( e^{1/n+} / sum_k e^{1/n_k} ) * ( sum_k n_k / n+ )

    Rare subclasses get a factor above 1, saturated ones below; with all
    counts equal the two factors cancel to 1.  A float for one vector,
    (B,) for a stack.
    """
    arr = np.asarray(counts)
    if arr.ndim not in (1, 2) or arr.shape[-1] == 0:
        raise ContractViolation(f"counts must be a nonempty (K,) or (B, K) array: {arr.shape}")
    if arr.dtype.kind not in "iu":
        if not (arr == np.floor(arr)).all():
            raise ContractViolation("counts must be integers")
        arr = arr.astype(np.int64)
    rows = arr.reshape(-1, arr.shape[-1])
    picks = np.asarray(closest)
    if picks.shape != arr.shape[:-1] or not ((picks >= 0) & (picks < arr.shape[-1])).all():
        raise ContractViolation(f"closest {closest} out of range for {arr.shape[-1]} counts")
    if rows.min() < 0:
        raise ContractViolation("counts must be nonnegative")
    assigned = (np.arange(len(rows)), picks.reshape(-1))
    n_plus = rows[assigned]
    if n_plus.min() < 1:
        raise ContractViolation("count of the assigned subclass must be >= 1")
    weights = np.exp(1.0 / np.maximum(rows, 1))
    first = weights[assigned] / np.where(rows > 0, weights, 0.0).sum(axis=-1)
    alpha = first * (rows.sum(axis=-1) / n_plus)
    return float(alpha[0]) if arr.ndim == 1 else alpha


def _neg_log_softmax_at(z, targets, picks, rivals) -> np.ndarray:
    """-log softmax of each row's target term z[b, t_b, picks_b] against its (B, L-1) rivals.

    Strictly positive whenever there is at least one rival and the
    rivals' share of the softmax is above the float64 underflow limit;
    exactly 0 for a one-term list.
    """
    if rivals.shape[-1] == 0:
        return np.zeros(len(z))
    gap = numerics.log_sum_exp(rivals) - z[np.arange(len(z)), targets, picks]
    # softplus per row with libm's exp and log1p (see numerics)
    return np.array([max(g, 0.0) + math.log1p(math.exp(-abs(g))) for g in gap.tolist()])


def _rival_classes(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Every row's classes but its target, (B, N-1, K) in class order."""
    n_rows, n_classes, n_subclasses = z.shape
    other = np.arange(n_classes) != targets[:, None]
    return z[other].reshape(n_rows, n_classes - 1, n_subclasses)


def fine_grained_loss(grid: SimilarityGrid, targets, alpha):
    """Weighted cross-entropy of each target's best subclass against all rivals."""
    values, t = _check_target(grid, targets)
    weight = np.asarray(alpha, dtype=np.float64)
    if not ((weight > 0.0) & np.isfinite(weight)).all():
        raise ContractViolation(f"alpha must be positive and finite, got {alpha}")
    closest = values[np.arange(t.size), t].argmax(axis=-1)
    z = values / grid.temperature
    loss = _neg_log_softmax_at(z, t, closest, _rival_classes(z, t).reshape(t.size, -1))
    return _unbatch(grid, weight.reshape(-1) * loss)


def margin_loss(grid: SimilarityGrid, targets):
    """Cross-entropy of each target's worst subclass against rivals' best."""
    values, t = _check_target(grid, targets)
    farthest = values[np.arange(t.size), t].argmin(axis=-1)
    z = values / grid.temperature
    loss = _neg_log_softmax_at(z, t, farthest, _rival_classes(z, t).max(axis=-1))
    return _unbatch(grid, loss)


def total_loss(grid: SimilarityGrid, targets, target_counts) -> LossBreakdown:
    """Fine-grained + margin loss for each sample of the grid.

    ``target_counts`` holds each sample's per-subclass assignment counts
    of its target class, already including that sample: (K,) for a
    one-sample grid, (B, K) for a batch.
    """
    values, t = _check_target(grid, targets)
    counts = np.asarray(target_counts)
    expected = grid.values.shape[:-2] + (grid.n_subclasses,)
    if counts.shape != expected:
        raise ContractViolation(f"target_counts shape {counts.shape} != {expected}")
    own = values[np.arange(t.size), t]
    closest = own.argmax(axis=-1)
    farthest = own.argmin(axis=-1)
    alpha = modulating_factor(counts.reshape(-1, grid.n_subclasses), closest)
    z = values / grid.temperature
    rivals = _rival_classes(z, t)
    fg = alpha * _neg_log_softmax_at(z, t, closest, rivals.reshape(t.size, -1))
    mg = _neg_log_softmax_at(z, t, farthest, rivals.max(axis=-1))
    parts = (fg, mg, fg + mg, alpha, closest, farthest)
    return LossBreakdown(*(_unbatch(grid, part) for part in parts))


def clip_ce_loss(similarities, target: int, temperature: float) -> float:
    """Plain contrastive cross-entropy over one similarity per class."""
    sims = numerics.as_vector(similarities, "similarities")
    if np.any(sims < -1.0) or np.any(sims > 1.0):
        raise ContractViolation("similarities must lie in [-1, 1]")
    if not 0 <= target < sims.size:
        raise ContractViolation(f"target {target} out of range for {sims.size} classes")
    if not (temperature > 0.0 and np.isfinite(temperature)):
        raise ContractViolation(f"temperature must be > 0, got {temperature}")
    # the fine-grained loss of one sample with one subclass per class
    z, t = (sims / temperature).reshape(1, -1, 1), np.array([target])
    return float(_neg_log_softmax_at(z, t, [0], _rival_classes(z, t).reshape(1, -1))[0])


def similarity_grid(
    image_embedding, text_embeddings, temperature: float
) -> SimilarityGrid:
    """Cosine similarity of each embedding against a (N, K, D) descriptor stack.

    ``image_embedding`` is one embedding (D,), giving an (N, K) grid, or
    a stack (B, D), giving (B, N, K).  The embeddings, the stack's
    entries and their dimensions are checked by ``cosine_similarity``;
    only the stack's rank is checked here.
    """
    stack = np.asarray(text_embeddings, dtype=np.float64)
    if stack.ndim != 3:
        raise ContractViolation(
            f"text_embeddings must be 3-D (classes, subclasses, dim), "
            f"got shape {stack.shape}"
        )
    values = numerics.cosine_similarity(image_embedding, stack)
    return SimilarityGrid(values=values, temperature=temperature)


def _cosine_gradients(v, t, similarity):
    """d cos / dv and d cos / dt, (B, ..., D) each, for each row of v (B, D).

    The cosines are with each row of the stack t (..., D); ``similarity``
    holds them, clamped, as (B, ...).
    """
    spread = (1,) * (t.ndim - 1)
    nv = numerics._row_norms(v, "image_embedding").reshape(len(v), *spread, 1)
    v = v.reshape(len(v), *spread, v.shape[-1])
    nt = np.expand_dims(numerics._row_norms(t, "text_embedding"), -1)
    similarity = np.expand_dims(similarity, -1)
    gv = t / (nv * nt) - similarity * v / (nv * nv)
    gt = v / (nv * nt) - similarity * t / (nt * nt)
    return gv, gt


def _gradient_coefficients(grid: SimilarityGrid, targets, breakdown: LossBreakdown):
    """dL/ds from the breakdown's k+, k- and alpha, shaped like the grid; 0 off every slot.

    The fine-grained slots are scattered first, then the margin slots.
    """
    n, k = grid.n_classes, grid.n_subclasses
    values = grid.values.reshape(-1, n, k)
    t = np.reshape(targets, -1)
    rows = np.arange(t.size)
    z = values / grid.temperature
    coeff = np.zeros_like(z)
    fg_slots = np.repeat((np.arange(n) != t[:, None])[..., None], k, axis=-1)
    fg_slots[rows, t, np.reshape(breakdown.closest_subclass, -1)] = True
    picks = values.argmax(axis=-1)
    picks[rows, t] = np.reshape(breakdown.farthest_subclass, -1)
    mg_slots = np.arange(k) == picks[..., None]
    for weight, slots, pos in (
        (np.reshape(breakdown.alpha, (-1, 1)), fg_slots, t * k),
        (1.0, mg_slots, t),
    ):
        delta = numerics.stable_softmax(z[slots].reshape(t.size, -1))
        delta[rows, pos] -= 1.0
        coeff[slots] += (weight * delta / grid.temperature).reshape(-1)
    return coeff.reshape(grid.values.shape)


def loss_gradients(image_embedding, text_embeddings, grid: SimilarityGrid, targets, breakdown):
    """Exact gradients of each sample's total loss w.r.t. its V and every T[i, k].

    ``grid`` is ``similarity_grid(image_embedding, text_embeddings, tau)``
    and ``breakdown`` is what ``total_loss`` returned for it; k+, k-,
    alpha and the rivals' argmax are taken as constants, matching how
    the loss is defined between selection flips.  Returns (dL/dV, dL/dT):
    (D,) and (N, K, D) for one embedding, (B, D) and (B, N, K, D) for a
    stack, row b being the gradients of sample b's loss alone.
    """
    v = np.asarray(image_embedding, dtype=np.float64)
    stack = np.asarray(text_embeddings, dtype=np.float64)
    n, k = grid.n_classes, grid.n_subclasses
    if v.shape[:-1] != grid.values.shape[:-2] or stack.shape != (n, k, v.shape[-1]):
        raise ContractViolation(
            f"embeddings {v.shape} and {stack.shape} do not fit grid {grid.values.shape}"
        )
    values, t = _check_target(grid, targets)
    coeff = _gradient_coefficients(grid, t, breakdown).reshape(values.shape)
    rows = v.reshape(-1, v.shape[-1])
    gv, gt = _cosine_gradients(rows, stack, values)
    # A running sum in (class, subclass) order, as a loop adds: np.sum may add pairwise.
    grad_v = np.cumsum((coeff[..., None] * gv).reshape(len(rows), n * k, -1), axis=1)[:, -1]
    grad_t = coeff[..., None] * gt
    return grad_v.reshape(v.shape), grad_t.reshape(grid.values.shape + v.shape[-1:])
