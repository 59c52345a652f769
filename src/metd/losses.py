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

Every loss is a softmax cross-entropy over a term list built in class
order, and all of them go through one shared helper that evaluates

    -log softmax(terms)[pos] = softplus( lse(rivals) - terms[pos] )

with softplus(g) = max(g, 0) + log1p(e^{-|g|}) and the rivals being every
term but the one at pos.  Unlike lse(all terms) - terms[pos], this form
does not round to exactly 0 when the target leads by tens of nats: the
rivals' share survives as log1p of a tiny number instead of vanishing
below half an ulp of the target score.  A list with no rivals (a single
class) gives exactly 0.

The target's slot in each list:

  * clip_ce_loss and the margin term hold one score per class, so the
    target sits at index t;
  * the fine-grained list holds K scores for every class before the
    target and one for the target, so it sits at index t * K.

For a single subclass per class the fine-grained list is exactly the
class score vector and its target slot is t, so the fine-grained loss
with alpha = 1 makes the same helper call on the same bits as the plain
contrastive cross-entropy (clip_ce_loss) and reduces to it bit for bit.

Each grid-based term list is a list of flat slots into the grid, in
class order: the fine-grained slots are every (i, k) with i != t plus
(t, k+); the margin slots are (t, k-) plus each rival's argmax.  The
loss reads grid.values / tau at those slots and the gradient reads the
same entries.  Each value is checked and selected once per sample: the
caller builds one grid, total_loss checks the target and the counts,
takes k+ and k- by argmax/argmin, calls modulating_factor once and
hands k+, k- and alpha to the private _fine_grained/_margin helpers
(the public fine_grained_loss and margin_loss check, select and call
the same helpers).  loss_gradients takes that grid and that
LossBreakdown and selects no k+ or k- and computes no alpha of its own.
Each loss then contributes weight * (softmax(terms) - onehot(pos)) / tau
on its slots, with weight alpha for the fine-grained list and 1 for the
margin list.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ContractViolation

@dataclass(frozen=True)
class SimilarityGrid:
    """Cosine similarities, shape (n_classes, n_subclasses), with tau.

    Entries must lie in [-1, 1]; the temperature must be positive.
    """

    values: np.ndarray
    temperature: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ContractViolation(
                f"similarities must be 2-D and nonempty, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ContractViolation("similarities contain non-finite entries")
        if np.any(values < -1.0) or np.any(values > 1.0):
            raise ContractViolation("similarities must lie in [-1, 1]")
        if not (self.temperature > 0.0 and np.isfinite(self.temperature)):
            raise ContractViolation(f"temperature must be > 0, got {self.temperature}")

    @property
    def n_classes(self) -> int:
        return self.values.shape[0]

    @property
    def n_subclasses(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LossBreakdown:
    """Per-sample loss parts; total is fg + margin exactly as computed."""

    fg: float
    margin: float
    total: float
    alpha: float
    closest_subclass: int
    farthest_subclass: int


def _check_target(grid: SimilarityGrid, target: int):
    if not 0 <= target < grid.n_classes:
        raise ContractViolation(
            f"target {target} out of range for {grid.n_classes} classes"
        )


def select_closest(grid: SimilarityGrid, target: int) -> int:
    """Index of the target class's highest-similarity subclass.

    Ties break toward the lowest index.
    """
    _check_target(grid, target)
    return int(np.argmax(grid.values[target]))


def select_farthest(grid: SimilarityGrid, target: int) -> int:
    """Index of the target class's lowest-similarity subclass (lowest-index ties)."""
    _check_target(grid, target)
    return int(np.argmin(grid.values[target]))


def modulating_factor(counts, closest: int) -> float:
    """Count-based weight for the fine-grained loss.

    ``counts`` holds how many samples of the target class have been
    assigned to each of its subclasses so far (including the current
    sample), and ``closest`` is the subclass the current sample landed
    on.  With n+ = counts[closest] and the sum below running over
    subclasses with nonzero counts:

        alpha = ( e^{1/n+} / sum_k e^{1/n_k} ) * ( sum_k n_k / n+ )

    Rare subclasses get a factor above 1, saturated ones below; with all
    counts equal the two factors cancel to 1.
    """
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ContractViolation(f"counts must be a nonempty 1-D array, got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.floor(arr)):
            raise ContractViolation("counts must be integers")
        arr = arr.astype(np.int64)
    if np.any(arr < 0):
        raise ContractViolation("counts must be nonnegative")
    if not 0 <= closest < arr.size:
        raise ContractViolation(f"closest {closest} out of range for {arr.size} counts")
    n_plus = int(arr[closest])
    if n_plus < 1:
        raise ContractViolation("count of the assigned subclass must be >= 1")
    nonzero = arr[arr > 0].astype(np.float64)
    weights = np.exp(1.0 / nonzero)
    first = float(np.exp(1.0 / n_plus)) / float(np.sum(weights))
    second = float(np.sum(arr)) / n_plus
    return first * second


def _neg_log_softmax_at(terms: np.ndarray, pos: int) -> float:
    """-log softmax(terms)[pos] as softplus(lse(rivals) - terms[pos]).

    Strictly positive whenever there is at least one rival and the
    rivals' share of the softmax is above the float64 underflow limit;
    exactly 0 for a one-term list.
    """
    if terms.size == 1:
        return 0.0
    rivals = np.concatenate((terms[:pos], terms[pos + 1 :]))
    gap = numerics.log_sum_exp(rivals) - float(terms[pos])
    return max(gap, 0.0) + math.log1p(math.exp(-abs(gap)))


def _scaled(grid: SimilarityGrid) -> np.ndarray:
    """The flattened grid over tau: every loss term and softmax reads these bits."""
    return (grid.values / grid.temperature).reshape(-1)


def _fine_grained_slots(grid: SimilarityGrid, target: int, closest: int) -> np.ndarray:
    """Flat grid indices of the fine-grained term list, in class order.

    One slot per class for the target (its selected subclass), all
    subclasses for every other class.  Keeping this order canonical makes
    the single-subclass case identical to the plain cross-entropy.
    """
    k = grid.n_subclasses
    slots = np.arange(grid.values.size)
    return slots[(slots // k != target) | (slots == target * k + closest)]


def _fine_grained(grid: SimilarityGrid, target: int, closest: int, alpha: float) -> float:
    slots = _fine_grained_slots(grid, target, closest)
    return alpha * _neg_log_softmax_at(_scaled(grid)[slots], target * grid.n_subclasses)


def fine_grained_loss(grid: SimilarityGrid, target: int, alpha: float) -> float:
    """Weighted cross-entropy of the target's best subclass against all rivals."""
    closest = select_closest(grid, target)
    if not (alpha > 0.0 and np.isfinite(alpha)):
        raise ContractViolation(f"alpha must be positive and finite, got {alpha}")
    return _fine_grained(grid, target, closest, alpha)


def _margin_slots(grid: SimilarityGrid, target: int, farthest: int) -> np.ndarray:
    """Flat grid indices of the margin term list, one per class in class order.

    The target contributes its worst subclass, every rival its best.
    """
    picks = np.argmax(grid.values, axis=1)
    picks[target] = farthest
    return np.arange(grid.n_classes) * grid.n_subclasses + picks


def _margin(grid: SimilarityGrid, target: int, farthest: int) -> float:
    return _neg_log_softmax_at(_scaled(grid)[_margin_slots(grid, target, farthest)], target)


def margin_loss(grid: SimilarityGrid, target: int) -> float:
    """Cross-entropy of the target's worst subclass against rivals' best."""
    return _margin(grid, target, select_farthest(grid, target))


def total_loss(grid: SimilarityGrid, target: int, target_counts) -> LossBreakdown:
    """Fine-grained + margin loss for one sample.

    ``target_counts`` is the per-subclass assignment count vector of the
    target class (length n_subclasses), already including this sample.
    """
    _check_target(grid, target)
    arr = np.asarray(target_counts)
    if arr.shape != (grid.n_subclasses,):
        raise ContractViolation(
            f"target_counts shape {arr.shape} != ({grid.n_subclasses},)"
        )
    row = grid.values[target]
    closest = int(np.argmax(row))
    farthest = int(np.argmin(row))
    alpha = modulating_factor(arr, closest)
    fg = _fine_grained(grid, target, closest, alpha)
    mg = _margin(grid, target, farthest)
    return LossBreakdown(
        fg=fg,
        margin=mg,
        total=fg + mg,
        alpha=alpha,
        closest_subclass=closest,
        farthest_subclass=farthest,
    )


def clip_ce_loss(similarities, target: int, temperature: float) -> float:
    """Plain contrastive cross-entropy over one similarity per class."""
    sims = numerics.as_vector(similarities, "similarities")
    if np.any(sims < -1.0) or np.any(sims > 1.0):
        raise ContractViolation("similarities must lie in [-1, 1]")
    if not 0 <= target < sims.size:
        raise ContractViolation(f"target {target} out of range for {sims.size} classes")
    if not (temperature > 0.0 and np.isfinite(temperature)):
        raise ContractViolation(f"temperature must be > 0, got {temperature}")
    return _neg_log_softmax_at(sims / temperature, target)


def similarity_grid(
    image_embedding, text_embeddings, temperature: float
) -> SimilarityGrid:
    """Cosine similarity of one embedding against a (N, K, D) descriptor stack.

    The embedding, the stack's entries and their dimensions are checked
    by ``cosine_similarity``; only the stack's rank is checked here.
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
    """d cos(v, t) / dv and / dt per row t of a (..., D) stack, given the clamped cosines."""
    nv = numerics._row_norms(v, "image_embedding")
    nt = np.expand_dims(numerics._row_norms(t, "text_embedding"), -1)
    similarity = np.expand_dims(similarity, -1)
    gv = t / (nv * nt) - similarity * v / (nv * nv)
    gt = v / (nv * nt) - similarity * t / (nt * nt)
    return gv, gt


def _gradient_coefficients(
    grid: SimilarityGrid, target: int, breakdown: LossBreakdown
) -> np.ndarray:
    """dL/ds[i, k] from the breakdown's k+, k- and alpha; 0 off every slot.

    Each loss contributes weight * (p - onehot) / tau on its slots, p being
    the softmax of its terms and onehot marking the target's slot: weight
    alpha for the fine-grained slots, scattered first, and 1 for the
    margin slots, scattered second.
    """
    z = _scaled(grid)
    coeff = np.zeros(z.size)
    fg_slots = _fine_grained_slots(grid, target, breakdown.closest_subclass)
    mg_slots = _margin_slots(grid, target, breakdown.farthest_subclass)
    for weight, slots, pos in (
        (breakdown.alpha, fg_slots, target * grid.n_subclasses),
        (1.0, mg_slots, target),
    ):
        onehot = np.zeros(slots.size)
        onehot[pos] = 1.0
        coeff[slots] += weight * (numerics.stable_softmax(z[slots]) - onehot) / grid.temperature
    return coeff.reshape(grid.values.shape)


def loss_gradients(
    image_embedding,
    text_embeddings,
    grid: SimilarityGrid,
    target: int,
    breakdown: LossBreakdown,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the total loss w.r.t. V and every T[i, k].

    ``grid`` is ``similarity_grid(image_embedding, text_embeddings, tau)``
    and ``breakdown`` is what ``total_loss`` returned for that grid; the
    gradient takes k+, k- and alpha from it instead of selecting again.
    Those and the rivals' argmax are treated as constants, matching how
    the loss value itself is defined between selection flips.
    Returns (dL/dV, dL/dT) with dL/dT shaped like ``text_embeddings``: the
    coefficients dL/ds[i, k] pushed through the cosine similarity.
    """
    v = np.asarray(image_embedding, dtype=np.float64)
    stack = np.asarray(text_embeddings, dtype=np.float64)
    if stack.shape != (*grid.values.shape, v.size):
        raise ContractViolation(
            f"text_embeddings shape {stack.shape} != grid shape "
            f"{grid.values.shape} + ({v.size},)"
        )
    _check_target(grid, target)
    coeff = _gradient_coefficients(grid, target, breakdown)
    gv, gt = _cosine_gradients(v, stack, grid.values)
    # Term by term in (class, subclass) order: np.sum may add pairwise (it does at D = 1).
    grad_v = np.zeros_like(v)
    for c, term in zip(coeff.reshape(-1), gv.reshape(-1, v.size)):
        if c != 0.0:
            grad_v += c * term
    return grad_v, coeff[:, :, None] * gt
