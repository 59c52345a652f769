"""Similarity-grid losses, the count-based modulating factor, and gradients."""

import math

import mpmath as mp
import numpy as np
import pytest

from metd import losses
from metd.errors import ContractViolation

mp.mp.dps = 50


def _random_grid(rng, n=None, k=None, tau=None):
    n = n if n is not None else int(rng.integers(2, 7))
    k = k if k is not None else int(rng.integers(1, 5))
    tau = tau if tau is not None else float(10.0 ** rng.uniform(-2.0, 0.0))
    values = rng.uniform(-1.0, 1.0, size=(n, k))
    return losses.SimilarityGrid(values=values, temperature=tau)


def test_similarity_grid_validation():
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([0.1, 0.2]), temperature=0.1)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[1.5]]), temperature=0.1)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[np.nan]]), temperature=0.1)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[0.5]]), temperature=0.0)
    with pytest.raises(ContractViolation):
        losses.SimilarityGrid(values=np.array([[0.5]]), temperature=-1.0)


def test_selection_breaks_ties_toward_lowest_index():
    grid = losses.SimilarityGrid(
        values=np.array([[0.3, 0.7, 0.7], [0.2, 0.2, 0.2]]), temperature=0.1
    )
    assert losses.select_closest(grid, 0) == 1
    assert losses.select_farthest(grid, 0) == 0
    assert losses.select_closest(grid, 1) == 0
    assert losses.select_farthest(grid, 1) == 0
    with pytest.raises(ContractViolation):
        losses.select_closest(grid, 2)


def test_single_subclass_reduces_to_plain_cross_entropy():
    # With one subclass per class the canonical term list is exactly the
    # class score vector, so the reduction is bit-for-bit.
    rng = np.random.default_rng(10)
    for _ in range(1000):
        grid = _random_grid(rng, k=1)
        target = int(rng.integers(grid.n_classes))
        plain = losses.clip_ce_loss(grid.values[:, 0], target, grid.temperature)
        assert losses.fine_grained_loss(grid, target, 1.0) == plain
        assert losses.modulating_factor(np.array([int(rng.integers(1, 50))]), 0) == 1.0


def test_modulating_factor_equal_counts_is_one():
    for k in range(1, 11):
        for count in (1, 2, 7, 31):
            counts = np.full(k, count)
            for closest in range(k):
                np.testing.assert_allclose(
                    losses.modulating_factor(counts, closest), 1.0, rtol=0, atol=1e-12
                )


def test_modulating_factor_reference_value():
    # (e / (e + e^(1/3))) * 4, checked against extended-precision arithmetic
    value = losses.modulating_factor(np.array([1, 3]), 0)
    np.testing.assert_allclose(value, 2.6430254750632687, rtol=0, atol=1e-9)


def test_modulating_factor_favors_rare_subclass():
    for a in range(1, 21):
        for b in range(1, 21):
            counts = np.array([a, b])
            rare = losses.modulating_factor(counts, int(np.argmin(counts)))
            common = losses.modulating_factor(counts, int(np.argmax(counts)))
            assert rare >= common


def test_modulating_factor_positive_and_finite():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        counts = rng.integers(0, 40, size=k)
        closest = int(rng.integers(k))
        counts[closest] = int(rng.integers(1, 40))
        alpha = losses.modulating_factor(counts, closest)
        assert math.isfinite(alpha)
        assert alpha > 0.0


def test_modulating_factor_validation():
    with pytest.raises(ContractViolation):
        losses.modulating_factor(np.array([0, 3]), 0)  # assigned count zero
    with pytest.raises(ContractViolation):
        losses.modulating_factor(np.array([-1, 3]), 1)
    with pytest.raises(ContractViolation):
        losses.modulating_factor(np.array([1.5, 3.0]), 0)
    with pytest.raises(ContractViolation):
        losses.modulating_factor(np.array([1, 3]), 2)
    with pytest.raises(ContractViolation):
        losses.modulating_factor(np.array([]), 0)


def test_fine_grained_loss_monotone_in_target_similarity():
    previous = None
    for s in np.linspace(0.1, 0.9, 9):
        grid = losses.SimilarityGrid(
            values=np.array([[s, 0.0], [0.3, 0.1], [0.2, 0.0]]), temperature=0.1
        )
        value = losses.fine_grained_loss(grid, 0, 1.0)
        if previous is not None:
            assert value < previous
        previous = value


def test_margin_loss_monotone_in_rival_similarity():
    increasing = None
    for s in np.linspace(-0.5, 0.5, 9):
        grid = losses.SimilarityGrid(
            values=np.array([[0.6, 0.2], [s, -0.9]]), temperature=0.1
        )
        value = losses.margin_loss(grid, 0)
        if increasing is not None:
            assert value > increasing
        increasing = value
    decreasing = None
    for s in np.linspace(-0.3, 0.55, 9):
        # s stays the minimum of the target row throughout
        grid = losses.SimilarityGrid(
            values=np.array([[0.6, s], [0.1, -0.9]]), temperature=0.1
        )
        value = losses.margin_loss(grid, 0)
        if decreasing is not None:
            assert value < decreasing
        decreasing = value


def test_losses_strictly_positive():
    rng = np.random.default_rng(12)
    for _ in range(300):
        grid = _random_grid(rng)
        target = int(rng.integers(grid.n_classes))
        assert losses.fine_grained_loss(grid, target, 1.0) > 0.0
        assert losses.margin_loss(grid, target) > 0.0
        assert losses.clip_ce_loss(grid.values[:, 0], target, grid.temperature) > 0.0


def test_single_class_losses_are_zero():
    # With no rival class every softmax puts all its mass on the target.
    assert losses.clip_ce_loss([0.5], 0, 0.1) == 0.0
    grid = losses.SimilarityGrid(values=np.array([[0.7, -0.2]]), temperature=0.05)
    assert losses.total_loss(grid, 0, np.array([2, 1])).total == 0.0


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(13)
    for _ in range(200):
        grid = _random_grid(rng)
        k = grid.n_subclasses
        target = int(rng.integers(grid.n_classes))
        counts = rng.integers(0, 9, size=k)
        closest = losses.select_closest(grid, target)
        counts[closest] = int(rng.integers(1, 9))
        breakdown = losses.total_loss(grid, target, counts)
        assert breakdown.total == breakdown.fg + breakdown.margin
        assert breakdown.closest_subclass == closest
        assert breakdown.farthest_subclass == losses.select_farthest(grid, target)
        assert breakdown.alpha == losses.modulating_factor(counts, closest)
        assert breakdown.fg == losses.fine_grained_loss(grid, target, breakdown.alpha)
        assert breakdown.margin == losses.margin_loss(grid, target)


def _mp_alpha(counts, closest):
    num = mp.exp(1 / mp.mpf(int(counts[closest])))
    den = mp.fsum(mp.exp(1 / mp.mpf(int(c))) for c in counts if c > 0)
    return num / den * mp.mpf(int(np.sum(counts))) / int(counts[closest])


def _mp_neg_log_softmax(z_pos, rivals):
    # log(1 + sum_i e^{z_i - z_pos}): naive exp/sum, no max-shift trick.
    # Taken relative to the positive, because log(den / num) itself rounds
    # to 0 at 50 digits once the positive leads by about 115 nats.
    return mp.log1p(mp.fsum(mp.exp(z - z_pos) for z in rivals))


def _mp_fine_grained(values, tau, target, alpha):
    n, k = values.shape
    closest = int(np.argmax(values[target]))
    t = mp.mpf(tau)
    rivals = [
        mp.mpf(values[i, j]) / t for i in range(n) if i != target for j in range(k)
    ]
    return alpha * _mp_neg_log_softmax(mp.mpf(values[target, closest]) / t, rivals)


def _mp_margin(values, tau, target):
    n, _ = values.shape
    farthest = int(np.argmin(values[target]))
    t = mp.mpf(tau)
    rivals = [mp.mpf(np.max(values[i])) / t for i in range(n) if i != target]
    return _mp_neg_log_softmax(mp.mpf(values[target, farthest]) / t, rivals)


def _mp_clip(sims, tau, target):
    t = mp.mpf(tau)
    rivals = [mp.mpf(s) / t for i, s in enumerate(sims) if i != target]
    return _mp_neg_log_softmax(mp.mpf(sims[target]) / t, rivals)


def test_losses_match_extended_precision_oracle():
    # Naive exp/sum reference at 50 decimal digits (see _mp_neg_log_softmax).
    rng = np.random.default_rng(14)
    for _ in range(500):
        grid = _random_grid(rng)
        values, tau = grid.values, grid.temperature
        k = grid.n_subclasses
        target = int(rng.integers(grid.n_classes))
        counts = rng.integers(0, 9, size=k)
        closest = losses.select_closest(grid, target)
        counts[closest] = int(rng.integers(1, 9))
        breakdown = losses.total_loss(grid, target, counts)
        alpha = _mp_alpha(counts, closest)
        fg = _mp_fine_grained(values, tau, target, alpha)
        margin = _mp_margin(values, tau, target)
        np.testing.assert_allclose(breakdown.alpha, float(alpha), rtol=0, atol=1e-12)
        for value, reference in (
            (breakdown.fg, fg),
            (breakdown.margin, margin),
            (breakdown.total, fg + margin),
        ):
            np.testing.assert_allclose(value, float(reference), rtol=0, atol=1e-8)
            # Relative check: a loss that rounds to 0 when the target leads
            # by many nats is within 1e-8 absolutely but not relatively.
            np.testing.assert_allclose(value, float(reference), rtol=1e-12, atol=0)
        sims = rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 7)))
        t2 = int(rng.integers(sims.size))
        clip = losses.clip_ce_loss(sims, t2, tau)
        reference = float(_mp_clip(sims, tau, t2))
        np.testing.assert_allclose(clip, reference, rtol=0, atol=1e-8)
        np.testing.assert_allclose(clip, reference, rtol=1e-12, atol=0)


def test_losses_finite_at_extreme_temperature_and_similarity():
    values = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    grid = losses.SimilarityGrid(values=values, temperature=1e-4)
    for target in range(3):
        breakdown = losses.total_loss(grid, target, np.array([1, 1]))
        assert math.isfinite(breakdown.total)
    assert math.isfinite(losses.clip_ce_loss([1.0, -1.0], 0, 1e-4))


def _per_pair_pullback(v, stack, target, counts, tau):
    """loss_gradients with the cosine gradients pulled back one (class, subclass) pair at a time."""
    grid = losses.similarity_grid(v, stack, tau)
    coeff = losses._gradient_coefficients(grid, target, losses.total_loss(grid, target, counts))
    nv = math.sqrt(float(np.dot(v, v)))
    grad_v = np.zeros_like(v)
    grad_t = np.zeros_like(stack)
    for i in range(grid.n_classes):
        for j in range(grid.n_subclasses):
            c = coeff[i, j]
            if c == 0.0:
                continue
            t, s = stack[i, j], grid.values[i, j]
            nt = math.sqrt(float(np.dot(t, t)))
            grad_v += c * (t / (nv * nt) - s * v / (nv * nv))
            grad_t[i, j] = c * (v / (nv * nt) - s * t / (nt * nt))
    return grad_v, grad_t


def test_loss_gradients_match_central_differences():
    rng = np.random.default_rng(15)
    h = 1e-6
    for _ in range(5):
        n, k, dim = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 7))
        v = rng.normal(size=dim)
        stack = rng.normal(size=(n, k, dim))
        target = int(rng.integers(n))
        counts = rng.integers(1, 6, size=k)
        tau = float(rng.uniform(0.2, 1.0))
        grid = losses.similarity_grid(v, stack, tau)
        breakdown = losses.total_loss(grid, target, counts)
        grad_v, grad_t = losses.loss_gradients(v, stack, grid, target, breakdown)
        ref_v, ref_t = _per_pair_pullback(v, stack, target, counts, tau)
        np.testing.assert_allclose(grad_v, ref_v, rtol=0, atol=0)
        np.testing.assert_allclose(grad_t, ref_t, rtol=0, atol=0)

        def loss_at(vec, tensors):
            grid = losses.similarity_grid(vec, tensors, tau)
            return losses.total_loss(grid, target, counts).total

        for idx in range(dim):
            bumped = v.copy()
            bumped[idx] += h
            dipped = v.copy()
            dipped[idx] -= h
            numeric = (loss_at(bumped, stack) - loss_at(dipped, stack)) / (2 * h)
            np.testing.assert_allclose(grad_v[idx], numeric, rtol=1e-4, atol=1e-6)
        flat = stack.reshape(-1)
        picks = rng.choice(flat.size, size=min(10, flat.size), replace=False)
        for idx in picks:
            bumped = stack.copy().reshape(-1)
            bumped[idx] += h
            dipped = stack.copy().reshape(-1)
            dipped[idx] -= h
            numeric = (
                loss_at(v, bumped.reshape(stack.shape))
                - loss_at(v, dipped.reshape(stack.shape))
            ) / (2 * h)
            np.testing.assert_allclose(
                grad_t.reshape(-1)[idx], numeric, rtol=1e-4, atol=1e-6
            )


def test_loss_gradients_reject_a_grid_of_another_shape():
    rng = np.random.default_rng(16)
    v = rng.normal(size=4)
    stack = rng.normal(size=(3, 2, 4))
    grid = losses.similarity_grid(v, stack, 0.5)
    breakdown = losses.total_loss(grid, 1, np.array([1, 1]))
    with pytest.raises(ContractViolation):
        losses.loss_gradients(v, stack[:2], grid, 1, breakdown)
    with pytest.raises(ContractViolation):
        losses.loss_gradients(v, stack[:, :1], grid, 1, breakdown)


def test_clip_ce_validation():
    with pytest.raises(ContractViolation):
        losses.clip_ce_loss([0.5, 1.2], 0, 0.1)
    with pytest.raises(ContractViolation):
        losses.clip_ce_loss([0.5, 0.2], 2, 0.1)
    with pytest.raises(ContractViolation):
        losses.clip_ce_loss([0.5, 0.2], 0, 0.0)
