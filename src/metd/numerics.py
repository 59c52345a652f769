"""Dense float64 vector kernels used by every other module.

Public functions check their inputs (finite entries, matching shapes)
once and raise :class:`ContractViolation` or :class:`ZeroNormError` on
bad data instead of propagating NaNs.  They then do their work through
private kernels (``_lse``, ``_row_norms``) that trust their arguments,
so no array is checked twice by one call.  Callers inside metd that
already hold checked float64 arrays may call those kernels directly.
Everything here is pure and deterministic: the same bits in give the
same bits out.
"""

import math

import numpy as np

from .errors import ContractViolation, ZeroNormError


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting empty or non-finite input."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractViolation(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ContractViolation(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} contains non-finite entries")
    return arr


def _as_rows(values, name: str) -> np.ndarray:
    """Coerce to a float64 stack (..., D) under the checks of as_vector."""
    arr = np.asarray(values, dtype=np.float64)
    return as_vector(arr.reshape(-1) if arr.ndim else arr, name).reshape(arr.shape)


def _row_norms(arr: np.ndarray, name: str) -> np.ndarray:
    """Norm of each row of a checked float64 (..., D) stack; ZeroNormError on a zero row."""
    norm = np.sqrt(np.vecdot(arr, arr))
    if np.any(norm == 0.0):
        raise ZeroNormError(f"{name} has zero norm")
    return norm


def vector_norm(values, name: str = "vector"):
    """Euclidean norm of a vector (a float) or of each row of a (..., D) stack.

    Raises ZeroNormError on a zero row.
    """
    arr = _as_rows(values, name)
    norm = _row_norms(arr, name)
    return float(norm) if arr.ndim == 1 else norm


def cosine_similarity(a, b):
    """Cosine of ``a`` with ``b`` (a float) or with each row of a (..., D) stack ``b``.

    Each entry is bit for bit the cosine with that row alone, clamped to
    [-1, 1]: the clamp removes the tiny floating-point excursions beyond
    +/-1 that parallel vectors can produce.  Exactly commutative for two
    vectors, because both the dot product and the norm product are.
    """
    va = as_vector(a, "a")
    vb = _as_rows(b, "b")
    if vb.shape[-1] != va.shape[0]:
        raise ContractViolation(
            f"dimension mismatch: {va.shape[0]} vs {vb.shape[-1]}"
        )
    norm_a = vector_norm(va, "a")
    norm_b = vector_norm(vb, "b")
    raw = np.clip(np.vecdot(va, vb) / (norm_a * norm_b), -1.0, 1.0)
    return float(raw) if vb.ndim == 1 else raw


def _lse(arr: np.ndarray) -> float:
    """log_sum_exp of a checked nonempty 1-D float64 array."""
    shift = float(np.max(arr))
    return shift + math.log(float(np.sum(np.exp(arr - shift))))


def log_sum_exp(values) -> float:
    """log(sum(exp(x_i))) computed without overflow.

    Uses the max-shift identity, so inputs anywhere in the float64 range
    are safe.  For a single element the result is that element exactly.
    """
    return _lse(as_vector(values, "values"))


def stable_softmax(values) -> np.ndarray:
    """Softmax via the log-sum-exp shift; entries in [0, 1], sum ~ 1.

    Shift invariant to within rounding: adding a constant to every input
    moves each output by at most a few ulps.
    """
    arr = as_vector(values, "values")
    return np.exp(arr - _lse(arr))
