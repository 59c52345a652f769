"""Dense float64 vector kernels used by every other module.

Public functions check their inputs (finite entries, matching shapes)
once and raise :class:`ContractViolation` or :class:`ZeroNormError` on
bad data instead of propagating NaNs; they work through private kernels
(``_lse``, ``_row_norms``) that trust their arguments, and callers
holding checked float64 arrays may call those directly.  Everything is
pure and deterministic: the same bits in give the same bits out.

Every kernel works on rows: an array (..., n) is a stack of vectors
along its last axis, and each result row is bit for bit what that row
alone would give, so a batch is one call.  NumPy's vectorised log, exp
and log1p round differently from the C library's (on an AVX-512 host,
on a few percent of inputs), so the scalar steps always taken with
``math`` map ``math`` over the rows, one Python call per row.
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
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{name} contains non-finite entries")
    return arr


def _as_rows(values, name: str) -> np.ndarray:
    """Coerce to a float64 stack (..., D) under the checks of as_vector."""
    arr = np.asarray(values, dtype=np.float64)
    return as_vector(arr.reshape(-1) if arr.ndim else arr, name).reshape(arr.shape)


def _row_norms(arr: np.ndarray, name: str) -> np.ndarray:
    """Norm of each row of a checked float64 (..., D) stack; ZeroNormError names a zero row."""
    norm = np.sqrt(np.vecdot(arr, arr))
    if not norm.all():
        row = tuple(np.argwhere(norm == 0.0)[0].tolist())
        where = f" row {row[0] if len(row) == 1 else row}" if row else ""
        raise ZeroNormError(f"{name}{where} has zero norm")
    return norm


def vector_norm(values, name: str = "vector"):
    """Euclidean norm of a vector (a float) or of each row of a (..., D) stack; 0 raises."""
    arr = _as_rows(values, name)
    norm = _row_norms(arr, name)
    return float(norm) if arr.ndim == 1 else norm


def cosine_similarity(a, b):
    """Cosine of each row of ``a`` with each row of ``b``.

    ``a`` and ``b`` are vectors (D,) or stacks (..., D); the result has
    shape ``a.shape[:-1] + b.shape[:-1]``, a float for two vectors.  Each
    entry is bit for bit the cosine of those two rows alone, clamped to
    [-1, 1]: the clamp removes the tiny floating-point excursions beyond
    +/-1 that parallel vectors can produce.  Exactly commutative for two
    vectors, because both the dot product and the norm product are.
    """
    va = _as_rows(a, "a")
    vb = _as_rows(b, "b")
    if vb.shape[-1] != va.shape[-1]:
        raise ContractViolation(
            f"dimension mismatch: {va.shape[-1]} vs {vb.shape[-1]}"
        )
    norm_a = vector_norm(va, "a")
    norm_b = vector_norm(vb, "b")
    if va.ndim > 1:  # each row of a against the whole of b
        spread = (1,) * (vb.ndim - 1)
        va = va.reshape(*va.shape[:-1], *spread, -1)
        norm_a = norm_a.reshape(*norm_a.shape, *spread)
    raw = np.minimum(np.maximum(np.vecdot(va, vb) / (norm_a * norm_b), -1.0), 1.0)
    return float(raw) if raw.ndim == 0 else raw


def _lse(arr: np.ndarray) -> np.ndarray:
    """log_sum_exp of each row of a checked float64 (..., n) stack, n >= 1."""
    shift = arr.max(axis=-1, keepdims=True)
    total = np.exp(arr - shift).sum(axis=-1)
    # math.log per row: NumPy's vectorised log rounds differently from libm.
    logs = np.array([math.log(x) for x in total.ravel().tolist()]).reshape(total.shape)
    return shift[..., 0] + logs


def log_sum_exp(values):
    """log(sum(exp(x_i))) over the last axis, computed without overflow.

    A float for a vector, one value per row for a (..., n) stack.  Uses
    the max-shift identity, so inputs anywhere in the float64 range are
    safe.  For a single element the result is that element exactly.
    """
    arr = _as_rows(values, "values")
    return float(_lse(arr)) if arr.ndim == 1 else _lse(arr)


def stable_softmax(values) -> np.ndarray:
    """Softmax over the last axis via the log-sum-exp shift.

    Entries lie in [0, 1] and each row sums to ~1.  Shift invariant to
    within rounding: adding a constant to every input moves each output
    by at most a few ulps.
    """
    arr = _as_rows(values, "values")
    return np.exp(arr - _lse(arr)[..., None])
