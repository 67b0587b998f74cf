"""Shared type aliases and small helpers used across the library.

The library follows the paper's conventions:

* Agents are identified by integers ``0 .. n-1`` (the paper uses ``1 .. n``).
* Values live in Euclidean ``d``-space and are represented as 1-D numpy
  arrays of length ``d``; scalars are accepted anywhere a value is expected
  and are promoted to shape ``(1,)`` arrays.
* A *configuration* of outputs is an ``(n, d)`` numpy array.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

#: An agent identifier (0-based).
AgentId = int

#: A round number (1-based for rounds that perform communication, as in the
#: paper; round 0 denotes the initial configuration).
Round = int

#: Anything accepted as a single agent value.
ValueLike = Union[float, int, Sequence[float], np.ndarray]

#: Anything accepted as a vector of initial values (one entry per agent).
ValuesLike = Union[Sequence[ValueLike], np.ndarray]


def as_value(value: ValueLike) -> np.ndarray:
    """Promote ``value`` to a 1-D float array (a point of Euclidean d-space).

    >>> as_value(3)
    array([3.])
    >>> as_value([1.0, 2.0])
    array([1., 2.])
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"agent values must be scalars or 1-D vectors, got shape {arr.shape}")
    return arr


def as_value_matrix(values: ValuesLike) -> np.ndarray:
    """Promote a per-agent collection of values to an ``(n, d)`` float matrix.

    Scalar entries are promoted to dimension ``d = 1``.  All entries must have
    the same dimension.

    >>> as_value_matrix([0.0, 1.0, 2.0]).shape
    (3, 1)
    >>> as_value_matrix([[0.0, 1.0], [2.0, 3.0]]).shape
    (2, 2)
    """
    if isinstance(values, np.ndarray) and values.ndim == 2:
        return values.astype(float, copy=True)
    rows = [as_value(v) for v in values]
    if not rows:
        raise ValueError("at least one agent value is required")
    dim = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != dim:
            raise ValueError(
                f"inconsistent value dimensions: agent 0 has d={dim}, agent {i} has d={row.shape[0]}"
            )
    return np.vstack(rows)


def diameter(points: Iterable[np.ndarray] | np.ndarray) -> float:
    """Euclidean diameter of a finite point set (``diam`` in the paper).

    ``points`` may be an ``(m, d)`` array or an iterable of 1-D arrays.  The
    diameter of the empty set and of a singleton is 0.

    >>> diameter(np.array([[0.0], [3.0], [1.0]]))
    3.0
    """
    pts = np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] < 2:
        return 0.0
    # Pairwise distances; m is small (m = n agents) so the O(m^2) cost is fine.
    diffs = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    return float(dists.max())


def pairwise_diameters(outputs: np.ndarray) -> np.ndarray:
    """Euclidean diameters of stacked point sets, shape ``(..., n, d) -> (...)``.

    This is the batched counterpart of :func:`diameter` and performs the
    *same* floating-point operations elementwise (pairwise differences,
    squared sums, square roots, maximum), so a batched evaluation of candidate
    configurations is bit-for-bit comparable with per-candidate
    :func:`diameter` calls — which is what lets the batched adversaries make
    identical choices to the per-scenario ones.
    """
    points = np.asarray(outputs, dtype=float)
    if points.ndim < 2:
        raise ValueError(f"expected at least a (n, d) array, got shape {points.shape}")
    if points.shape[-2] < 2:
        return np.zeros(points.shape[:-2], dtype=float)
    if points.shape[-1] == 1:
        # max over sqrt((a_i - a_j)^2) equals sqrt((max - min)^2): rounding is
        # monotone, so the maximal pair is the (max, min) pair and applying
        # the same square/sqrt to it reproduces the dense result bit-for-bit
        # in O(n) instead of O(n^2).
        flat = points[..., 0]
        spread = flat.max(axis=-1) - flat.min(axis=-1)
        return np.sqrt(spread * spread)
    diffs = points[..., :, None, :] - points[..., None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    return dists.max(axis=(-1, -2))


# --------------------------------------------------------------------------- #
# Packed-bit kernels
# --------------------------------------------------------------------------- #
#
# Boolean rows (in-neighborhoods, receive masks) packed into uint8 via
# ``np.packbits`` are 8x denser than bool arrays, so row comparisons and
# first/last-set-bit scans over whole graph or mask stacks touch an eighth of
# the memory.  These kernels are shared by the bitset-packed graph layer
# (:mod:`repro.graphs.packed`) and the packed masked-reduction path of
# :mod:`repro.algorithms.base`.

#: For a byte value, the index (0 = most significant bit, packbits order) of
#: its first set bit; 8 for the zero byte.
_FIRST_BIT_IN_BYTE = np.full(256, 8, dtype=np.int64)
#: For a byte value, the index of its last set bit; -1 for the zero byte.
_LAST_BIT_IN_BYTE = np.full(256, -1, dtype=np.int64)
for _byte in range(1, 256):
    _bits = [_i for _i in range(8) if _byte & (1 << (7 - _i))]
    _FIRST_BIT_IN_BYTE[_byte] = _bits[0]
    _LAST_BIT_IN_BYTE[_byte] = _bits[-1]
del _byte, _bits


def pack_bool_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., m)`` array into uint8 ``(..., ceil(m/8))`` rows.

    Element 0 of a row maps to the most significant bit of byte 0 (numpy's
    ``packbits`` big-bit order), so lexicographic byte order preserves the
    first/last-set-bit structure :func:`packed_first_true` and
    :func:`packed_last_true` rely on.
    """
    return np.packbits(np.asarray(mask, dtype=bool), axis=-1)


def packed_first_true(packed: np.ndarray, length: int) -> np.ndarray:
    """Index of the first set bit along the last (packed) axis.

    ``packed`` is a uint8 ``(..., nb)`` array produced by
    :func:`pack_bool_rows` from rows of ``length`` booleans; rows with no set
    bit map to the sentinel ``length``.  One byte-level ``argmax`` plus a
    256-entry table lookup replaces a full boolean scan.
    """
    nonzero = packed != 0
    has_bit = nonzero.any(axis=-1)
    first_byte = nonzero.argmax(axis=-1)
    byte_value = np.take_along_axis(packed, first_byte[..., None], axis=-1)[..., 0]
    index = first_byte * 8 + _FIRST_BIT_IN_BYTE[byte_value]
    return np.where(has_bit, index, length)


def packed_last_true(packed: np.ndarray, length: int) -> np.ndarray:
    """Index of the last set bit along the last (packed) axis (-1 if none set)."""
    nonzero = packed != 0
    has_bit = nonzero.any(axis=-1)
    nb = packed.shape[-1]
    last_byte = nb - 1 - nonzero[..., ::-1].argmax(axis=-1)
    byte_value = np.take_along_axis(packed, last_byte[..., None], axis=-1)[..., 0]
    index = last_byte * 8 + _LAST_BIT_IN_BYTE[byte_value]
    return np.where(has_bit, index, -1)


def packed_first_last_true(packed: np.ndarray, length: int):
    """Both set-bit extremes in one sweep over the packed bytes.

    Returns ``(packed_first_true(packed, length), packed_last_true(packed,
    length))`` bit-for-bit, but computes the byte-nonzero map and the
    has-any-bit reduction — the only full passes over the packed tensor —
    once and shares them between the two queries.  Used by the fused masked
    extreme pair, whose packed path needs the first *and* last in-neighbor
    of every receiver per coordinate.
    """
    nonzero = packed != 0
    has_bit = nonzero.any(axis=-1)
    nb = packed.shape[-1]
    first_byte = nonzero.argmax(axis=-1)
    byte_value = np.take_along_axis(packed, first_byte[..., None], axis=-1)[..., 0]
    first = np.where(has_bit, first_byte * 8 + _FIRST_BIT_IN_BYTE[byte_value], length)
    last_byte = nb - 1 - nonzero[..., ::-1].argmax(axis=-1)
    byte_value = np.take_along_axis(packed, last_byte[..., None], axis=-1)[..., 0]
    last = np.where(has_bit, last_byte * 8 + _LAST_BIT_IN_BYTE[byte_value], -1)
    return first, last


def packed_row_ids(packed: np.ndarray) -> np.ndarray:
    """Map packed rows to small integer ids (equal rows get equal ids).

    ``packed`` is interpreted as a stack of rows over its last axis; the
    result drops that axis.  Built on ``np.unique`` over the row bytes, this
    turns all-pairs row-equality tests (``O(K² · nb)`` byte comparisons) into
    an ``O(K log K)`` sort plus integer comparisons — the core trick behind
    the vectorized α-relation.
    """
    rows = np.ascontiguousarray(packed).reshape(-1, packed.shape[-1])
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    return inverse.reshape(packed.shape[:-1])


def running_argmax(
    values: Union[Iterable[float], np.ndarray], tolerance: float = 1e-15
) -> Union[int, np.ndarray]:
    """Index selected by the adversaries' strict-improvement scan.

    Scans ``values`` in order, keeping index ``i`` whenever ``values[i]``
    exceeds the running best by more than ``tolerance``, so the first
    candidate wins ties.  A 1-D input returns an ``int``; an ``(..., C)``
    input returns the integer array of the independent scans along its last
    axis (one pick per scenario of a ``(B, C)`` diameter table).
    """
    if not isinstance(values, np.ndarray):
        values = np.asarray(list(values), dtype=float)
    if values.ndim > 1:
        best = np.full(values.shape[:-1], -math.inf)
        choices = np.zeros(values.shape[:-1], dtype=int)
        for index in range(values.shape[-1]):
            column = values[..., index]
            improved = column > best + tolerance
            best = np.where(improved, column, best)
            choices = np.where(improved, index, choices)
        return choices
    best = -math.inf
    best_index = 0
    for index, value in enumerate(values.ravel().tolist()):
        if value > best + tolerance:
            best = value
            best_index = index
    return best_index


def in_convex_hull(point: np.ndarray, points: np.ndarray, tol: float = 1e-9) -> bool:
    """Return True if ``point`` lies in the convex hull of the rows of ``points``.

    For dimension 1 this is an interval check.  For higher dimensions we solve
    the small linear program with a non-negative least-squares formulation,
    which is adequate for the small point sets (n agents) used in this
    library.
    """
    pts = np.asarray(points, dtype=float)
    p = as_value(point)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[1] != p.shape[0]:
        raise ValueError("dimension mismatch between point and hull points")
    if pts.shape[1] == 1:
        lo, hi = pts.min(), pts.max()
        return bool(lo - tol <= p[0] <= hi + tol)
    # General dimension: find convex weights w >= 0, sum w = 1, pts.T @ w = p.
    # Use a tiny projected-gradient solve; the problem size is n x d with n
    # small, so this is robust enough for test/benchmark purposes.
    m = pts.shape[0]
    weights = np.full(m, 1.0 / m)
    target = p
    a_mat = pts.T  # (d, m)
    for _ in range(5000):
        residual = a_mat @ weights - target
        grad = a_mat.T @ residual
        weights -= 0.1 * grad
        weights = np.clip(weights, 0.0, None)
        total = weights.sum()
        if total <= 0:
            weights = np.full(m, 1.0 / m)
        else:
            weights /= total
        if np.linalg.norm(residual) <= tol:
            return True
    residual = a_mat @ weights - target
    return bool(np.linalg.norm(residual) <= 1e-6)
