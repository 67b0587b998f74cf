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

from repro.exceptions import NonFiniteValueError

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


def check_finite(initial_values) -> None:
    """Reject NaN/inf initial values, naming the first (scenario, agent, coordinate).

    One non-finite agent would spread to every output within a few rounds,
    so ``Study`` and every engine entry point call this at their boundary.
    ``(B, n, d)`` values name a scenario; one scenario's ``(n,)`` or
    ``(n, d)`` values do not.
    """
    try:
        values = np.asarray(initial_values, dtype=float)
    except (TypeError, ValueError):
        return  # ragged or non-numeric: the shape checks report it
    if values.ndim not in (1, 2, 3) or np.isfinite(values).all():
        return
    index = [int(i) for i in np.argwhere(~np.isfinite(values))[0]]
    if values.ndim == 1:
        index.append(0)
    scenario = index[0] if values.ndim == 3 else None
    agent, coordinate = index[-2:]
    where = "" if scenario is None else f"scenario {scenario}, "
    raise NonFiniteValueError(
        f"initial values must be finite: {where}agent {agent}, coordinate "
        f"{coordinate} is {values[tuple(index[: values.ndim])]}",
        scenario=scenario,
        agent=agent,
        coordinate=coordinate,
    )


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
# ``np.packbits`` are 8x denser than bool arrays, so row comparisons over
# whole graph or mask stacks touch an eighth of the memory.  These kernels
# serve the bitset-packed graph layer (:mod:`repro.graphs.packed`) and the
# α-relation kernels of :mod:`repro.graphs.relations`.


def pack_bool_rows(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., m)`` array into uint8 ``(..., ceil(m/8))`` rows.

    Element 0 of a row maps to the most significant bit of byte 0 (numpy's
    ``packbits`` big-bit order), so lexicographic byte order is the
    lexicographic order of the boolean rows.
    """
    return np.packbits(np.asarray(mask, dtype=bool), axis=-1)


def packed_row_ids(packed: np.ndarray) -> np.ndarray:
    """Map rows to small integer ids (equal rows get equal ids).

    ``packed`` is interpreted as a stack of rows over its last axis; the
    result drops that axis and numbers the distinct rows ``0, 1, ...`` in
    lexicographic order (the inverse of ``np.unique(rows, axis=0)``).  One
    ``np.lexsort`` turns all-pairs row-equality tests (``O(K² · nb)``
    comparisons) into an ``O(K log K)`` sort plus integer comparisons — the
    core trick behind the vectorized α-relation.
    """
    rows = np.asarray(packed).reshape(-1, packed.shape[-1])
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new_row = np.ones(len(rows), dtype=bool)
    new_row[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(new_row) - 1
    return ids.reshape(packed.shape[:-1])


#: ``running_argmax`` scans float64 tables of at most this many cells row by
#: row on Python floats; larger ones scan column by column in numpy.
_ROW_SCAN_CELLS = 128


def running_argmax(
    values: Union[Iterable[float], np.ndarray], tolerance: float = 1e-15
) -> Union[int, np.ndarray]:
    """Index selected by the adversaries' strict-improvement scan.

    Scans ``values`` in order, keeping index ``i`` whenever ``values[i]``
    exceeds the running best by more than ``tolerance``, so the first
    candidate wins ties.  A 1-D input returns an ``int``; an ``(..., C)``
    input returns the integer array of the independent scans along its last
    axis (one pick per scenario of a ``(B, C)`` diameter table).

    A float64 table of at most ``_ROW_SCAN_CELLS`` cells is scanned row by
    row on Python floats, like the 1-D input; a larger one column by column,
    each step one numpy comparison over every row.  Python floats are IEEE
    doubles, so both give the same picks, NaN (never an improvement) and
    ``-inf`` included.  The threshold comes from a grid of random ``(B, C)``
    tables (2 vCPUs, best of 7, µs column / row scan): ``(4, 3)`` 20 / 5,
    ``(4, 4)`` 24 / 5, ``(16, 4)`` 25 / 12, ``(32, 4)`` 26 / 23, ``(16, 8)``
    45 / 19; above 128 cells the column scan wins or ties: ``(64, 4)`` 25 /
    43, ``(128, 2)`` 11 / 52, ``(32, 8)`` 43 / 33, ``(64, 8)`` 30 / 44,
    ``(128, 8)`` 33 / 88.
    """
    if not isinstance(values, np.ndarray):
        values = np.asarray(list(values), dtype=float)
    if values.ndim > 1 and (values.size > _ROW_SCAN_CELLS or values.dtype != np.float64):
        best = np.full(values.shape[:-1], -math.inf)
        choices = np.zeros(values.shape[:-1], dtype=int)
        for index in range(values.shape[-1]):
            column = values[..., index]
            improved = column > best + tolerance
            best = np.where(improved, column, best)
            choices = np.where(improved, index, choices)
        return choices
    if values.ndim > 1:
        rows = values.reshape(math.prod(values.shape[:-1]), values.shape[-1]).tolist()
        picks = [_scan_row(row, tolerance) for row in rows]
        return np.array(picks, dtype=int).reshape(values.shape[:-1])
    return _scan_row(values.ravel().tolist(), tolerance)


def _scan_row(row: Sequence[float], tolerance: float) -> int:
    """:func:`running_argmax` of one row of Python floats."""
    best = -math.inf
    best_index = 0
    for index, value in enumerate(row):
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
