"""Algorithm interfaces for the round-based dynamic system model.

An algorithm (Section 2) is a deterministic local transition function: in
every round each agent sends a message to its out-neighbors, receives the
messages of its in-neighbors (always including itself, because communication
graphs have self-loops), and updates its state.  The agent's *output* ``y_i``
is a point of Euclidean d-space extracted from its state.

Two levels of generality are provided:

* :class:`Algorithm` — the fully general interface (full-information
  algorithms, algorithms with memory, algorithms whose outputs leave the
  convex hull of received values, deciding algorithms, ...).
* :class:`ConvexCombinationAlgorithm` — the memoryless averaging algorithms
  of Section 2.2: the state is just the output value, the message is the
  output value, and the new output must lie in the convex hull of the values
  received in the current round.  Subclasses only implement
  :meth:`ConvexCombinationAlgorithm.combine`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import AlgorithmError, EnsembleShapeError
from repro.types import as_value

#: Dense intermediates up to this many elements are reduced in one pass
#: (1M float64 elements = 8 MiB); anything larger is folded one sender at a
#: time, or taken by the sort-select kernel.
_AUTO_DENSE_ELEMENT_LIMIT = 1 << 20


def receive_mask(adjacency: np.ndarray) -> np.ndarray:
    """The receiver-major view of an adjacency tensor.

    ``adjacency[..., i, j]`` means *i sends to j*; the returned array has
    ``mask[..., j, i]`` true iff receiver ``j`` hears sender ``i``, which is
    the orientation every masked reduction of the vectorized fast path needs.
    Accepts a single ``(n, n)`` matrix or a stacked ``(B, n, n)`` tensor.
    """
    return np.swapaxes(np.asarray(adjacency, dtype=bool), -1, -2)


def masked_min(adjacency: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-receiver coordinate-wise minimum over received values.

    ``adjacency`` is a boolean ``(..., n, n)`` tensor and ``values`` a
    ``(..., n, d)`` tensor; row ``j`` of the result is the minimum over the
    values of ``j``'s in-neighbors.  This is the one authoritative masked
    reduction shared by the fast-path algorithms and the convexity validator.
    Large inputs are folded one sender at a time (or taken by the sort-select
    kernel), so peak memory is ``O(B · n · d)`` instead of the full
    ``(B, n, n, d)`` dense intermediate once that would overflow
    ``_AUTO_DENSE_ELEMENT_LIMIT``.
    """
    lo, _hi = _masked_extremes_pair(adjacency, values, None)
    return lo


def masked_max(adjacency: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-receiver coordinate-wise maximum over received values (see :func:`masked_min`)."""
    _lo, hi = _masked_extremes_pair(adjacency, None, values)
    return hi


def masked_min_max(adjacency: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Both masked extremes in one pass.

    Equivalent to ``(masked_min(a, v), masked_max(a, v))`` but shares the
    receive-mask, shape resolution and (on the sort-select kernel) the
    per-coordinate gather between the two reductions — use it whenever an
    update needs both bounds (midpoint-style rules, convexity checks).
    """
    return _masked_extremes_pair(adjacency, values, values)


def masked_extreme_pair(
    adjacency: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Fused masked extremes over *two* value tensors with one mask resolution.

    Returns ``(masked_min(adjacency, min_values), masked_max(adjacency,
    max_values))`` bit-for-bit, but resolves the receive mask once and shares
    it — along with the broadcasting work — between the two reductions.
    This is the amortized midpoint's per-round pattern: the minimum runs
    over the phase-min tensor while the maximum runs over the phase-max
    tensor of the same adjacency.  Either side may be ``None`` to skip that extreme;
    passing the same object for both degenerates to :func:`masked_min_max`
    (one shared sort instead of two).
    """
    if min_values is None and max_values is None:
        raise AlgorithmError(
            "masked_extreme_pair needs at least one of min_values/max_values"
        )
    return _masked_extremes_pair(adjacency, min_values, max_values)


class PlannedStack(np.ndarray):
    """A bool ``(F, n, n)`` adjacency stack that is reused across rounds.

    The array itself is the dense stack, so ``np.asarray`` and
    :func:`receive_mask` see plain bools and algorithms need not know what
    it carries:

    * ``plan``, when set, is an int ``(k, F · n)`` array whose column
      ``f · n + j`` holds the rows ``f · n + i`` of the senders ``i`` that
      receiver ``j`` of entry ``f`` hears, in a ``(F · n, d)`` view of the
      values, padded to the stack's largest in-degree ``k`` by repeating a
      real in-neighbour (which changes no minimum or maximum).  Built by
      :meth:`GatherPlan.stack`.
    * ``_kernels`` memoizes the dispatcher's choice per value signature
      (see :func:`_masked_extremes_pair`), so a stack that sees the same
      value shapes every round resolves its kernel once.

    Any array derived from it (a slice, arithmetic, a view, a deep copy)
    has neither and takes the ordinary dispatch.  Build one with
    :meth:`of`.
    """

    plan: Optional[np.ndarray] = None
    #: ``(GatherPlan, graph ids)`` the plan was built from, for :meth:`keep`.
    _source: Optional[tuple] = None
    #: Value signature -> ``(kernel, operand)`` resolved on this stack.
    _kernels: Optional[dict] = None

    @classmethod
    def of(
        cls,
        stack: np.ndarray,
        plan: Optional[np.ndarray] = None,
        source: Optional[tuple] = None,
    ) -> "PlannedStack":
        """``stack`` as a carrier with an empty kernel memo (and ``plan``, if given)."""
        carrier = stack.view(cls)
        carrier.plan, carrier._source, carrier._kernels = plan, source, {}
        return carrier

    def keep(self, rows: np.ndarray) -> np.ndarray:
        """``self[rows]`` for a bool ``rows`` over the stack, with its plan."""
        if self.plan is None:
            return self[rows]
        gather_plan, graph_ids = self._source
        return gather_plan.stack(graph_ids[rows])


class GatherPlan:
    """In-neighbour lists of ``M`` fixed graphs, for planned stacks of them.

    Built once from an ``(M, n, n)`` adjacency stack: ``senders[:, m, j]``
    lists the senders receiver ``j`` of graph ``m`` hears in ascending order,
    padded by repeating the first one.  :meth:`stack` then plans any stack
    of these graphs with one index add, instead of masking all ``n²``
    sender/receiver pairs every round.  When some receiver hears nobody
    there is no plan (``senders is None``) and stacks come out plain.
    """

    def __init__(self, adjacency: np.ndarray) -> None:
        self.adjacency = np.asarray(adjacency, dtype=bool)
        mask = receive_mask(self.adjacency)
        degree = mask.sum(axis=-1)  # (M, n)
        self.max_degree = degree.max(axis=-1, initial=0)  # (M,)
        self.senders = None
        if degree.size and degree.min() > 0:
            k = int(self.max_degree.max())
            first = np.argsort(~mask, axis=-1, kind="stable")[..., :k]
            padded = np.where(np.arange(k) < degree[..., None], first, first[..., :1])
            self.senders = np.ascontiguousarray(np.moveaxis(padded, -1, 0))  # (k, M, n)

    def stack(self, graph_ids: np.ndarray) -> np.ndarray:
        """The ``(F, n, n)`` stack ``adjacency[graph_ids]``, planned when possible."""
        graph_ids = np.asarray(graph_ids, dtype=np.intp)
        stack = self.adjacency.take(graph_ids, axis=0)
        if self.senders is None or graph_ids.size == 0:
            return stack
        n = stack.shape[-1]
        k = int(self.max_degree.take(graph_ids).max())
        rows = self.senders[:k].take(graph_ids, axis=1)  # (k, F, n)
        rows += (np.arange(graph_ids.size) * n)[:, None]
        return PlannedStack.of(stack, rows.reshape(k, -1), (self, graph_ids))


def _masked_extremes_gather(
    plan: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Masked extremes of a :class:`PlannedStack` by in-neighbour gather.

    One gather of the ``(F · n, d)`` value rows at ``plan`` (shared by both
    sides when they are the same object) and a ``np.minimum`` /
    ``np.maximum`` reduction over its ``k`` padded in-neighbour rows;
    ``O(k · F · n · d)`` work and memory instead of the dense
    ``O(F · n² · d)``.  ``np.take`` gathers the rows ~3x faster than a
    fancy index (20 vs 67 µs at ``plan`` ``(4, 6048)``, ``d = 1``).  Equal
    to the dense kernel, NaN propagation included, up to the sign of a
    ``±0`` tie.
    """

    def _gather(values):
        return np.take(values.reshape(-1, values.shape[-1]), plan, axis=0)

    lo = hi = None
    if min_values is not None:
        lo_rows = _gather(min_values)
        lo = np.minimum.reduce(lo_rows, axis=0).reshape(min_values.shape)
    if max_values is not None:
        hi_rows = lo_rows if max_values is min_values else _gather(max_values)
        hi = np.maximum.reduce(hi_rows, axis=0).reshape(max_values.shape)
    return lo, hi


def _plan_applies(adjacency, min_values, max_values) -> bool:
    """Whether a call can take :func:`_masked_extremes_gather` (see the dispatcher)."""
    if not isinstance(adjacency, PlannedStack) or adjacency.plan is None:
        return False
    sides = _distinct_sides(min_values, max_values)
    return (
        all(
            type(values) is np.ndarray
            and values.dtype == np.float64
            and values.shape[:-1] == adjacency.shape[:-1]
            and values.shape[-1] == sides[0].shape[-1]
            for values in sides
        )
        and adjacency.plan.size * sides[0].shape[-1] <= _AUTO_DENSE_ELEMENT_LIMIT
    )


def _masked_extremes_dense(
    mask: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Reference kernel: one ``np.where`` over the full dense intermediate.

    Reduces the ``(..., n_receivers, n, d)`` tensor of masked values in a
    single pass; the fold and sort-select kernels must equal it byte for
    byte once zeros are made ``+0.0`` (the dispatcher's rule), and the
    tests compare them against it directly.  Which sender wins a ``±0`` tie
    follows numpy's reduction order: the later sender where it reduces the
    sender axis in index order (measured on numpy 2.4: ``d > 1`` or
    ``n <= 8``), otherwise whichever SIMD lane finishes last.
    """
    expanded_mask = mask[..., None]
    lo = (
        np.where(expanded_mask, min_values[..., None, :, :], np.inf).min(axis=-2)
        if min_values is not None
        else None
    )
    hi = (
        np.where(expanded_mask, max_values[..., None, :, :], -np.inf).max(axis=-2)
        if max_values is not None
        else None
    )
    return lo, hi


def _masked_extremes_fold(
    mask: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Masked extremes folded one sender at a time.

    Each side starts from sender 0's masked column and folds senders
    ``1 .. n-1`` into it in ascending order with ``np.minimum`` /
    ``np.maximum``, so peak memory is ``O(lead · R · d)`` instead of the
    dense ``(..., R, n, d)`` intermediate, and ``n - 1`` slab operations
    replace numpy's reduction over a short sender axis.  Equal to the dense
    kernel, NaN propagation included, up to the sign of a zero: a ``±0`` tie
    resolves to the later sender, which the dispatcher's ``+ 0.0`` erases.
    """

    def _one_side(values, fill, fold):
        if values is None:
            return None
        acc = np.where(mask[..., :, 0, None], values[..., None, 0, :], fill)
        for sender in range(1, mask.shape[-1]):
            column = np.where(mask[..., :, sender, None], values[..., None, sender, :], fill)
            fold(acc, column, out=acc)
        return acc

    return _one_side(min_values, np.inf, np.minimum), _one_side(max_values, -np.inf, np.maximum)


def _masked_extremes_sorted(
    mask: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
    lead: tuple,
):
    """Sort-and-select masked extremes.

    With a scenario's ``(n, d)`` values sorted per coordinate, the masked
    minimum of receiver ``j`` is the *first* of ``j``'s in-neighbours in
    ascending value order and the maximum the *last*, so a boolean gather of
    the receive mask into sorted order plus a bool ``argmax`` (plain and
    reversed) per coordinate replaces the ``O(lead · n² · d)`` float64
    ``np.where`` intermediate with a byte-sized one.  Exact: the selected
    floats are elements of the values, and only the sign of a ``±0`` tie
    depends on the order (the dispatcher's ``+ 0.0`` erases it).

    Each value tensor is argsorted over its own leading axes, so values
    shared by a stack of masks (the adversaries' candidate evaluation) are
    sorted once and gathered with one ``mask[..., order]``; per-lead values
    are gathered with one boolean fancy index per lead scenario — measured
    2-4x faster than a broadcast ``take_along_axis`` or bit-level gathers
    out of :attr:`CommunicationGraph.packed_receive_rows`.  When the two
    sides are the same object the sort and the gather are shared.
    """
    n_receivers, n = mask.shape[-2], mask.shape[-1]
    has_neighbor = mask.any(axis=-1)  # (..., n_receivers)

    def _gathers(values: np.ndarray):
        """Per coordinate: which receivers hear anyone, the mask gathered
        into ascending value order, and the selector of sorted values."""
        d = values.shape[-1]
        if values.size == n * d:  # one value matrix shared by the whole stack
            values = values.reshape(n, d)
            for coord in range(d):
                column = values[:, coord]
                order = np.argsort(column, kind="stable")
                yield has_neighbor, mask[..., order], column[order].__getitem__
            return
        lead_count = math.prod(lead)
        flat = lambda array: np.broadcast_to(  # noqa: E731
            array, lead + array.shape[-2:]
        ).reshape((lead_count,) + array.shape[-2:])
        order = np.argsort(values, axis=-2, kind="stable")
        sorted_values = flat(np.take_along_axis(values, order, axis=-2))
        order, mask_flat = flat(order), flat(mask)
        reached = flat(has_neighbor[..., None])[..., 0]
        sorted_mask = np.empty((lead_count, n_receivers, n), dtype=bool)
        for coord in range(d):
            for scenario in range(lead_count):
                sorted_mask[scenario] = mask_flat[scenario][:, order[scenario, :, coord]]
            yield reached, sorted_mask, partial(
                np.take_along_axis, sorted_values[..., coord], axis=-1
            )

    def _one_side(values: np.ndarray, want_min: bool, want_max: bool):
        lo_columns, hi_columns = [], []
        for reached, sorted_mask, select in _gathers(values):
            if want_min:
                first_hit = sorted_mask.argmax(axis=-1)
                lo_columns.append(np.where(reached, select(first_hit), np.inf))
            if want_max:
                last_hit = n - 1 - sorted_mask[..., ::-1].argmax(axis=-1)
                hi_columns.append(np.where(reached, select(last_hit), -np.inf))
        out_shape = lead + (n_receivers, values.shape[-1])
        lo = np.stack(lo_columns, axis=-1).reshape(out_shape) if want_min else None
        hi = np.stack(hi_columns, axis=-1).reshape(out_shape) if want_max else None
        return lo, hi

    if min_values is not None and min_values is max_values:
        return _one_side(min_values, True, True)
    lo = _one_side(min_values, True, False)[0] if min_values is not None else None
    hi = _one_side(max_values, False, True)[1] if max_values is not None else None
    return lo, hi


def _reduction_operands(
    adjacency: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Validate a masked reduction's inputs: ``(mask, min_arr, max_arr, lead)``.

    ``mask`` is the one :func:`receive_mask` resolution of the call, ``lead``
    the broadcast leading (scenario/candidate) shape, and ``min_arr is
    max_arr`` when the caller passed the same object for both sides.
    """
    adjacency_arr = np.asarray(adjacency)
    if adjacency_arr.ndim < 2 or adjacency_arr.shape[-1] != adjacency_arr.shape[-2]:
        raise EnsembleShapeError(
            f"adjacency must be a square (..., n, n) tensor, got shape {adjacency_arr.shape}",
            expected="(..., n, n)",
            actual=tuple(adjacency_arr.shape),
        )
    shared = min_values is not None and min_values is max_values
    min_arr = np.asarray(min_values) if min_values is not None else None
    if shared:
        max_arr = min_arr
    else:
        max_arr = np.asarray(max_values) if max_values is not None else None
    sides = _distinct_sides(min_arr, max_arr)
    for values in sides:
        if values.ndim < 2:
            raise EnsembleShapeError(
                f"values must be a (..., n, d) tensor, got shape {values.shape}"
            )
        if values.shape[-2] != adjacency_arr.shape[-1]:
            raise EnsembleShapeError(
                f"adjacency tensor {adjacency_arr.shape} and value tensor {values.shape} "
                f"disagree on the number of agents: {adjacency_arr.shape[-1]} vs {values.shape[-2]}"
            )
    if len(sides) == 2 and sides[0].shape[-1] != sides[1].shape[-1]:
        raise EnsembleShapeError(
            f"min value tensor {sides[0].shape} and max value tensor {sides[1].shape} "
            f"disagree on the coordinate dimension: {sides[0].shape[-1]} vs {sides[1].shape[-1]}"
        )
    mask = receive_mask(adjacency_arr)
    lead = mask.shape[:-2]
    if any(values.shape[:-2] != lead for values in sides):
        try:
            lead = np.broadcast_shapes(lead, *(values.shape[:-2] for values in sides))
        except ValueError as exc:
            raise EnsembleShapeError(
                f"adjacency tensor {adjacency_arr.shape} and value tensor(s) "
                f"{[tuple(v.shape) for v in sides]} have incompatible leading "
                "(scenario/candidate) axes"
            ) from exc
    return mask, min_arr, max_arr, lead


def _distinct_sides(min_arr, max_arr) -> list:
    """The distinct value tensors of a fused pair (one when both are the same)."""
    if min_arr is not None and min_arr is max_arr:
        return [min_arr]
    return [values for values in (min_arr, max_arr) if values is not None]


def _masked_extremes_pair(
    adjacency: np.ndarray,
    min_values: Optional[np.ndarray],
    max_values: Optional[np.ndarray],
):
    """Dispatch core of all masked extremes: one mask resolution per call.

    ``min_values`` feeds the minimum and ``max_values`` the maximum; either
    may be ``None`` (that side is skipped) and passing the same object for
    both recovers the shared-sort single-tensor behaviour of
    :func:`masked_min_max`.  The kernel is chosen from the input alone, by
    the first rule that holds:

    * in-neighbour gather when ``adjacency`` is a :class:`PlannedStack`
      whose plan survives (not a slice, arithmetic or other derived array)
      and the values are float64 ``(F, n, d)`` tensors over its leading
      axis, unless the gathered ``k · F · n · d`` rows would overflow
      ``_AUTO_DENSE_ELEMENT_LIMIT``;
    * sender-fold when ``n <= 8`` and the output count ``lead · R · d`` is
      at least ``64 · n``;
    * sort-select when one value matrix (``d <= 8``) is shared by a stack
      of masks whose ``lead · R · n · d`` dense intermediate has at least
      6144 elements, or when per-lead values with ``d <= 2`` and
      ``n >= 32`` overflow ``_AUTO_DENSE_ELEMENT_LIMIT``;
    * sender-fold when the dense intermediate overflows that limit;
    * dense otherwise.

    The shared-values threshold comes from a grid of fused min/max calls
    over shared values (2 vCPUs, median of 9 interleaved medians, µs
    sort-select / dense / fold at ``(lead, n, d)``).  Below 6144 dense
    elements dense wins: ``(4, 4, 1)`` 21 / 8 / 19, ``(3, 5, 1)`` 21 / 8 /
    24, ``(4, 24, 1)`` 28 / 20 / 115, ``(3, 34, 1)`` 28 / 22 / 158,
    ``(16, 16, 1)`` 38 / 34 / 88, and in a second run ``(4, 32, 1)`` 46 /
    41 and ``(2, 48, 1)`` 46 / 40.  At 6144 the two tie (``(6, 32, 1)``
    56 / 57, ``(24, 16, 1)`` 73 / 78, ``(8, 16, 3)`` 102 / 124), and
    above it sort-select wins: ``(8, 32, 1)`` 64 / 75 / 320, ``(3, 66,
    1)`` 66 / 121 / 641, ``(64, 16, 1)`` 82 / 169 / 179, ``(8, 64, 1)``
    71 / 271 / 533, ``(24, 64, 1)`` 177 / 877 / 1061, ``(8, 128, 1)`` 421
    / 1110 / 1581, ``(128, 16, 3)`` 472 / 1227 / 1252.  ``(400, 4, 1)``
    197 / 249 / 82 takes the small-n fold.

    The fold's small-n threshold comes from a dense-vs-fold grid of fused
    min/max calls (2 vCPUs, n in {2, 4, 8, 12, 16, 32}, lead in {4 .. 1000},
    d in {1, 3}, per-lead masks and values).  At ``64 · n`` outputs or more
    the fold wins in every cell measured but one: 2.0x at ``(lead, n, d) =
    (128, 2, 1)``, 1.8x at ``(400, 4, 1)`` (198 vs 108 µs, the valency
    suffix's shape), 1.45x at ``(128, 4, 1)``, 1.4x at ``(400, 8, 1)``;
    it loses 0.89x at ``(48, 8, 3)`` (188 vs 218 µs).  Below it dense wins
    (0.73x fold at ``(48, 8, 1)`` and ``(16, 4, 3)``) except at
    ``(48, 2, 1)``, where a 1.3x fold gain is left.  The fold's peak memory
    drops below the dense kernel's at the threshold, so the rule also
    decides which of two similar-sized passes allocates more.  For
    ``n >= 12`` the fold gains at most 1.36x and only far above the
    crossover, so those inputs stay dense until they overflow the limit.

    The plan is the valency suffixes' kernel: their stacks are the model
    graphs tiled over the stacked futures, so one plan per call lists each
    receiver's in-neighbours once instead of masking all ``n²`` pairs every
    round.  It wins at every measured shape (2 vCPUs, median of 41
    interleaved pairs, µs, the kernel the dispatcher otherwise picks /
    plan): the amortized midpoint's two tensors on Ψ(12) ``F = 504`` 580
    / 66 and ``F = 144`` 177 / 27 (dense), on Ψ(4) ``F = 192`` 52 / 21
    (fold); the midpoint's one on deaf(K_4) ``F = 400`` 71 / 19 (fold);
    and tiny stacks of ``F = 3``-``4`` graphs 13-18 / 9-13.

    NaN values skip the sort-select kernel (they need the dense propagation
    semantics).  Every other kernel receives the one mask produced here, so
    a caller needing both extremes pays for at most one
    :func:`receive_mask` resolution regardless of path.  Zeros come out as
    ``+0.0`` whatever kernel ran: one in-place ``+ 0.0`` on each output
    erases the sign of a ``±0`` tie, which the kernels resolve differently
    (sort-select by stable sort position, fold to the later sender, gather
    and dense by numpy's reduction order).

    A :class:`PlannedStack` memoizes the choice.  Its key is the value
    signature: per side ``None`` or the shape and dtype of an exact
    ``np.ndarray`` (other types are never memoized), whether both sides
    are one object, and ``_AUTO_DENSE_ELEMENT_LIMIT``.  The first call with
    a signature validates and resolves as above; later calls go straight
    to the kernel with the memoized mask or plan, so an adversary's
    candidate stacks and a valency suffix stack pay the dispatch once, not
    every round.  Every rule reads only the signature except sort-select's
    NaN rule, so an input the sort-select rule covers is never memoized,
    whichever kernel its values then take.  A malformed value tensor has a
    signature no valid call stored, so it is validated and raises as on a
    plain array.
    """
    memo = adjacency._kernels if isinstance(adjacency, PlannedStack) else None
    key = None if memo is None else _value_signature(min_values, max_values)
    resolved = None if key is None else memo.get(key)
    if resolved is None:
        kernel, operand, min_values, max_values, reusable = _resolve_kernel(
            adjacency, min_values, max_values
        )
        if key is not None and reusable:
            memo[key] = (kernel, operand)
    else:
        kernel, operand = resolved
    lo, hi = kernel(operand, min_values, max_values)
    for extreme in (lo, hi):
        if extreme is not None:
            extreme += 0.0
    return lo, hi


def _value_signature(min_values, max_values) -> Optional[tuple]:
    """A :class:`PlannedStack` memo key (see the dispatcher), or ``None``."""
    sides = []
    for values in (min_values, max_values):
        if values is None:
            sides.append(None)
        elif type(values) is np.ndarray:
            sides.append((values.shape, values.dtype))
        else:
            return None
    return sides[0], sides[1], min_values is max_values, _AUTO_DENSE_ELEMENT_LIMIT


def _resolve_kernel(adjacency, min_values, max_values):
    """The dispatcher's rules: ``(kernel, operand, min_arr, max_arr, reusable)``.

    ``kernel(operand, min_arr, max_arr)`` computes the extremes; ``operand``
    is the gather plan or the receive mask.  ``reusable`` is false when the
    sort-select rule covers the input, because its NaN test reads the values.
    """
    if _plan_applies(adjacency, min_values, max_values):
        return _masked_extremes_gather, adjacency.plan, min_values, max_values, True
    mask, min_arr, max_arr, lead = _reduction_operands(adjacency, min_values, max_values)
    sides = _distinct_sides(min_arr, max_arr)
    n_receivers, n = mask.shape[-2], mask.shape[-1]
    d = sides[0].shape[-1]
    lead_count = math.prod(lead) if lead else 1
    outputs = lead_count * n_receivers * d
    over_limit = outputs * n > _AUTO_DENSE_ELEMENT_LIMIT
    small_n = n <= 8 and outputs >= 64 * n
    shared = lead_count > 1 and all(size == 1 for values in sides for size in values.shape[:-2])
    sortable = not small_n and (
        (shared and d <= 8 and outputs * n >= 6144)
        or (lead_count > 1 and d <= 2 and n >= 32 and over_limit)
    )
    if sortable and not any(np.isnan(values).any() for values in sides):
        return (
            lambda operand, lo, hi: _masked_extremes_sorted(operand, lo, hi, lead),
            mask, min_arr, max_arr, False,
        )
    kernel = _masked_extremes_fold if over_limit or small_n else _masked_extremes_dense
    return kernel, mask, min_arr, max_arr, not sortable


class Algorithm(ABC):
    """A deterministic local algorithm for the round-based dynamic model.

    Subclasses define the agent state (any picklable/copyable object), the
    message sent each round, the state transition, and how to read the output
    value ``y_i`` from the state.
    """

    @abstractmethod
    def initial_state(self, agent_id: int, initial_value: np.ndarray, n: int) -> Any:
        """The agent's state before round 1.

        Parameters
        ----------
        agent_id:
            The agent's identifier (``0 .. n-1``).
        initial_value:
            The agent's initial value ``y_i(0)`` as a 1-D float array.
        n:
            The total number of agents (known to the agents, as in the paper's
            algorithms that use phases of length ``n - 1``).
        """

    @abstractmethod
    def message(self, agent_id: int, state: Any) -> Any:
        """The message the agent broadcasts this round, given its current state."""

    @abstractmethod
    def transition(
        self, agent_id: int, state: Any, received: Mapping[int, Any], round_number: int
    ) -> Any:
        """The new state after receiving ``received`` (sender id -> message) in ``round_number``.

        ``received`` always contains the agent's own message (self-loop).
        """

    @abstractmethod
    def output(self, agent_id: int, state: Any) -> np.ndarray:
        """The output value ``y_i`` encoded in ``state`` (1-D float array)."""

    @property
    def name(self) -> str:
        """Human-readable algorithm name used in reports and benchmarks."""
        return type(self).__name__

    def is_convex_combination(self) -> bool:
        """Whether the algorithm is a convex-combination (averaging) algorithm."""
        return isinstance(self, ConvexCombinationAlgorithm)

    def round_invariant(self) -> bool:
        """Whether the transition ignores the ``round_number`` argument.

        Round-invariant algorithms produce bit-for-bit identical outputs no
        matter which round number a transition executes at.  The batched
        valency estimator relies on this to stack the futures of
        configurations recorded at different rounds into one ensemble, and
        convex-combination rules rely on it to drop exact-fixpoint scenarios
        from constant suffixes early.  Defaults to ``False`` (conservative);
        any rule whose update never reads ``round_number`` overrides it to
        ``True`` — memoryless rules and stateful ones alike (the amortized
        midpoint keeps its phase position in the state, so a stack of its
        states may sit at different phase positions).
        """
        return False

    # ------------------------------------------------------------------ #
    # Vectorized fast path (optional)
    # ------------------------------------------------------------------ #
    #
    # Algorithms whose round update is a pure array computation can execute
    # whole rounds — and whole stacked ensembles of executions — as single
    # NumPy operations instead of per-agent Python loops.  An algorithm opts
    # in by returning True from :meth:`supports_batch` and implementing the
    # four ``batch_*`` hooks below.  The *batch state* is an opaque object
    # holding array-valued per-agent state; all hooks must treat it as
    # immutable and return fresh objects.  Value tensors have shape
    # ``(..., n, d)`` and adjacency tensors ``(..., n, n)``, where leading
    # dimensions (if any) index independent scenarios of an ensemble.
    #
    # :func:`repro.execution.run_execution` and
    # :mod:`repro.execution.batch` dispatch to these hooks automatically and
    # fall back to the per-agent path when they are absent; both paths
    # produce equivalent executions (see tests/test_equivalence.py).

    def supports_batch(self) -> bool:
        """Whether the vectorized ``batch_*`` fast path is implemented."""
        return False

    def batch_initial(self, values: np.ndarray) -> Any:
        """Batch state before round 1 from an ``(..., n, d)`` value tensor."""
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_transition(self, batch_state: Any, adjacency: np.ndarray, round_number: int) -> Any:
        """One synchronous round on the whole batch state at once.

        ``adjacency`` is the boolean ``(..., n, n)`` adjacency tensor of the
        round's communication graph(s), with ``adjacency[..., i, j]`` true iff
        ``j`` receives from ``i``.
        """
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_outputs(self, batch_state: Any) -> np.ndarray:
        """The ``(..., n, d)`` output tensor encoded in ``batch_state``."""
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_states(self, batch_state: Any) -> Tuple[Any, ...]:
        """Per-agent states equivalent to an *unbatched* ``(n, d)`` batch state.

        Used to materialize :class:`~repro.execution.state.Configuration`
        records; only defined when ``batch_state`` holds a single scenario.
        """
        raise NotImplementedError(f"{self.name} has no vectorized fast path")

    def batch_map(self, batch_state: Any, fn) -> Any:
        """Apply ``fn`` to every array leaf of ``batch_state``.

        The batched adversarial runner uses this to insert (and broadcast
        over) a candidate axis, e.g. ``fn = lambda a: a[:, None]`` turns a
        ``(B, n, d)`` state into a ``(B, 1, n, d)`` one that a stacked
        ``(C, n, n)`` adjacency pass expands to ``(B, C, n, d)``.  The default
        covers array-valued batch states; algorithms with structured batch
        states override it.  Implementations must visit the leaves in a fixed
        order and rebuild the state from the mapped values
        (:meth:`batch_state_stack` relies on both properties).
        """
        if isinstance(batch_state, np.ndarray):
            return fn(batch_state)
        raise NotImplementedError(
            f"{self.name} has a structured batch state and must override batch_map"
        )

    def batch_state_stack(self, batch_states: Sequence[Any]) -> Any:
        """Stack batch states along a new leading scenario axis.

        ``batch_states`` holds ``B`` batch states whose array leaves have
        identical shapes (states restored via
        :meth:`batch_state_from_states`, or the recorded rounds of an
        ensemble); the result is one batch state whose leaves carry a
        leading length-``B`` axis, ready to drive all of them through
        :meth:`batch_transition` at once.  The valency
        estimator uses this to evaluate recorded configurations as stacked
        ensembles: the scenarios of one recorded round, or — for
        :meth:`round_invariant` algorithms — configurations of all recorded
        rounds at once.  The default covers array-valued batch states and,
        via :meth:`batch_map` leaf traversal, structured states; algorithms
        whose batch state carries non-array fields should override it —
        validating fields that must agree across scenarios and turning
        per-scenario fields (such as the amortized midpoint's phase
        position) into arrays over the new axis.
        """
        return combine_batch_leaves(self, batch_states, np.stack)

    def batch_state_fixpoint(
        self, previous: Any, new: Any
    ) -> Optional[np.ndarray]:
        """Scenarios whose outputs provably never change again — or ``None``.

        Called by the valency engine's constant-suffix runs with the batch
        states before and after one :meth:`batch_transition` under a fixed
        adjacency.  A ``True`` entry (boolean array over the leading scenario
        axes) asserts that repeating the *same* transition forever leaves that
        scenario's outputs bit-for-bit unchanged, so the active set may retire
        it early.  ``None`` (the default) means "cannot tell" and disables
        retiring — always sound.  Implementations must only claim fixpoints
        that hold *exactly* in floating point, since retired scenarios'
        current outputs stand in for their suffix limits.
        """
        return None

    # ------------------------------------------------------------------ #
    # Batch-state snapshot/restore (optional)
    # ------------------------------------------------------------------ #
    #
    # :meth:`batch_states` *snapshots* an unbatched batch state into the
    # per-agent states a Configuration records; the hooks below *restore*
    # a batch state from such a snapshot.  Together they let the batched
    # valency engine resume stateful algorithms (e.g. the amortized
    # midpoint's mid-phase extremes) at a per-agent configuration — a
    # single execution's, or a per-scenario fallback ensemble's — and fan
    # the restored state out into a scenario ensemble via :meth:`batch_map`
    # instead of falling back to the per-future reference loop.  Batched
    # ensembles record their batch states directly and need no restore.

    def supports_batch_state(self) -> bool:
        """Whether batch states can be restored from recorded per-agent states.

        Algorithms that return ``True`` implement
        :meth:`batch_state_from_states` as the exact inverse of
        :meth:`batch_states`: restoring the snapshot and resuming through
        ``batch_transition`` must be bit-for-bit identical to resuming the
        per-agent states through ``transition``.
        """
        return False

    def batch_state_from_states(self, states: Sequence[Any]) -> Any:
        """Restore an unbatched batch state from a per-agent state snapshot.

        ``states`` is the tuple a :class:`~repro.execution.state.Configuration`
        records (one opaque state per agent, as produced by
        :meth:`batch_states` or by per-agent execution); the result is a
        single-scenario batch state whose array leaves have shape
        ``(n, d)``-like trailing axes, ready for :meth:`batch_map` fan-out.
        """
        raise NotImplementedError(
            f"{self.name} cannot restore a batch state from per-agent states"
        )


def combine_batch_leaves(algorithm: Algorithm, batch_states: Sequence[Any], combine) -> Any:
    """Combine batch states leaf by leaf, e.g. with ``np.stack`` or ``np.concatenate``.

    Fields that are not leaves (a uniform phase position) come from the first state.
    """
    states = list(batch_states)
    if not states:
        raise AlgorithmError("cannot combine zero batch states")
    if all(isinstance(state, np.ndarray) for state in states):
        return combine(states)
    leaves_per_state = []
    for state in states:
        leaves: list = []
        algorithm.batch_map(state, lambda leaf: (leaves.append(np.asarray(leaf)), leaf)[1])
        leaves_per_state.append(leaves)
    counts = {len(leaves) for leaves in leaves_per_state}
    if len(counts) != 1:
        raise AlgorithmError(
            f"batch states of {algorithm.name} expose differing leaf counts "
            f"({sorted(counts)}) and cannot be combined"
        )
    combined = [
        combine([leaves[index] for leaves in leaves_per_state])
        for index in range(counts.pop())
    ]
    replacement = iter(combined)
    return algorithm.batch_map(states[0], lambda _leaf: next(replacement))


class ConvexCombinationAlgorithm(Algorithm):
    """Memoryless averaging algorithms (Section 2.2).

    The agent state is its output value; the broadcast message is the output
    value; and the transition sets the output to a point in the convex hull
    of the values received this round, computed by :meth:`combine`.

    Setting ``validate=True`` makes every transition assert the convex-hull
    (Validity) requirement, which is useful in tests.
    """

    def __init__(self, validate: bool = False) -> None:
        self._validate = validate

    @abstractmethod
    def combine(
        self, agent_id: int, received: Dict[int, np.ndarray], round_number: int
    ) -> np.ndarray:
        """Map the received values (sender id -> value) to the new output value.

        The result must lie in the convex hull of ``received.values()``.
        """

    def combine_all(
        self, adjacency: np.ndarray, values: np.ndarray, round_number: int
    ) -> Optional[np.ndarray]:
        """Vectorized :meth:`combine` for all agents (and scenarios) at once.

        ``values`` is the ``(..., n, d)`` tensor of current outputs and
        ``adjacency`` the boolean ``(..., n, n)`` adjacency tensor of the
        round's graph(s) (``adjacency[..., i, j]`` iff ``j`` receives from
        ``i``; the diagonal is always true).  Implementations return the new
        ``(..., n, d)`` output tensor, equal to applying :meth:`combine`
        receiver by receiver.  The base implementation returns ``None``,
        meaning "no fast path" — the engine then uses the per-agent loop.
        """
        return None

    # ------------------------------------------------------------------ #
    # Algorithm interface
    # ------------------------------------------------------------------ #

    def initial_state(self, agent_id: int, initial_value: np.ndarray, n: int) -> np.ndarray:
        return as_value(initial_value)

    def message(self, agent_id: int, state: np.ndarray) -> np.ndarray:
        return state

    def transition(
        self, agent_id: int, state: np.ndarray, received: Mapping[int, Any], round_number: int
    ) -> np.ndarray:
        values = {sender: as_value(value) for sender, value in received.items()}
        if agent_id not in values:
            raise AlgorithmError(
                f"agent {agent_id} did not receive its own value; communication graphs "
                "must contain self-loops"
            )
        new_value = as_value(self.combine(agent_id, values, round_number))
        if self._validate:
            self._check_convex(new_value, values)
        return new_value

    def output(self, agent_id: int, state: np.ndarray) -> np.ndarray:
        return state

    # ------------------------------------------------------------------ #
    # Vectorized fast path: generic implementation on top of combine_all
    # ------------------------------------------------------------------ #

    def supports_batch(self) -> bool:
        return type(self).combine_all is not ConvexCombinationAlgorithm.combine_all

    def batch_initial(self, values: np.ndarray) -> np.ndarray:
        return np.array(values, dtype=float)

    def batch_transition(
        self, batch_state: np.ndarray, adjacency: np.ndarray, round_number: int
    ) -> np.ndarray:
        new_values = self.combine_all(adjacency, batch_state, round_number)
        if new_values is None:
            raise AlgorithmError(f"{self.name} does not implement combine_all")
        new_values = np.asarray(new_values, dtype=float)
        if self._validate:
            self._check_convex_batch(new_values, batch_state, adjacency)
        return new_values

    def batch_outputs(self, batch_state: np.ndarray) -> np.ndarray:
        return batch_state

    def batch_states(self, batch_state: np.ndarray) -> Tuple[np.ndarray, ...]:
        if batch_state.ndim != 2:
            raise AlgorithmError(
                f"per-agent states only exist for a single scenario, got shape {batch_state.shape}"
            )
        return tuple(batch_state)

    def supports_batch_state(self) -> bool:
        return self.supports_batch()

    def batch_state_from_states(self, states: Sequence[Any]) -> np.ndarray:
        return np.stack([as_value(state) for state in states])

    def batch_state_fixpoint(
        self, previous: np.ndarray, new: np.ndarray
    ) -> Optional[np.ndarray]:
        """Exact output fixpoints of one round (round-invariant rules only).

        The state of a convex-combination algorithm is its output matrix and
        the transition is a deterministic function of (state, adjacency) when
        the rule is round-invariant, so a state that one round maps to itself
        is fixed forever under that adjacency.  Round-dependent rules return
        ``None`` (an unchanged output this round says nothing about the next).
        """
        if not self.round_invariant():
            return None
        previous = np.asarray(previous)
        new = np.asarray(new)
        return (new == previous).all(axis=(-2, -1))

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_convex_batch(
        new_values: np.ndarray, values: np.ndarray, adjacency: np.ndarray, tol: float = 1e-9
    ) -> None:
        lo, hi = masked_min_max(adjacency, values)
        lo = lo - tol
        hi = hi + tol
        if np.any(new_values < lo) or np.any(new_values > hi):
            raise AlgorithmError(
                "convex-combination algorithm produced a value outside the bounding box "
                "of received values in the vectorized fast path"
            )

    @staticmethod
    def _check_convex(new_value: np.ndarray, values: Dict[int, np.ndarray], tol: float = 1e-9) -> None:
        points = np.vstack(list(values.values()))
        lo = points.min(axis=0) - tol
        hi = points.max(axis=0) + tol
        if np.any(new_value < lo) or np.any(new_value > hi):
            raise AlgorithmError(
                "convex-combination algorithm produced a value outside the bounding box "
                f"of received values: {new_value} not in [{points.min(axis=0)}, {points.max(axis=0)}]"
            )
