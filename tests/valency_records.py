"""Whole-array comparison of :class:`~repro.core.valency.ValencyEstimate` records."""

import numpy as np

from repro.core.valency import ValencyEstimate


def record_bytes(record: ValencyEstimate):
    """Shape, dtype and raw bytes of each array: equal iff the records are bit-for-bit equal."""
    return tuple(
        None
        if array is None
        else (np.shape(array), np.asarray(array).dtype.str, np.ascontiguousarray(array).tobytes())
        for array in (record.limits, record.lower_diameter, record.upper_diameter)
    )


def stacked(traces) -> ValencyEstimate:
    """The ``(R, B)`` record of ``B`` per-scenario ``(R,)`` traces."""
    return ValencyEstimate.concatenate([trace[:, None] for trace in traces], axis=1)
