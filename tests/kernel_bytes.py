"""Byte comparison of masked-extreme results under the ``+0.0`` rule."""

import numpy as np


def canonical(extreme):
    """The dispatcher's rule: every zero made ``+0.0`` (``None`` passes through)."""
    return None if extreme is None else extreme + 0.0


def assert_same_bytes(got, want, message=""):
    """Equal shape, dtype and raw bytes once both sides are :func:`canonical`.

    ``np.array_equal`` cannot see the sign of a zero; the bytes can, and
    they also pin NaN positions and the output dtype.
    """
    got, want = canonical(got), canonical(want)
    assert (got is None) == (want is None), message
    if want is None:
        return
    assert got.shape == want.shape and got.dtype == want.dtype, (
        f"{message} {got.shape}/{got.dtype} vs {want.shape}/{want.dtype}"
    )
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), message


def assert_no_negative_zero(extreme, message=""):
    """No zero of ``extreme`` carries the sign bit."""
    if extreme is not None:
        assert not np.any(np.signbit(extreme) & (extreme == 0)), message
