"""Sorted membership: the one search every fast-tier set op reduces to.

``member_sorted`` tests ``needles`` against a sorted unique ``hay``
array (plain for shared operands, over ``segment * stride + value``
keys for per-slot operands) with one NumPy ``searchsorted``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["member_sorted"]


def member_sorted(hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """``out[i] = needles[i] in hay`` for sorted unique ``hay``."""
    if hay.size == 0 or needles.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    # ndarray methods skip the np.* dispatch wrappers — this primitive
    # runs millions of times on tiny arrays.  A needle past the end
    # clips onto hay[-1], which is smaller, so it reads as absent.
    found: np.ndarray = hay.take(hay.searchsorted(needles), mode="clip") == needles
    return found
