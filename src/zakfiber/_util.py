"""Small shared helpers."""

from __future__ import annotations

import numpy as np


def stack_generator_fibers(fibered) -> tuple[np.ndarray, np.ndarray]:
    """Validate a non-empty list of FiberedVectors on one fibration.

    Returns (stack, weights) with stack shape (n_fibers, n_points, n_gens);
    the stack is a fresh array that callers may scale in place.
    """
    if not fibered:
        raise ValueError("at least one fibered generator is required")
    first = fibered[0]
    for fv in fibered[1:]:
        if fv.fibers.shape != first.fibers.shape:
            raise ValueError("generator fiber shapes do not match")
        if not np.array_equal(fv.fiber_weights, first.fiber_weights):
            raise ValueError("generator fiber weights do not match")
    stack = np.stack([fv.fibers for fv in fibered], axis=2)
    return stack, first.fiber_weights
