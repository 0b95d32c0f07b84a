"""Exact Euclidean projections onto the feasible sets used by the solvers.

A projection operator is any callable mapping a point to its closest point
(in the 2-norm) of a fixed closed convex set. Two sets ship here: the
probability simplex and the horizontal band {x in R^2 : |x2| <= a0}.

The simplex projection validates its input (rank, non-empty, finite)
without a defensive copy: the sorted extremes, read before the running sum,
reject NaN and Inf and route the rare inputs, so a valid input costs no extra
pass and the sum never overflows. It sorts with numpy's default (unstable)
kind: tied entries are equal values, so their order changes neither the
threshold nor the output bytes.
"""

import math

import numpy as np

from .errors import DimensionError, InvalidParameter


def project_simplex(x):
    """Project x onto the probability simplex {u >= 0, sum(u) = 1}.

    Sort-based exact method: sort descending, find the largest support size
    j' whose running average keeps the shifted entries positive, subtract
    the threshold, clip at zero. O(n log n), no iteration.

    Every finite input has an answer, routed by the sorted extremes before
    the running sum: past 2^52 in magnitude the largest entries share the
    mass, and entries below -2^60, outside every support, are clipped there
    so that the sum stays in the float range. Raises DimensionError for input
    that is not a non-empty 1-d vector and InvalidParameter for NaN or Inf
    entries. The input is never mutated; the result is a new float64 array.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got ndim={x.ndim}")
    n = x.shape[0]
    if n == 0:
        raise DimensionError("cannot project an empty vector")
    u = x.copy()
    u.sort()
    u = u[::-1]
    # a NaN sorts to u[0] here, +Inf to u[0] and -Inf to u[-1]
    hi, lo = u[0], u[-1]
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise InvalidParameter("vector entries must be finite (no NaN/Inf)")
    if abs(hi) > 2.0**52:
        # doubles this large are whole numbers, so every smaller entry is at
        # least 1 below u[0] and the largest entries share the mass
        top = x == hi
        return top / np.count_nonzero(top)
    if lo < -(2.0**60):
        # such entries lie more than 1 below u[0], outside every support
        np.maximum(u, -(2.0**60), out=u)
    # the accumulate that ndarray.cumsum wraps, without the wrapper
    css = np.add.accumulate(u)
    # t[j-1] = (css[j-1] - 1)/j, the threshold of support size j; the strict
    # u > t is the support rule u - t > 0, and size 1 always qualifies
    t = css - 1.0
    t /= np.arange(1.0, n + 1.0)
    positive = u > t
    jp = n - int(positive[::-1].argmax())
    y = x - t[jp - 1]
    return np.maximum(y, 0.0, out=y)


def band_projector(a0):
    """Return a one-argument projection operator onto the band of half-width a0.

    The returned closure skips per-call validation (the half-width is checked
    here, once); solvers call it every iteration.
    """
    if not a0 > 0:
        raise InvalidParameter(f"band half-width must be positive, got {a0}")
    a0 = float(a0)

    def _project(x):
        x1, x2 = x.tolist() if isinstance(x, np.ndarray) else x
        if x2 > a0:
            x2 = a0
        elif x2 < -a0:
            x2 = -a0
        return np.array([x1, x2])

    return _project
