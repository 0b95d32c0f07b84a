"""Exact Euclidean projections onto the feasible sets used by the solvers.

A projection operator is any callable mapping a point to its closest point
(in the 2-norm) of a fixed closed convex set. Two sets ship here: the
probability simplex and the horizontal band {x in R^2 : |x2| <= a0}.

The simplex projection validates its input (rank, non-empty, finite)
without a defensive copy: finiteness is read off the running sum that the
projection computes anyway, so a valid input costs no extra pass. It sorts
with numpy's default (unstable) kind: entries that tie are equal values, so
their order changes neither the threshold nor the output bytes.
"""

import math

import numpy as np

from .errors import DimensionError, InvalidParameter, NumericalBreakdown


def project_simplex(x):
    """Project x onto the probability simplex {u >= 0, sum(u) = 1}.

    Sort-based exact method: sort descending, find the largest support size
    j' whose running average keeps the shifted entries positive, subtract
    the threshold, clip at zero. O(n log n), no iteration.

    Raises DimensionError for input that is not a non-empty 1-d vector,
    InvalidParameter for NaN or Inf entries, and NumericalBreakdown when the
    entries are too large for the support test to resolve in float64. The
    input is never mutated; the result is a new float64 array.
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
    # the accumulate that ndarray.cumsum wraps, without the wrapper
    css = np.add.accumulate(u)
    # a NaN or Inf entry makes the total non-finite; finite entries whose
    # total overflows are left to the support test below
    if not math.isfinite(css[-1]) and not np.all(np.isfinite(x)):
        raise InvalidParameter("vector entries must be finite (no NaN/Inf)")
    # t[j-1] = (css[j-1] - 1)/j, the threshold of support size j; the strict
    # u > t is the support rule u - t > 0 for every IEEE double, inf and NaN
    # included. j=1 qualifies since u[0] - 1 < u[0], unless u[0] is so large
    # (about 1e16 and up) that u[0]-1 rounds to u[0]
    t = css - 1.0
    t /= _ramp(n)
    positive = u > t
    jp = n - int(positive[::-1].argmax())
    if not positive[jp - 1]:
        raise NumericalBreakdown(
            f"simplex projection lost precision: no support size qualifies (max entry {u[0]})"
        )
    y = x - t[jp - 1]
    return np.maximum(y, 0.0, out=y)


# the ramp 1.0, 2.0, ..., n of the longest vector projected so far; shorter
# ones read a prefix of it
_RAMP = np.arange(1.0, 1.0)


def _ramp(n):
    global _RAMP
    # read once: a concurrent call may swap in a shorter ramp meanwhile
    ramp = _RAMP
    if ramp.shape[0] < n:
        ramp = _RAMP = np.arange(1.0, n + 1.0)
    return ramp[:n]


def band_projector(a0):
    """Return a one-argument projection operator onto the band of half-width a0.

    The returned closure skips per-call validation (the half-width is checked
    here, once); solvers call it every iteration.
    """
    if not a0 > 0:
        raise InvalidParameter(f"band half-width must be positive, got {a0}")
    a0 = float(a0)

    def _project(x):
        x2 = x[1]
        if x2 > a0:
            x2 = a0
        elif x2 < -a0:
            x2 = -a0
        return np.array([x[0], x2])

    return _project
