"""Exact Euclidean projections onto the feasible sets used by the solvers.

A projection operator is any callable mapping a point to its closest point
(in the 2-norm) of a fixed closed convex set. Two sets ship here: the
probability simplex and the horizontal band {x in R^2 : |x2| <= a0}.
"""

import numpy as np

from .errors import DimensionError, InvalidParameter
from .linalg import as_vector


def project_simplex(x):
    """Project x onto the probability simplex {u >= 0, sum(u) = 1}.

    Sort-based exact method: sort descending, find the largest support size
    j' whose running average keeps the shifted entries positive, subtract
    the threshold, clip at zero. O(n log n), no iteration.
    """
    x = as_vector(x)
    n = x.shape[0]
    if n == 0:
        raise DimensionError("cannot project an empty vector")
    u = np.sort(x, kind="stable")[::-1]
    css = np.cumsum(u)
    j = np.arange(1, n + 1)
    # strict > per the support rule; j=1 always qualifies since u[0]-(u[0]-1)=1
    positive = u - (css - 1.0) / j > 0
    jp = int(np.nonzero(positive)[0][-1]) + 1
    theta = (css[jp - 1] - 1.0) / jp
    return np.maximum(x - theta, 0.0)


def band_projector(a0):
    """Return a one-argument projection operator onto the band of half-width a0.

    The returned closure skips per-call validation (the half-width is checked
    here, once); solvers call it every iteration.
    """
    if a0 <= 0:
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
