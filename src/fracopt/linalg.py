"""Input validation and dominant-eigenvalue estimation.

Every parameter and vector the package takes is checked on entry by
``positive``, ``nonnegative``, ``integer``, ``choice``, ``finite`` or
``as_vector``, each raising InvalidParameter that names the input. All
arithmetic is 64-bit floating point on numpy arrays, and the routines never
mutate their inputs; ``dominant_eigenvalue`` reads its matrix in place, so a
model build hands it the Gram matrix it has just formed without a copy.
"""

import math
import numbers

import numpy as np

from .errors import DimensionError, InvalidMatrix, InvalidParameter

_SYMMETRY_RTOL = 1e-10


def positive(name, value):
    """Check that ``value`` is positive and finite."""
    if not 0 < value < math.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")


def nonnegative(name, value):
    """Check that ``value`` is nonnegative and finite."""
    if not 0 <= value < math.inf:
        raise InvalidParameter(f"{name} must be nonnegative and finite, got {value}")


def integer(name, value, minimum=1):
    """Check that ``value`` is an integer of at least ``minimum``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParameter(f"{name} must be an integer >= {minimum}, got {value}")


def choice(name, kind, value):
    """``value`` as a member of the enum ``kind``, which it may name by its value."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(repr(member.value) for member in kind)
        raise InvalidParameter(f"{name} must be one of {allowed}, got {value!r}") from None


def finite(name, values):
    """``values`` as a float64 array, not copied when it is one, with no NaN or Inf entry."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise InvalidParameter(f"{name} must be finite")
    return a


def as_vector(x, length=None, name="x"):
    """Coerce to a finite 1-d float64 array (of ``length`` entries if given), copying the input."""
    v = np.array(x, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise InvalidParameter("vector entries must be finite (no NaN/Inf)")
    if length is not None and v.shape[0] != length:
        raise InvalidParameter(f"{name} has length {v.shape[0]}, expected {length}")
    return v


def dominant_eigenvalue(m, tol=1e-10, max_iter=1_000):
    """Largest eigenvalue of a symmetric PSD matrix by power iteration, else by LAPACK.

    Starts from a fixed deterministic ramp vector (1, 2, ..., n normalized;
    the all-ones vector can be exactly orthogonal to the dominant
    eigenvector of a demeaned Gram matrix, which locks the iteration onto a
    smaller eigenvalue). Each sweep forms one product A.v, takes the
    Rayleigh quotient v.(A.v) of the unit vector v from it, and moves v to
    A.v normalized; the iteration stops when the quotient changes by at most
    ``tol`` relative between sweeps. Where ``max_iter`` sweeps leave it
    unsettled, or A.v = 0 at the ramp, ``np.linalg.eigvalsh`` answers.

    The input is read in place and never written; with its largest entry
    outside (2**-400, 2**400), both run on a copy scaled by a power of two.
    Raises DimensionError for input that is not a non-empty 2-d array,
    InvalidParameter for NaN or Inf entries or a result beyond the float
    range, InvalidMatrix for non-square or asymmetric input (beyond 1e-10
    relative asymmetry), and InvalidParameter unless ``tol`` is positive and
    finite and ``max_iter`` is an integer >= 1.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError(f"expected a non-empty matrix, got shape {a.shape}")
    # the largest magnitude from two reductions, without an |A| temporary; a
    # NaN entry makes both of them NaN
    scale = max(float(a.max()), -float(a.min()))
    if not math.isfinite(scale):
        raise InvalidParameter("matrix entries must be finite (no NaN/Inf)")
    n, ncols = a.shape
    if n != ncols:
        raise InvalidMatrix(f"matrix is {n}x{ncols}, not square")
    positive("tol", tol)
    integer("max_iter", max_iter)
    if scale == 0.0:
        return 0.0  # zero matrix: valid PSD edge case
    if not np.array_equal(a, a.T) and float(np.max(np.abs(a - a.T))) > _SYMMETRY_RTOL * scale:
        raise InvalidMatrix("matrix asymmetry exceeds 1e-10 relative")
    # sweep 2**-e * A, where w.w neither over- nor underflows; scaling by a
    # power of two is exact, so lambda is the plain sweep's where that is in range
    e = 0
    if not 2.0**-400 < scale < 2.0**400:
        e = math.frexp(scale)[1]
        a = np.ldexp(a, -e)

    # sqrt(w.w) is np.linalg.norm's own formula for a real 1-d vector.
    # ndarray.dot forms the BLAS product that @ forms on a C- or F-ordered
    # matrix at a smaller call cost; @ stays for a strided one, which it
    # multiplies without BLAS and so with its own rounding
    matvec = a.dot if a.flags.forc else a.__matmul__
    sqrt = math.sqrt
    v = np.arange(1.0, n + 1.0)
    v /= sqrt(v.dot(v))
    tiny = np.finfo(float).tiny
    lam, settled = None, False
    for _ in range(max_iter):
        w = matvec(v)
        wn = sqrt(w.dot(w))
        if wn == 0.0:  # the ramp start lies in the nullspace
            break
        lam_new = float(v.dot(w))
        settled = lam is not None and abs(lam_new - lam) <= tol * max(abs(lam_new), tiny)
        lam = lam_new
        if settled:
            break
        v = w / wn
    if not settled:
        lam = float(np.linalg.eigvalsh(a)[-1])
    if math.frexp(lam)[1] + e > 1024:
        raise InvalidParameter(f"the eigenvalue {lam} * 2**{e} exceeds the float range")
    return math.ldexp(lam, e)
