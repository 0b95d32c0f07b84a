"""Shared independent oracles for the test suite.

These deliberately avoid the library's own code paths: the simplex oracle
enumerates every support pattern of the constrained least-squares problem,
and the gradient oracle uses central finite differences. The run's header
names the OpenBLAS core numpy dispatched to.
"""

import ctypes
import glob
import os

import numpy as np


def openblas_core():
    """The CPU kernel OpenBLAS dispatched to, read from numpy's bundled library.

    "unknown" when numpy bundles no loadable OpenBLAS or it exports no core name.
    """
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                    "openblas_get_corename"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode("ascii", "replace")
    return "unknown"


def pytest_report_header(config):
    # tests that pin bytes through BLAS hold for the kernel they were frozen
    # under; the run log names the one in use
    return f"OpenBLAS core: {openblas_core()}"


def simplex_qp_oracle(x):
    """Projection onto the probability simplex by exhaustive support search.

    For each nonempty support S the equality-constrained minimizer is
    x_S - (sum(x_S) - 1)/|S| with zeros elsewhere; the true projection is
    the feasible candidate (all entries nonnegative) closest to x. Exponential
    in the dimension; intended for n <= 12.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    masks = ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    sizes = masks.sum(axis=1)
    sums = masks @ x
    theta = (sums - 1.0) / sizes
    candidates = np.where(masks, x - theta[:, None], 0.0)
    feasible = np.all(candidates >= -1e-12, axis=1)
    dists = np.sum((candidates - x) ** 2, axis=1)
    dists[~feasible] = np.inf
    best = np.argmin(dists)
    return np.maximum(candidates[best], 0.0)


def central_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return grad


def random_simplex_point(rng, n):
    """Uniform-ish interior point of the n-simplex."""
    w = rng.uniform(0.05, 1.0, size=n)
    return w / w.sum()
