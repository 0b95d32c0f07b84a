import math
import warnings

import numpy as np
import pytest

from fracopt.errors import DimensionError, InvalidMatrix, InvalidParameter
from fracopt.linalg import as_vector, dominant_eigenvalue, integer, nonnegative, positive


def random_psd(rng, n):
    m = rng.normal(size=(n, n))
    return m @ m.T


def frozen_power_sweep(a, tol=1e-10, max_iter=10_000):
    """dominant_eigenvalue's sweep as it stood with np.linalg.norm in the
    loop, for a valid nonzero symmetric matrix. Kept as the byte reference;
    where the sweeps do not settle, or the ramp lies in the nullspace, the
    answer is LAPACK's. Up to 32 rows it is LAPACK's without a sweep, taken
    on the copy scaled by a power of two that dominant_eigenvalue makes
    outside (2**-400, 2**400): LAPACK's own rescaling of tiny or huge entries
    is not by a power of two, so it can move the last bit."""
    n = a.shape[0]
    if n <= 32:
        scale = float(np.max(np.abs(a)))
        e = 0 if 2.0**-400 < scale < 2.0**400 else math.frexp(scale)[1]
        return math.ldexp(float(np.linalg.eigvalsh(np.ldexp(a, -e))[-1]), e)
    v = np.arange(1.0, n + 1.0)
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(max_iter):
        w = a @ v
        wn = np.linalg.norm(w)
        if wn == 0.0:
            break
        lam_new = float(v @ w)
        if lam is not None and abs(lam_new - lam) <= tol * max(abs(lam_new), np.finfo(float).tiny):
            return lam_new
        lam = lam_new
        v = w / wn
    return float(np.linalg.eigvalsh(a)[-1])


class TestDominantEigenvalue:
    def test_diagonal(self):
        assert dominant_eigenvalue(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_two_by_two_offdiagonal(self):
        # characteristic polynomial (2-lam)^2 - 1 = 0 -> lam = 3
        assert dominant_eigenvalue([[2.0, 1.0], [1.0, 2.0]], tol=1e-12) == pytest.approx(
            3.0, rel=1e-10
        )

    def test_scaled_identity(self):
        assert dominant_eigenvalue(1e-4 * np.eye(5)) == pytest.approx(1e-4, rel=1e-12)

    def test_zero_matrix(self):
        assert dominant_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_demeaned_gram_regression(self):
        # dominant eigenvector (1,-1)/sqrt(2) is orthogonal to the all-ones
        # direction; the ramp start must still find 0.05, not stall at 0.01
        m = [[0.03, -0.02], [-0.02, 0.03]]
        assert dominant_eigenvalue(m, tol=1e-12) == pytest.approx(0.05, rel=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(InvalidMatrix):
            dominant_eigenvalue([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrix):
            dominant_eigenvalue([[1.0, 2.0], [2.1, 1.0]])

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        assert dominant_eigenvalue(m, tol=1e-10) == pytest.approx(3.0, rel=1e-6)

    def test_no_convergence(self):
        # one sweep settles nothing: the answer is LAPACK's. 40 rows take the
        # sweep; up to 32, LAPACK answers without one
        m = np.eye(40) + np.ones((40, 40))
        got = dominant_eigenvalue(m, tol=1e-14, max_iter=1)
        assert got == float(np.linalg.eigvalsh(m)[-1])
        assert got == pytest.approx(41.0, rel=1e-14)

    def test_lapack_answers_on_the_scaled_copy(self):
        # after one unsettled sweep (40 rows take the sweep), LAPACK runs on
        # the copy scaled by a power of two, and its answer passes through the
        # same ldexp and float-range check as the sweep's
        m = np.eye(40) + np.ones((40, 40))
        for exponent in (-1000, 996):
            got = dominant_eigenvalue(np.ldexp(m, exponent), max_iter=1)
            assert got == math.ldexp(float(np.linalg.eigvalsh(m)[-1]), exponent)
        with pytest.raises(InvalidParameter, match="float range"):
            dominant_eigenvalue(1e308 * np.ones((40, 40)), max_iter=1)

    def test_bad_tol(self):
        with pytest.raises(InvalidParameter):
            dominant_eigenvalue(np.eye(2), tol=0.0)
        with pytest.raises(InvalidParameter):
            dominant_eigenvalue(np.eye(2), tol=float("nan"))
        with pytest.raises(InvalidParameter):
            dominant_eigenvalue(np.diag([3.0, 1.0]), tol=float("inf"))
        for max_iter in (0, 2.5, -1):
            with pytest.raises(InvalidParameter):
                dominant_eigenvalue(np.eye(2), max_iter=max_iter)
        assert dominant_eigenvalue(np.eye(2), max_iter=np.int64(5)) == pytest.approx(1.0)

    def test_matches_full_decomposition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            m = random_psd(rng, n)
            expected = float(np.linalg.eigvalsh(m)[-1])
            got = dominant_eigenvalue(m, tol=1e-13, max_iter=200_000)
            assert got == pytest.approx(expected, rel=1e-8)

    def test_read_only_input_read_in_place(self):
        rng = np.random.default_rng(13)
        for n in (1, 5, 40):
            a = random_psd(rng, n)
            a.flags.writeable = False
            before = a.tobytes()
            got = dominant_eigenvalue(a, tol=1e-13, max_iter=200_000)
            assert a.tobytes() == before
            assert got == pytest.approx(float(np.linalg.eigvalsh(a)[-1]), rel=1e-8)

    def test_read_only_input_errors(self):
        def frozen(m):
            a = np.array(m, dtype=float)
            a.flags.writeable = False
            return a

        with pytest.raises(InvalidMatrix):
            dominant_eigenvalue(frozen([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        with pytest.raises(InvalidMatrix):
            dominant_eigenvalue(frozen([[1.0, 2.0], [2.1, 1.0]]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameter):
                dominant_eigenvalue(frozen([[1.0, bad], [bad, 1.0]]))
        with pytest.raises(InvalidParameter):
            dominant_eigenvalue(frozen(np.eye(2)), tol=0.0)
        for shape in ((3,), (2, 2, 2), (0, 0)):
            with pytest.raises(DimensionError):
                dominant_eigenvalue(frozen(np.ones(shape)))

    def test_rayleigh_lower_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 21))
            m = random_psd(rng, n)
            lam = dominant_eigenvalue(m, tol=1e-13, max_iter=200_000)
            for _ in range(5):
                v = rng.normal(size=n)
                rq = (v @ m @ v) / (v @ v)
                assert lam >= rq - 1e-8 * max(1.0, abs(rq))

    def test_sweep_matches_the_frozen_loop_byte_for_byte(self):
        rng = np.random.default_rng(19)
        matrices = []
        for n in (1, 2, 3, 10, 40, 64):
            for scale in (1e-150, 1e-4, 1.0, 1e100):
                matrices.append(scale * random_psd(rng, n))
                # rank one and rank deficient
                b = rng.normal(size=(n, max(1, n // 3)))
                matrices.append(scale * (b @ b.T))
        # the ramp start lies in the nullspace of u u^T for u = (2, -1, 0, ...),
        # 40 long so that it is swept: the first sweep finds A.v = 0 and
        # LAPACK answers
        u = np.zeros(40)
        u[:2] = 2.0, -1.0
        restart = np.outer(u, u)
        assert not np.any(restart @ np.arange(1.0, 41.0))
        matrices.append(restart)
        matrices.append(np.outer(u, u) * 1e-3)
        # read in place in every memory order: Fortran, strided and reversed
        for n in (3, 10, 40, 64):
            m = random_psd(rng, n)
            padded = np.zeros((2 * n, 2 * n))
            padded[::2, ::2] = m
            matrices += [np.asfortranarray(m), padded[::2, ::2], m[::-1, ::-1]]
        for m in matrices:
            for tol in (1e-10, 1e-13):
                expected = frozen_power_sweep(m, tol, 200_000)
                got = dominant_eigenvalue(m, tol, 200_000)
                assert np.float64(got).tobytes() == np.float64(expected).tobytes()
        assert dominant_eigenvalue(restart) == float(np.linalg.eigvalsh(restart)[-1])
        assert dominant_eigenvalue(restart) == pytest.approx(5.0, rel=1e-9)

    def test_lapack_answers_up_to_32_rows(self):
        # up to 32 rows lambda1 is eigvalsh's, bit for bit, at any tol and
        # budget; a copy scaled by 2**-1000 or 2**1000 gives that answer
        # scaled. I + 1e-3 B B^T has top eigenvalues as close as a
        # low-volatility Q_eps / eps_hat
        rng = np.random.default_rng(29)
        for n in (1, 2, 8, 10, 31, 32):
            b = rng.normal(size=(n, n))
            for m in (random_psd(rng, n), np.eye(n) + 1e-3 * (b @ b.T)):
                expected = float(np.linalg.eigvalsh(m)[-1])
                assert dominant_eigenvalue(m) == expected
                assert dominant_eigenvalue(m, tol=1e-14, max_iter=1) == expected
                for exponent in (-1000, 1000):
                    scaled = np.ldexp(m, exponent)
                    assert np.array_equal(np.ldexp(scaled, -exponent), m)
                    assert dominant_eigenvalue(scaled) == math.ldexp(expected, exponent)

    @pytest.mark.parametrize("exponent", [-1000, -532, 532, 996])
    def test_extreme_scales(self, exponent):
        # w.w over- or underflows in a plain sweep at 2**exponent (about
        # 1e-301, 1e-160, 1e160 and 7e299); the sweep on the power-of-two
        # rescaled matrix is the unscaled sweep scaled, bit for bit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for diag in ([3.0, 1.0, 2.0], [1.0, 1.0, 1.0], [1e-300, 2.0, 1e-300]):
                m = np.diag(diag)
                got = dominant_eigenvalue(np.ldexp(m, exponent))
                assert got == math.ldexp(dominant_eigenvalue(m), exponent)
                assert got == pytest.approx(math.ldexp(max(diag), exponent), rel=1e-9)
            for scale in (1e-300, 1e-160, 1e160, 1e300):
                assert dominant_eigenvalue(scale * np.diag([3.0, 1.0, 2.0])) == pytest.approx(
                    3.0 * scale, rel=1e-9
                )

    def test_eigenvalue_beyond_the_float_range_rejected(self):
        # every entry is finite, but lambda1 = 3e308 is not
        with pytest.raises(InvalidParameter, match="float range"):
            dominant_eigenvalue(1e308 * np.ones((3, 3)))

class TestDenseOps:
    def test_nan_rejected_on_construction(self):
        with pytest.raises(InvalidParameter):
            as_vector([1.0, np.nan])
        with pytest.raises(InvalidParameter):
            dominant_eigenvalue([[np.inf, 0.0], [0.0, 1.0]])


class TestValidators:
    def test_positive(self):
        for good in (1e-300, 1.0, np.float64(2.5), 3):
            positive("a", good)
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan, np.float64("inf")):
            with pytest.raises(InvalidParameter, match="a must be positive and finite"):
                positive("a", bad)
        # str, not repr: numpy 2 spells np.float64(inf) in its repr
        with pytest.raises(InvalidParameter, match="got inf$"):
            positive("a", np.float64("inf"))

    def test_nonnegative(self):
        for good in (0.0, 0, 1e-300, 5.0):
            nonnegative("lip", good)
        for bad in (-1e-300, math.inf, math.nan):
            with pytest.raises(InvalidParameter, match="lip must be nonnegative and finite"):
                nonnegative("lip", bad)

    def test_integer(self):
        integer("n", 1)
        integer("n", np.int64(2), minimum=2)
        for bad, minimum in ((0, 1), (1, 2), (2.0, 1), (2.5, 1), (math.nan, 1), (True, 2)):
            with pytest.raises(InvalidParameter, match=f"n must be an integer >= {minimum}"):
                integer("n", bad, minimum)

    def test_integer_rejects_booleans(self):
        # bool is a numbers.Integral, so True would pass as the count 1
        for bad, minimum in ((True, 1), (False, 0)):
            with pytest.raises(InvalidParameter, match=f"n must be an integer >= {minimum}"):
                integer("n", bad, minimum)
        integer("n", 0, minimum=0)

    def test_as_vector_length(self):
        assert as_vector([1.0, 2.0], 2).tolist() == [1.0, 2.0]
        with pytest.raises(InvalidParameter, match="w has length 3, expected 2"):
            as_vector([1.0, 2.0, 3.0], 2, "w")
        with pytest.raises(InvalidParameter, match="x has length 1, expected 2"):
            as_vector([1.0], 2)
        with pytest.raises(DimensionError):
            as_vector([[1.0, 2.0]], 2)
