import math

import numpy as np
import pytest

from conftest import simplex_qp_oracle
from fracopt.errors import DimensionError, InvalidParameter, NumericalBreakdown
from fracopt.projections import band_projector, project_simplex


def reference_project_simplex(x):
    """The sort-based projection as first written: copy, validate, np.sort,
    np.cumsum, last support index from np.nonzero. Kept as the bit-identity
    reference for :func:`project_simplex`."""
    x = np.array(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("vector entries must be finite (no NaN/Inf)")
    n = x.shape[0]
    if n == 0:
        raise DimensionError("cannot project an empty vector")
    u = np.sort(x, kind="stable")[::-1]
    css = np.cumsum(u)
    j = np.arange(1, n + 1)
    positive = u - (css - 1.0) / j > 0
    jp = int(np.nonzero(positive)[0][-1]) + 1
    theta = (css[jp - 1] - 1.0) / jp
    return np.maximum(x - theta, 0.0)


def bit_identity_inputs(count, seed=41):
    """Seeded vectors of length 1-400: spreads, ties, signed zeros,
    magnitudes 1e-8 to 1e8, and points already on the simplex."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(1, 401))
        kind = i % 6
        if kind == 0:
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0)
        elif kind == 1:
            # per-entry magnitudes over sixteen decades, both signs
            x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
        elif kind == 2:
            # ties: few distinct values
            x = rng.integers(-3, 4, n) * 10.0 ** rng.uniform(-8.0, 8.0)
        elif kind == 3:
            # signed zeros mixed with small entries
            x = rng.choice([0.0, -0.0, 1e-8, -1e-8, 0.5], n)
        elif kind == 4:
            # already on the simplex: a vertex, an interior or sparse point,
            # or a projected point with exact zeros
            if i % 3 == 0:
                x = np.eye(n)[int(rng.integers(n))]
            elif i % 3 == 1:
                x = rng.dirichlet(np.full(n, 10.0 ** rng.uniform(-2.0, 1.0)))
            else:
                x = reference_project_simplex(rng.normal(size=n))
        else:
            # near the simplex: perturbations of the barycenter
            x = rng.uniform(-1.0, 1.0, n) / n + 1.0 / n
        yield x


class TestSimplex:
    def test_feasible_point_unchanged(self):
        x = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(x), x, atol=1e-15)

    def test_below_simplex(self):
        # support size 2, threshold -0.2
        assert np.allclose(project_simplex([0.3, 0.3]), [0.5, 0.5], atol=1e-15)

    def test_outside_vertex(self):
        # support size 1, threshold 1
        assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            project_simplex([])

    def test_feasibility_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            n = int(rng.integers(2, 51))
            y = project_simplex(rng.uniform(-10.0, 10.0, size=n))
            assert np.all(y >= 0.0)
            assert abs(y.sum() - 1.0) <= 1e-12

    def test_matches_qp_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            x = rng.uniform(-10.0, 10.0, size=n)
            assert np.allclose(project_simplex(x), simplex_qp_oracle(x), atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = rng.uniform(-5.0, 5.0, size=n)
            perm = rng.permutation(n)
            assert np.allclose(
                project_simplex(x[perm]), project_simplex(x)[perm], atol=1e-12
            )

    def test_ties_handled(self):
        # all entries equal: projection is the barycenter regardless of sort order
        for n in (2, 3, 7):
            assert np.allclose(project_simplex(np.full(n, 4.2)), np.full(n, 1.0 / n))


def frozen_project_simplex(x):
    """project_simplex before its allocations were cut, checks and messages
    included: copy and sort, reverse, cumsum, the support test
    u - (css - 1)/j > 0 on an integer ramp j, the last qualifying j by argmax,
    the threshold (css[j'-1] - 1)/j', and a fresh clipped array. Kept as the
    byte reference for :func:`project_simplex`."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got ndim={x.ndim}")
    n = x.shape[0]
    if n == 0:
        raise DimensionError("cannot project an empty vector")
    u = x.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    if not math.isfinite(css[-1]) and not np.all(np.isfinite(x)):
        raise InvalidParameter("vector entries must be finite (no NaN/Inf)")
    j = np.arange(1, n + 1)
    positive = u - (css - 1.0) / j > 0
    jp = n - int(positive[::-1].argmax())
    if not positive[jp - 1]:
        raise NumericalBreakdown(
            f"simplex projection lost precision: no support size qualifies (max entry {u[0]})"
        )
    theta = (css[jp - 1] - 1.0) / jp
    return np.maximum(x - theta, 0.0)


def frozen_reference_inputs(seed=43):
    """Vectors of lengths 1, 2, 3, 8, 30, 100 and 400: spreads, ties, signed
    zeros, magnitudes near 1e15, and points on the simplex."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 8, 30, 100, 400):
        for _ in range(40):
            yield rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0)
            # ties: a few distinct values
            yield rng.integers(-2, 3, n) * 10.0 ** rng.uniform(-3.0, 3.0)
            yield rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], n)
            # near 1e15: the threshold still resolves, with little to spare
            yield 1e15 * rng.uniform(0.5, 1.5) + rng.integers(-4, 5, n).astype(float)
            yield rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(14.0, 15.5, n)
        yield np.zeros(n)
        yield -np.zeros(n)
        yield np.full(n, 1.0 / n)
        yield np.eye(n)[n // 2]


class TestBitIdentity:
    def test_matches_reference_bit_for_bit(self):
        for x in bit_identity_inputs(2400):
            expected = reference_project_simplex(x)
            got = project_simplex(x)
            assert np.array_equal(got, expected)
            # also tells -0.0 from 0.0
            assert got.tobytes() == expected.tobytes()

    def test_matches_the_frozen_formula_byte_for_byte(self):
        count = 0
        for x in frozen_reference_inputs():
            expected = frozen_project_simplex(x)
            got = project_simplex(x)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()
            count += 1
        assert count == 7 * (5 * 40 + 4)

    @pytest.mark.parametrize(
        "x",
        [
            [0.1, np.nan],
            [np.inf, 0.2],
            [-np.inf, 0.3],
            [np.inf, -np.inf],
            [np.nan],
            [],
            [[1.0, 2.0]],
        ],
        ids=[
            "nan", "+inf", "-inf", "inf-minus-inf", "lone-nan", "empty", "2-d",
        ],
    )
    def test_raises_as_the_frozen_formula_does(self, x):
        with np.errstate(all="ignore"):
            with pytest.raises(Exception) as expected:
                frozen_project_simplex(x)
            with pytest.raises(expected.type) as got:
                project_simplex(x)
        assert str(got.value) == str(expected.value)


class TestValidation:
    @pytest.mark.parametrize(
        "x",
        [[0.1, np.nan], [np.inf, 0.2], [-np.inf, 0.3], [np.inf, -np.inf], [np.nan]],
        ids=["nan", "+inf", "-inf", "inf-minus-inf", "lone-nan"],
    )
    def test_non_finite_rejected(self, x):
        # inf - inf in the running sum may warn before the check raises
        with np.errstate(invalid="ignore"), pytest.raises(InvalidParameter):
            project_simplex(x)

    def test_two_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            project_simplex(np.ones((2, 2)))

    def test_scalar_rejected(self):
        with pytest.raises(DimensionError):
            project_simplex(3.0)

    def test_list_and_int_input_give_float64(self):
        for x in ([0.2, 0.8], [1, 2, 3], np.array([3, -1], dtype=np.int64)):
            y = project_simplex(x)
            assert y.dtype == np.float64
            assert y.sum() == pytest.approx(1.0, abs=1e-15)

    def test_input_not_mutated_and_not_shared(self):
        rng = np.random.default_rng(47)
        for x in (rng.normal(size=9), np.array([0.2, 0.3, 0.5]), np.array([1.0])):
            before = x.copy()
            y = project_simplex(x)
            assert x.tobytes() == before.tobytes()
            assert not np.shares_memory(x, y)

    def test_finite_entries_too_large_to_resolve(self):
        # the threshold formula cannot resolve these: u[0] - 1 rounds to u[0]
        # at 1e16 and 1e17 and down to u[0] - 2 at 1e16 + 2 (the formula gave
        # [2, 0]), the running sum 2**53 + 1 rounds to 2**53 (it gave [1, 1]),
        # and the total overflows at 1e308 and to -inf at -1e308 (it gave
        # inf); each answer is the projection of x - max(x)
        cases = [
            ([1e16, 0.0], [1.0, 0.0]),
            ([1e308, 1e308], [0.5, 0.5]),
            ([1e17, 1e17, -1e17], [0.5, 0.5, 0.0]),
            ([1e16 + 2.0, 0.0], [1.0, 0.0]),
            ([2.0**52 + 1.0, 2.0**52 + 1.0], [0.5, 0.5]),
            ([-(2.0**53), -(2.0**53)], [0.5, 0.5]),
            ([3e16, 3e16, 3e16, 1.0], [1 / 3, 1 / 3, 1 / 3, 0.0]),
            ([0.5, -1e308, -1e308], [1.0, 0.0, 0.0]),
            ([0.25, 0.0, -1e308, -1e308], [0.625, 0.375, 0.0, 0.0]),
        ]
        for x, expected in cases:
            with np.errstate(over="ignore"):
                got = project_simplex(x)
                shifted = project_simplex(np.subtract(x, max(x)))
            assert got.tobytes() == np.array(expected).tobytes(), x
            assert got.tobytes() == shifted.tobytes(), x

    def test_large_entries_share_the_mass_among_the_largest(self):
        rng = np.random.default_rng(53)
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            top = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(15.7, 300.0)
            x = top - np.abs(np.round(rng.normal(size=n) * 10.0 ** rng.uniform(0.0, 300.0)))
            x[: int(rng.integers(1, n + 1))] = top
            largest = x == top
            expected = largest / np.count_nonzero(largest)
            assert project_simplex(x).tobytes() == expected.tobytes(), x
            assert project_simplex(x - top).tobytes() == expected.tobytes(), x

    @pytest.mark.parametrize(
        "x, expected",
        [([1e308, -1e308], [1.0, 0.0]), ([-1e300, 1e308, 1e308], [0.0, 0.5, 0.5])],
    )
    def test_large_entries_whose_shift_overflows(self, x, expected):
        # x - max(x) overflows to -inf on the first input, so projecting the
        # shifted vector is no substitute for the whole-number branch
        with np.errstate(over="ignore"):
            got = project_simplex(x)
        assert got.tobytes() == np.array(expected).tobytes()


class TestBand:
    def test_interior_unchanged(self):
        assert np.allclose(band_projector(100.0)([5.0, 50.0]), [5.0, 50.0])

    def test_clamp_above(self):
        assert np.allclose(band_projector(100.0)([85.5941, 120.0]), [85.5941, 100.0])

    def test_clamp_below(self):
        assert np.allclose(band_projector(100.0)([0.0, -150.0]), [0.0, -100.0])

    def test_bad_half_width(self):
        with pytest.raises(InvalidParameter):
            band_projector(0.0)
        with pytest.raises(InvalidParameter):
            band_projector(-1.0)
        with pytest.raises(InvalidParameter):
            band_projector(float("nan"))


@pytest.mark.parametrize(
    "operator,dim",
    [
        (project_simplex, 6),
        (band_projector(3.0), 2),
    ],
    ids=["simplex", "band"],
)
class TestOperatorLaws:
    def test_idempotent(self, operator, dim):
        rng = np.random.default_rng(31)
        for _ in range(200):
            y = operator(rng.uniform(-10.0, 10.0, size=dim))
            assert np.allclose(operator(y), y, atol=1e-12)

    def test_nonexpansive(self, operator, dim):
        rng = np.random.default_rng(37)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0, size=dim)
            y = rng.uniform(-10.0, 10.0, size=dim)
            d_proj = np.linalg.norm(operator(x) - operator(y))
            assert d_proj <= np.linalg.norm(x - y) + 1e-12
