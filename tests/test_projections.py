import numpy as np
import pytest

from conftest import simplex_qp_oracle
from fracopt.errors import DimensionError, InvalidParameter
from fracopt.projections import band_projector, project_simplex


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
