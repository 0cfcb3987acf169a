"""Circle quadrature, counter-based sampling and measure invariance."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt import quadrature
from innerclt.blaschke import BlaschkeProduct, monomial
from innerclt.clark import moment_polynomial
from innerclt.correlations import pair_correlation
from innerclt.errors import BudgetExceeded, NonConvergence
from innerclt.quadrature import (DEFAULT_MAX_GRID, check_invariance, circle_grid,
                                 counter_uniform, degree_aware_grid, integrate,
                                 mc_integrate, next_power_of_two, uniform_angles)
from innerclt.variance import CoefficientSequence, l2_identity_check

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j), rotation=cmath.exp(0.7j))


class TestIntegrate:
    def test_monomials_are_orthogonal(self):
        for k in (1, 2, 7, -3):
            val = integrate(lambda z, k=k: z ** k).value
            assert abs(val) < 1e-14
        assert abs(integrate(lambda z: z ** 0).value - 1.0) < 1e-15

    def test_lacunary_square_modulus(self):
        # |z^2 + z^4|^2 = 2 + 2 cos(2 theta) integrates to 2
        val = integrate(lambda z: np.abs(z ** 2 + z ** 4) ** 2).value
        assert abs(val - 2.0) < 1e-13

    def test_poisson_kernel_mean(self):
        # int (1 - r^2)/|1 - r z|^2 dm = 1 for r < 1
        r = 0.8
        val = integrate(lambda z: (1 - r ** 2) / np.abs(1 - r * z) ** 2).value
        assert abs(val - 1.0) < 1e-12

    def test_nonconvergence_carries_last_value(self):
        # square-root cusp, so doubling converges only algebraically
        with pytest.raises(NonConvergence) as err:
            integrate(lambda z: np.sqrt(np.abs(np.angle(z))),
                      tol=1e-13, max_grid=4096)
        assert err.value.value is not None
        # int_0^pi sqrt(t) dt / pi = (2/3) sqrt(pi)
        assert abs(err.value.value - 2.0 * math.sqrt(math.pi) / 3.0) < 1e-3
        assert err.value.est_error > 0

    @given(st.lists(st.complex_numbers(max_magnitude=5, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_polynomial_mean_is_constant_term(self, coeffs):
        val = integrate(lambda z: np.polyval(coeffs, z)).value
        assert abs(val - coeffs[-1]) < 1e-9 * max(1.0, max(abs(c) for c in coeffs))


def full_grid_integrate(g, tol=1e-12, max_grid=2 ** 18, min_grid=256):
    """Reference: the doubling loop re-evaluating g on the whole grid per level."""
    grid = next_power_of_two(max(min_grid, 2))
    prev = None
    delta = math.inf
    while grid <= max_grid:
        value = complex(np.mean(g(circle_grid(grid))))
        if prev is not None:
            delta = abs(value - prev)
            if delta <= tol:
                return value, grid
        prev = value
        grid *= 2
    return value, None


def recording(g):
    """g plus the list of arrays it was called with."""
    seen = []

    def wrapped(z):
        seen.append(z)
        return g(z)
    return wrapped, seen


def cusp(z):
    # square-root cusp, so doubling converges only algebraically
    return np.sqrt(np.abs(np.angle(z)))


def four_factor_integrand(z):
    its = DEG2_HALF.boundary_iterates(z, 7)
    return its[2] * np.conj(its[3]) * its[5] * np.conj(its[7])


NESTED_CASES = {
    "monomial": (lambda z: z ** 7, {}),
    "constant": (lambda z: z ** 0, {}),
    "lacunary": (lambda z: np.abs(z ** 2 + z ** 4) ** 2, {}),
    "poisson": (lambda z: (1 - 0.8 ** 2) / np.abs(1 - 0.8 * z) ** 2, {}),
    "polynomial": (lambda z: np.polyval([2 - 1j, 0.5, 3j, -1.0, 0.25], z), {}),
    "four_factor": (four_factor_integrand, {"tol": 1e-11, "min_grid": 4096}),
    "invariance": (lambda z: np.real(DEG3_MIXED.boundary_step(z)) ** 3, {"tol": 1e-13}),
}


class TestNestedDoubling:
    @pytest.mark.parametrize("case", sorted(NESTED_CASES))
    def test_matches_full_grid_reference(self, case):
        g, kwargs = NESTED_CASES[case]
        ref_value, ref_grid = full_grid_integrate(g, **kwargs)
        res = integrate(g, **kwargs)
        assert res.grid_size == ref_grid
        assert abs(res.value - ref_value) <= 1e-15

    @pytest.mark.parametrize("case", sorted(NESTED_CASES))
    def test_later_levels_evaluate_only_odd_points(self, case):
        g, kwargs = NESTED_CASES[case]
        g, seen = recording(g)
        res = integrate(g, **kwargs)
        sizes = [len(z) for z in seen]
        start = next_power_of_two(kwargs.get("min_grid", 256))
        assert sizes == [start] + [start << k for k in range(len(sizes) - 1)]
        assert sum(sizes) == res.grid_size
        assert np.array_equal(seen[0], circle_grid(start))
        for k, z in enumerate(seen[1:], start=1):
            assert np.array_equal(z, circle_grid(start << k)[1::2])

    def test_odd_points_are_full_grid_points_at_large_sizes(self):
        # the odd half of circle_grid(n) is rebuilt bit for bit at n = 2^17
        g, seen = recording(cusp)
        with pytest.raises(NonConvergence):
            integrate(g, tol=1e-14, min_grid=2 ** 16, max_grid=2 ** 17)
        assert np.array_equal(seen[-1], circle_grid(2 ** 17)[1::2])

    def test_nonconvergence_reports_max_grid(self):
        g, seen = recording(cusp)
        with pytest.raises(NonConvergence) as err:
            integrate(g, tol=1e-13, max_grid=4096)
        assert err.value.grid_size == 4096
        assert sum(len(z) for z in seen) == 4096
        ref_value, ref_grid = full_grid_integrate(cusp, tol=1e-13, max_grid=4096)
        assert ref_grid is None
        assert abs(err.value.value - ref_value) <= 1e-15

    def test_nonconvergence_reports_last_level_below_max_grid(self):
        g, seen = recording(lambda z: np.sqrt(np.abs(z - 1)))
        with pytest.raises(NonConvergence) as err:
            integrate(g, max_grid=1000)
        assert err.value.grid_size == 512
        assert sum(len(z) for z in seen) == 512

    def test_min_grid_above_max_grid_raises(self):
        with pytest.raises(ValueError, match="min_grid exceeds max_grid"):
            integrate(lambda z: z, min_grid=2 ** 19)

    def test_invariance_check_below_default_min_grid_raises(self):
        with pytest.raises(ValueError, match="min_grid exceeds max_grid"):
            check_invariance(monomial(2), lambda z: np.real(z) ** 2, max_grid=128)


class TestGridHelpers:
    def test_circle_grid_on_circle(self):
        z = circle_grid(16)
        assert len(z) == 16
        assert np.allclose(np.abs(z), 1.0)
        assert abs(z[0] - 1.0) < 1e-15

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(64) == 64

    def test_degree_aware_grid(self):
        assert degree_aware_grid(1) == 256
        assert degree_aware_grid(100) == 1024
        assert degree_aware_grid(10 ** 9) == 2 ** 18


class TestGridBudget:
    """Integrals of iterates start on the degree-aware grid of their harmonic
    degree; a start grid at the cap raises BudgetExceeded before integrating."""

    @pytest.fixture
    def start_grids(self, monkeypatch):
        grids = []

        def spy(g, **kwargs):
            grids.append(kwargs["min_grid"])
            return integrate(g, **kwargs)

        monkeypatch.setattr(quadrature, "integrate", spy)
        return grids

    @pytest.mark.parametrize("call", [
        lambda: pair_correlation(DEG2_HALF, 1, 15),
        lambda: l2_identity_check(DEG2_HALF, CoefficientSequence.ones(14), 14),
        lambda: moment_polynomial(DEG2_HALF, 14, 1),
    ], ids=["pair(1,15)", "l2(N=14)", "moment(power=14)"])
    def test_start_at_cap_raises_before_integrating(self, start_grids, call):
        with pytest.raises(BudgetExceeded):
            call()
        assert start_grids == []

    def test_start_below_cap_runs_two_levels(self, start_grids):
        with pytest.raises(NonConvergence) as err:
            pair_correlation(DEG2_HALF, 1, 14)
        assert start_grids == [DEFAULT_MAX_GRID // 2]
        assert err.value.grid_size == DEFAULT_MAX_GRID
        assert math.isfinite(err.value.est_error)


class TestCounterUniform:
    def test_deterministic(self):
        assert np.array_equal(counter_uniform(42, 1000), counter_uniform(42, 1000))

    def test_partition_invariance(self):
        whole = counter_uniform(7, 1000)
        parts = np.concatenate([counter_uniform(7, 400),
                                counter_uniform(7, 600, start=400)])
        assert np.array_equal(whole, parts)

    def test_seed_sensitivity(self):
        assert not np.array_equal(counter_uniform(1, 100), counter_uniform(2, 100))

    def test_range_and_moments(self):
        u = counter_uniform(123, 200_000)
        assert np.all((u >= 0.0) & (u < 1.0))
        assert abs(np.mean(u) - 0.5) < 0.005
        assert abs(np.var(u) - 1.0 / 12.0) < 0.002

    def test_uniform_angles_range(self):
        t = uniform_angles(5, 1000)
        assert np.all((t >= 0.0) & (t < 2 * math.pi))


class TestMonteCarlo:
    def test_matches_quadrature_within_stderr(self):
        g = lambda z: np.real(z) ** 2
        mc = mc_integrate(g, 100_000, seed=9)
        assert abs(mc.value - 0.5) < 5 * mc.stderr

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_integrate(lambda z: z, 10, seed=0)


class TestInvariance:
    @pytest.mark.parametrize("f", [monomial(2), monomial(3),
                                   BlaschkeProduct(zeros=(0.0, 0.5))])
    def test_lebesgue_measure_is_invariant(self, f):
        for p in range(1, 4):
            check = check_invariance(f, lambda z, p=p: z ** p + np.real(z) ** (p + 1))
            assert check.passed, check.residual

    def test_residual_is_small_not_just_flagged(self):
        f = BlaschkeProduct(zeros=(0.0, 0.3 + 0.2j))
        check = check_invariance(f, lambda z: np.abs(z + z ** 2) ** 2)
        assert check.residual < 1e-11
