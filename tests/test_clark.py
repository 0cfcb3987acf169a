"""Clark measures: atom location, weights, moment identities, desintegration."""

import cmath
import math

import numpy as np
import pytest

from innerclt.blaschke import (BlaschkeProduct, CirclePoint,
                               iterate_derivative_on_circle, jet_of_iterate,
                               monomial)
from innerclt.clark import (BoundaryAtomSolver, ClarkMeasure, check_first_moment,
                            check_moment_bound, check_second_moment,
                            clark_measure, desintegrate, moment_bound_onset,
                            moment_polynomial)
from innerclt.errors import BudgetExceeded

TWO_PI = 2 * math.pi

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j))


def near_circle_map(r):
    """Rotated degree-3 map with one zero at modulus r, so |f'| peaks near 2 / (1 - r)."""
    return BlaschkeProduct(zeros=(0.0, r * cmath.exp(0.4j), -0.2j), rotation=cmath.exp(0.7j))


def bisection_atoms(f, power, alpha_theta):
    """Reference: the earlier phase-grid solver, frozen as it was.

    Unwraps the phase of f^n on a grid of at least 16 d^n points (doubled
    until every cell's phase increment lies in (0, pi/2]), brackets each of
    the d^n branches, bisects it to 1e-13 and weighs the atoms by the
    chain-rule derivative.
    """
    total = f.degree ** power
    grid_size = max(4096, 1 << (16 * total - 1).bit_length())
    while True:
        thetas = TWO_PI * np.arange(grid_size) / grid_size
        phases = np.unwrap(np.angle(f.boundary_orbit(np.exp(1j * thetas), power)))
        increments = np.append(np.diff(phases), phases[0] + TWO_PI * total - phases[-1])
        if np.all(increments > 0) and np.max(increments) <= 0.5 * math.pi:
            break
        assert grid_size < 2 ** 18, "reference solver found no monotone grid"
        grid_size *= 2
    grid_thetas = np.append(thetas, TWO_PI)
    phases = np.append(phases, phases[0] + TWO_PI * total)
    levels = phases[0] + (alpha_theta - phases[0]) % TWO_PI + TWO_PI * np.arange(total)
    hi_idx = np.clip(np.searchsorted(phases, levels), 1, grid_size)
    lo, hi = grid_thetas[hi_idx - 1], grid_thetas[hi_idx]
    targets = np.exp(1j * levels)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = np.angle(f.boundary_orbit(np.exp(1j * mid), power) * np.conj(targets)) < 0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.max(hi - lo) < 1e-13:
            break
    angles = (0.5 * (lo + hi)) % TWO_PI
    deriv = iterate_derivative_on_circle(f, np.exp(1j * angles), power)
    return angles, 1.0 / np.abs(deriv)


class TestMonomialAtoms:
    """For f = z^d the atoms of mu_alpha are the d-th roots of alpha,
    each with weight 1/d; everything is known in closed form."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_atoms_are_roots(self, d):
        alpha = CirclePoint(1.3)
        mu = clark_measure(monomial(d), alpha)
        expected = sorted((1.3 + TWO_PI * j) / d for j in range(d))
        got = sorted(mu.angles)
        assert np.allclose(got, expected, atol=1e-11)
        assert np.allclose(mu.weights, 1.0 / d, atol=1e-12)

    def test_squared_map_atoms(self):
        solver = BoundaryAtomSolver(monomial(2), power=2)  # f^2 = z^4
        angles = np.sort(solver.atom_angles(0.8))
        expected = [(0.8 + TWO_PI * j) / 4 for j in range(4)]
        assert np.allclose(angles, expected, atol=1e-11)


class TestGeneralAtoms:
    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED])
    def test_atoms_solve_the_equation(self, f):
        alpha = CirclePoint(2.1)
        mu = clark_measure(f, alpha)
        assert len(mu.atoms) == f.degree
        vals = f.boundary_step(np.exp(1j * mu.angles))
        assert np.allclose(vals, alpha.value, atol=1e-10)

    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED])
    def test_probability_measure(self, f):
        for theta in np.linspace(0.1, 6.1, 7):
            mu = clark_measure(f, CirclePoint(float(theta)))
            assert abs(float(np.sum(mu.weights)) - 1.0) < 1e-10
            assert np.all(mu.weights > 0)

    def test_power_two_has_squared_atom_count(self):
        mu = clark_measure(DEG2_HALF, CirclePoint(0.5), power=2)
        assert len(mu.atoms) == 4
        assert abs(float(np.sum(mu.weights)) - 1.0) < 1e-10

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            BoundaryAtomSolver(DEG2_HALF, power=13)  # 2^13 atoms


class TestClarkMeasureArray:
    def test_atoms_are_one_read_only_array(self):
        mu = clark_measure(DEG2_HALF, CirclePoint(1.0), power=3)
        assert mu.atoms.shape == (8, 2)
        assert np.shares_memory(mu.angles, mu.atoms)
        assert np.shares_memory(mu.weights, mu.atoms)
        with pytest.raises(ValueError):
            mu.atoms[0, 1] = 0.5
        assert mu.to_dict()["atoms"] == [[t, w] for t, w in mu.atoms.tolist()]

    def test_angles_are_canonical(self):
        # -5e-324 % 2 pi rounds to 2 pi, which must become 0
        mu = ClarkMeasure(CirclePoint(0.0), [[-5e-324, 0.25], [TWO_PI, 0.25], [7.0, 0.5]], 2)
        assert mu.angles.tolist() == [0.0, 0.0, 7.0 % TWO_PI]

    def test_rejects_ragged_atoms(self):
        with pytest.raises(ValueError):
            ClarkMeasure(CirclePoint(0.0), [1.0, 0.5], 1)


class TestPullback:
    PARITY_CASES = ([("z2", monomial(2), n) for n in range(1, 11)]
                    + [("deg2-half", DEG2_HALF, n) for n in range(1, 11)]
                    + [("z3", monomial(3), n) for n in range(1, 7)]
                    + [("deg3-mixed", DEG3_MIXED, n) for n in range(1, 5)])

    @pytest.mark.parametrize("name,f,power", PARITY_CASES,
                             ids=[f"{c[0]}-n{c[2]}" for c in PARITY_CASES])
    def test_matches_bisection_reference(self, name, f, power):
        solver = BoundaryAtomSolver(f, power)
        for alpha in (0.37, 4.2):
            angles, weights = solver.atoms(alpha)
            ref_angles, ref_weights = bisection_atoms(f, power, alpha)
            assert np.all(np.diff(angles) > 0)
            assert np.max(np.abs(angles - ref_angles)) <= 1e-12
            assert np.max(np.abs(weights - ref_weights)) <= 1e-12

    def test_deg2_half_power_twelve(self):
        mu = clark_measure(DEG2_HALF, CirclePoint(1.1), power=12)
        assert len(mu.atoms) == 4096
        assert abs(float(np.sum(mu.weights)) - 1.0) < 1e-10

    @pytest.mark.parametrize("r,power", [(0.99, 1), (0.99, 2), (0.99, 3),
                                         (0.999, 1), (0.999, 2)])
    def test_zero_near_the_circle(self, r, power):
        f = near_circle_map(r)
        for theta in (0.3, 2.5, 4.4):
            alpha = CirclePoint(theta)
            mu = clark_measure(f, alpha, power)
            assert len(mu.atoms) == 3 ** power
            assert abs(float(np.sum(mu.weights)) - 1.0) < 1e-10
            landing = f.boundary_orbit(np.exp(1j * mu.angles), power) - alpha.value
            assert np.max(np.abs(landing)) <= 1e-8
            assert check_first_moment(f, alpha, power) <= 1e-8
            assert check_second_moment(f, alpha, power) <= 1e-8

    def test_newton_polish_at_a_nearly_unimodular_zero(self):
        # |f'| reaches ~2e6, so the eigenvalue roots alone land up to ~1e-9 off
        f = near_circle_map(1.0 - 1e-6)
        for theta in (0.3, 2.5, 4.4):
            angles, _ = BoundaryAtomSolver(f).atoms(theta)
            assert np.max(np.abs(f.boundary_step(np.exp(1j * angles)) - cmath.exp(1j * theta))) <= 2e-10

    def test_desintegrate_matches_per_alpha_atoms(self):
        observable = lambda z: np.real(z) ** 2 + z ** 3
        double, _ = desintegrate(DEG3_MIXED, observable, k_alpha=64, power=2)
        solver = BoundaryAtomSolver(DEG3_MIXED, 2)
        inner = []
        for alpha in TWO_PI * np.arange(64) / 64:
            angles, weights = solver.atoms(alpha)
            inner.append(np.sum(weights * observable(np.exp(1j * angles))))
        assert abs(double - np.mean(inner)) <= 1e-14


class TestMomentIdentities:
    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED, monomial(2)])
    def test_first_and_second_moments(self, f):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(0, TWO_PI, 20):
            assert check_first_moment(f, CirclePoint(float(theta))) < 1e-8
            assert check_second_moment(f, CirclePoint(float(theta))) < 1e-8

    def test_moments_for_iterate(self):
        assert check_first_moment(DEG2_HALF, CirclePoint(1.0), power=2) < 1e-8
        assert check_second_moment(DEG2_HALF, CirclePoint(1.0), power=2) < 1e-8

    def test_monomial_first_moment_vanishes(self):
        # f'(0) = 0 for z^2, so int z d mu_alpha = 0
        mu = clark_measure(monomial(2), CirclePoint(0.9))
        assert abs(mu.moment(1)) < 1e-12


class TestDesintegration:
    @pytest.mark.parametrize("f", [DEG2_HALF, monomial(2)])
    def test_recovers_lebesgue_integral(self, f):
        _, res = desintegrate(f, lambda z: np.real(z) ** 2 + z ** 3, k_alpha=512)
        assert res < 1e-8

    def test_rejects_coarse_alpha_grid(self):
        with pytest.raises(ValueError):
            desintegrate(DEG2_HALF, lambda z: z, k_alpha=8)


class TestMomentPolynomial:
    def test_first_coefficient_is_iterate_derivative(self):
        # order 1: int conj(z) d mu_alpha = conj over first Taylor coefficient
        for power in (1, 2, 3):
            poly = moment_polynomial(DEG2_HALF, power, 1)
            assert len(poly.coeffs) == 1
            assert abs(poly.coeffs[0] - jet_of_iterate(DEG2_HALF, power).c1) < 1e-10

    def test_eval_matches_atomic_moment(self):
        alpha = CirclePoint(1.7)
        mu = clark_measure(DEG2_HALF, alpha, power=2)
        poly = moment_polynomial(DEG2_HALF, 2, 1)
        assert abs(np.conj(poly.eval_at(alpha.value)) - mu.moment(1)) < 1e-8

    def test_monomial_bound_vacuous(self):
        check = check_moment_bound(monomial(2), 3, 1)
        assert check.vacuous
        assert check.passed

    def test_onset_past_the_budget(self):
        # powers 14 and 15 raise BudgetExceeded, which counts as failing
        assert moment_bound_onset(DEG2_HALF, range(1, 16)) is None

    def test_bound_eventually_holds(self):
        onset = moment_bound_onset(DEG2_HALF, range(1, 8), order_cap=2)
        assert onset is not None
        for power in range(onset, 8):
            for order in (1, min(2, power)):
                assert check_moment_bound(DEG2_HALF, power, order).passed
